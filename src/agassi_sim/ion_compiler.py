"""Compilation of digital schedules to a trapped-ion native gate set.

Native gates and their unitaries (list order = application order):

* ``Rotation(axis, angle, qubit)``: exp(-i angle/2 * sigma^axis) on one ion.
* ``MS(angle, axis, qubits)``: the Molmer-Sorensen gate
  exp(-i angle/4 * (sum_{q in qubits} sigma^x_q)^2); the compiler fixes the
  x axis.  On two ions this is an XX interaction, on four ions a collective
  entangler.
* ``GlobalPhase(angle)``: multiplies the state by exp(i angle), emitted so a
  compiled program reproduces the schedule unitary exactly rather than up to
  phase.  Phase gates are bookkeeping and are excluded from gate counts.

Each four-body string exponential is realized as a pair of collective MS
gates enclosing one local rotation, dressed with single-qubit basis changes:
an x-basis MS sandwich around a z (y) rotation on a host ion k natively
yields exp(-i a Y_k X X X) (exp(-i a Z_k X X X)), so the host letter can
never be X and uniform strings need a conversion pair of their own.  The
emission policy below keeps every block exact while reproducing the
conventional per-step accounting of 52 single-qubit and 50 two-qubit
equivalent gates (a four-ion MS is booked as three two-qubit gates):

* ``XXXX``: host rotation on qubit 1 plus a Y->X conversion pair (3 singles),
* the six two-Y strings: host on the first Y with a Z->Y pair, plus an X->Y
  pair on the other Y (5 singles each),
* ``YYYY``: host natively on qubit 1, X->Y pairs on the rest (7 singles).

A program is one Trotter step run ``n_steps`` times; every reader works on
that one period.  Compilation is pure and sequences are immutable.
:func:`simulate_sequence` repeats the period through the rotation kernel of
:mod:`agassi_sim.statevector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Union

import numpy as np

from .checks import finite, integer, probability, real, same_qubits
from .paulis import PauliString
from .statevector import StateVector, apply_steps, rotation_steps
from .trotter import TrotterSchedule

HALF_PI = np.pi / 2


class CompilationError(ValueError):
    """Raised for schedules outside the supported gate templates."""


@dataclass(frozen=True)
class Rotation:
    axis: str
    angle: float
    qubit: int

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"rotation axis must be x, y or z, got {self.axis!r}")
        finite(real(self.angle, "angle"), "angle")
        integer(self.qubit, "qubit", 1)


@dataclass(frozen=True)
class MS:
    angle: float
    axis: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        finite(real(self.angle, "angle"), "angle")
        if self.axis != "x":
            raise ValueError("only x-basis MS gates are emitted by this compiler")
        if not isinstance(self.qubits, tuple):
            raise ValueError(f"MS qubits must be a tuple, got {self.qubits!r}")
        if len(self.qubits) < 2:
            raise ValueError("an MS gate acts on at least two ions")
        for q in self.qubits:
            integer(q, "MS qubit", 1)
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"bad MS qubit set {self.qubits}")


@dataclass(frozen=True)
class GlobalPhase:
    angle: float

    def __post_init__(self):
        finite(real(self.angle, "angle"), "angle")


NativeGate = Union[Rotation, MS, GlobalPhase]


def _highest_ion(gates) -> int:
    """The largest ion index the gates act on, 0 for none."""
    return max((max(g.qubits) if isinstance(g, MS) else g.qubit
                for g in gates if not isinstance(g, GlobalPhase)), default=0)


@dataclass(frozen=True)
class GateSequence:
    """A compiled program: the gates of one ``step`` in application order
    over n_qubits ions, run ``n_steps`` times; ``len`` counts every gate."""

    n_qubits: int
    step: tuple[NativeGate, ...]
    n_steps: int = 1

    def __post_init__(self):
        integer(self.n_qubits, "n_qubits", 0)
        integer(self.n_steps, "n_steps", 1)
        if not isinstance(self.step, tuple):
            raise ValueError(f"step must be a tuple of gates, got {self.step!r}")
        for gate in self.step:
            if not isinstance(gate, NativeGate):
                raise ValueError(f"step entry {gate!r} is not a Rotation, MS or GlobalPhase")
        top = _highest_ion(self.step)
        if top > self.n_qubits:
            raise ValueError(f"gate qubit {top} exceeds n_qubits={self.n_qubits}")

    def __len__(self):
        return len(self.step) * self.n_steps


@dataclass(frozen=True)
class StepCounts:
    single_qubit: int
    two_qubit_equivalent: int
    collective_ms: int


@dataclass(frozen=True)
class GateCounts:
    """Totals plus per-Trotter-step counts; a 4-ion MS counts as three
    two-qubit gates, phase gates count as nothing."""

    single_qubit: int
    two_qubit_equivalent: int
    collective_ms: int
    per_trotter_step: StepCounts


@dataclass(frozen=True)
class ErrorBudget:
    """Aggregate first-order gate-error estimate n_T * (n1*e1 + n2*e2)."""

    e1: float
    e2: float
    total: float

    @property
    def projected_fidelity(self) -> float | None:
        """1 - total when that is meaningful, else None."""
        if self.total < 1.0:
            return 1.0 - self.total
        return None


def _rz(q: int, angle: float) -> Rotation:
    return Rotation("z", angle, q)


def _four_body_block(letters: str, alpha: float, n: int) -> list[NativeGate]:
    """Gates realizing exp(-i alpha P) for a weight-4 X/Y string P."""
    if len(letters) != n or any(c not in "IXY" for c in letters):
        raise CompilationError(f"unsupported interaction string {letters!r}")
    support = tuple(i + 1 for i, c in enumerate(letters) if c != "I")
    if len(support) != 4:
        raise CompilationError(
            f"unsupported string weight {len(support)} in {letters!r}"
        )
    y_sites = tuple(i + 1 for i, c in enumerate(letters) if c == "Y")

    if not y_sites:
        # exp(-ia XXXX): host the rotation on qubit 1 and convert its native
        # Y back to X with an R_z pair.
        host = support[0]
        pre = [_rz(host, +HALF_PI)]
        mid = Rotation("z", -2 * alpha, host)
        post = [_rz(host, -HALF_PI)]
    elif len(y_sites) == len(support):
        # exp(-ia YYYY): the host provides its own Y; rotate X into Y on the
        # remaining sites.
        host = y_sites[0]
        others = y_sites[1:]
        pre = [_rz(q, -HALF_PI) for q in others]
        mid = Rotation("z", -2 * alpha, host)
        post = [_rz(q, +HALF_PI) for q in others]
    else:
        # Mixed string with two Y letters: y-axis host rotation gives a Z
        # there, converted to Y with an R_x pair; the other Y gets an R_z pair.
        host, other = y_sites[0], y_sites[1]
        pre = [Rotation("x", +HALF_PI, host), _rz(other, -HALF_PI)]
        mid = Rotation("y", 2 * alpha, host)
        post = [Rotation("x", -HALF_PI, host), _rz(other, +HALF_PI)]

    return [
        *pre,
        MS(+HALF_PI, "x", support),
        mid,
        MS(-HALF_PI, "x", support),
        *post,
    ]


def _zz_block(pair: tuple[int, int], beta: float) -> list[NativeGate]:
    """Gates realizing exp(-i beta Z_a Z_b) via one two-ion MS gate."""
    a, b = pair
    return [
        Rotation("y", +HALF_PI, a),
        Rotation("y", +HALF_PI, b),
        MS(2 * beta, "x", (a, b)),
        GlobalPhase(beta),
        Rotation("y", -HALF_PI, a),
        Rotation("y", -HALF_PI, b),
    ]


_H2_PAIRS = ((1, 2), (3, 4))


def compile_schedule(schedule: TrotterSchedule) -> GateSequence:
    """Native-gate program whose unitary equals the schedule's evolution.

    Emits, per step and in application order, the four-body interaction
    blocks, then one z rotation per qubit for the single-Z part of the
    diagonal block, then one MS block per ZZ pair.  Rotations with zero
    angle are still emitted so gate counts depend only on the schedule
    shape, not on parameter values.
    """
    n = schedule.diagonal_block.n
    if n != 4:
        raise CompilationError(f"compiler targets the 4-ion model, got n={n}")
    dt = schedule.dt

    z_coeff = {q: 0.0 for q in range(1, n + 1)}
    zz_coeff = {pair: 0.0 for pair in _H2_PAIRS}
    for term in schedule.diagonal_block.terms:
        sites = tuple(i + 1 for i, c in enumerate(term.letters) if c != "I")
        if any(term.letters[q - 1] != "Z" for q in sites):
            raise CompilationError(f"non-diagonal term {term.letters!r}")
        if len(sites) == 1:
            z_coeff[sites[0]] = term.coefficient.real
        elif len(sites) == 2 and sites in zz_coeff:
            zz_coeff[sites] = term.coefficient.real
        else:
            raise CompilationError(
                f"diagonal term {term.letters!r} outside the h1/h2 template"
            )

    step: list[NativeGate] = []
    for string, rate in schedule.interaction_layer:
        step.extend(_four_body_block(string.letters, rate * dt, n))
    for q in range(1, n + 1):
        step.append(_rz(q, 2 * z_coeff[q] * dt))
    for pair in _H2_PAIRS:
        step.extend(_zz_block(pair, zz_coeff[pair] * dt))

    return GateSequence(n, tuple(step), schedule.n_T)


def count_gates(sequence: GateSequence) -> GateCounts:
    """Totals and per-step counts under the three-two-qubit-per-collective
    accounting; counts are structural and independent of gate angles."""
    singles = sum(1 for g in sequence.step if isinstance(g, Rotation))
    native_two = sum(
        1 for g in sequence.step if isinstance(g, MS) and len(g.qubits) == 2
    )
    collective = sum(
        1 for g in sequence.step if isinstance(g, MS) and len(g.qubits) > 2
    )
    per_step = StepCounts(singles, 3 * collective + native_two, collective)
    n = sequence.n_steps
    return GateCounts(n * per_step.single_qubit, n * per_step.two_qubit_equivalent,
                      n * per_step.collective_ms, per_step)


def error_budget(counts: GateCounts, e1: float, e2: float, n_T: int) -> ErrorBudget:
    """Linear gate-error accounting from per-step counts and error rates."""
    e1, e2 = probability(e1, "e1"), probability(e2, "e2")
    integer(n_T, "n_T", 1)
    per_step = counts.per_trotter_step
    total = n_T * (per_step.single_qubit * e1 + per_step.two_qubit_equivalent * e2)
    return ErrorBudget(e1=e1, e2=e2, total=total)


def _unit_string(n: int, *sites: tuple[int, str]) -> PauliString:
    """Unit string with letter c on each listed ``(qubit, c)``, I elsewhere."""
    letters = dict(sites)
    return PauliString(1.0, "".join(letters.get(q, "I") for q in range(1, n + 1)))


def _gate_layer(gate: NativeGate, n: int) -> tuple:
    """The gate as rotation-layer entries ``(unit string, angle)``."""
    if isinstance(gate, Rotation):
        return ((_unit_string(n, (gate.qubit, gate.axis.upper())), gate.angle / 2),)
    if isinstance(gate, MS):
        # (sum_q X_q)^2 = |S| I + 2 sum_{q<r} X_q X_r, all terms commuting.
        pairs = combinations(gate.qubits, 2)
        return ((_unit_string(n), gate.angle * len(gate.qubits) / 4),
                *((_unit_string(n, (q, "X"), (r, "X")), gate.angle / 2) for q, r in pairs))
    if isinstance(gate, GlobalPhase):
        return ((_unit_string(n), -gate.angle),)
    raise TypeError(f"unknown gate {gate!r}")


def _sequence_steps(sequence: GateSequence) -> tuple:
    """Kernel factors of one period of a program."""
    n = sequence.n_qubits
    return rotation_steps(tuple(e for g in sequence.step for e in _gate_layer(g, n)), n, np.ones(1))


def simulate_sequence(state: StateVector, sequence: GateSequence) -> StateVector:
    """Apply every native gate of a program by its defining unitary."""
    same_qubits(sequence.n_qubits, state.n)
    amps = apply_steps(state.amplitudes[None, :], _sequence_steps(sequence), sequence.n_steps)
    return StateVector(amps[0], state.n)


def sequence_to_text(sequence: GateSequence) -> str:
    """Line-oriented serialization of every step; angles keep full double precision."""
    lines = [f"# qubits={sequence.n_qubits} steps={sequence.n_steps}"]
    for gate in sequence.step:
        if isinstance(gate, Rotation):
            lines.append(f"R {gate.axis} {gate.angle!r} {gate.qubit}")
        elif isinstance(gate, MS):
            qubits = ",".join(str(q) for q in gate.qubits)
            lines.append(f"MS {gate.angle!r} {gate.axis} {qubits}")
        else:
            lines.append(f"PHASE {gate.angle!r}")
    return "\n".join(lines[:1] + lines[1:] * sequence.n_steps) + "\n"


def sequence_from_text(text: str) -> GateSequence:
    """Parse the serialization produced by :func:`sequence_to_text`."""
    n_qubits = None
    n_steps = 1
    gates: list[NativeGate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("qubits="):
                    n_qubits = int(token.split("=", 1)[1])
                elif token.startswith("steps="):
                    n_steps = int(token.split("=", 1)[1])
            continue
        parts = line.split()
        if parts[0] == "R" and len(parts) == 4:
            gates.append(Rotation(parts[1], float(parts[2]), int(parts[3])))
        elif parts[0] == "MS" and len(parts) == 4:
            qubits = tuple(int(tok) for tok in parts[3].split(","))
            gates.append(MS(float(parts[1]), parts[2], qubits))
        elif parts[0] == "PHASE" and len(parts) == 2:
            gates.append(GlobalPhase(float(parts[1])))
        else:
            raise ValueError(f"unparseable gate line {raw!r}")
    if n_qubits is None:
        n_qubits = _highest_ion(gates)
    if n_steps < 1 or gates[: len(gates) // n_steps] * n_steps != gates:
        raise ValueError(f"the {len(gates)} gate lines are not steps={n_steps} repeats of one step")
    return GateSequence(n_qubits, tuple(gates[: len(gates) // n_steps]), n_steps)
