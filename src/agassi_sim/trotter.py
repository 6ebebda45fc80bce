"""First-order digital evolution of the j=1 model.

One step of the decomposition is

    U_step = exp[-i (h1+h2) dt] * exp[-i h3 dt],        dt = t / n_T,

read as an operator product, so the interaction block acts on the state
first.  h1+h2 is diagonal in the z basis and is applied exactly as per-basis
phases.  h3 is the product of its eight mutually commuting string
exponentials, which is likewise exact for the block, so the whole digital
error comes from the single non-commuting pair (h1+h2 | h3) and shrinks like
1/n_T.  All eight strings flip the same bits (x mask 1111), so the block is
applied as one 2x2 rotation on each index pair {k, k ^ 1111}.

Schedules are immutable and shareable; evolutions allocate fresh state.
General j has no closed split and is not supported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import INTERACTION_STRINGS, ModelParams, build_hamiltonian, build_split_j1
from .paulis import PauliString, PauliSum, pauli_masks, z_signs
from .statevector import StateVector, exact_evolve, fidelity


@dataclass(frozen=True)
class TrotterSchedule:
    """Everything needed to run (and compile) the digital evolution.

    ``interaction_layer`` holds ``(string, angle_per_unit_time)`` pairs in
    the canonical listing order; the exponential applied per step is
    ``exp(-i * angle_per_unit_time * dt * string)``, so every string has
    coefficient 1.  The layer is empty exactly when g + V = 0, in which case
    the schedule is error-free.
    """

    diagonal_block: PauliSum
    interaction_layer: tuple[tuple[PauliString, float], ...]
    n_T: int
    t: float

    def __post_init__(self):
        if not (isinstance(self.n_T, int) and self.n_T >= 1):
            raise ValueError(f"n_T must be a positive integer, got {self.n_T!r}")
        if not self.t >= 0:
            raise ValueError(f"t must be nonnegative, got {self.t!r}")
        for string, _ in self.interaction_layer:
            if string.coefficient != 1:
                raise ValueError(
                    f"interaction string {string.letters} has coefficient "
                    f"{string.coefficient}; fold it into the angle and use 1"
                )

    @property
    def dt(self) -> float:
        return self.t / self.n_T


def build_schedule(params: ModelParams, t: float, n_T: int) -> TrotterSchedule:
    """Schedule for evolving to time t in n_T first-order steps (j = 1)."""
    if params.j != 1:
        raise NotImplementedError("digital schedules are implemented for j = 1 only")
    split = build_split_j1(params)
    strength = params.control
    if strength == 0.0:
        layer: tuple[tuple[PauliString, float], ...] = ()
    else:
        layer = tuple(
            (PauliString(1.0, letters), -sign * strength / 8)
            for letters, sign in INTERACTION_STRINGS
        )
    return TrotterSchedule(
        diagonal_block=split.diagonal,
        interaction_layer=layer,
        n_T=n_T,
        t=t,
    )


@lru_cache(maxsize=256)
def diagonal_energies(diagonal_block: PauliSum) -> np.ndarray:
    """Eigenvalue of a Z-only sum on every computational basis state."""
    energies = np.zeros(2**diagonal_block.n)
    for term in diagonal_block.terms:
        x_mask, z_mask, _ = pauli_masks(term.letters)
        if x_mask:
            raise ValueError(f"{term.letters} is not diagonal in the z basis")
        energies += term.coefficient.real * z_signs(z_mask, diagonal_block.n)
    energies.setflags(write=False)
    return energies


@lru_cache(maxsize=64)
def _rotation_groups(layer: tuple[tuple[PauliString, float], ...],
                     n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The interaction layer as ``(flip, size, coupling)`` groups, in layer order.

    A group is a run of consecutive strings that share one x mask and
    commute, so its ordered product is the exponential of its sum.  That
    sum couples only the index pairs {k, k ^ x}, where it is the 2x2 block
    ``[[0, conj(w[k])], [w[k], 0]]`` with ``w = sum_s rate_s * phase_s``.
    Its exponential over a step dt is ``out[k] = cos(dt size[k]) a[k] +
    sin(dt size[k]) coupling[k] a[flip[k]]``, with ``flip[k] = k ^ x``,
    ``size = |w|`` and ``coupling[k] = -i w[k ^ x] / |w[k ^ x]|``.
    """
    runs: list[tuple[int, list[tuple[PauliString, float]]]] = []
    for string, rate in layer:
        x_mask = pauli_masks(string.letters)[0]
        if (runs and runs[-1][0] == x_mask
                and all(string.commutes_with(s) for s, _ in runs[-1][1])):
            runs[-1][1].append((string, rate))
        else:
            runs.append((x_mask, [(string, rate)]))
    groups = []
    for x_mask, members in runs:
        w = np.zeros(2**n, dtype=complex)
        for string, rate in members:
            _, z_mask, n_y = pauli_masks(string.letters)
            w += rate * 1j**n_y * z_signs(z_mask, n)
        flip = np.arange(2**n, dtype=np.int64) ^ x_mask
        size = np.abs(w)
        unit = np.divide(w, size, out=np.zeros_like(w), where=size > 0)
        group = (flip, size, -1j * unit[flip])
        for array in group:
            array.setflags(write=False)
        groups.append(group)
    return tuple(groups)


def _batched_schedule_steps(amps: np.ndarray, schedule: TrotterSchedule,
                            dts: np.ndarray) -> np.ndarray:
    """Run a schedule on a batch of states, one step size per batch row.

    ``amps`` has shape (len(dts), 2^n); row k is advanced with step dts[k]
    for schedule.n_T steps.  Each group of the interaction layer (see
    :func:`_rotation_groups`) is one 2x2 rotation on every index pair, and
    the diagonal phases of the step are folded into the last group.
    """
    n = schedule.diagonal_block.n
    diag_phases = np.exp(-1j * np.outer(dts, diagonal_energies(schedule.diagonal_block)))
    steps = []
    for flip, size, coupling in _rotation_groups(schedule.interaction_layer, n):
        angle = np.outer(dts, size)
        steps.append([flip, np.cos(angle), np.sin(angle) * coupling])
    if steps:
        steps[-1][1] = steps[-1][1] * diag_phases
        steps[-1][2] = steps[-1][2] * diag_phases
    for _ in range(schedule.n_T):
        for flip, stay, swap in steps:
            amps = stay * amps + swap * amps[:, flip]
        if not steps:
            amps = diag_phases * amps
    return amps


def evolve_schedule(state: StateVector, schedule: TrotterSchedule) -> StateVector:
    """Apply every step of a schedule to a state."""
    amps = _batched_schedule_steps(
        state.amplitudes[None, :], schedule, np.array([schedule.dt])
    )
    return StateVector(amps[0], state.n)


def trotter_evolve(state: StateVector, params: ModelParams, t: float, n_T: int) -> StateVector:
    """Digitally evolved state after n_T first-order steps to time t."""
    return evolve_schedule(state, build_schedule(params, t, n_T))


def trotter_states_at(state: StateVector, params: ModelParams,
                      times: np.ndarray, n_T: int) -> np.ndarray:
    """Digital states at many times, each reached in n_T steps of its own
    size; shape (len(times), 2^n).  The per-time results are identical to
    ``trotter_evolve`` but the grid is advanced as one batch."""
    times = np.asarray(times, dtype=float)
    schedule = build_schedule(params, 1.0, n_T)
    amps = np.broadcast_to(state.amplitudes, (len(times), len(state.amplitudes))).copy()
    return _batched_schedule_steps(amps, schedule, times / n_T)


def digital_error(state: StateVector, params: ModelParams, t: float, n_T: int) -> float:
    """1 - fidelity between the exact and the digital state at time t."""
    exact = exact_evolve(state, build_hamiltonian(params), t)
    digital = trotter_evolve(state, params, t, n_T)
    return 1.0 - fidelity(exact, digital)
