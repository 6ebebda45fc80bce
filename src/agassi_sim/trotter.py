"""First-order digital evolution of the j=1 model.

One step of the decomposition is

    U_step = exp[-i (h1+h2) dt] * exp[-i h3 dt],        dt = t / n_T,

read as an operator product, so the interaction block acts first.  h1+h2 is
diagonal and h3 is the product of its eight commuting string exponentials,
so the whole digital error comes from the non-commuting pair (h1+h2 | h3)
and shrinks like 1/n_T.  A step is one layer of the rotation kernel of
:mod:`agassi_sim.statevector`: the eight strings share x mask 1111 and are
one 2x2 rotation per index pair {k, k ^ 1111}, with the diagonal folded in.

Every digital run steps through :func:`coset_steps` and
:func:`coset_states`: the step on given basis indices closed under its x
masks (1111 and 0), such as the initial state's coset of H's x-mask span (2
states at j = 1), or on every index (rows None), batched over step sizes.
Per index the arithmetic is that of the full-space evolution, so the
results agree bitwise.  :func:`trotter_evolve` is one row of
:func:`coset_states` on every index.

Schedules are immutable and shareable; evolutions allocate fresh state.
General j has no closed split and is not supported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .checks import finite, integer, real, same_qubits
from .model import INTERACTION_STRINGS, ModelParams, build_hamiltonian, build_split_j1
from .paulis import PauliString, PauliSum
from .statevector import StateVector, apply_steps, exact_evolve, fidelity, rotation_steps


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
        integer(self.n_T, "n_T", 1)
        finite(real(self.t, "t"), "t", "nonnegative")
        for string, _ in self.interaction_layer:
            if string.coefficient != 1:
                raise ValueError(
                    f"interaction string {string.letters} has coefficient "
                    f"{string.coefficient}; fold it into the angle and use 1"
                )

    @property
    def dt(self) -> float:
        return self.t / self.n_T

    @property
    def layer(self) -> tuple[tuple[PauliString, float], ...]:
        """One step as one layer of the rotation kernel: the interaction
        strings, then the diagonal terms."""
        diagonal = tuple((t.unit(), t.coefficient.real) for t in self.diagonal_block.terms)
        return self.interaction_layer + diagonal


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


def coset_steps(start: np.ndarray, rows: np.ndarray | None, params: ModelParams,
                dts: np.ndarray) -> Iterator[np.ndarray]:
    """A state's amplitudes ``start`` on ``rows`` (1-d basis indices closed
    under the step's x masks, outside which the state is zero; None for
    every index) under repeated steps of each size in dts: an iterator of the
    states after 1, 2, ... steps, one row per size, shape (len(dts),
    len(rows)).  The inputs are checked on the call, before any step."""
    layer = build_schedule(params, 1.0, 1).layer
    steps = rotation_steps(layer, params.n_qubits, finite(dts, "dts"), rows)
    width = 2**params.n_qubits if rows is None else len(rows)
    if np.shape(start) != (width,):
        raise ValueError(f"start must hold {width} amplitudes, one per row, "
                         f"got shape {np.shape(start)}")

    def states(amps):
        while True:
            amps = apply_steps(amps, steps)
            yield amps

    return states(np.broadcast_to(start, (len(dts), width)))


def coset_states(start: np.ndarray, rows: np.ndarray | None, params: ModelParams,
                 times: np.ndarray, n_T: int) -> np.ndarray:
    """The states of :func:`coset_steps` at many times, each reached in n_T
    steps of its own size; shape (len(times), len(rows))."""
    dts = finite(times, "times") / integer(n_T, "n_T", 1)
    return next(islice(coset_steps(start, rows, params, dts), n_T - 1, None))


def trotter_evolve(state: StateVector, params: ModelParams, t: float, n_T: int) -> StateVector:
    """Digitally evolved state after n_T first-order steps to time t: the one
    row of :func:`coset_states` on every index."""
    same_qubits(params.n_qubits, state.n)
    t = finite(real(t, "t"), "t", "nonnegative")
    return StateVector(coset_states(state.amplitudes, None, params, [t], n_T)[0], state.n)


def digital_error(state: StateVector, params: ModelParams, t: float, n_T: int) -> float:
    """1 - fidelity between the exact and the digital state at time t."""
    exact = exact_evolve(state, build_hamiltonian(params), t)
    digital = trotter_evolve(state, params, t, n_T)
    return 1.0 - fidelity(exact, digital)
