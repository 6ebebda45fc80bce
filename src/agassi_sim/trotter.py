"""First-order digital evolution of the j=1 model.

One step of the decomposition is

    U_step = exp[-i (h1+h2) dt] * exp[-i h3 dt],        dt = t / n_T,

read as an operator product, so the interaction block acts first.  h1+h2 is
diagonal and h3 is the product of its eight commuting string exponentials,
so the whole digital error comes from the non-commuting pair (h1+h2 | h3)
and shrinks like 1/n_T.  A step is one layer of the rotation kernel of
:mod:`agassi_sim.statevector`: the eight strings share x mask 1111 and are
one 2x2 rotation per index pair {k, k ^ 1111}, with the diagonal folded in.

Schedules are immutable and shareable; evolutions allocate fresh state.
General j has no closed split and is not supported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import INTERACTION_STRINGS, ModelParams, build_hamiltonian, build_split_j1
from .paulis import PauliString, PauliSum, x_blocks
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
    for x_mask, d in x_blocks(diagonal_block):
        if x_mask:
            raise ValueError(f"{diagonal_block} is not diagonal in the z basis")
        energies += d.real
    energies.setflags(write=False)
    return energies


def _batched_schedule_steps(state: StateVector, schedule: TrotterSchedule,
                            dts: np.ndarray) -> np.ndarray:
    """The state after schedule.n_T steps of each size in dts, one row per
    size, shape (len(dts), 2^n).  A step is the rotation layer of the
    interaction strings followed by the diagonal terms."""
    diagonal = tuple((t.unit(), t.coefficient.real) for t in schedule.diagonal_block.terms)
    steps = rotation_steps(schedule.interaction_layer + diagonal, state.n, dts)
    return apply_steps(state.amplitudes[None, :], steps, schedule.n_T)


def evolve_schedule(state: StateVector, schedule: TrotterSchedule) -> StateVector:
    """Apply every step of a schedule to a state."""
    return StateVector(_batched_schedule_steps(state, schedule, np.array([schedule.dt]))[0], state.n)


def trotter_evolve(state: StateVector, params: ModelParams, t: float, n_T: int) -> StateVector:
    """Digitally evolved state after n_T first-order steps to time t."""
    return evolve_schedule(state, build_schedule(params, t, n_T))


def trotter_states_at(state: StateVector, params: ModelParams,
                      times: np.ndarray, n_T: int) -> np.ndarray:
    """Digital states at many times, each reached in n_T steps of its own
    size; shape (len(times), 2^n).  The per-time results are identical to
    ``trotter_evolve`` but the grid is advanced as one batch."""
    schedule = build_schedule(params, 1.0, n_T)
    return _batched_schedule_steps(state, schedule, np.asarray(times, dtype=float) / n_T)


def digital_error(state: StateVector, params: ModelParams, t: float, n_T: int) -> float:
    """1 - fidelity between the exact and the digital state at time t."""
    exact = exact_evolve(state, build_hamiltonian(params), t)
    digital = trotter_evolve(state, params, t, n_T)
    return 1.0 - fidelity(exact, digital)
