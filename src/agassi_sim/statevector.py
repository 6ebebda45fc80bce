"""Dense state-vector simulation: exact evolution, Pauli rotations, observables.

Basis convention (shared with :mod:`agassi_sim.paulis`): qubit 1 is the most
significant digit of the basis index, and digit 0 is spin-up (sigma^z = +1),
so the all-up state is index 0 and |down down up up> is index 0b1100 = 12.
Spin patterns accept the characters ``u``/``d`` or the arrows.

Pauli strings act as bit-mask index permutations plus per-index phases.  Any
product of Pauli exponentials (one exponential, a Trotter step, a compiled
program) runs through one kernel, :func:`rotation_steps` and :func:`apply_steps`;
dense matrices appear only in :class:`ExactPropagator`, the n <= 12 oracle.

State vectors are owned exclusively while being evolved; all functions here
return fresh vectors and may be called concurrently on distinct states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paulis import PauliString, PauliSum, pauli_action, to_matrix, x_blocks

NORM_TOL = 1e-8
UNITARITY_TOL = 1e-10
_TINY = np.finfo(float).tiny

_UP_CHARS = {"u", "U", "↑"}
_DOWN_CHARS = {"d", "D", "↓"}


@dataclass
class StateVector:
    """2^n complex amplitudes with unit Euclidean norm."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(
                f"expected {2**self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {nrm} is not 1 within {NORM_TOL}")
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), self.n)


@dataclass(frozen=True)
class TimeSeries:
    """Real observable samples over strictly increasing times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.times)


def parse_spin_pattern(pattern) -> tuple[int, ...]:
    """Spin labels -> tuple of bits (0 = up, 1 = down), qubit 1 first."""
    bits = []
    for ch in pattern:
        if ch in _UP_CHARS:
            bits.append(0)
        elif ch in _DOWN_CHARS:
            bits.append(1)
        else:
            raise ValueError(f"unknown spin label {ch!r}; use u/d or arrows")
    if not bits:
        raise ValueError("empty spin pattern")
    return tuple(bits)


def basis_index(pattern) -> int:
    """Basis index of a spin pattern under the module convention."""
    index = 0
    for b in parse_spin_pattern(pattern):
        index = (index << 1) | b
    return index


def basis_state(pattern) -> StateVector:
    """Computational basis vector for a per-qubit up/down pattern."""
    n = len(parse_spin_pattern(pattern))
    amps = np.zeros(2**n, dtype=complex)
    amps[basis_index(pattern)] = 1.0
    return StateVector(amps, n)


def apply_pauli(state: StateVector, p: PauliString) -> np.ndarray:
    """Raw amplitudes of ``p|state>`` (coefficient included, no norm check)."""
    if p.n != state.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {state.n}")
    x_mask, phase = pauli_action(p.letters)
    return (p.coefficient * phase * state.amplitudes)[np.arange(2**state.n) ^ x_mask]


@lru_cache(maxsize=16)
def _rotation_groups(layer: tuple, n: int) -> tuple:
    """The layer's groups as ``(x_masks, flip, w, size, coupling)``, one
    row per group (arrays read-only).  A group is a run of consecutive
    commuting strings with one x mask, so its product is the exponential of
    its sum, the 2x2 block ``[[0, conj(w[k])], [w[k], 0]]`` on each pair
    {k, k ^ x} with ``w = sum_s rate_s * phase_s``.  Over a step dt it maps
    ``a[k]`` to ``cos(dt size[k]) a[k] + sin(dt size[k]) coupling[k] a[flip[k]]``
    with ``flip[k] = k ^ x``, ``size = |w|`` and ``coupling[k] = -i w[k ^ x] /
    |w[k ^ x]|``; for x = 0, w is real and this is ``exp(-i dt w[k]) a[k]``.
    """
    x_masks, members, rows = [], [], []
    for string, _ in layer:
        x_mask = pauli_action(string.letters)[0]
        if not (x_masks and x_masks[-1] == x_mask
                and all(string.commutes_with(s) for s in members[-1])):
            x_masks.append(x_mask)
            members.append([])
        members[-1].append(string)
        rows.append(len(x_masks) - 1)
    w = np.zeros((len(x_masks), 2**n), dtype=complex)
    terms = [rate * pauli_action(s.letters)[1] for s, rate in layer]
    np.add.at(w, rows, np.reshape(terms, (len(terms), 2**n)))
    flip = np.arange(2**n, dtype=np.int64) ^ np.array(x_masks, dtype=np.int64)[:, None]
    size = np.abs(w)
    # numpy divides complex by 1/|w|, which overflows for subnormal |w|;
    # a rotation that small is the identity to double precision.
    unit = np.divide(w, size, out=np.zeros_like(w), where=size >= _TINY)
    groups = (flip, w, size, -1j * np.take_along_axis(unit, flip, axis=1))
    for array in groups:
        array.setflags(write=False)
    return (tuple(x_masks), *groups)


def rotation_steps(layer: tuple, n: int, dts: np.ndarray) -> tuple:
    """The ``(flip, stay, swap)`` factors of a layer of ``(unit string, rate)``
    entries, the ordered product of ``exp(-i rate dt string)``, one row per dt.

    A group with x = 0 (a diagonal block or a global phase) is the phase
    ``exp(-i dt w)``; it folds into the group before it at no pass of its own.
    """
    x_masks, flip, w, size, coupling = _rotation_groups(layer, n)
    angle = dts[:, None] * size[:, None, :]
    stay, swap = np.cos(angle), np.sin(angle) * coupling[:, None, :]
    phase = np.exp(-1j * (dts[:, None] * w.real[:, None, :]))
    steps = []
    for g, x_mask in enumerate(x_masks):
        if x_mask == 0:
            f, s, sw = steps.pop() if steps else (flip[g], 1.0, 0.0)
            steps.append((f, s * phase[g], sw * phase[g]))
        else:
            steps.append((flip[g], stay[g], swap[g]))
    return tuple(steps)


def apply_steps(amps: np.ndarray, steps, repeats: int = 1) -> np.ndarray:
    """Apply the factors of :func:`rotation_steps` in order, ``repeats``
    times, to a batch of states of shape (rows, 2^n)."""
    for _ in range(repeats):
        for flip, stay, swap in steps:
            amps = stay * amps + swap * amps[:, flip]
    return amps


def apply_pauli_exponential(state: StateVector, p: PauliString, theta: float) -> StateVector:
    """exp(-i theta P) |state> for a Pauli string with coefficient +1 or -1
    (a sign flip of theta): a one-entry rotation layer run for a step theta.
    """
    c = p.coefficient
    if abs(c.imag) > 1e-12 or abs(abs(c.real) - 1.0) > 1e-12:
        raise ValueError(f"coefficient must be +1 or -1, got {c}")
    steps = rotation_steps(((p.unit(), 1.0),), state.n, np.array([theta * c.real]))
    return StateVector(apply_steps(state.amplitudes[None, :], steps)[0], state.n)


class ExactPropagator:
    """Spectral propagator exp(-iHt) for a Hermitian Pauli sum, n <= 12.

    The eigendecomposition is computed once; states at arbitrary times then
    cost one small matrix-vector product each.
    """

    def __init__(self, hamiltonian: PauliSum):
        if not hamiltonian.hermitian(tol=UNITARITY_TOL):
            raise ValueError("Hamiltonian must be Hermitian")
        self.n = hamiltonian.n
        matrix = to_matrix(hamiltonian)  # raises CapacityError beyond the guard
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(matrix)

    def evolve(self, state: StateVector, t: float) -> StateVector:
        coeffs = self.eigenvectors.conj().T @ state.amplitudes
        amps = self.eigenvectors @ (np.exp(-1j * self.eigenvalues * t) * coeffs)
        return StateVector(amps, self.n)

    def states_at(self, state: StateVector, times: np.ndarray) -> np.ndarray:
        """Amplitudes at many times, shape (len(times), 2^n)."""
        coeffs = self.eigenvectors.conj().T @ state.amplitudes
        phases = np.exp(-1j * np.outer(np.asarray(times, float), self.eigenvalues))
        return (phases * coeffs) @ self.eigenvectors.T


@lru_cache(maxsize=64)
def _cached_propagator(hamiltonian: PauliSum) -> ExactPropagator:
    return ExactPropagator(hamiltonian)


def exact_evolve(state: StateVector, hamiltonian: PauliSum, t: float) -> StateVector:
    """exp(-iHt)|state> through the dense spectral oracle."""
    if hamiltonian.n != state.n:
        raise ValueError(f"qubit counts differ: {hamiltonian.n} vs {state.n}")
    return _cached_propagator(hamiltonian).evolve(state, t)


def expectation(state: StateVector, observable: PauliSum) -> float:
    """<state|O|state> for a Hermitian observable, one ``vdot`` per x block,
    ``sum_x <psi[k ^ x] | d_x[k] psi[k]>``; the tiny imaginary residue of
    the floating-point sum is discarded."""
    if not observable.hermitian(tol=UNITARITY_TOL):
        raise ValueError("observable must be Hermitian")
    if observable.n != state.n:
        raise ValueError(f"qubit counts differ: {observable.n} vs {state.n}")
    psi, idx = state.amplitudes, np.arange(2**state.n)
    return float(np.real(sum(np.vdot(psi[idx ^ x], d * psi) for x, d in x_blocks(observable))))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; symmetric and insensitive to global phases."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
