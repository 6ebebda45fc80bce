"""Dense state-vector simulation: exact evolution, Pauli exponentials, observables.

Basis convention (shared with :mod:`agassi_sim.paulis`): qubit 1 is the most
significant digit of the basis index, and digit 0 is spin-up (sigma^z = +1),
so the all-up state is index 0 and |down down up up> is index 0b1100 = 12.
Spin patterns accept the characters ``u``/``d`` or the arrows.

Pauli strings are applied as a bit-mask index permutation plus a per-index
phase, never by matrix multiplication; dense matrices appear only inside
:class:`ExactPropagator`, the spectral oracle for exp(-iHt) at n <= 12.

State vectors are owned exclusively while being evolved; all functions here
return fresh vectors and may be called concurrently on distinct states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paulis import PauliString, PauliSum, pauli_masks, to_matrix, z_signs

NORM_TOL = 1e-8
UNITARITY_TOL = 1e-10

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


@lru_cache(maxsize=512)
def _pauli_action(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """Precomputed (target indices, phases) for applying a unit Pauli string.

    Applying the string maps amplitude ``a[k]`` to ``phase[k] * a[k]`` at
    index ``target[k]``.
    """
    n = len(letters)
    x_mask, z_mask, n_y = pauli_masks(letters)
    target = np.arange(2**n, dtype=np.int64) ^ x_mask
    return target, (1j**n_y) * z_signs(z_mask, n)


def apply_pauli(state: StateVector, p: PauliString) -> np.ndarray:
    """Raw amplitudes of ``p|state>`` (coefficient included, no norm check)."""
    if p.n != state.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {state.n}")
    target, phases = _pauli_action(p.letters)
    out = np.empty_like(state.amplitudes)
    out[target] = p.coefficient * phases * state.amplitudes
    return out


def apply_pauli_exponential(state: StateVector, p: PauliString, theta: float) -> StateVector:
    """exp(-i theta P) |state> for a Pauli string with real unit coefficient.

    Uses P^2 = I, so the exponential is cos(theta) - i sin(theta) P.  A
    coefficient of -1 is absorbed as a sign flip of theta.
    """
    c = p.coefficient
    if abs(c.imag) > 1e-12 or abs(abs(c.real) - 1.0) > 1e-12:
        raise ValueError(f"coefficient must be +1 or -1, got {c}")
    eff = theta * c.real
    target, phases = _pauli_action(p.letters)
    out = np.empty_like(state.amplitudes)
    out[target] = state.amplitudes * phases
    out = np.cos(eff) * state.amplitudes - 1j * np.sin(eff) * out
    return StateVector(out, state.n)


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
    """<state|O|state> for a Hermitian observable; the tiny imaginary
    residue of the floating-point sum is discarded."""
    if not observable.hermitian(tol=UNITARITY_TOL):
        raise ValueError("observable must be Hermitian")
    if observable.n != state.n:
        raise ValueError(f"qubit counts differ: {observable.n} vs {state.n}")
    total = 0.0 + 0.0j
    for term in observable.terms:
        total += np.vdot(state.amplitudes, apply_pauli(state, term))
    return float(total.real)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; symmetric and insensitive to global phases."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
