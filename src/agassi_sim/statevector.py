"""Dense state-vector simulation: exact evolution, Pauli rotations, observables.

Basis convention (shared with :mod:`agassi_sim.paulis`): qubit 1 is the most
significant digit of the basis index, and digit 0 is spin-up (sigma^z = +1),
so the all-up state is index 0 and |down down up up> is index 0b1100 = 12.
Spin patterns accept the characters ``u``/``d`` or the arrows.

Pauli strings act as bit-mask index permutations plus per-index phases;
:mod:`agassi_sim.paulis` decodes each string into masks once and evaluates its
phases only on the indices in use (``pauli_phases``, ``x_blocks``).  Any
product of Pauli exponentials (one exponential, a Trotter step, a compiled
program) runs through one kernel, :func:`rotation_steps` and :func:`apply_steps`.
Every exact path, :class:`ExactPropagator` (n <= 12, on the cosets a state
touches) and the experiments' series alike, evolves a stack of blocks on
``paulis.cosets`` by the one evaluation :func:`coset_evolution`:
:func:`hermitian_spectra`, :func:`spectral_coeffs`, then :func:`spectral_states`.
The experiments' search evaluates its spectra on uniform grids by the phase
tables of :func:`spectral_grid_states`.

State vectors are owned exclusively while being evolved; all functions here
return fresh vectors and may be called concurrently on distinct states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .checks import finite, real, same_qubits
from .paulis import (MATRIX_QUBIT_LIMIT, CapacityError, PauliString, PauliSum, cosets,
                     pauli_phases, row_places, to_matrix, x_blocks, x_masks_of)

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
        if not abs(nrm - 1.0) <= NORM_TOL:  # also refuses a NaN norm
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


@lru_cache(maxsize=16)
def _rotation_groups(strings: tuple, n: int, rows: tuple | None) -> tuple:
    """What a layer's factors need of its unit strings on ``rows`` (every
    index when None), not of its rates: ``(x_masks, owner, flip, phases)``
    (arrays read-only).  A group is a run of consecutive commuting strings
    with one x mask, so its product is the exponential of its sum;
    ``owner[s]`` is the group of string s, ``flip[g, k]`` the place of ``k ^
    x_masks[g]`` in rows (checked by ``row_places``) and ``phases[s, k]``
    string s's phase at ``rows[k]``.  Every layer with these strings, at any
    rates, shares one entry.
    """
    x_masks, members, owner = [], [], []
    for string, x_mask in zip(strings, x_masks_of(strings)):
        if not (x_masks and x_masks[-1] == x_mask
                and all(string.commutes_with(s) for s in members[-1])):
            x_masks.append(x_mask)
            members.append([])
        members[-1].append(string)
        owner.append(len(x_masks) - 1)
    index = np.arange(2**n) if rows is None else np.array(rows, dtype=np.int64)
    flip = row_places(index, n, x_masks)
    phases = pauli_phases(strings, index)
    owner = np.array(owner, dtype=np.intp)
    for array in (owner, flip, phases):
        array.setflags(write=False)
    return tuple(x_masks), owner, flip, phases


def rotation_steps(layer: tuple, n: int, dts: np.ndarray, rows: np.ndarray | None = None) -> tuple:
    """The ``(flip, stay, swap)`` factors of a layer of ``(unit string, rate)``
    entries, the ordered product of ``exp(-i rate dt string)``, one row per dt.

    Each group of :func:`_rotation_groups` is the 2x2 block ``[[0,
    conj(w[k])], [w[k], 0]]`` on each pair {k, k ^ x}, with ``w = sum_s rate_s
    * phase_s`` weighed here on every call.  Over a step dt it maps ``a[k]``
    to ``cos(dt size[k]) a[k] + sin(dt size[k]) coupling[k] a[flip[k]]`` with
    ``size = |w|`` and ``coupling[k] = -i w[k ^ x] / |w[k ^ x]|``.  A group
    with x = 0 (a diagonal block or a global phase) has a real w and is the
    phase ``exp(-i dt w)``; it folds into the group before it at no pass of
    its own.

    ``rows`` (1-d integers) are the basis indices the factors act on, closed
    under the layer's x masks, and ``flip`` holds places in it; the default
    is every index.
    """
    if rows is not None:
        rows = np.asarray(rows)
        # before the cache lookup: float rows would hit the entry of equal integers
        if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"rows must be a 1-d array of integer basis indices, got {rows!r}")
        rows = tuple(rows.tolist())
    x_masks, owner, flip, phases = _rotation_groups(tuple(s for s, _ in layer), n, rows)
    w = np.zeros(flip.shape, dtype=complex)
    np.add.at(w, owner, np.array([rate for _, rate in layer])[:, None] * phases)
    size = np.abs(w)
    # numpy divides complex by 1/|w|, which overflows for subnormal |w|;
    # a rotation that small is the identity to double precision.
    unit = np.divide(w, size, out=np.zeros_like(w), where=size >= _TINY)
    coupling = -1j * np.take_along_axis(unit, flip, axis=1)
    steps = []
    for g, x_mask in enumerate(x_masks):
        if x_mask == 0:
            phase = np.exp(-1j * (dts[:, None] * w[g].real))
            f, s, sw = steps.pop() if steps else (flip[g], 1.0, 0.0)
            steps.append((f, s * phase, sw * phase))
        else:
            angle = dts[:, None] * size[g]
            steps.append((flip[g], np.cos(angle), np.sin(angle) * coupling[g]))
    return tuple(steps)


def apply_steps(amps: np.ndarray, steps, repeats: int = 1) -> np.ndarray:
    """Apply the factors of :func:`rotation_steps` in order, ``repeats``
    times, to a batch of states of shape (rows, d), d the factors' width."""
    for _ in range(repeats):
        for flip, stay, swap in steps:
            amps = stay * amps + swap * amps[:, flip]
    return amps


def apply_pauli_exponential(state: StateVector, p: PauliString, theta: float) -> StateVector:
    """exp(-i theta P) |state> for a Pauli string with coefficient +1 or -1
    (a sign flip of theta): a one-entry rotation layer run for a step theta.
    """
    finite(real(theta, "theta"), "theta")
    same_qubits(p.n, state.n)
    c = p.coefficient
    if abs(c.imag) > 1e-12 or abs(abs(c.real) - 1.0) > 1e-12:
        raise ValueError(f"coefficient must be +1 or -1, got {c}")
    steps = rotation_steps(((p.unit(), 1.0),), state.n, np.array([theta * c.real]))
    return StateVector(apply_steps(state.amplitudes[None, :], steps)[0], state.n)


class ExactPropagator:
    """Spectral propagator exp(-iHt) for a Hermitian Pauli sum, n <= 12, on
    ``paulis.cosets`` of H's x masks, which H never mixes; ``cosets`` holds one
    row of basis indices per coset (its smallest first).  Nothing is
    diagonalized on construction: ``eigenvalues`` (cosets, d) and
    ``eigenvectors`` (cosets, d, d), every coset's eigenpairs, are built on
    first access."""

    def __init__(self, hamiltonian: PauliSum):
        self.n = hamiltonian.n
        if self.n > MATRIX_QUBIT_LIMIT:  # before any 2^n array is made
            raise CapacityError(self.n)
        if not hamiltonian.hermitian(tol=UNITARITY_TOL):
            raise ValueError("Hamiltonian must be Hermitian")
        self._hamiltonian = hamiltonian
        self.cosets = cosets(x_masks_of(hamiltonian), self.n)

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        return hermitian_spectra(to_matrix(self._hamiltonian, self.cosets))

    eigenvalues = property(lambda self: self._spectra[0])
    eigenvectors = property(lambda self: self._spectra[1])

    def evolve(self, state: StateVector, t: float) -> StateVector:
        return StateVector(self.states_at(state, [t])[0], self.n)

    def states_at(self, state: StateVector, times: np.ndarray) -> np.ndarray:
        """Amplitudes at many times, shape (len(times), 2^n).  Only the cosets
        where the state has an amplitude are evolved, on H's blocks built there
        by ``to_matrix`` (no full matrix); the others stay zero."""
        same_qubits(self.n, state.n)
        times = np.ravel(finite(times, "times"))
        amps = state.amplitudes[self.cosets]
        live = np.flatnonzero(np.any(amps != 0, axis=1))
        rows = self.cosets[live]
        states = coset_evolution(to_matrix(self._hamiltonian, rows), amps[live], times)
        out = np.zeros((len(times), 2**self.n), dtype=complex)
        out[:, rows.ravel()] = np.concatenate(states, axis=1)
        return out


def hermitian_spectra(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., d) and eigenvectors (..., d, d) of a stack of blocks
    (..., d, d) by one batched ``eigh``, after refusing a block that differs
    from its adjoint by more than UNITARITY_TOL (or holds a NaN)."""
    if not np.abs(blocks - np.swapaxes(blocks, -1, -2).conj()).max() <= UNITARITY_TOL:
        raise ValueError("Hamiltonian must be Hermitian")
    return np.linalg.eigh(blocks)


def spectral_coeffs(eigenvectors: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The coefficients of ``start`` (..., d) in the eigenvectors (..., d, d),
    shape (..., d); a start of shape (d,) serves every stacked basis."""
    return np.einsum("...ij,...i->...j", eigenvectors.conj(), start)


def spectral_states(eigenvalues: np.ndarray, eigenvectors: np.ndarray,
                    coeffs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``sum_m coeffs[m] exp(-i eigenvalues[m] t) eigenvectors[:, m]`` at each
    time, shape (..., len(times), d).  Leading axes batch over Hamiltonians:
    eigenvalues (..., d), eigenvectors (..., d, d), coeffs (..., d) and
    times (..., T)."""
    phases = np.exp(-1j * (times[..., :, None] * eigenvalues[..., None, :]))
    return (phases * coeffs[..., None, :]) @ np.swapaxes(eigenvectors, -1, -2)


def coset_evolution(blocks: np.ndarray, start: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``exp(-i B t) start`` of each block B of a Hermitian stack (..., d, d)
    at each time, shape (..., len(times), d): the one exact evaluation,
    :func:`hermitian_spectra`, :func:`spectral_coeffs` and
    :func:`spectral_states` in turn.  A start of shape (d,) serves every
    block."""
    energies, vectors = hermitian_spectra(blocks)
    return spectral_states(energies, vectors, spectral_coeffs(vectors, start), times)


def spectral_grid_states(eigenvalues: np.ndarray, eigenvectors: np.ndarray, coeffs: np.ndarray,
                         lo: np.ndarray, hi: np.ndarray, samples: int) -> np.ndarray:
    """:func:`spectral_states` of each row (eigenvalues (rows, d),
    eigenvectors (rows, d, d), coeffs (rows, d)) on its uniform grid ``lo +
    k s``, ``s = (hi - lo) / (samples - 1)``, k < samples; shape (rows,
    samples, d).

    With ``k = a m + b`` and ``m = ceil(sqrt(samples))``, the state at k is
    ``(V diag(exp(-i E b s))) (coeffs * exp(-i E (lo + a m s)))``: a table of
    m phased eigenvector matrices times ceil(samples / m) phased coefficient
    columns, in one batched matmul.  So a row takes about 2 sqrt(samples)
    exponentials per eigenvalue, not samples.  m is at most ceil(samples /
    d), so the table never holds many more amplitudes than the states.  The
    times differ from ``np.linspace(lo, hi, samples)`` only by rounding."""
    rows, d = eigenvalues.shape
    m = min(math.isqrt(samples - 1) + 1, -(-samples // d))
    step = (hi - lo) / (samples - 1)
    inner = np.exp(-1j * ((step[:, None] * np.arange(m))[:, :, None] * eigenvalues[:, None, :]))
    # table[r, j, b, i] = V[r, i, j] exp(-i E[r, j] b s)
    table = np.swapaxes(eigenvectors, 1, 2)[:, :, None, :] * np.swapaxes(inner, 1, 2)[..., None]
    starts = np.arange(0, samples, m) * step[:, None] + lo[:, None]
    columns = coeffs[:, None, :] * np.exp(-1j * (starts[:, :, None] * eigenvalues[:, None, :]))
    states = columns @ table.reshape(rows, d, m * d)
    return states.reshape(rows, -1, d)[:, :samples]


def exact_evolve(state: StateVector, hamiltonian: PauliSum, t: float) -> StateVector:
    """exp(-iHt)|state> through the dense spectral oracle."""
    same_qubits(hamiltonian.n, state.n)
    return ExactPropagator(hamiltonian).evolve(state, t)


def expectation(state: StateVector, observable: PauliSum) -> float:
    """<state|O|state> for a Hermitian observable, one ``vdot`` per x block,
    ``sum_x <psi[k ^ x] | d_x[k] psi[k]>`` over the state's support k, where
    the blocks are evaluated; the tiny imaginary residue of the
    floating-point sum is discarded."""
    if not observable.hermitian(tol=UNITARITY_TOL):
        raise ValueError("observable must be Hermitian")
    same_qubits(observable.n, state.n)
    psi = state.amplitudes
    support = np.flatnonzero(psi)
    amps = psi[support]
    return float(np.real(sum(np.vdot(psi[support ^ x], d * amps)
                             for x, d in x_blocks(observable, support))))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; symmetric and insensitive to global phases."""
    same_qubits(a.n, b.n)
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
