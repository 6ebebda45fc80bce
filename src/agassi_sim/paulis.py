"""Exact algebra of Pauli strings and the Jordan-Wigner fermion-to-qubit map.

Conventions used throughout the package:

* Qubits are labelled 1..n.  Qubit 1 is the *leftmost* tensor factor and the
  most significant digit of a computational-basis index.
* Single-qubit matrices are the standard ones, ``Z = diag(+1, -1)``, so the
  first basis vector of each factor is the spin-up (sigma^z = +1) state.
* ``sigma^{+-} = (X +- iY)/2``.  The annihilation operator of fermionic mode
  ``i`` maps to ``sigma^-_i`` followed by a string of ``Z`` on all higher
  modes ``i+1..n`` (trailing-Z convention); the creation operator is the
  conjugate.  Mode occupation therefore corresponds to spin-up.

All values are immutable; every operation is a pure function, so the types
are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PRUNE_TOL = 1e-14
"""Coefficients at or below this magnitude are dropped during canonicalization."""

MATRIX_QUBIT_LIMIT = 12
"""Largest qubit count for which dense matrices may be requested."""

# Single-site products: (a, b) -> (phase, c) with a*b = phase*c.
_LETTER_PRODUCT = {
    ("I", "I"): (1.0, "I"),
    ("I", "X"): (1.0, "X"),
    ("I", "Y"): (1.0, "Y"),
    ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"),
    ("Y", "I"): (1.0, "Y"),
    ("Z", "I"): (1.0, "Z"),
    ("X", "X"): (1.0, "I"),
    ("Y", "Y"): (1.0, "I"),
    ("Z", "Z"): (1.0, "I"),
    ("X", "Y"): (1.0j, "Z"),
    ("Y", "X"): (-1.0j, "Z"),
    ("Y", "Z"): (1.0j, "X"),
    ("Z", "Y"): (-1.0j, "X"),
    ("Z", "X"): (1.0j, "Y"),
    ("X", "Z"): (-1.0j, "Y"),
}


class CapacityError(ValueError):
    """Raised when a dense-matrix request exceeds the qubit-count guard."""


@dataclass(frozen=True)
class PauliString:
    """A weighted tensor product of single-site Pauli letters.

    ``letters`` holds one character per qubit from ``{I, X, Y, Z}``; qubit 1
    is ``letters[0]``.
    """

    coefficient: complex
    letters: str

    def __post_init__(self):
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)}")
        object.__setattr__(self, "coefficient", complex(self.coefficient))

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return sum(1 for c in self.letters if c != "I")

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        phase = 1.0 + 0.0j
        out = []
        for a, b in zip(self.letters, other.letters):
            p, c = _LETTER_PRODUCT[(a, b)]
            phase *= p
            out.append(c)
        return PauliString(self.coefficient * other.coefficient * phase, "".join(out))

    def __neg__(self) -> "PauliString":
        return PauliString(-self.coefficient, self.letters)

    def scaled(self, factor: complex) -> "PauliString":
        return PauliString(self.coefficient * factor, self.letters)

    def unit(self) -> "PauliString":
        """The same letters with coefficient 1."""
        return PauliString(1.0, self.letters)

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the strings commute (even number of clashing sites)."""
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        clashes = sum(
            1
            for a, b in zip(self.letters, other.letters)
            if a != "I" and b != "I" and a != b
        )
        return clashes % 2 == 0

    def __repr__(self):
        return f"PauliString({self.coefficient!r}, {self.letters!r})"


def pauli(letters: str, coefficient: complex = 1.0) -> PauliString:
    """Shorthand constructor, ``pauli("XIZ", 0.5)``."""
    return PauliString(coefficient, letters)


@dataclass(frozen=True)
class PauliSum:
    """A canonical sum of Pauli strings over a common qubit count.

    Canonical form: terms sorted by letters, at most one term per letter
    sequence, no term with ``|coefficient| <= PRUNE_TOL``.  Use
    :meth:`from_terms` to build one from arbitrary ingredients.
    """

    terms: tuple[PauliString, ...]
    n: int

    @classmethod
    def from_terms(cls, terms, n: int | None = None) -> "PauliSum":
        terms = list(terms)
        if n is None:
            if not terms:
                raise ValueError("qubit count required for an empty sum")
            n = terms[0].n
        merged: dict[str, complex] = {}
        for t in terms:
            if t.n != n:
                raise ValueError(f"qubit counts differ: {t.n} vs {n}")
            merged[t.letters] = merged.get(t.letters, 0.0) + t.coefficient
        kept = tuple(
            PauliString(c, s)
            for s, c in sorted(merged.items())
            if abs(c) > PRUNE_TOL
        )
        return cls(kept, n)

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls((), n)

    @classmethod
    def identity(cls, n: int, coefficient: complex = 1.0) -> "PauliSum":
        return cls.from_terms([PauliString(coefficient, "I" * n)], n)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, letters: str) -> complex:
        """Coefficient of the given letter sequence (0 if absent)."""
        for t in self.terms:
            if t.letters == letters:
                return t.coefficient
        return 0.0

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        return PauliSum.from_terms(self.terms + other.terms, self.n)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum(tuple(-t for t in self.terms), self.n)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.n != other.n:
                raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
            prods = [a * b for a in self.terms for b in other.terms]
            return PauliSum.from_terms(prods, self.n)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum.from_terms([t.scaled(factor) for t in self.terms], self.n)

    def adjoint(self) -> "PauliSum":
        """Conjugate transpose (strings are Hermitian, so conjugate coefficients)."""
        return PauliSum.from_terms(
            [PauliString(np.conj(t.coefficient), t.letters) for t in self.terms],
            self.n,
        )

    def hermitian(self, tol: float = 1e-12) -> bool:
        """Whether the sum equals its own adjoint (all coefficients real)."""
        return all(abs(t.coefficient.imag) <= tol for t in self.terms)

    def without_identity(self) -> "PauliSum":
        """Drop the identity-string component (a constant energy offset)."""
        ident = "I" * self.n
        return PauliSum(tuple(t for t in self.terms if t.letters != ident), self.n)

    def __repr__(self):
        body = " + ".join(f"({t.coefficient:.6g})*{t.letters}" for t in self.terms)
        return f"PauliSum[n={self.n}]({body or '0'})"


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a b - b a`` in canonical form."""
    return a * b - b * a


@dataclass(frozen=True)
class FermionWord:
    """An ordered product of fermionic mode operators.

    ``factors`` is a sequence of ``(mode, dagger)``; the leftmost factor acts
    last, as in the written operator product.
    """

    factors: tuple[tuple[int, bool], ...]

    @classmethod
    def parse(cls, spec: str) -> "FermionWord":
        """Build from text such as ``"1+ 3"`` meaning ``c_1^dag c_3``."""
        factors = []
        for token in spec.split():
            if token.endswith("+"):
                factors.append((int(token[:-1]), True))
            else:
                factors.append((int(token), False))
        return cls(tuple(factors))


def annihilation(mode: int) -> FermionWord:
    return FermionWord(((mode, False),))


def creation(mode: int) -> FermionWord:
    return FermionWord(((mode, True),))


def _jw_factor(mode: int, dagger: bool, n: int) -> PauliSum:
    # c_i -> 1/2 (X - iY)_i tensor Z_{i+1..n};  c_i^dag the conjugate.
    x = ["I"] * n
    x[mode - 1] = "X"
    for k in range(mode, n):
        x[k] = "Z"
    y = list(x)
    y[mode - 1] = "Y"
    ycoeff = 0.5j if dagger else -0.5j
    return PauliSum.from_terms(
        [PauliString(0.5, "".join(x)), PauliString(ycoeff, "".join(y))], n
    )


def jw_map(word: FermionWord, n: int) -> PauliSum:
    """Jordan-Wigner image of a fermionic operator product on n modes.

    Each mode operator expands to the two-string image of ``sigma^{+-}``
    with its trailing Z string; the factors are multiplied in written order
    and returned canonically.
    """
    for mode, _ in word.factors:
        if not 1 <= mode <= n:
            raise ValueError(f"mode {mode} outside 1..{n}")
    result = PauliSum.identity(n)
    for mode, dagger in word.factors:
        result = result * _jw_factor(mode, dagger, n)
    return result


@lru_cache(maxsize=512)
def pauli_action(letters: str) -> tuple[int, np.ndarray]:
    """How a unit string acts on the basis: ``(x_mask, phase)`` with
    ``P|k> = phase[k] |k ^ x_mask>``, where bit ``n - q`` stands for qubit q
    (qubit 1 is the most significant bit), X and Y flip it, and
    ``phase[k] = i^n_y (-1)^popcount(k & z_mask)`` with Z and Y in the z
    mask.  The phase array is read-only and shared by every caller.
    """
    n = len(letters)
    x_mask = z_mask = 0
    for i, c in enumerate(letters):
        bit = 1 << (n - 1 - i)
        if c in "XY":
            x_mask |= bit
        if c in "YZ":
            z_mask |= bit
    k = np.arange(2**n, dtype=np.int64)
    phase = 1j ** letters.count("Y") * (1.0 - 2.0 * (np.bitwise_count(k & z_mask) & 1))
    phase.setflags(write=False)
    return x_mask, phase


def x_blocks(op: PauliSum) -> tuple[tuple[int, np.ndarray], ...]:
    """The sum as one permuted diagonal per distinct x mask, ``((x, d_x), ...)``
    with ``op|k> = sum_x d_x[k] |k ^ x>``."""
    blocks: dict[int, np.ndarray] = {}
    for t in op.terms:
        x_mask, phase = pauli_action(t.letters)
        blocks[x_mask] = blocks.get(x_mask, 0.0) + t.coefficient * phase
    return tuple(blocks.items())


def to_matrix(op: PauliSum | PauliString) -> np.ndarray:
    """Dense ``2^n x 2^n`` matrix of a Pauli sum or string.

    Guarded at ``n <= MATRIX_QUBIT_LIMIT``; intended as the small-system
    testing oracle.  Each x block of the sum fills one permuted diagonal,
    ``M[k ^ x, k] = d_x[k]``.
    """
    if isinstance(op, PauliString):
        op = PauliSum.from_terms([op])
    if op.n > MATRIX_QUBIT_LIMIT:
        raise CapacityError(
            f"dense matrix for n={op.n} exceeds the n<={MATRIX_QUBIT_LIMIT} guard"
        )
    dim = 2**op.n
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for x_mask, d in x_blocks(op):
        out[idx ^ x_mask, idx] = d
    return out
