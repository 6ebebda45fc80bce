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
* What a letter means is said in one place, the decoder :func:`pauli_masks`,
  ``P = i^n_y X^x Z^z`` on bit masks, and its inverse :func:`pauli_letters`.
  Products and commutation are read from the masks (Aaronson and Gottesman,
  PRA 70, 052328 (2004)); no table of letter products exists.

All values are immutable; every operation is a pure function, so the types
are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .checks import finite, integer, same_qubits, text

PRUNE_TOL = 1e-14
"""Coefficients at or below this magnitude are dropped during canonicalization."""

MATRIX_QUBIT_LIMIT = 12
"""Largest qubit count for which dense matrices may be requested."""

# i^k for k = 0..3, Python's own values (signed zeros included), which repeat with period 4
_I_POWERS = np.array([1j**k for k in range(4)])


class CapacityError(ValueError):
    """Raised when a dense-matrix request exceeds the qubit-count guard."""

    def __init__(self, n: int):
        super().__init__(f"dense matrix for n={n} exceeds the n<={MATRIX_QUBIT_LIMIT} guard")


@dataclass(frozen=True)
class PauliString:
    """A weighted tensor product of single-site Pauli letters.

    ``letters`` holds one character per qubit from ``{I, X, Y, Z}``; qubit 1
    is ``letters[0]``.
    """

    coefficient: complex
    letters: str

    def __post_init__(self):
        bad = set(text(self.letters, "letters")) - set("IXYZ")
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
        """The product, read from both strings' masks: ``P = i^n_y X^x Z^z``
        per site, so ``P1 P2 = i^(y1 + y2) (-1)^popcount(z1 & x2) X^(x1 ^ x2)
        Z^(z1 ^ z2)``, and the product's own ``n_y`` is ``popcount(x & z)``."""
        if not isinstance(other, PauliString):
            return NotImplemented
        n = same_qubits(self.n, other.n)
        x1, z1, y1 = pauli_masks(self.letters)
        x2, z2, y2 = pauli_masks(other.letters)
        x, z = x1 ^ x2, z1 ^ z2
        phase = 1j ** ((y1 + y2 - (x & z).bit_count() + 2 * (z1 & x2).bit_count()) & 3)
        return PauliString(self.coefficient * other.coefficient * phase, pauli_letters(x, z, n))

    def __neg__(self) -> "PauliString":
        return PauliString(-self.coefficient, self.letters)

    def scaled(self, factor: complex) -> "PauliString":
        return PauliString(self.coefficient * factor, self.letters)

    def unit(self) -> "PauliString":
        """The same letters with coefficient 1."""
        return PauliString(1.0, self.letters)

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the strings commute: ``popcount(x1 & z2 ^ z1 & x2)`` is even."""
        same_qubits(self.n, other.n)
        x1, z1, _ = pauli_masks(self.letters)
        x2, z2, _ = pauli_masks(other.letters)
        return ((x1 & z2) ^ (z1 & x2)).bit_count() % 2 == 0

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
    :meth:`from_terms` to build one from arbitrary ingredients.  Every
    construction, direct or not, refuses a coefficient that is not finite
    with a ``ValueError`` naming its letters.
    """

    terms: tuple[PauliString, ...]
    n: int

    def __post_init__(self):
        for t in self.terms:
            finite(abs(t.coefficient), f"coefficient of {t.letters}")

    @classmethod
    def from_terms(cls, terms, n: int | None = None) -> "PauliSum":
        terms = list(terms)
        if n is None:
            if not terms:
                raise ValueError("qubit count required for an empty sum")
            n = terms[0].n
        merged: dict[str, complex] = {}
        for t in terms:
            same_qubits(t.n, n)
            merged[t.letters] = merged.get(t.letters, 0.0) + t.coefficient
        return cls(_kept(PauliString(c, s) for s, c in sorted(merged.items())), n)

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

    @cached_property
    def _hash(self) -> int:
        return hash((self.terms, self.n))

    def __hash__(self) -> int:
        """The dataclass hash of the fields, computed once: the sum is frozen."""
        return self._hash

    def __getstate__(self) -> dict:
        """The fields only: str hashes are salted per process, so a cached
        hash must not be pickled."""
        return {"terms": self.terms, "n": self.n}

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
        return PauliSum.from_terms(self.terms + other.terms, same_qubits(self.n, other.n))

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum(tuple(-t for t in self.terms), self.n)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            same_qubits(self.n, other.n)
            prods = [a * b for a in self.terms for b in other.terms]
            return PauliSum.from_terms(prods, self.n)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, factor: complex) -> "PauliSum":
        """Every coefficient times factor; the letters stay sorted and
        distinct, so only terms at or below PRUNE_TOL are dropped.  A factor
        or product that is not finite is refused."""
        finite(abs(factor), "factor")
        return PauliSum(_kept(t.scaled(factor) for t in self.terms), self.n)

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


def _kept(terms) -> tuple[PauliString, ...]:
    """The terms not at or below PRUNE_TOL; a NaN is kept, for the sum to refuse."""
    return tuple(t for t in terms if not abs(t.coefficient) <= PRUNE_TOL)


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
    # Qubit i is bit n - i, so the Z string fills the bits below it.
    bit = 1 << (n - mode)
    ycoeff = 0.5j if dagger else -0.5j
    return PauliSum.from_terms(
        [PauliString(0.5, pauli_letters(bit, bit - 1, n)),
         PauliString(ycoeff, pauli_letters(bit, bit | (bit - 1), n))], n
    )


def jw_map(word: FermionWord, n: int) -> PauliSum:
    """Jordan-Wigner image of a fermionic operator product on n modes.

    Each mode operator expands to the two-string image of ``sigma^{+-}``
    with its trailing Z string; the factors are multiplied in written order
    and returned canonically.
    """
    integer(n, "n", 0)
    for mode, _ in word.factors:
        if not 1 <= mode <= n:
            raise ValueError(f"mode {mode} outside 1..{n}")
    result = PauliSum.identity(n)
    for mode, dagger in word.factors:
        result = result * _jw_factor(mode, dagger, n)
    return result


@lru_cache(maxsize=512)
def pauli_masks(letters: str) -> tuple[int, int, int]:
    """The one Pauli decoder: how a unit string acts on the basis, ``(x_mask,
    z_mask, n_y)`` with ``P|k> = i^n_y (-1)^popcount(k & z_mask) |k ^
    x_mask>``, where bit ``n - q`` stands for qubit q (qubit 1 is the most
    significant bit), X and Y flip it and Z and Y are in the z mask.  It holds
    no array: :func:`pauli_phases` evaluates the phases on a caller's indices.
    """
    n = len(letters)
    x_mask = z_mask = 0
    for i, c in enumerate(letters):
        bit = 1 << (n - 1 - i)
        if c in "XY":
            x_mask |= bit
        if c in "YZ":
            z_mask |= bit
    return x_mask, z_mask, letters.count("Y")


def pauli_letters(x_mask: int, z_mask: int, n: int) -> str:
    """The n letters of the unit string with these masks, the inverse of
    :func:`pauli_masks`: a bit in x alone is X, in z alone Z, in both Y."""
    return "".join(["IXZY"[(x_mask >> k & 1) | (z_mask >> k & 1) << 1]
                    for k in range(n - 1, -1, -1)])


def pauli_phases(strings, index: np.ndarray) -> np.ndarray:
    """``phases[s, ...] = i^n_y (-1)^popcount(index & z_mask)`` of each string
    (its letters; the coefficient is ignored) at the integer basis indices
    ``index`` of any shape, in one numpy pass; shape ``(len(strings),
    *index.shape)``."""
    index = np.asarray(index)
    masks = [pauli_masks(s.letters) for s in strings]
    shape = (-1,) + (1,) * index.ndim
    z = np.array([z for _, z, _ in masks], dtype=np.int64).reshape(shape)
    n_y = np.array([n_y for _, _, n_y in masks], dtype=np.int64).reshape(shape)
    return _I_POWERS[n_y & 3] * (1.0 - 2.0 * (np.bitwise_count(index & z) & 1))


def x_span(x_masks) -> np.ndarray:
    """Every XOR of some x masks, each once and 0 first (built by doubling); a
    sum with these x masks maps basis state k into ``k ^ x_span(...)``."""
    span = np.zeros(1, dtype=np.int64)
    for x in x_masks:
        if x not in span:
            span = np.concatenate([span, span ^ x])
    return span


def x_masks_of(op) -> list[int]:
    """The x mask of each term of a sum (or each string of a sequence), in
    order, read from :func:`pauli_masks` alone."""
    return [pauli_masks(t.letters)[0] for t in op]


def cosets(x_masks, n: int, seeds=None) -> np.ndarray:
    """The cosets ``least ^ x_span(x_masks)`` in [0, 2^n), one row each with
    its smallest index ``least`` first, in order of it: every coset or those
    holding one of the 1-d integer ``seeds``.  A mask or seed outside [0,
    2^n) is refused with a ``ValueError``."""
    x_masks = list(x_masks)
    if not all(0 <= x < 2**n for x in x_masks):
        raise ValueError(f"x masks must lie in [0, 2^{n}), got {x_masks!r}")
    span = x_span(x_masks)
    if seeds is None:
        k = least = np.arange(2**n)
        for x in x_masks:  # least[k] becomes the smallest index of k's coset
            least = np.minimum(least, least[k ^ x])
        return np.flatnonzero(least == k)[:, None] ^ span
    seeds = np.asarray(seeds)
    # seeds >> n is nonzero for a seed outside [0, 2^n)
    if seeds.ndim != 1 or not np.issubdtype(seeds.dtype, np.integer) or np.any(seeds >> n):
        raise ValueError(f"seeds must be 1-d integer basis indices in [0, 2^{n}), got {seeds!r}")
    least = sorted(set((seeds[:, None] ^ span).min(axis=1).tolist()))
    return np.array(least, dtype=np.int64)[:, None] ^ span


def row_places(rows: np.ndarray, n: int, x_masks) -> np.ndarray:
    """``places[i, ..., a]``, the place in its row of ``rows[..., a] ^
    x_masks[i]``, shape ``(len(x_masks), *rows.shape)``, for rows of shape
    (..., d) of basis indices.  The rows must hold at least one index, the
    indices must be integers in [0, 2^n), each at most once in all rows, and
    every row closed under every mask; anything else is refused with a
    ``ValueError``."""
    rows = np.asarray(rows)
    if rows.ndim < 1 or not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"rows must be an array of integer basis indices, got {rows!r}")
    if not rows.size:
        raise ValueError(f"rows must hold at least one basis index, got {rows!r}")
    flat = rows.reshape(-1)
    if not (flat.min() >= 0 and flat.max() < 2**n):
        raise ValueError(f"rows hold a basis index outside [0, 2^{n})")
    # where[k], the place of index k in the flattened rows (-1 if absent)
    where = np.full(2**n, -1, dtype=np.int64)
    place = np.arange(flat.size)
    where[flat] = place
    if np.any(where[flat] != place):  # a repeat keeps only its last place
        raise ValueError("rows hold a basis index more than once")
    d = rows.shape[-1]
    places = np.empty((len(x_masks), flat.size), dtype=np.int64)
    for i, x_mask in enumerate(x_masks):
        target = where[flat ^ x_mask]
        if np.any(target // d != place // d):
            raise ValueError(f"rows are not closed under the x mask {x_mask:#b}")
        places[i] = target % d
    return places.reshape((len(x_masks),) + rows.shape)


def to_matrix(op: PauliSum | PauliString, rows: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix ``M[..., a, b] = <rows[a]|op|rows[b]>`` of a Pauli sum or
    string, shape (..., d, d), on ``rows`` of shape (..., d): disjoint sets of
    distinct basis indices, each closed under the sum's x masks (cosets of
    their span), as :func:`row_places` checks.  The default, every index in
    order, is the full ``2^n x 2^n`` matrix.

    Guarded at ``n <= MATRIX_QUBIT_LIMIT``.  One :func:`pauli_phases` pass on
    the rows gives every term's ``coefficient * phase[k]``, scattered to
    ``M[pos[k ^ x], pos[k]]`` (``pos[k]`` the place of k in its row) for all
    terms at once, in term order, so no array spans all ``2^n`` indices
    unless the rows do.
    """
    if isinstance(op, PauliString):
        op = PauliSum.from_terms([op])
    if op.n > MATRIX_QUBIT_LIMIT:
        raise CapacityError(op.n)
    rows = np.arange(2**op.n) if rows is None else np.asarray(rows)
    group: dict[int, int] = {}  # the place of each distinct x mask in row_places
    owner = [group.setdefault(x, len(group)) for x in x_masks_of(op)]
    places = row_places(rows, op.n, list(group))
    flat = rows.reshape(-1, rows.shape[-1])
    m, d = flat.shape
    weights = np.array([t.coefficient for t in op.terms])[:, None, None]
    values = (weights * pauli_phases(op.terms, flat)).ravel()
    # term t at k = flat[r, a] adds to M[r, pos[k ^ x_t], a]; bincount keeps term order
    cells = places.reshape(-1, m, d)[owner] * d + np.arange(m)[:, None] * d * d + np.arange(d)
    out = np.empty(m * d * d, dtype=complex)
    out.real = np.bincount(cells.ravel(), values.real, out.size)
    out.imag = np.bincount(cells.ravel(), values.imag, out.size)
    return out.reshape(rows.shape + rows.shape[-1:])
