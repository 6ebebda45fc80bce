"""Agassi-model Hamiltonian construction on qubits.

The model describes N = 4j fermions in two Omega = 2j fold degenerate levels
split by ``epsilon``, with a pairing interaction of strength ``g`` and a
monopole-monopole interaction of strength ``V``:

    H = epsilon*J0 - g * sum_{s,s'} Adag_s A_s' - (V/2) * (Jp^2 + Jm^2)

The collective operators J+-, J0 and the pair operators A_{+-1} are built
from fermionic modes through the Jordan-Wigner map (mode ordering documented
in :func:`mode_index`).  ``build_hamiltonian`` works for any j; for j = 1 the
closed three-block split is also provided and cross-validated against the
general construction:

    h1 = (epsilon-g)/4 (Z1+Z2) - (epsilon+g)/4 (Z3+Z4)
    h2 = -(g/4) (Z1 Z2 + Z3 Z4)
    h3 = -(g+V) (s1+ s2+ s3- s4- + h.c.)
       = -(g+V)/8 (XXXX + XYXY + XYYX + YXXY + YXYX + YYYY - YYXX - XXYY)

h1 and h2 are diagonal; h3 is the only block coupling different z-basis
states and depends on g and V only through g + V.  Constant (identity)
contributions are dropped everywhere: they shift all energies equally and
only produce a global phase under time evolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .checks import finite, integer, real
from .paulis import PauliString, PauliSum, FermionWord, jw_map, pauli_letters

SYMMETRIC_PHASE = "SP"
BROKEN_SYMMETRY_PHASE = "BSP"

#: The eight four-body strings of the j=1 interaction block, in listing
#: order, with the sign each carries inside the -(g+V)/8 bracket.
INTERACTION_STRINGS: tuple[tuple[str, int], ...] = (
    ("XXXX", +1),
    ("XYXY", +1),
    ("XYYX", +1),
    ("YXXY", +1),
    ("YXYX", +1),
    ("YYYY", +1),
    ("YYXX", -1),
    ("XXYY", -1),
)


@dataclass(frozen=True)
class ModelParams:
    """Couplings (epsilon, g, V) and half-degeneracy j; qubit count is 4j.

    epsilon sets the energy unit and must be positive.  g and V may be any
    finite reals; negative values are only meaningful for the g = -V
    degeneracy checks.
    """

    epsilon: float = 1.0
    g: float = 0.0
    V: float = 0.0
    j: int = 1

    def __post_init__(self):
        integer(self.j, "j", 1)
        finite(real(self.epsilon, "epsilon"), "epsilon", "positive")
        for name in ("g", "V"):
            finite(real(getattr(self, name), name), name)

    @property
    def n_qubits(self) -> int:
        return 4 * self.j

    @property
    def control(self) -> float:
        """The effective j=1 control parameter g + V."""
        return self.g + self.V


def mode_index(sigma: int, m: int, j: int) -> int:
    """1-based qubit index of the fermionic mode (sigma, m).

    Modes are ordered upper level first, with the (m, -m) partners adjacent:
    (+1,1), (+1,-1), (+1,2), (+1,-2), ..., (-1,1), (-1,-1), ...  For j = 1
    this is the relabeling (1,1)->1, (1,-1)->2, (-1,1)->3, (-1,-1)->4.
    """
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    if not (1 <= abs(m) <= j):
        raise ValueError(f"|m| must lie in 1..{j}, got {m}")
    base = 0 if sigma == 1 else 2 * j
    return base + 2 * (abs(m) - 1) + (1 if m < 0 else 0) + 1


def build_collective_ops(j: int) -> dict[str, PauliSum]:
    """Spin images of the collective operators for half-degeneracy j.

    Returns Jplus, Jzero, Jminus, the pair operators A1dag/A1/Am1dag/Am1
    and the total particle number Nop, each as a canonical PauliSum on 4j
    qubits.
    """
    n = 4 * integer(j, "j", 1)
    ms = [m for k in range(1, j + 1) for m in (k, -k)]

    def word(*factors: tuple[int, bool]) -> PauliSum:
        return jw_map(FermionWord(tuple(factors)), n)

    zero = PauliSum.zero(n)
    jplus = zero
    jzero = zero
    a1dag = zero
    am1dag = zero
    nop = zero
    for m in ms:
        up = mode_index(1, m, j)
        dn = mode_index(-1, m, j)
        jplus = jplus + word((up, True), (dn, False))
        jzero = jzero + 0.5 * (word((up, True), (up, False)) - word((dn, True), (dn, False)))
        nop = nop + word((up, True), (up, False)) + word((dn, True), (dn, False))
    for m in range(1, j + 1):
        a1dag = a1dag + word((mode_index(1, m, j), True), (mode_index(1, -m, j), True))
        am1dag = am1dag + word((mode_index(-1, m, j), True), (mode_index(-1, -m, j), True))
    return {
        "Jplus": jplus,
        "Jzero": jzero,
        "Jminus": jplus.adjoint(),
        "A1dag": a1dag,
        "A1": a1dag.adjoint(),
        "Am1dag": am1dag,
        "Am1": am1dag.adjoint(),
        "Nop": nop,
    }


@lru_cache(maxsize=8)
def _coupling_free_blocks(j: int) -> tuple[PauliSum, PauliSum, PauliSum]:
    """``(Jzero, Pair, Jplus^2 + Jminus^2)`` for half-degeneracy j, where
    ``Pair = sum_{s,s'} Adag_s A_s'``.

    These depend on j alone, so the Jordan-Wigner map and the operator
    products behind them run once per j; a Hamiltonian at any couplings is
    then a weighted sum of the three.
    """
    ops = build_collective_ops(j)
    pair = PauliSum.zero(4 * j)
    for adag in (ops["A1dag"], ops["Am1dag"]):
        for a in (ops["A1"], ops["Am1"]):
            pair = pair + adag * a
    jpm2 = ops["Jplus"] * ops["Jplus"] + ops["Jminus"] * ops["Jminus"]
    return ops["Jzero"], pair, jpm2


def coupling_weights(params: ModelParams) -> tuple[float, float, float]:
    """The weights ``(epsilon, -g, -V/2)`` of the three coupling-free blocks in H."""
    return params.epsilon, -params.g, -params.V / 2


def build_hamiltonian(params: ModelParams) -> PauliSum:
    """Agassi Hamiltonian on 4j qubits, built from the collective operators
    as one weighted merge of the three coupling-free blocks.

    The identity component (a constant energy offset, -g/2 at j=1) is
    dropped before the merge so that the result coincides with the j=1
    split form.
    """
    ident = "I" * params.n_qubits
    blocks = zip(_coupling_free_blocks(params.j), coupling_weights(params))
    return PauliSum.from_terms((t.scaled(w) for block, w in blocks for t in block
                                if t.letters != ident), params.n_qubits)


@dataclass(frozen=True)
class SplitHamiltonian:
    """The j=1 Hamiltonian split into two diagonal blocks and the coupling block."""

    h1: PauliSum
    h2: PauliSum
    h3: PauliSum

    @property
    def diagonal(self) -> PauliSum:
        return self.h1 + self.h2

    @property
    def total(self) -> PauliSum:
        return self.h1 + self.h2 + self.h3


def _z_string(n: int, *qubits: int) -> str:
    return pauli_letters(0, sum(1 << (n - q) for q in set(qubits)), n)


@lru_cache(maxsize=128)
def build_split_j1(params: ModelParams) -> SplitHamiltonian:
    """Closed-form h1, h2, h3 for j = 1 (4 qubits).

    Raises NotImplementedError for j != 1; the general-j Hamiltonian is only
    available through :func:`build_hamiltonian`.
    """
    if params.j != 1:
        raise NotImplementedError("the closed split form exists only for j = 1")
    eps, g, V = params.epsilon, params.g, params.V
    upper = (eps - g) / 4
    lower = -(eps + g) / 4
    h1 = PauliSum.from_terms(
        [
            PauliString(upper, _z_string(4, 1)),
            PauliString(upper, _z_string(4, 2)),
            PauliString(lower, _z_string(4, 3)),
            PauliString(lower, _z_string(4, 4)),
        ],
        4,
    )
    h2 = PauliSum.from_terms(
        [
            PauliString(-g / 4, _z_string(4, 1, 2)),
            PauliString(-g / 4, _z_string(4, 3, 4)),
        ],
        4,
    )
    pref = -(g + V) / 8
    h3 = PauliSum.from_terms(
        [PauliString(pref * sign, letters) for letters, sign in INTERACTION_STRINGS],
        4,
    )
    return SplitHamiltonian(h1=h1, h2=h2, h3=h3)


def critical_line(params: ModelParams) -> str:
    """Phase label of a j=1 parameter point: SP below g+V = epsilon, BSP at
    and beyond it.

    The boundary is assigned to the broken-symmetry side because the
    correlation-amplitude observable already saturates there.
    """
    if params.j != 1:
        raise NotImplementedError("the phase line is established only for j = 1")
    if params.control / params.epsilon < 1.0:
        return SYMMETRIC_PHASE
    return BROKEN_SYMMETRY_PHASE
