"""Pauli-string algebra and Jordan-Wigner mapping tests."""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agassi_sim.paulis import (
    CapacityError,
    FermionWord,
    PauliString,
    PauliSum,
    annihilation,
    commutator,
    cosets,
    creation,
    jw_map,
    pauli,
    pauli_letters,
    pauli_masks,
    to_matrix,
    x_blocks,
    x_span,
)

from conftest import dense_string, dense_sum, dense_jw_annihilation


letters_st = st.text(alphabet="IXYZ", min_size=1, max_size=4)


def paired_letters(n=3):
    return st.tuples(
        st.text(alphabet="IXYZ", min_size=n, max_size=n),
        st.text(alphabet="IXYZ", min_size=n, max_size=n),
    )


class TestMultiply:
    def test_xy_gives_iz(self):
        prod = pauli("X") * pauli("Y")
        assert prod.letters == "Z"
        assert prod.coefficient == 1j

    def test_identity_neutral(self):
        p = pauli("XZ", 0.3 - 0.7j)
        assert (pauli("II") * p) == p
        assert (p * pauli("II")) == p

    def test_two_site_example(self):
        prod = pauli("XZ") * pauli("YZ")
        assert prod.letters == "ZI"
        assert prod.coefficient == 1j

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli("X") * pauli("XX")

    @given(paired_letters())
    def test_matches_dense_product(self, pair):
        a, b = pair
        prod = pauli(a) * pauli(b)
        expected = dense_string(a) @ dense_string(b)
        assert np.allclose(dense_string(prod.letters, prod.coefficient), expected)

    @given(paired_letters())
    def test_commute_or_anticommute(self, pair):
        a, b = pair
        ab = pauli(a) * pauli(b)
        ba = pauli(b) * pauli(a)
        assert ab.letters == ba.letters
        assert ab.coefficient in (ba.coefficient, -ba.coefficient)
        assert pauli(a).commutes_with(pauli(b)) == (ab.coefficient == ba.coefficient)

    @given(st.tuples(
        st.text(alphabet="IXYZ", min_size=2, max_size=2),
        st.text(alphabet="IXYZ", min_size=2, max_size=2),
        st.text(alphabet="IXYZ", min_size=2, max_size=2),
    ))
    def test_associative(self, triple):
        a, b, c = (pauli(s) for s in triple)
        assert ((a * b) * c) == (a * (b * c))


SMALL_STRINGS = ["".join(s) for n in (1, 2, 3) for s in itertools.product("IXYZ", repeat=n)]


def site_product(a: str, b: str) -> tuple[complex, str]:
    """The phase p and letter c with ``a b = p c``, from the 2 x 2 matrices."""
    m = dense_string(a) @ dense_string(b)
    return next((p, c) for c in "IXYZ" for p in (1, 1j, -1, -1j)
                if np.array_equal(m, p * dense_string(c)))


class TestMaskAlgebra:
    """Products and commutation read from the masks of ``pauli_masks``."""

    def test_every_small_pair_is_the_dense_product(self):
        dense = {s: dense_string(s) for s in SMALL_STRINGS}
        for a, b in itertools.product(SMALL_STRINGS, repeat=2):
            if len(a) != len(b):
                continue
            prod = pauli(a) * pauli(b)
            ab, ba = dense[a] @ dense[b], dense[b] @ dense[a]
            assert np.array_equal(dense_string(prod.letters, prod.coefficient), ab), (a, b)
            assert pauli(a).commutes_with(pauli(b)) == np.array_equal(ab, ba), (a, b)

    def test_seventy_qubits_match_the_site_by_site_products(self, rng):
        # masks past 64 bits are Python ints; no dense matrix at this size
        for _ in range(20):
            a, b = ("".join(rng.choice(list("IXYZ"), size=70)) for _ in range(2))
            sites = [site_product(p, q) for p, q in zip(a, b)]
            prod = pauli(a, 0.5) * pauli(b, -2j)
            assert prod.letters == "".join(c for _, c in sites)
            assert prod.coefficient == -1j * np.prod([p for p, _ in sites])
            clashes = sum(site_product(p, q) != site_product(q, p) for p, q in zip(a, b))
            assert pauli(a).commutes_with(pauli(b)) == (clashes % 2 == 0)

    def test_letters_invert_the_masks(self, rng):
        wide = "".join(rng.choice(list("IXYZ"), size=70))
        for s in [*SMALL_STRINGS, wide]:
            assert pauli_letters(*pauli_masks(s)[:2], len(s)) == s


class TestCanonicalForm:
    def test_merges_duplicate_letters(self):
        s = PauliSum.from_terms([pauli("XZ", 0.5), pauli("XZ", 0.25), pauli("IZ")])
        assert s.coefficient("XZ") == 0.75
        assert len(s) == 2

    def test_prunes_small_coefficients(self):
        s = PauliSum.from_terms([pauli("X", 1.0), pauli("X", -1.0), pauli("Z", 1e-15)])
        assert s.is_zero()

    def test_idempotent(self):
        s = PauliSum.from_terms([pauli("XY", 0.5 + 0.5j), pauli("ZI", -2.0)])
        again = PauliSum.from_terms(s.terms, s.n)
        assert again == s

    def test_empty_needs_qubit_count(self):
        with pytest.raises(ValueError):
            PauliSum.from_terms([])
        assert PauliSum.from_terms([], n=3).is_zero()

    def test_hermitian_predicate(self):
        assert PauliSum.from_terms([pauli("XZ", 0.5), pauli("ZZ", -1.25)]).hermitian()
        assert not PauliSum.from_terms([pauli("XZ", 0.5j)]).hermitian()

    def test_invalid_letters_rejected(self):
        with pytest.raises(ValueError):
            pauli("XQ")

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            PauliSum.from_terms([pauli("X"), pauli("XX")])


class TestSumHash:
    """A sum's hash is the dataclass hash of its fields, computed once."""

    TERMS = (pauli("XZ", 0.5), pauli("ZZ", -1.25), pauli("IY", 2.0))

    def test_equal_sums_built_separately_hash_equal(self):
        a, b = PauliSum.from_terms(self.TERMS), PauliSum.from_terms(self.TERMS[::-1])
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.terms, a.n))

    def test_a_second_hash_does_not_rehash_the_strings(self, monkeypatch):
        calls = []
        string_hash = PauliString.__hash__
        monkeypatch.setattr(PauliString, "__hash__",
                            lambda string: calls.append(string) or string_hash(string))
        s = PauliSum.from_terms(self.TERMS)
        first = hash(s)
        assert len(calls) == 3
        assert hash(s) == first and len(calls) == 3

    def test_pickle_carries_no_cached_hash(self):
        s = PauliSum.from_terms(self.TERMS)
        hash(s)
        copy = pickle.loads(pickle.dumps(s))
        assert "_hash" not in vars(copy)
        assert copy == s and hash(copy) == hash(s)


class TestJordanWigner:
    def test_annihilation_site1_of_4(self):
        # c_1 -> (X - iY)/2 on site 1 with a Z string behind it
        image = jw_map(annihilation(1), 4)
        assert image.coefficient("XZZZ") == 0.5
        assert image.coefficient("YZZZ") == -0.5j
        assert len(image) == 2

    def test_annihilation_last_site_has_no_z_tail(self):
        image = jw_map(annihilation(4), 4)
        assert image.coefficient("IIIX") == 0.5
        assert image.coefficient("IIIY") == -0.5j
        assert len(image) == 2

    def test_number_operator_site1(self):
        # c_1^dag c_1 = (I + Z_1)/2: occupation corresponds to spin-up.
        image = jw_map(FermionWord(((1, True), (1, False))), 4)
        assert image.coefficient("IIII") == pytest.approx(0.5)
        assert image.coefficient("ZIII") == pytest.approx(0.5)
        assert len(image) == 2

    def test_number_operator_against_dense_oracle(self):
        c1 = dense_jw_annihilation(1, 4)
        expected = c1.conj().T @ c1
        image = jw_map(FermionWord(((1, True), (1, False))), 4)
        assert np.allclose(dense_sum(image), expected, atol=1e-12)

    def test_word_order_matches_operator_order(self):
        # c_2^dag c_3 as written: the dagger factor is applied last.
        image = jw_map(FermionWord(((2, True), (3, False))), 4)
        c2 = dense_jw_annihilation(2, 4)
        c3 = dense_jw_annihilation(3, 4)
        assert np.allclose(dense_sum(image), c2.conj().T @ c3, atol=1e-12)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            jw_map(annihilation(5), 4)

    def test_parse_shorthand(self):
        word = FermionWord.parse("2+ 3")
        assert word.factors == ((2, True), (3, False))

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_canonical_anticommutators(self, i, j):
        n = 4
        ci = jw_map(annihilation(i), n)
        cj = jw_map(annihilation(j), n)
        cjdag = jw_map(creation(j), n)

        anti = ci * cjdag + cjdag * ci
        expected = PauliSum.identity(n) if i == j else PauliSum.zero(n)
        assert max((abs(t.coefficient) for t in (anti - expected).terms), default=0.0) < 1e-12

        anti2 = ci * cj + cj * ci
        assert max((abs(t.coefficient) for t in anti2.terms), default=0.0) < 1e-12


class TestCommutator:
    def test_commuting_strings(self):
        a = PauliSum.from_terms([pauli("ZZ")])
        b = PauliSum.from_terms([pauli("XX")])
        assert commutator(a, b).is_zero()

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError):
            commutator(PauliSum.from_terms([pauli("Z")]), PauliSum.from_terms([pauli("ZZ")]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_dense_commutator(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 4))

        def random_sum():
            terms = []
            for _ in range(int(gen.integers(1, 5))):
                letters = "".join(gen.choice(list("IXYZ"), size=n))
                coeff = complex(gen.normal(), gen.normal())
                terms.append(PauliString(coeff, letters))
            return PauliSum.from_terms(terms, n)

        a, b = random_sum(), random_sum()
        lhs = dense_sum(commutator(a, b))
        rhs = dense_sum(a) @ dense_sum(b) - dense_sum(b) @ dense_sum(a)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestToMatrix:
    def test_z_single_qubit(self):
        assert np.allclose(to_matrix(pauli("Z")), np.diag([1.0, -1.0]))

    def test_identity_two_qubits(self):
        s = PauliSum.identity(2)
        assert np.allclose(to_matrix(s), np.eye(4))

    def test_linear_in_terms(self, rng):
        for n in range(1, 7):
            terms = [
                PauliString(complex(rng.normal(), rng.normal()),
                            "".join(rng.choice(list("IXYZ"), size=n)))
                for _ in range(3 * n)
            ]
            s = PauliSum.from_terms(terms, n)
            assert np.max(np.abs(to_matrix(s) - dense_sum(s))) < 1e-12

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            to_matrix(PauliSum.identity(13))


def x_orbits(op: PauliSum) -> list[list[int]]:
    """The sets of basis indices that op's x masks map into themselves, each
    grown from its smallest index by flipping the X and Y sites of every term
    (written out letter by letter, without ``x_blocks`` or ``x_span``)."""
    masks = [int("".join("1" if c in "XY" else "0" for c in t.letters), 2) for t in op.terms]
    orbits, seen = [], set()
    for k in range(2**op.n):
        if k not in seen:
            orbit = {k}
            for mask in masks:
                orbit |= {s ^ mask for s in orbit}
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


class TestToMatrixOnRows:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_dense_oracle_on_cosets_and_every_index(self, rng, n):
        # X or Y never on the last qubit, so there are at least two cosets
        letters = ["".join(rng.choice(list("IXYZ"), size=n - 1)) + rng.choice(["I", "Z"])
                   for _ in range(3 * n)]
        terms = [PauliString(complex(rng.normal(), rng.normal()), s) for s in letters]
        op = PauliSum.from_terms(terms, n)
        dense = dense_sum(op)
        # each row in a random order, so a row's order is not the index order
        cosets = np.array([rng.permutation(orbit) for orbit in x_orbits(op)])
        assert len(cosets) >= 2
        for rows in (cosets[-1], cosets, np.arange(2**n)):
            blocks = to_matrix(op, rows)
            d = rows.shape[-1]
            assert blocks.shape == rows.shape + (d,)
            for r, block in zip(rows.reshape(-1, d), blocks.reshape(-1, d, d)):
                assert np.max(np.abs(block - dense[np.ix_(r, r)])) < 1e-15

    def test_row_not_closed_under_a_mask_refused(self):
        op = PauliSum.from_terms([pauli("XI"), pauli("ZZ", 0.5)])
        assert np.allclose(to_matrix(op, [[0, 2], [1, 3]]), [[[0.5, 1], [1, -0.5]],
                                                               [[-0.5, 1], [1, 0.5]]])
        for rows in ([0, 1], [[0, 1], [2, 3]]):
            with pytest.raises(ValueError, match="not closed under the x mask 0b10"):
                to_matrix(op, rows)

    @pytest.mark.parametrize("op,rows", [(PauliSum.identity(1), [0, 0]), (pauli("ZZ"), [0, 3, 3]),
                                         (pauli("XI"), [[0, 2], [0, 2]]),
                                         (pauli("XI"), [[0, 2], [1, 2]])])
    def test_repeated_index_refused(self, op, rows):
        # repeats are found before closure, so a repeat across rows is named
        with pytest.raises(ValueError, match="more than once"):
            to_matrix(op, rows)

    @pytest.mark.parametrize("rows", [[-1], [2], [[0], [-2]]])
    def test_index_outside_the_register_refused(self, rows):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^1\)"):
            to_matrix(pauli("Z"), rows)


def _sums_and_indices(n: int):
    """A random sum on n qubits and random basis indices, repeats allowed."""
    term = st.tuples(st.text("IXYZ", min_size=n, max_size=n), st.floats(-2, 2), st.floats(-2, 2))
    return st.tuples(st.just(n), st.lists(term, max_size=8),
                     st.lists(st.integers(0, 2**n - 1), max_size=12))


class TestXBlocks:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(_sums_and_indices))
    def test_on_an_index_equals_every_index_restricted_to_it(self, case):
        n, entries, index = case
        op = PauliSum.from_terms([PauliString(complex(a, b), s) for s, a, b in entries], n)
        full = x_blocks(op)
        assert all(d.shape == (2**n,) for _, d in full)
        for shape in ((-1,), (1, -1)):
            on = np.array(index, dtype=np.int64).reshape(shape)
            blocks = x_blocks(op, on)
            assert [x for x, _ in blocks] == [x for x, _ in full]
            for (_, d), (_, d_full) in zip(blocks, full):
                assert d.shape == on.shape and d.tobytes() == d_full[on].tobytes()

    def test_masks_in_order_of_first_appearance_each_summed(self):
        op = PauliSum.from_terms([pauli("ZX", 0.5), pauli("IX", 2.0), pauli("XI"), pauli("ZZ")])
        # the terms are sorted IX, XI, ZX, ZZ
        blocks = x_blocks(op, np.array([0, 3]))
        assert [x for x, _ in blocks] == [0b01, 0b10, 0b00]
        assert np.array_equal(blocks[0][1], [2.5, 1.5])  # IX + ZX at |00> and |11>
        assert np.array_equal(blocks[2][1], [1.0, 1.0])


class TestXSpan:
    def test_every_xor_once_zero_first(self):
        assert list(x_span([0b011, 0b110, 0b101, 0, 0b011])) == [0, 3, 6, 5]
        assert list(x_span([])) == [0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 63), max_size=8))
    def test_closed_under_xor(self, masks):
        span = x_span(masks)
        assert span[0] == 0 and len(set(span)) == len(span)
        assert set(span) == {a ^ b for a in span for b in span}
        assert set(masks) <= set(span)


class TestCosets:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_partition_the_register_each_closed_and_smallest_first(self, rng, n):
        for count in range(n + 2):
            masks = [int(x) for x in rng.integers(0, 2**n, size=count)]
            rows = cosets(masks, n)
            assert sorted(rows.ravel().tolist()) == list(range(2**n))
            assert np.array_equal(rows, rows[:, :1] ^ x_span(masks))
            assert np.all(rows[:, 0] == rows.min(axis=1)) and np.all(np.diff(rows[:, 0]) > 0)
            for row in rows:
                assert all(set((row ^ x).tolist()) == set(row.tolist()) for x in masks)
            seeds = rng.integers(0, 2**n, size=3)
            held = [row.tolist() for row in rows if np.isin(row, seeds).any()]
            assert cosets(masks, n, seeds).tolist() == held

    def test_two_seeds_in_one_coset_give_one_row(self):
        assert cosets([0b0011, 0b1100], 4, [0b0001, 0b1110]).tolist() == [[1, 2, 13, 14]]

    @pytest.mark.parametrize("masks,seeds", [([1], [4]), ([1], [-1]), ([1], [1.0]),
                                             ([4], None), ([4], [0])],
                             ids=["seed-too-large", "seed-negative", "seed-float",
                                  "mask-too-large", "mask-too-large-seeded"])
    def test_index_outside_the_register_refused(self, masks, seeds):
        with pytest.raises(ValueError, match=r"\[0, 2\^2\)"):
            cosets(masks, 2, seeds)
