"""Hamiltonian construction tests, cross-validated against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agassi_sim.model import (
    BROKEN_SYMMETRY_PHASE,
    INTERACTION_STRINGS,
    ModelParams,
    SYMMETRIC_PHASE,
    build_collective_ops,
    build_hamiltonian,
    build_split_j1,
    critical_line,
    mode_index,
)
from agassi_sim.paulis import PauliString, PauliSum, commutator, pauli

from conftest import dense_jw_annihilation, dense_sum, SPLUS, SMINUS, SZ, I2

import functools


def kron(*mats):
    return functools.reduce(np.kron, mats)


coupling = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def sum_max_coeff(s: PauliSum) -> float:
    return max((abs(t.coefficient) for t in s.terms), default=0.0)


class TestModeRelabeling:
    def test_j1_matches_documented_order(self):
        assert mode_index(1, 1, 1) == 1
        assert mode_index(1, -1, 1) == 2
        assert mode_index(-1, 1, 1) == 3
        assert mode_index(-1, -1, 1) == 4

    def test_j2_keeps_pairs_adjacent(self):
        assert mode_index(1, 2, 2) == 3
        assert mode_index(1, -2, 2) == 4
        assert mode_index(-1, 1, 2) == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mode_index(0, 1, 1)
        with pytest.raises(ValueError):
            mode_index(1, 3, 2)


class TestCollectiveOps:
    def test_jzero_j1(self):
        jzero = build_collective_ops(1)["Jzero"]
        assert jzero.coefficient("ZIII") == pytest.approx(0.25)
        assert jzero.coefficient("IZII") == pytest.approx(0.25)
        assert jzero.coefficient("IIZI") == pytest.approx(-0.25)
        assert jzero.coefficient("IIIZ") == pytest.approx(-0.25)
        assert len(jzero) == 4

    def test_pair_creators_j1(self):
        ops = build_collective_ops(1)
        a1dag = dense_sum(ops["A1dag"])
        assert np.allclose(a1dag, kron(SPLUS, SPLUS, I2, I2), atol=1e-12)
        am1dag = dense_sum(ops["Am1dag"])
        assert np.allclose(am1dag, kron(I2, I2, SPLUS, SPLUS), atol=1e-12)

    def test_jplus_j1_including_signs(self):
        jplus = dense_sum(build_collective_ops(1)["Jplus"])
        expected = (
            -kron(I2, SPLUS, SZ, SMINUS)
            - kron(SPLUS, SZ, SMINUS, I2)
        )
        assert np.allclose(jplus, expected, atol=1e-12)

    def test_jminus_is_adjoint(self):
        ops = build_collective_ops(1)
        assert np.allclose(
            dense_sum(ops["Jminus"]), dense_sum(ops["Jplus"]).conj().T, atol=1e-12
        )

    def test_jzero_j2(self):
        jzero = build_collective_ops(2)["Jzero"]
        for q in range(1, 5):
            letters = ["I"] * 8
            letters[q - 1] = "Z"
            assert jzero.coefficient("".join(letters)) == pytest.approx(0.25)
        for q in range(5, 9):
            letters = ["I"] * 8
            letters[q - 1] = "Z"
            assert jzero.coefficient("".join(letters)) == pytest.approx(-0.25)

    def test_number_operator_j1(self):
        nop = build_collective_ops(1)["Nop"]
        # N = sum_i (I + Z_i)/2
        assert nop.coefficient("IIII") == pytest.approx(2.0)
        assert nop.coefficient("ZIII") == pytest.approx(0.5)


class TestBuildHamiltonian:
    def test_free_case_is_level_splitting(self):
        h = build_hamiltonian(ModelParams(epsilon=1.0, g=0.0, V=0.0))
        expected = PauliSum.from_terms(
            [
                pauli("ZIII", 0.25),
                pauli("IZII", 0.25),
                pauli("IIZI", -0.25),
                pauli("IIIZ", -0.25),
            ]
        )
        assert h == expected

    def test_four_body_coefficients(self):
        h = build_hamiltonian(ModelParams(epsilon=1.0, g=1.0, V=1.0))
        for letters, sign in INTERACTION_STRINGS:
            assert h.coefficient(letters) == pytest.approx(-sign * 0.25)

    def test_g_equals_minus_v_kills_four_body(self):
        h = build_hamiltonian(ModelParams(epsilon=1.0, g=0.7, V=-0.7))
        assert all(t.weight <= 2 for t in h.terms)

    @settings(max_examples=20, deadline=None)
    @given(coupling, coupling)
    def test_hermitian(self, g, v):
        h = build_hamiltonian(ModelParams(epsilon=1.0, g=float(g), V=float(v)))
        assert h.hermitian(tol=1e-12)

    @pytest.mark.parametrize("j", [1, 2])
    def test_number_conservation(self, j):
        params = ModelParams(epsilon=1.0, g=0.6, V=0.3, j=j)
        h = build_hamiltonian(params)
        nop = build_collective_ops(j)["Nop"]
        assert sum_max_coeff(commutator(h, nop)) < 1e-12

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_cached_blocks_match_direct_expression(self, j):
        ops = build_collective_ops(j)
        pair = PauliSum.zero(4 * j)
        for adag in (ops["A1dag"], ops["Am1dag"]):
            for a in (ops["A1"], ops["Am1"]):
                pair = pair + adag * a
        jp2 = ops["Jplus"] * ops["Jplus"]
        jm2 = ops["Jminus"] * ops["Jminus"]
        for eps, g, v in ((1.0, 0.6, 0.3), (0.8, -0.45, 1.3), (1.2, 0.7, -0.7)):
            direct = (eps * ops["Jzero"] - g * pair - 0.5 * v * (jp2 + jm2)).without_identity()
            h = build_hamiltonian(ModelParams(epsilon=eps, g=g, V=v, j=j))
            assert [t.letters for t in h.terms] == [t.letters for t in direct.terms]
            for ours, ref in zip(h.terms, direct.terms):
                assert abs(ours.coefficient - ref.coefficient) < 1e-12

    @pytest.mark.parametrize("j", [1, 2])
    def test_matches_independent_fermionic_oracle(self, j):
        # Assemble H from dense JW mode operators with no shared code, then
        # compare traceless parts (the package drops the constant offset).
        params = ModelParams(epsilon=0.9, g=0.65, V=0.35, j=j)
        n = 4 * j
        dim = 2**n
        c = {m: dense_jw_annihilation(m, n) for m in range(1, n + 1)}
        cd = {m: op.conj().T for m, op in c.items()}

        ms = [m for k in range(1, j + 1) for m in (k, -k)]
        up = {m: mode_index(1, m, j) for m in ms}
        dn = {m: mode_index(-1, m, j) for m in ms}

        jplus = sum(cd[up[m]] @ c[dn[m]] for m in ms)
        jzero = 0.5 * sum(cd[up[m]] @ c[up[m]] - cd[dn[m]] @ c[dn[m]] for m in ms)
        a1d = sum(cd[up[m]] @ cd[up[-m]] for m in range(1, j + 1))
        am1d = sum(cd[dn[m]] @ cd[dn[-m]] for m in range(1, j + 1))
        pair = sum(
            adag @ a for adag in (a1d, am1d) for a in (a1d.conj().T, am1d.conj().T)
        )
        jminus = jplus.conj().T
        dense = (
            params.epsilon * jzero
            - params.g * pair
            - 0.5 * params.V * (jplus @ jplus + jminus @ jminus)
        )
        dense -= (np.trace(dense) / dim) * np.eye(dim)

        assert np.max(np.abs(dense_sum(build_hamiltonian(params)) - dense)) < 1e-12


class TestSplitJ1:
    def test_h1_at_epsilon_equals_g(self):
        split = build_split_j1(ModelParams(epsilon=1.0, g=1.0, V=1.0))
        assert split.h1.coefficient("ZIII") == 0.0
        assert split.h1.coefficient("IIZI") == pytest.approx(-0.5)
        assert split.h1.coefficient("IIIZ") == pytest.approx(-0.5)

    def test_h2_form(self):
        split = build_split_j1(ModelParams(epsilon=1.0, g=1.0, V=1.0))
        expected = PauliSum.from_terms(
            [pauli("ZZII", -0.25), pauli("IIZZ", -0.25)]
        )
        assert split.h2 == expected

    def test_h3_signs(self):
        split = build_split_j1(ModelParams(epsilon=1.0, g=1.0, V=1.0))
        assert split.h3.coefficient("XXXX") == pytest.approx(-0.25)
        assert split.h3.coefficient("YYXX") == pytest.approx(+0.25)
        assert split.h3.coefficient("XXYY") == pytest.approx(+0.25)
        assert len(split.h3) == 8

    @settings(max_examples=20, deadline=None)
    @given(coupling, coupling, st.floats(min_value=0.2, max_value=3.0))
    def test_split_total_matches_general_build(self, g, v, eps):
        params = ModelParams(epsilon=float(eps), g=float(g), V=float(v))
        split = build_split_j1(params)
        lhs = dense_sum(split.total)
        rhs = dense_sum(build_hamiltonian(params))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_commutation_structure(self):
        split = build_split_j1(ModelParams(epsilon=1.0, g=0.8, V=0.4))
        assert commutator(split.h1, split.h2).is_zero()
        assert commutator(split.h2, split.h3).is_zero()
        assert not commutator(split.h1, split.h3).is_zero()

    def test_four_body_strings_pairwise_commute(self):
        strings = [PauliString(1.0, s) for s, _ in INTERACTION_STRINGS]
        for a in strings:
            for b in strings:
                assert a.commutes_with(b)

    def test_h3_depends_only_on_control_sum(self):
        a = build_split_j1(ModelParams(epsilon=1.0, g=0.9, V=0.1))
        b = build_split_j1(ModelParams(epsilon=1.0, g=0.2, V=0.8))
        assert a.h3 == b.h3

    def test_requires_j1(self):
        with pytest.raises(NotImplementedError):
            build_split_j1(ModelParams(epsilon=1.0, g=0.1, V=0.1, j=2))


class TestParamsAndPhase:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(epsilon=0.0)
        with pytest.raises(ValueError):
            ModelParams(j=0)
        with pytest.raises(ValueError):
            ModelParams(g=float("inf"))

    def test_critical_line_examples(self):
        assert critical_line(ModelParams(epsilon=1.0, g=0.4, V=0.4)) == SYMMETRIC_PHASE
        assert critical_line(ModelParams(epsilon=1.0, g=0.5, V=0.5)) == BROKEN_SYMMETRY_PHASE
        assert critical_line(ModelParams(epsilon=1.0, g=0.5, V=1.0)) == BROKEN_SYMMETRY_PHASE

    def test_critical_line_scales_with_epsilon(self):
        assert critical_line(ModelParams(epsilon=2.0, g=0.5, V=0.5)) == SYMMETRIC_PHASE
