"""State-vector engine tests with closed-form and dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agassi_sim import statevector
from agassi_sim.model import ModelParams, build_hamiltonian
from agassi_sim.paulis import CapacityError, PauliSum, pauli, pauli_action, to_matrix, x_span
from agassi_sim.statevector import (
    ExactPropagator,
    StateVector,
    TimeSeries,
    apply_pauli_exponential,
    apply_steps,
    basis_index,
    basis_state,
    exact_evolve,
    expectation,
    fidelity,
    hermitian_spectra,
    rotation_steps,
    spectral_coeffs,
    spectral_grid_states,
    spectral_states,
)


from conftest import dense_expm_hermitian, dense_string, dense_sum


def z_on(q: int, n: int = 4) -> PauliSum:
    letters = ["I"] * n
    letters[q - 1] = "Z"
    return PauliSum.from_terms([pauli("".join(letters))])


def two_level_transfer(eps: float, gv: float, t: float) -> float:
    """Independent Rabi oracle: population transferred out of |dduu>.

    The dynamics lives in span{|dduu>, |uudd>} with detuning 2*eps and
    coupling -(g+V), so the transfer probability is A sin^2(Omega t) with
    A = gv^2/(gv^2 + eps^2) and Omega = sqrt(eps^2 + gv^2).
    """
    if gv == 0:
        return 0.0
    amp = gv**2 / (gv**2 + eps**2)
    omega = np.hypot(eps, gv)
    return amp * np.sin(omega * t) ** 2


class TestBasisStates:
    def test_single_qubit_up_is_first_amplitude(self):
        up = basis_state("u")
        assert np.allclose(up.amplitudes, [1.0, 0.0])
        down = basis_state("d")
        assert np.allclose(down.amplitudes, [0.0, 1.0])

    def test_half_filled_reference(self):
        state = basis_state("dduu")
        assert basis_index("dduu") == 0b1100
        assert state.amplitudes[0b1100] == 1.0
        assert state.norm() == pytest.approx(1.0)

    def test_arrow_labels(self):
        assert basis_index("↓↓↑↑") == basis_index("dduu")

    def test_sigma_z_eigenvalues(self):
        state = basis_state("dduu")
        assert expectation(state, z_on(1)) == pytest.approx(-1.0)
        assert expectation(state, z_on(3)) == pytest.approx(1.0)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            basis_state("uxd")

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0], dtype=complex), 1)
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), 1)

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="norm nan"):
            StateVector(np.array([np.nan, 0.0], dtype=complex), 1)


class TestPauliExponential:
    def test_zero_angle_is_identity(self):
        state = basis_state("dduu")
        out = apply_pauli_exponential(state, pauli("XYZI"), 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_z_eigenstate_picks_up_phase(self):
        up = basis_state("u")
        out = apply_pauli_exponential(up, pauli("Z"), 0.3)
        assert np.allclose(out.amplitudes, np.exp(-0.3j) * up.amplitudes)

    def test_four_body_flip(self):
        state = basis_state("dduu")
        out = apply_pauli_exponential(state, pauli("XXXX"), np.pi / 2)
        expected = np.zeros(16, dtype=complex)
        expected[basis_index("uudd")] = -1j
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_negative_unit_coefficient_flips_angle(self):
        state = basis_state("du")
        plus = apply_pauli_exponential(state, pauli("XY"), -0.4)
        minus = apply_pauli_exponential(state, pauli("XY", -1.0), 0.4)
        assert np.allclose(plus.amplitudes, minus.amplitudes)

    def test_non_unit_coefficient_rejected(self):
        state = basis_state("du")
        with pytest.raises(ValueError):
            apply_pauli_exponential(state, pauli("XY", 0.5), 0.1)
        with pytest.raises(ValueError):
            apply_pauli_exponential(state, pauli("XY", 1j), 0.1)

    def test_nan_angle_rejected(self):
        with pytest.raises(ValueError, match="theta must be finite"):
            apply_pauli_exponential(basis_state("du"), pauli("XY"), np.nan)

    @pytest.mark.parametrize("theta", [np.inf, -np.inf])
    def test_infinite_angle_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            apply_pauli_exponential(basis_state("du"), pauli("XY"), theta)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0, allow_nan=False))
    def test_matches_dense_exponential(self, seed, theta):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 4))
        letters = "".join(gen.choice(list("IXYZ"), size=n))
        amps = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        state = StateVector(amps, n)
        out = apply_pauli_exponential(state, pauli(letters), float(theta))
        expected = dense_expm_hermitian(dense_string(letters), float(theta)) @ amps
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_norm_preserved_over_many_applications(self, rng):
        state = basis_state("dduu")
        strings = [pauli("XXXX"), pauli("ZIII"), pauli("XYYX"), pauli("IZZI")]
        for k in range(2000):
            state = apply_pauli_exponential(
                state, strings[k % 4], rng.uniform(-1, 1)
            )
        assert abs(state.norm() - 1.0) < 1e-10


class TestExactEvolve:
    def test_zero_time(self):
        params = ModelParams(epsilon=1.0, g=0.3, V=0.7)
        state = basis_state("dduu")
        out = exact_evolve(state, build_hamiltonian(params), 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_diagonal_hamiltonian_keeps_survival_at_one(self):
        # g = -V removes the coupling block entirely.
        params = ModelParams(epsilon=1.0, g=0.8, V=-0.8)
        h = build_hamiltonian(params)
        state = basis_state("duud")
        for t in (0.3, 1.7, 4.0):
            assert fidelity(state, exact_evolve(state, h, t)) == pytest.approx(1.0)

    def test_survival_matches_two_level_oracle(self):
        params = ModelParams(epsilon=1.0, g=1.0, V=1.0)
        h = build_hamiltonian(params)
        state = basis_state("dduu")
        for t in np.linspace(0.1, 2.5, 7):
            survived = fidelity(state, exact_evolve(state, h, t))
            assert survived == pytest.approx(
                1.0 - two_level_transfer(1.0, 2.0, t), abs=1e-10
            )

    def test_survival_minimum_is_one_fifth(self):
        # A = (g+V)^2/((g+V)^2+eps^2) = 4/5 at eps=1, g=V=1.
        params = ModelParams(epsilon=1.0, g=1.0, V=1.0)
        prop = ExactPropagator(build_hamiltonian(params))
        state = basis_state("dduu")
        t_min = np.pi / (2 * np.hypot(1.0, 2.0))
        assert fidelity(state, prop.evolve(state, t_min)) == pytest.approx(0.2, abs=1e-12)

    def test_matches_dense_oracle(self):
        params = ModelParams(epsilon=1.0, g=0.5, V=0.25)
        h = build_hamiltonian(params)
        state = basis_state("dudu")
        out = exact_evolve(state, h, 1.3)
        expected = dense_expm_hermitian(dense_sum(h), 1.3) @ state.amplitudes
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_composition(self):
        params = ModelParams(epsilon=1.0, g=0.5, V=1.0)
        h = build_hamiltonian(params)
        state = basis_state("dduu")
        once = exact_evolve(state, h, 2.1)
        twice = exact_evolve(exact_evolve(state, h, 1.3), h, 0.8)
        assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-9)

    def test_energy_conserved(self):
        params = ModelParams(epsilon=1.0, g=1.0, V=1.0)
        h = build_hamiltonian(params)
        prop = ExactPropagator(h)
        state = basis_state("dduu")
        e0 = expectation(state, h)
        for t in np.linspace(0.0, 5.0, 21):
            assert expectation(prop.evolve(state, t), h) == pytest.approx(e0, abs=1e-9)

    def test_subspace_confinement(self):
        params = ModelParams(epsilon=1.0, g=1.0, V=1.0)
        prop = ExactPropagator(build_hamiltonian(params))
        state = basis_state("dduu")
        live = [basis_index("dduu"), basis_index("uudd")]
        for t in np.linspace(0.0, 8.0, 33):
            amps = prop.evolve(state, t).amplitudes
            outside = 1.0 - sum(abs(amps[k]) ** 2 for k in live)
            assert outside < 1e-10

    def test_non_hermitian_rejected(self):
        state = basis_state("du")
        with pytest.raises(ValueError):
            exact_evolve(state, PauliSum.from_terms([pauli("XY", 1j)]), 0.5)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            ExactPropagator(PauliSum.identity(13))

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_time_rejected(self, t):
        state = basis_state("dduu")
        h = build_hamiltonian(ModelParams(g=0.5, V=0.5))
        with pytest.raises(ValueError, match="times must be finite"):
            exact_evolve(state, h, t)
        with pytest.raises(ValueError, match="times must be finite"):
            ExactPropagator(h).states_at(state, np.array([0.0, t]))


def random_sum(rng, n: int, kind: str) -> PauliSum:
    """A random Hermitian sum: "diagonal" (I and Z only, 2^n one-state
    cosets), "full" (X on every qubit too, one coset) or "mixed" (any letter
    but never X or Y on the last qubit, so at least two cosets)."""
    letters = {"diagonal": ["IZ"] * n, "full": ["IXYZ"] * n,
               "mixed": ["IXYZ"] * (n - 1) + ["IZ"]}[kind]
    terms = [pauli("".join(rng.choice(list(site)) for site in letters), float(rng.normal()))
             for _ in range(4 * n)]
    if kind == "full":
        terms += [pauli("I" * q + "X" + "I" * (n - 1 - q), float(rng.normal()))
                  for q in range(n)]
    return PauliSum.from_terms(terms, n)


class TestCosetBlocks:
    @pytest.mark.parametrize("kind", ["diagonal", "full", "mixed"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_oracle(self, rng, n, kind):
        h = random_sum(rng, n, kind)
        prop = ExactPropagator(h)
        cosets = {"diagonal": 2**n, "full": 1, "mixed": prop.cosets.shape[0]}[kind]
        assert prop.eigenvalues.shape == (cosets, 2**n // cosets)
        assert prop.eigenvectors.shape == (cosets, 2**n // cosets, 2**n // cosets)
        assert kind != "mixed" or cosets >= 2
        assert sorted(prop.cosets.ravel()) == list(range(2**n))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        two = np.zeros(2**n, dtype=complex)
        two[[0, 1]] = [0.6, 0.8j]  # |0> and |1> lie in two cosets unless the span is full
        times = np.array([0.0, 0.4, 1.3, 2.9])
        for psi in (amps / np.linalg.norm(amps), two):
            expected = [dense_expm_hermitian(dense_sum(h), t) @ psi for t in times]
            got = prop.states_at(StateVector(psi, n), times)
            assert np.abs(got - expected).max() < 1e-12


class TestStatesAtSkipsEmptyCosets:
    """``states_at`` evolves only the cosets where the state has an amplitude
    and equals the evaluation of every coset value for value (only the sign
    of some zeros outside those cosets differs)."""

    @staticmethod
    def every_coset(prop: ExactPropagator, state: StateVector, times: np.ndarray) -> np.ndarray:
        coeffs = np.einsum("cij,ci->cj", prop.eigenvectors.conj(), state.amplitudes[prop.cosets])
        states = spectral_states(prop.eigenvalues, prop.eigenvectors, coeffs, times)
        return np.concatenate(states, axis=1)[:, np.argsort(prop.cosets, axis=None)]

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_basis_state_and_two_coset_superposition(self, j, monkeypatch):
        prop = ExactPropagator(build_hamiltonian(ModelParams(g=0.3, V=0.2, j=j)))
        n, times = 4 * j, np.linspace(0.0, 7.0, 41)
        two = np.zeros(2**n, dtype=complex)
        two[[prop.cosets[0, 0], prop.cosets[-1, -1]]] = [0.6, 0.8j]
        evaluated = []
        monkeypatch.setattr(statevector, "spectral_states",
                            lambda values, *rest: evaluated.append(len(values))
                            or spectral_states(values, *rest))
        for state, live in ((basis_state("d" * 2 * j + "u" * 2 * j), 1), (StateVector(two, n), 2)):
            got = prop.states_at(state, times)
            assert evaluated.pop() == live
            assert np.array_equal(got, self.every_coset(prop, state, times))
            assert np.count_nonzero(np.any(got != 0, axis=0)) <= live * prop.cosets.shape[1]


class TestLazyPropagator:
    """Construction diagonalizes nothing; ``states_at`` diagonalizes only the
    blocks of the cosets a state touches, and ``eigenvalues`` is built on
    first access."""

    def test_a_basis_state_at_j3_diagonalizes_one_block(self, monkeypatch):
        checked, decomposed = [], []
        monkeypatch.setattr(statevector, "hermitian_spectra",
                            lambda blocks: checked.append(blocks.shape)
                            or hermitian_spectra(blocks))
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda blocks: decomposed.append(blocks.shape) or eigh(blocks))
        prop = ExactPropagator(build_hamiltonian(ModelParams(g=0.4, V=0.3, j=3)))
        assert prop.cosets.shape == (32, 128)
        assert (checked, decomposed) == ([], [])
        prop.states_at(basis_state("dddddduuuuuu"), np.array([0.0, 1.0]))
        assert checked == decomposed == [(1, 128, 128)]  # no stack of all 32 cosets
        assert prop.eigenvalues.shape == (32, 128)
        assert checked == decomposed == [(1, 128, 128), (32, 128, 128)]
        assert prop.eigenvectors.shape == (32, 128, 128)
        assert len(decomposed) == 2  # the pair is built once


class TestSpectralEvaluation:
    """The one Hermitian check and ``eigh`` of a block stack, and the start's
    coefficients, shared by ``ExactPropagator`` and the experiments."""

    def test_a_stack_is_diagonalized_per_block_and_one_start_serves_every_block(self, rng):
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        blocks = a + a.conj().swapaxes(1, 2)
        energies, vectors = hermitian_spectra(blocks)
        assert np.abs(blocks @ vectors - vectors * energies[:, None, :]).max() < 1e-12
        start = rng.normal(size=4) + 1j * rng.normal(size=4)
        coeffs = spectral_coeffs(vectors, start)
        assert np.array_equal(coeffs, spectral_coeffs(vectors, np.broadcast_to(start, (3, 4))))
        assert np.abs(coeffs - vectors.conj().swapaxes(1, 2) @ start).max() < 1e-12

    @pytest.mark.parametrize("entry", [1e-9, np.nan], ids=["asymmetric", "nan"])
    def test_a_non_hermitian_block_is_refused(self, entry):
        blocks = np.zeros((2, 2, 2), dtype=complex)
        blocks[1, 0, 1] = entry
        with pytest.raises(ValueError, match="must be Hermitian"):
            hermitian_spectra(blocks)


class TestGridStates:
    """``spectral_grid_states`` (phase tables on a uniform grid) agrees with
    ``spectral_states`` at ``np.linspace(lo, hi, samples)``."""

    @staticmethod
    def random_spectra(rng, rows: int, d: int):
        a = rng.normal(size=(rows, d, d)) + 1j * rng.normal(size=(rows, d, d))
        energies, vectors = np.linalg.eigh((a + a.conj().swapaxes(1, 2)) / (2 * np.sqrt(d)))
        start = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
        start /= np.linalg.norm(start, axis=1, keepdims=True)
        return energies, vectors, np.einsum("rij,ri->rj", vectors.conj(), start)

    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize("samples", [2, 3, 65, 401])
    def test_matches_spectral_states_on_linspace(self, d, samples):
        rng = np.random.default_rng(100 * d + samples)
        spectra = self.random_spectra(rng, 4, d)
        # from 1e-9 wide near t = 100 to [0, 100]
        lo = np.array([0.0, 3.0, 97.25, 100.0 - 1e-9])
        hi = np.array([100.0, 3.5, 97.25 + 1e-6, 100.0])
        got = spectral_grid_states(*spectra, lo, hi, samples)
        times = np.linspace(lo, hi, samples, axis=-1)
        assert got.shape == (4, samples, d)
        assert np.abs(got - spectral_states(*spectra, times)).max() < 1e-13

    def test_one_row_and_a_table_capped_by_the_width(self):
        """At d above sqrt(samples) the table takes fewer rows than
        ceil(sqrt(samples)), and the states are still the linspace ones."""
        rng = np.random.default_rng(7)
        spectra = self.random_spectra(rng, 1, 128)
        lo, hi = np.array([1.0]), np.array([9.0])
        got = spectral_grid_states(*spectra, lo, hi, 401)
        times = np.linspace(lo, hi, 401, axis=-1)
        assert np.abs(got - spectral_states(*spectra, times)).max() < 1e-13


class TestObservables:
    def test_zz_on_reference(self):
        state = basis_state("dduu")
        assert expectation(state, z_on(1) * z_on(2)) == pytest.approx(1.0)

    def test_x_on_z_basis_state_vanishes(self):
        state = basis_state("udud")
        x1 = PauliSum.from_terms([pauli("XIII")])
        assert expectation(state, x1) == pytest.approx(0.0)

    def test_energy_of_reference_state(self):
        h = build_hamiltonian(ModelParams(epsilon=1.0, g=1.0, V=1.0))
        assert expectation(basis_state("dduu"), h) == pytest.approx(-1.5, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            expectation(basis_state("du"), PauliSum.from_terms([pauli("XY", 1j)]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_matrix(self, rng, n):
        terms = [pauli("".join(rng.choice(list("IXYZ"), size=n)), float(rng.normal()))
                 for _ in range(4 * n)]
        observable = PauliSum.from_terms(terms, n)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        expected = np.vdot(amps, to_matrix(observable) @ amps)
        assert expectation(StateVector(amps, n), observable) == pytest.approx(
            expected.real, abs=1e-12)


class TestRotationKernel:
    """A layer run by rotation_steps/apply_steps equals the ordered product
    of its dense exponentials, whatever its x = 0 groups and orderings."""

    @pytest.mark.parametrize("letters", [
        ["ZI", "XY", "YX", "IZ", "II"],   # x = 0 first, then folded after XY+YX
        ["XX", "YY", "XY", "ZZ", "IX"],   # XY anticommutes with XX, YY
        ["II"],                           # a lone global phase
        ["ZZZ", "IZI", "XIX", "YIY", "XZX", "ZII", "YYY"],
    ])
    def test_layer_matches_dense_product(self, rng, letters):
        n = len(letters[0])
        layer = tuple((pauli(s), float(rng.uniform(-2, 2))) for s in letters)
        dts = np.array([0.0, 0.37, -1.1, 2.5])
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        rows = apply_steps(amps[None, :], rotation_steps(layer, n, dts), repeats=3)
        for dt, row in zip(dts, rows):
            step = np.eye(2**n)
            for string, rate in layer:
                step = dense_expm_hermitian(dense_string(string.letters), rate * dt) @ step
            expected = np.linalg.matrix_power(step, 3) @ amps
            assert np.max(np.abs(row - expected)) < 1e-12


class TestRotationKernelOnRows:
    """The kernel on given rows repeats the full-space arithmetic entry by
    entry."""

    LETTERS = ["ZI", "XY", "YX", "IZ", "XY", "II"]  # x masks 0, 11, 11, 0, 11, 0

    def test_rows_match_the_full_space_kernel_bitwise(self, rng):
        layer = tuple((pauli(s), float(rng.uniform(-2, 2))) for s in self.LETTERS)
        dts = np.array([0.0, 0.37, -1.1, 2.5])
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        full = apply_steps(amps[None, :], rotation_steps(layer, 2, dts), repeats=4)
        for rows in (np.array([0, 3]), np.array([2, 1]), np.array([3, 1, 0, 2])):
            on_rows = apply_steps(np.broadcast_to(amps[rows], (4, len(rows))),
                                  rotation_steps(layer, 2, dts, rows), repeats=4)
            assert on_rows.tobytes() == full[:, rows].tobytes()

    @pytest.mark.parametrize("rows,message", [
        ([0, 0, 3, 3], "more than once"),
        ([-1, 2], "outside"),
        ([0, 4], "outside"),
        ([0, 1], "not closed under the x mask 0b11"),
        ([[0, 3], [1, 2]], "1-d"),
        ([0.0, 3.0], "integer"),
    ])
    def test_bad_rows_refused(self, rows, message):
        layer = tuple((pauli(s), 0.5) for s in self.LETTERS)
        with pytest.raises(ValueError, match=message):
            rotation_steps(layer, 2, np.array([0.3]), np.array(rows))

    def test_float_rows_refused_after_equal_integer_rows(self):
        # the dtype is checked before the cache lookup, where (0.0, 3.0) == (0, 3)
        layer = tuple((pauli(s), 0.5) for s in self.LETTERS)
        rotation_steps(layer, 2, np.array([0.3]), np.array([0, 3]))
        with pytest.raises(ValueError, match="integer"):
            rotation_steps(layer, 2, np.array([0.3]), np.array([0.0, 3.0]))


def _layers(n: int):
    """Two layers on the same random strings, with independent random rates."""
    entry = st.tuples(st.text("IXYZ", min_size=n, max_size=n), st.floats(-3, 3), st.floats(-3, 3))
    return st.tuples(st.just(n), st.lists(entry, min_size=1, max_size=6))


class TestRotationKernelCache:
    """The kernel caches what a layer's strings and rows fix, not its rates."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(_layers), st.integers(0, 2**16))
    def test_hit_at_other_rates_equals_a_fresh_miss_and_rows_the_full_space(self, layers, seed):
        n, entries = layers
        strings = [pauli(letters) for letters, _, _ in entries]
        old = tuple(zip(strings, (a for _, a, _ in entries)))
        new = tuple(zip(strings, (b for _, _, b in entries)))
        dts = np.array([0.0, 0.37, -1.1])
        rng = np.random.default_rng(seed)
        rows = rng.permutation(int(rng.integers(2**n)) ^ x_span(
            [pauli_action(s.letters)[0] for s in strings]))

        def factors(steps):
            return [np.asarray(f).tobytes() for step in steps for f in step]

        for on in (None, rows):
            statevector._rotation_groups.cache_clear()
            fresh = rotation_steps(new, n, dts, on)
            rotation_steps(old, n, dts, on)
            assert factors(rotation_steps(new, n, dts, on)) == factors(fresh)
            assert statevector._rotation_groups.cache_info().misses == 1
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        full = apply_steps(amps[None, :], rotation_steps(new, n, dts), repeats=2)
        on_rows = apply_steps(np.broadcast_to(amps[rows], (len(dts), len(rows))),
                              rotation_steps(new, n, dts, rows), repeats=2)
        assert on_rows.tobytes() == full[:, rows].tobytes()


def site_by_site(letters: str, k: int) -> tuple[int, complex]:
    """Image ``phase |target>`` of basis state |k> under a unit string,
    applying one letter at a time with Python integers."""
    n = len(letters)
    target, phase = k, 1.0 + 0.0j
    for q, c in enumerate(letters):
        shift = n - 1 - q
        bit = (k >> shift) & 1
        if c in "XY":
            target ^= 1 << shift
        if c == "Z" and bit:
            phase = -phase
        if c == "Y":
            phase *= -1j if bit else 1j  # Y|0> = i|1>, Y|1> = -i|0>
    return target, phase


def random_letters(rng, n: int, first: str) -> str:
    return first + "".join(rng.choice(list("IXYZ"), size=n - 1))


class TestWideRegisters:
    """Beyond 16 qubits the bits above 1 << 15 must still count; these
    checks use the site-by-site rule, never a dense matrix (n > 12)."""

    @pytest.mark.parametrize("n", [17, 20])
    def test_pauli_action_matches_site_by_site(self, rng, n):
        samples = np.concatenate([
            [1 << 16, 1 << (n - 1), (1 << n) - 1, (1 << 16) | 1],
            rng.integers(0, 2**n, size=300),
        ])
        for letters in ["Z" + "I" * (n - 1), random_letters(rng, n, "Y"),
                        random_letters(rng, n, "Z")]:
            x_mask, phase = pauli_action(letters)
            assert phase.shape == (2**n,)
            for k in samples:
                target, expected = site_by_site(letters, int(k))
                assert int(k) ^ x_mask == target
                assert abs(phase[k] - expected) < 1e-15

    @pytest.mark.parametrize("n", [17, 20])
    def test_expectation_matches_site_by_site(self, rng, n):
        z1 = "Z" + "I" * (n - 1)
        flip = random_letters(rng, n, "X")
        observable = PauliSum.from_terms([pauli(z1, 0.7), pauli(flip, -1.3)], n)
        x_mask = site_by_site(flip, 0)[0]
        seeds = [1 << 16, (1 << n) - 1, *map(int, rng.integers(0, 2**n, size=3))]
        support = sorted({k for s in seeds for k in (s, s ^ x_mask)})
        values = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        values /= np.linalg.norm(values)
        amps = np.zeros(2**n, dtype=complex)
        amps[support] = values
        psi = dict(zip(support, values))
        expected = 0.0
        for term in observable.terms:
            for k, a in psi.items():
                target, phase = site_by_site(term.letters, k)
                expected += term.coefficient * np.conj(psi.get(target, 0.0)) * phase * a
        assert expectation(StateVector(amps, n), observable) == pytest.approx(
            expected.real, abs=1e-12)

    def test_z_on_qubit_one_reads_bit_sixteen(self):
        n = 17
        amps = np.zeros(2**n, dtype=complex)
        amps[1 << 16] = 1.0
        z1 = PauliSum.from_terms([pauli("Z" + "I" * 16)])
        assert expectation(StateVector(amps, n), z1) == -1.0


class TestFidelity:
    def test_self_fidelity(self):
        state = basis_state("dudu")
        assert fidelity(state, state) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert fidelity(basis_state("du"), basis_state("ud")) == 0.0

    @given(st.floats(-np.pi, np.pi, allow_nan=False))
    def test_global_phase_invariance(self, phase):
        state = basis_state("dduu")
        rotated = StateVector(np.exp(1j * float(phase)) * state.amplitudes, 4)
        assert fidelity(state, rotated) == pytest.approx(1.0)
        assert fidelity(rotated, state) == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(basis_state("d"), basis_state("dd"))


class TestTimeSeries:
    def test_accepts_increasing_times(self):
        ts = TimeSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.25]))
        assert len(ts) == 3

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 1.0]), np.zeros(3))
