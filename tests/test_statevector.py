"""State-vector engine tests with closed-form and dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agassi_sim.model import ModelParams, build_hamiltonian
from agassi_sim.paulis import CapacityError, PauliSum, pauli, to_matrix
from agassi_sim.statevector import (
    ExactPropagator,
    StateVector,
    TimeSeries,
    apply_pauli,
    apply_pauli_exponential,
    apply_steps,
    basis_index,
    basis_state,
    exact_evolve,
    expectation,
    fidelity,
    rotation_steps,
)

from agassi_sim.trotter import diagonal_energies

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
    def test_apply_pauli_matches_site_by_site(self, rng, n):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(amps / np.linalg.norm(amps), n)
        samples = np.concatenate([
            [1 << 16, 1 << (n - 1), (1 << n) - 1, (1 << 16) | 1],
            rng.integers(0, 2**n, size=300),
        ])
        for letters in ["Z" + "I" * (n - 1), random_letters(rng, n, "Y"),
                        random_letters(rng, n, "Z")]:
            out = apply_pauli(state, pauli(letters, -0.5))
            for k in samples:
                target, phase = site_by_site(letters, int(k))
                assert abs(out[target] - (-0.5) * phase * state.amplitudes[k]) < 1e-15

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
        assert diagonal_energies(z1)[1 << 16] == -1.0


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
