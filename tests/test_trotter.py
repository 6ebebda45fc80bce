"""Digital-evolution tests: schedules, convergence, exactness cases."""

import numpy as np
import pytest

from agassi_sim.model import ModelParams, build_hamiltonian
from agassi_sim.paulis import pauli
from agassi_sim.statevector import (
    StateVector,
    apply_pauli_exponential,
    basis_state,
    exact_evolve,
    fidelity,
)
from agassi_sim.trotter import (
    build_schedule,
    coset_steps,
    digital_error,
    evolve_schedule,
    trotter_evolve,
    trotter_states_at,
    TrotterSchedule,
)

from conftest import dense_sum


PARAMS = ModelParams(epsilon=1.0, g=1.0, V=1.0)


def smallest_monotone_onset(errors: dict[int, float]) -> int:
    """Smallest n0 such that the error strictly decreases for n >= n0."""
    ns = sorted(errors)
    onset = ns[-1]
    for candidate in ns:
        tail = [n for n in ns if n >= candidate]
        if all(errors[b] < errors[a] for a, b in zip(tail, tail[1:])):
            onset = candidate
            break
    return onset


class TestSchedule:
    def test_interaction_layer_angles(self):
        # each string angle per step: -(sign)*(g+V)/8 * dt = +-t/(4 n_T) at g=V=1
        schedule = build_schedule(PARAMS, t=2.0, n_T=10)
        assert len(schedule.interaction_layer) == 8
        per_step = {s.letters: rate * schedule.dt for s, rate in schedule.interaction_layer}
        assert per_step["XXXX"] == pytest.approx(-2.0 / 40)
        assert per_step["YYXX"] == pytest.approx(+2.0 / 40)

    def test_layer_empty_iff_coupling_vanishes(self):
        assert build_schedule(ModelParams(g=0.5, V=-0.5), 1.0, 4).interaction_layer == ()
        assert len(build_schedule(ModelParams(g=0.5, V=0.0), 1.0, 4).interaction_layer) == 8

    def test_layer_strings_pairwise_commute_with_unit_coefficients(self):
        layer = build_schedule(PARAMS, 1.0, 2).interaction_layer
        for a, _ in layer:
            assert a.coefficient == 1.0
            for b, _ in layer:
                assert a.commutes_with(b)

    def test_zero_time_step_is_identity(self):
        state = basis_state("dduu")
        out = trotter_evolve(state, PARAMS, 0.0, 1)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_preconditions(self):
        with pytest.raises(NotImplementedError):
            build_schedule(ModelParams(j=2), 1.0, 3)
        with pytest.raises(ValueError):
            build_schedule(PARAMS, 1.0, 0)
        with pytest.raises(ValueError):
            build_schedule(PARAMS, -1.0, 3)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be nonnegative and finite"):
            build_schedule(PARAMS, t, 5)
        with pytest.raises(ValueError, match="t must be nonnegative and finite"):
            trotter_evolve(basis_state("dduu"), PARAMS, t, 5)
        with pytest.raises(ValueError, match="times must be finite"):
            trotter_states_at(basis_state("dduu"), PARAMS, np.array([0.0, t]), 5)

    @pytest.mark.parametrize("n_T,t", [(0, 1.0), (-2, 1.0), (2.0, 1.0), (3, -0.5)])
    def test_hand_built_schedule_checks_steps_and_time(self, n_T, t):
        diagonal = build_schedule(PARAMS, 1.0, 1).diagonal_block
        with pytest.raises(ValueError):
            TrotterSchedule(diagonal, (), n_T, t)

    @pytest.mark.parametrize("coefficient", [-1.0, 0.5, 1j])
    def test_non_unit_interaction_coefficient_rejected(self, coefficient):
        diagonal = build_schedule(PARAMS, 1.0, 1).diagonal_block
        with pytest.raises(ValueError, match="XXXX"):
            TrotterSchedule(diagonal, ((pauli("XXXX", coefficient), 0.5),), 2, 1.0)


class TestEvolution:
    def test_fidelity_one_at_zero_time(self):
        state = basis_state("dduu")
        assert fidelity(trotter_evolve(state, PARAMS, 0.0, 7), state) == pytest.approx(1.0)

    def test_exact_when_blocks_commute(self):
        # g = -V empties the interaction layer; both routes are then exact.
        params = ModelParams(epsilon=1.0, g=0.9, V=-0.9)
        h = build_hamiltonian(params)
        state = basis_state("dduu")
        for t in (0.5, 2.0, 7.3):
            digital = trotter_evolve(state, params, t, 1)
            assert fidelity(digital, exact_evolve(state, h, t)) == pytest.approx(1.0, abs=1e-12)

    def test_tracks_exact_with_dips_and_revivals(self):
        # at n_T = 10 over (g+V) t in [0, 10] the fidelity stays high but dips
        state = basis_state("dduu")
        h = build_hamiltonian(PARAMS)
        times = np.linspace(1e-3, 5.0, 60)
        fids = [
            fidelity(exact_evolve(state, h, t), trotter_evolve(state, PARAMS, t, 10))
            for t in times
        ]
        assert min(fids) > 0.9
        assert min(fids) < 0.999  # genuine dips, not a flat line

    def test_norm_preserved_across_steps(self):
        state = basis_state("dduu")
        out = trotter_evolve(state, PARAMS, 10.0, 1000)
        assert abs(out.norm() - 1.0) < 1e-10

    def test_reordering_invariance_of_interaction_layer(self, rng):
        schedule = build_schedule(PARAMS, 1.7, 4)
        state = basis_state("dduu")
        reference = evolve_schedule(state, schedule)
        for _ in range(5):
            perm = rng.permutation(8)
            shuffled = TrotterSchedule(
                diagonal_block=schedule.diagonal_block,
                interaction_layer=tuple(schedule.interaction_layer[k] for k in perm),
                n_T=schedule.n_T,
                t=schedule.t,
            )
            out = evolve_schedule(state, shuffled)
            assert np.max(np.abs(out.amplitudes - reference.amplitudes)) < 1e-12


def per_string_evolution(state: StateVector, schedule: TrotterSchedule) -> StateVector:
    """Reference step: every layer string as its own exponential, in layer
    order, then the diagonal block as dense phases."""
    energies = np.real(np.diag(dense_sum(schedule.diagonal_block)))
    for _ in range(schedule.n_T):
        for string, rate in schedule.interaction_layer:
            state = apply_pauli_exponential(state, string, rate * schedule.dt)
        state = StateVector(np.exp(-1j * energies * schedule.dt) * state.amplitudes, state.n)
    return state


def random_state(rng, n: int = 4) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps / np.linalg.norm(amps), n)


class TestCollapsedInteractionLayer:
    """The layer runs as one pair rotation per step; it must equal the
    ordered product of the per-string exponentials."""

    def test_matches_per_string_product(self, rng):
        draws = [(float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1.5, 1.5)),
                  float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.0, 8.0)),
                  int(rng.integers(1, 12))) for _ in range(20)]
        draws += [(1.0, 0.6, -0.6, 3.0, 4), (0.9, -0.8, 0.3, 2.5, 7)]  # g+V = 0, < 0
        for eps, g, v, t, n_T in draws:
            schedule = build_schedule(ModelParams(epsilon=eps, g=g, V=v), t, n_T)
            state = random_state(rng)
            out = evolve_schedule(state, schedule)
            ref = per_string_evolution(state, schedule)
            assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-12

    def test_batched_rows_match_per_string_product(self, rng):
        params = ModelParams(epsilon=1.0, g=0.4, V=0.45)
        state = random_state(rng)
        times = np.linspace(0.0, 6.0, 9)
        rows = trotter_states_at(state, params, times, 5)
        for t, row in zip(times, rows):
            ref = per_string_evolution(state, build_schedule(params, float(t), 5))
            assert np.max(np.abs(row - ref.amplitudes)) < 1e-12

    def test_non_commuting_strings_with_one_x_mask_keep_their_order(self, rng):
        # XXXX, XXXY and YXXY share x mask 1111 but pairwise anticommute;
        # YXXY and XXYY commute; IXXI flips other bits.
        layer = tuple((pauli(s), r) for s, r in (
            ("XXXX", 0.3), ("XXXY", -0.7), ("YXXY", 0.2), ("XXYY", 0.5), ("IXXI", -0.4)))
        schedule = build_schedule(PARAMS, 1.3, 3)
        custom = TrotterSchedule(diagonal_block=schedule.diagonal_block,
                                 interaction_layer=layer, n_T=3, t=1.3)
        state = random_state(rng)
        ref = per_string_evolution(state, custom)
        assert np.max(np.abs(evolve_schedule(state, custom).amplitudes - ref.amplitudes)) < 1e-12


class TestDigitalError:
    def test_zero_time(self):
        assert digital_error(basis_state("dduu"), PARAMS, 0.0, 3) == pytest.approx(0.0)

    def test_commuting_case(self):
        params = ModelParams(epsilon=1.0, g=0.4, V=-0.4)
        err = digital_error(basis_state("dduu"), params, 3.0, 2)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_error_halves_or_better_when_steps_double(self):
        state = basis_state("dduu")
        coarse = digital_error(state, PARAMS, 1.0, 20)
        fine = digital_error(state, PARAMS, 1.0, 40)
        assert coarse / fine >= 2.0

    @pytest.mark.parametrize(
        "t,max_onset,n_max,tail_error",
        [(1.0, 3, 40, 1e-3), (2.0, 8, 40, 1e-2), (10.0, 16, 60, 1e-2)],
    )
    def test_monotone_convergence_beyond_onset(self, t, max_onset, n_max, tail_error):
        state = basis_state("dduu")
        errors = {n: digital_error(state, PARAMS, t, n) for n in range(1, n_max + 1)}
        onset = smallest_monotone_onset(errors)
        assert onset <= max_onset
        assert errors[n_max] < tail_error

    def test_empirical_order_at_least_linear(self):
        state = basis_state("dduu")
        steps = np.arange(10, 41)
        errors = np.array([digital_error(state, PARAMS, 2.0, int(n)) for n in steps])
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert slope <= -1.0


class TestCosetSteps:
    @pytest.mark.parametrize("start,dts", [(np.ones(3), [np.nan]),  # a NaN step size
                                           (np.ones(3), [0.1])])  # 3 amplitudes for 2 rows
    def test_inputs_checked_on_the_call_before_any_step(self, start, dts):
        with pytest.raises(ValueError):
            coset_steps(start, np.array([3, 12]), ModelParams(g=0.5, V=0.5), dts)
