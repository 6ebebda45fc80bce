"""Gate compilation tests: counts, budgets, unitary soundness, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from agassi_sim.ion_compiler import (
    MS,
    CompilationError,
    GateCounts,
    GateSequence,
    GlobalPhase,
    Rotation,
    StepCounts,
    _four_body_block,
    _zz_block,
    compile_schedule,
    count_gates,
    error_budget,
    sequence_from_text,
    sequence_to_text,
    simulate_sequence,
)
from agassi_sim.model import INTERACTION_STRINGS, ModelParams
from agassi_sim.paulis import PauliString, PauliSum, pauli, to_matrix
from agassi_sim.statevector import StateVector, apply_pauli_exponential, basis_state
from agassi_sim.trotter import TrotterSchedule, build_schedule, trotter_evolve


PARAMS = ModelParams(epsilon=1.0, g=1.0, V=1.0)


def random_state(gen, n=4):
    amps = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    return StateVector(amps / np.linalg.norm(amps), n)


def all_basis_states(n=4):
    for k in range(2**n):
        pattern = "".join("u" if not (k >> (n - 1 - i)) & 1 else "d" for i in range(n))
        yield basis_state(pattern)


class TestGateCounts:
    def test_paper_accounting_per_step(self):
        counts = count_gates(compile_schedule(build_schedule(PARAMS, 1.0, 5)))
        assert counts.per_trotter_step == StepCounts(52, 50, 16)
        assert counts.single_qubit == 5 * 52
        assert counts.two_qubit_equivalent == 5 * 50
        assert counts.collective_ms == 5 * 16

    def test_single_qubit_breakdown(self):
        # 4 (h1) + 8 (h2 basis changes) + 8 (one local per block)
        # + 32 (two per Y letter; 16 Y letters across the eight strings)
        y_letters = sum(s.count("Y") for s, _ in INTERACTION_STRINGS)
        assert y_letters == 16
        assert 4 + 8 + len(INTERACTION_STRINGS) + 2 * y_letters == 52

    def test_commuting_case_drops_four_body_blocks(self):
        schedule = build_schedule(ModelParams(epsilon=1.0, g=0.7, V=-0.7), 1.0, 3)
        counts = count_gates(compile_schedule(schedule))
        assert counts.per_trotter_step == StepCounts(12, 2, 0)

    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(0.1, 2.0),
        st.floats(0.1, 2.0),
        st.floats(0.1, 5.0),
        st.integers(1, 9),
    )
    def test_counts_independent_of_angles(self, g, v, t, n_T):
        schedule = build_schedule(
            ModelParams(epsilon=1.0, g=float(g), V=float(v)), float(t), n_T
        )
        counts = count_gates(compile_schedule(schedule))
        assert counts.per_trotter_step == StepCounts(52, 50, 16)

    def test_rejects_unsupported_strings(self):
        bad = TrotterSchedule(
            diagonal_block=PauliSum.zero(4),
            interaction_layer=((PauliString(1.0, "XXXI"), 0.5),),
            n_T=1,
            t=1.0,
        )
        with pytest.raises(CompilationError):
            compile_schedule(bad)
        bad_diag = TrotterSchedule(
            diagonal_block=PauliSum.from_terms([pauli("ZIZI", 0.5)]),
            interaction_layer=(),
            n_T=1,
            t=1.0,
        )
        with pytest.raises(CompilationError):
            compile_schedule(bad_diag)
        with pytest.raises(CompilationError):
            compile_schedule(
                TrotterSchedule(
                    diagonal_block=PauliSum.from_terms([pauli("XIII", 0.5)]),
                    interaction_layer=(),
                    n_T=1,
                    t=1.0,
                )
            )


class TestErrorBudget:
    def test_reference_numbers(self):
        counts = GateCounts(260, 250, 80, StepCounts(52, 50, 16))
        budget = error_budget(counts, 1e-4, 1e-3, 5)
        assert budget.total == pytest.approx(0.276, abs=1e-12)
        assert budget.projected_fidelity == pytest.approx(0.724, abs=1e-12)

    def test_zero_rates(self):
        counts = GateCounts(52, 50, 16, StepCounts(52, 50, 16))
        assert error_budget(counts, 0.0, 0.0, 5).total == 0.0

    def test_single_step(self):
        counts = GateCounts(52, 50, 16, StepCounts(52, 50, 16))
        assert error_budget(counts, 1e-4, 1e-3, 1).total == pytest.approx(0.0552, abs=1e-12)

    def test_saturated_budget_has_no_fidelity(self):
        counts = GateCounts(52, 50, 16, StepCounts(52, 50, 16))
        assert error_budget(counts, 0.5, 0.5, 5).projected_fidelity is None

    def test_rates_must_be_probabilities(self):
        counts = GateCounts(52, 50, 16, StepCounts(52, 50, 16))
        with pytest.raises(ValueError):
            error_budget(counts, -0.1, 0.0, 1)
        with pytest.raises(ValueError):
            error_budget(counts, 0.0, 1.5, 1)


class TestMSGate:
    @given(st.floats(-3.0, 3.0, allow_nan=False))
    def test_ms_times_inverse_is_identity(self, theta):
        gen = np.random.default_rng(7)
        state = random_state(gen)
        seq = GateSequence(4, (
            MS(float(theta), "x", (1, 2, 3, 4)),
            MS(-float(theta), "x", (1, 2, 3, 4)),
        ))
        out = simulate_sequence(state, seq)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_ms_preserves_norm(self):
        gen = np.random.default_rng(11)
        state = random_state(gen)
        out = simulate_sequence(state, GateSequence(4, (MS(0.91, "x", (1, 2, 3, 4)),)))
        assert abs(out.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("gate,n", [
        (MS(0.83, "x", (1, 2)), 2),
        (MS(0.37, "x", (3, 1, 2)), 3),
        (MS(-1.1, "x", (1, 3, 4)), 4),
        (MS(2.9, "x", (1, 2, 3, 4)), 4),
        (GlobalPhase(0.61), 3),
        (Rotation("y", 0.7, 2), 3),
        (Rotation("z", -1.3, 1), 2),
    ], ids=["ms2", "ms3", "ms3-of-4", "ms4", "phase", "ry", "rz"])
    def test_single_gate_matches_expm_of_generator(self, gate, n, rng):
        """Each gate against expm of the generator it is defined by."""
        def site(q, letter):
            return pauli("".join(letter if k == q else "I" for k in range(1, n + 1)))

        if isinstance(gate, MS):
            collective = PauliSum.from_terms([site(q, "X") for q in gate.qubits], n)
            generator = gate.angle / 4 * to_matrix(collective * collective)
        elif isinstance(gate, GlobalPhase):
            generator = -gate.angle * to_matrix(PauliSum.identity(n))
        else:
            generator = gate.angle / 2 * to_matrix(site(gate.qubit, gate.axis.upper()))
        state = random_state(rng, n)
        out = simulate_sequence(state, GateSequence(n, (gate,)))
        expected = expm(-1j * generator) @ state.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_ms_needs_two_ions(self):
        with pytest.raises(ValueError):
            MS(0.5, "x", (2,))

    def test_only_x_axis(self):
        with pytest.raises(ValueError):
            MS(0.5, "y", (1, 2))


class TestBlockConstructions:
    @pytest.mark.parametrize("letters", [s for s, _ in INTERACTION_STRINGS])
    def test_four_body_block_equals_string_exponential(self, letters, rng):
        alpha = float(rng.uniform(-1.0, 1.0))
        seq = GateSequence(4, tuple(_four_body_block(letters, alpha, 4)))
        for _ in range(3):
            state = random_state(rng)
            compiled = simulate_sequence(state, seq)
            direct = apply_pauli_exponential(state, pauli(letters), alpha)
            assert np.max(np.abs(compiled.amplitudes - direct.amplitudes)) < 1e-12

    def test_four_body_gate_budget(self):
        # Per-block single-qubit spend: 3/5/7 for 0/2/4 Y letters; the eight
        # blocks together use 8 locals + 32 basis changes = 40 rotations,
        # the conventional 1-per-block plus 2-per-Y accounting in aggregate.
        total_rotations = 0
        for letters, _ in INTERACTION_STRINGS:
            gates = _four_body_block(letters, 0.3, 4)
            rotations = [g for g in gates if isinstance(g, Rotation)]
            collective = [g for g in gates if isinstance(g, MS)]
            assert len(collective) == 2
            assert collective[0].angle == -collective[1].angle
            assert len(rotations) == {0: 3, 2: 5, 4: 7}[letters.count("Y")]
            total_rotations += len(rotations)
        assert total_rotations == 40

    def test_zz_block_matches_engine(self, rng):
        beta = float(rng.uniform(-1.0, 1.0))
        seq = GateSequence(4, tuple(_zz_block((3, 4), beta)))
        for _ in range(3):
            state = random_state(rng)
            compiled = simulate_sequence(state, seq)
            direct = apply_pauli_exponential(state, pauli("IIZZ"), beta)
            assert np.max(np.abs(compiled.amplitudes - direct.amplitudes)) < 1e-12


class TestSimulateSequence:
    def test_empty_sequence(self):
        state = basis_state("dduu")
        out = simulate_sequence(state, GateSequence(4, ()))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_full_step_matches_trotter_unitary(self, rng):
        schedule = build_schedule(PARAMS, 0.9, 1)
        seq = compile_schedule(schedule)
        for _ in range(4):
            state = random_state(rng)
            compiled = simulate_sequence(state, seq)
            reference = trotter_evolve(state, PARAMS, 0.9, 1)
            assert np.max(np.abs(compiled.amplitudes - reference.amplitudes)) < 1e-12

    def test_soundness_on_random_draws(self, rng):
        for _ in range(6):
            params = ModelParams(
                epsilon=1.0,
                g=float(rng.uniform(-1.5, 1.5)),
                V=float(rng.uniform(-1.5, 1.5)),
            )
            t = float(rng.uniform(0.1, 4.0))
            n_T = int(rng.integers(1, 8))
            seq = compile_schedule(build_schedule(params, t, n_T))
            state = random_state(rng)
            compiled = simulate_sequence(state, seq)
            reference = trotter_evolve(state, params, t, n_T)
            assert np.max(np.abs(compiled.amplitudes - reference.amplitudes)) < 1e-11

    def test_gate_qubit_bounds(self):
        state = basis_state("du")
        with pytest.raises(ValueError):
            simulate_sequence(state, GateSequence(2, (Rotation("z", 0.1, 3),)))
        with pytest.raises(ValueError):
            simulate_sequence(state, GateSequence(2, (MS(0.1, "x", (1, 3)),)))

    def test_state_size_must_match_program(self):
        with pytest.raises(ValueError, match="qubits"):
            simulate_sequence(basis_state("dduu"), GateSequence(2, ()))


class TestSerialization:
    def test_round_trip(self):
        seq = compile_schedule(build_schedule(PARAMS, 1.23, 2))
        text = sequence_to_text(seq)
        parsed = sequence_from_text(text)
        assert parsed == seq

    def test_format_lines(self):
        seq = GateSequence(4, (
            Rotation("z", -0.5, 3),
            MS(np.pi / 2, "x", (1, 2, 3, 4)),
            GlobalPhase(0.125),
        ))
        lines = sequence_to_text(seq).splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "R z -0.5 3"
        assert lines[2] == f"MS {np.pi/2!r} x 1,2,3,4"
        assert lines[3] == "PHASE 0.125"

    def test_infers_qubits_without_header(self):
        parsed = sequence_from_text("R x 0.5 2\nMS 0.25 x 1,4\n")
        assert parsed.n_qubits == 4
        assert parsed.n_steps == 1

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            sequence_from_text("HADAMARD 1\n")
