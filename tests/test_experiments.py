"""Experiment-runner tests: observables, amplitude extraction, CSV output, CLI."""

import ast
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import agassi_sim
from agassi_sim import experiments, statevector
from agassi_sim.cli import main as cli_main
from agassi_sim.experiments import (
    EXPERIMENTS,
    GRID_SAMPLES,
    MAX_AMPLITUDES,
    ZOOM_SAMPLES,
    ZOOM_WIDTH,
    ExperimentConfig,
    amplitude,
    classify_amplitude,
    correlation_series,
    default_t_final,
    fidelity_time_series,
    fidelity_vs_steps,
    phase_sweep,
    rabi_period,
    run,
    survival_minimum,
    survival_series,
)
from agassi_sim.model import ModelParams, build_collective_ops, build_hamiltonian, critical_line
from agassi_sim.paulis import CapacityError, PauliString, PauliSum, to_matrix, x_blocks, x_span
from agassi_sim.statevector import (ExactPropagator, StateVector, basis_index, basis_state,
                                    expectation)
from agassi_sim.trotter import coset_steps, trotter_evolve, trotter_states_at
from conftest import dense_sum


def transfer_amplitude(eps: float, gv: float) -> float:
    return gv**2 / (gv**2 + eps**2)


def oracle_amplitude(eps: float, gv: float) -> float:
    """Closed-form oscillation amplitude 4A(1-A), clipped at the saturation value 1."""
    a = transfer_amplitude(eps, gv)
    return 1.0 if a >= 0.5 else 4.0 * a * (1.0 - a)


def digital_transfer(eps: float, gv: float, times, n_T: int) -> np.ndarray:
    """Closed-form population moved from |dduu> to |uudd> by n_T first-order
    steps of dt = t / n_T.  On that coset a step is the SU(2) rotation
    exp(i a sigma_z) exp(i b sigma_x), a = eps dt and b = (g+V) dt, so with
    cos(phi) = cos(a) cos(b) the transfer is sin^2(b) sin^2(n_T phi) /
    (sin^2(a) + cos^2(a) sin^2(b)).  The denominator is sin^2(phi), which
    vanishes only where sin(a) = sin(b) = 0, and there the transfer is 0."""
    dt = np.asarray(times, dtype=float) / n_T
    a, b = eps * dt, gv * dt
    phi = np.arccos(np.cos(a) * np.cos(b))
    moved = np.sin(b) ** 2 * np.sin(n_T * phi) ** 2
    den = np.sin(a) ** 2 + np.cos(a) ** 2 * np.sin(b) ** 2
    return np.divide(moved, den, out=np.zeros_like(moved), where=den > 0)


def digital_oracle_amplitude(eps: float, gv: float, n_T: int) -> float:
    """The largest 4P(1-P) of :func:`digital_transfer` over two Rabi periods,
    by a 401-sample grid and six 65-sample zoom passes on the bracket around
    the best sample, which take its width below 1e-9 at eps = 1."""
    lo, hi, samples, best = 0.0, 2 * np.pi / np.hypot(eps, gv), 401, -np.inf
    for _ in range(7):
        times = np.linspace(lo, hi, samples)
        moved = digital_transfer(eps, gv, times, n_T)
        values = 4 * moved * (1 - moved)
        k = int(np.argmax(values))
        best = max(best, float(values[k]))
        lo, hi, samples = times[max(k - 1, 0)], times[min(k + 1, samples - 1)], 65
    return best


def cfg_for(experiment: str, g: float, v: float, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        experiment=experiment,
        params=ModelParams(epsilon=1.0, g=g, V=v),
        **kw,
    )


class TestCorrelation:
    def test_zero_at_time_zero(self):
        exact, digital = correlation_series(cfg_for("correlation", 0.5, 1.0, samples=16))
        assert exact.values[0] == pytest.approx(0.0, abs=1e-12)
        assert digital.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_exact_only_mode(self):
        exact, digital = correlation_series(
            cfg_for("correlation", 0.5, 0.0, samples=8, trotter=False)
        )
        assert digital is None
        assert len(exact) == 8

    def test_values_are_probabilistic(self):
        exact, _ = correlation_series(cfg_for("correlation", 0.4, 0.4, samples=64, trotter=False))
        assert np.all(exact.values > -1e-9)
        assert np.all(exact.values < 1 + 1e-9)


class TestAmplitude:
    @pytest.mark.parametrize(
        "g,v,expected,tol",
        [
            (0.5, 0.0, 0.64, 1e-4),
            (0.4, 0.4, 1600.0 / 1681.0, 1e-6),
            (0.5, 1.0, 1.0, 1e-6),
        ],
    )
    def test_matches_two_level_oracle(self, g, v, expected, tol):
        value = amplitude(cfg_for("correlation", g, v))
        assert value == pytest.approx(expected, abs=tol)
        assert value == pytest.approx(oracle_amplitude(1.0, g + v), abs=tol)

    @pytest.mark.parametrize("eps", [0.93, 1.0, 1.07])
    @pytest.mark.parametrize("gv", [0.2, 0.37, 0.9, 1.6])
    def test_zoom_pins_the_closed_form(self, eps, gv):
        cfg = ExperimentConfig("correlation", params=ModelParams(epsilon=eps, g=gv / 2, V=gv / 2))
        assert abs(amplitude(cfg) - oracle_amplitude(eps, gv)) < 1e-13

    def test_degenerate_coupling_gives_zero(self):
        assert amplitude(cfg_for("correlation", 0.5, -0.5)) == 0.0

    def test_unit_scaling_with_epsilon(self):
        # only the ratio (g+V)/epsilon matters; the probe saturates at g+V = epsilon
        sp = ExperimentConfig(
            experiment="correlation", params=ModelParams(epsilon=2.0, g=0.5, V=0.5)
        )
        assert amplitude(sp) == pytest.approx(0.64, abs=1e-6)
        bsp = ExperimentConfig(
            experiment="correlation", params=ModelParams(epsilon=2.0, g=1.0, V=1.0)
        )
        assert amplitude(bsp) == pytest.approx(1.0, abs=1e-6)

    def test_saturates_exactly_at_critical_point(self):
        assert amplitude(cfg_for("correlation", 0.5, 0.5)) == pytest.approx(1.0, abs=1e-9)

    def test_classification_rule(self):
        assert classify_amplitude(1.0) == "BSP"
        assert classify_amplitude(1.0 - 5e-7) == "BSP"
        assert classify_amplitude(0.9995) == "SP"


class TestSurvival:
    def test_starts_at_one(self):
        series = survival_series(cfg_for("survival", 1.0, 1.0, samples=32))
        assert series.values[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("g,v,expected", [(1.0, 1.0, 0.2), (0.5, 0.5, 0.5)])
    def test_minimum_matches_oracle(self, g, v, expected):
        value = survival_minimum(cfg_for("survival", g, v))
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(1.0 - transfer_amplitude(1.0, g + v), abs=1e-9)


class TestSweep:
    def test_shape_of_default_grid(self):
        sweep = phase_sweep(cfg_for("phase_sweep", 0.0, 0.0, sweep_points=11))
        assert len(sweep.control) == 11
        assert sweep.control[0] == 0.0
        assert sweep.control[-1] == 1.0

    def test_monotone_then_saturated(self):
        sweep = phase_sweep(cfg_for("phase_sweep", 0.0, 0.0, sweep_points=21))
        amps = sweep.amplitude
        below = sweep.control <= 0.5
        assert np.all(np.diff(amps[below]) > -1e-9)
        assert np.all(np.abs(amps[~below] - 1.0) <= 1e-6)

    def test_labels_follow_phase_line(self):
        sweep = phase_sweep(cfg_for("phase_sweep", 0.0, 0.0, sweep_points=5))
        assert sweep.phase == ("SP", "SP", "BSP", "BSP", "BSP")


def reference_max(params: ModelParams, values, states_at) -> float:
    """The one-point search written out on full-space states: the grid over
    two Rabi periods, then zoom passes on the bracket around the best sample
    until it is at most ZOOM_WIDTH wide or stops shrinking."""
    times = np.linspace(0.0, 2 * rabi_period(params), GRID_SAMPLES)
    best, width = -np.inf, np.inf
    while True:
        samples = values(states_at(times))
        k = int(np.argmax(samples))
        best = max(best, float(samples[k]))
        lo, hi = times[max(k - 1, 0)], times[min(k + 1, len(times) - 1)]
        if hi - lo <= ZOOM_WIDTH or hi - lo >= width:
            return best
        width = hi - lo
        times = np.linspace(lo, hi, ZOOM_SAMPLES)


def dense_states_at(h: PauliSum, initial):
    """Full-space exact states at given times, from an independent dense
    matrix and ``np.linalg.eigh``."""
    energies, vectors = np.linalg.eigh(dense_sum(h))
    coeffs = vectors.conj().T @ initial.amplitudes
    return lambda times: (np.exp(-1j * np.outer(times, energies)) * coeffs) @ vectors.T


def coset_size(j: int) -> int:
    """States in the span of the x masks of the coupling-free blocks at j."""
    blocks = experiments._coupling_free_blocks(j)
    return len(x_span([x for block in blocks for x, _ in x_blocks(block)]))


def z_signs(qubit: int, n: int = 4) -> np.ndarray:
    """Eigenvalue of Z on qubit (1 = most significant bit, bit 0 = up) per basis index."""
    return 1.0 - 2.0 * ((np.arange(2**n) >> (n - qubit)) & 1)


def full_corr(states: np.ndarray) -> np.ndarray:
    prob = np.abs(states) ** 2
    z1, z2 = z_signs(1), z_signs(2)
    return prob @ (z1 * z2) - (prob @ z1) * (prob @ z2)


def sweep_cfg(start: float, stop: float, points: int, **kw) -> ExperimentConfig:
    return ExperimentConfig("phase_sweep", sweep_start=start, sweep_stop=stop,
                            sweep_points=points, **kw)


class TestBatchedSearch:
    """The sweep searches every point at once, in capped chunks, on the
    initial state's coset of the x-mask span."""

    @pytest.mark.parametrize("eps", [0.9, 1.0, 1.1])
    def test_full_sweep_pins_the_closed_form(self, eps):
        sweep = phase_sweep(ExperimentConfig("phase_sweep", params=ModelParams(epsilon=eps)))
        assert len(sweep.control) == 101
        expected = [oracle_amplitude(eps, 2 * gv) for gv in sweep.control]
        assert np.max(np.abs(sweep.amplitude - expected)) < 1e-13

    def test_sweep_through_zero_and_negative_coupling(self):
        cfg = sweep_cfg(-1.0, 1.0, 41)
        chunk = experiments.SEARCH_AMPLITUDES // (GRID_SAMPLES * coset_size(1))
        assert 1 < chunk < 41 and 41 % chunk != 0
        sweep = phase_sweep(cfg)
        zero = list(sweep.control).index(0.0)
        assert sweep.amplitude[zero] == 0.0
        expected = [oracle_amplitude(1.0, 2 * gv) for gv in sweep.control]
        assert np.max(np.abs(sweep.amplitude - expected)) < 1e-13
        # each point alone (the one-point search) gives the batched value
        alone = [amplitude(cfg_for("correlation", gv, gv)) for gv in sweep.control]
        assert np.max(np.abs(sweep.amplitude - alone)) < 1e-14

    def test_chunk_size_does_not_change_the_result(self, monkeypatch):
        cfg = sweep_cfg(-0.3, 1.2, 23)
        default = phase_sweep(cfg).amplitude
        monkeypatch.setattr(experiments, "SEARCH_AMPLITUDES", 3 * GRID_SAMPLES * coset_size(1))
        spectra = []
        hermitian_spectra = experiments.hermitian_spectra
        monkeypatch.setattr(experiments, "hermitian_spectra",
                            lambda blocks: spectra.append(len(blocks))
                            or hermitian_spectra(blocks))
        small = phase_sweep(cfg).amplitude
        assert spectra == [3] * 7 + [2]
        assert np.max(np.abs(small - default)) < 1e-14

    @pytest.mark.parametrize("init", ["dduu", "dudd", "uuuu"])
    def test_sector_search_matches_full_space_search(self, init):
        initial = basis_state(init)
        sweep = phase_sweep(sweep_cfg(-0.45, 1.15, 9, initial_state=init))
        for gv, amp in zip(sweep.control, sweep.amplitude):
            params = ModelParams(g=float(gv), V=float(gv))
            states_at = dense_states_at(build_hamiltonian(params), initial)
            assert abs(amp - reference_max(params, full_corr, states_at)) < 1e-12
        for g, v in ((0.3, 0.1), (-0.2, 0.7), (0.9, 0.4)):
            params = ModelParams(g=g, V=v)
            states_at = dense_states_at(build_hamiltonian(params), initial)
            minimum = -reference_max(
                params, lambda s: -np.abs(s @ initial.amplitudes.conj()) ** 2, states_at)
            cfg = ExperimentConfig("survival", params=params, initial_state=init)
            assert abs(survival_minimum(cfg) - minimum) < 1e-12

    @pytest.mark.parametrize("init", ["dduu", "dudd"])
    def test_digital_sector_search_matches_full_space_search(self, init):
        initial = basis_state(init)
        sweep = phase_sweep(sweep_cfg(0.1, 0.9, 5, n_T=5, initial_state=init), trotterized=True)
        for gv, amp in zip(sweep.control, sweep.amplitude):
            params = ModelParams(g=float(gv), V=float(gv))
            states_at = partial(trotter_states_at, initial, params, n_T=5)
            assert abs(amp - reference_max(params, full_corr, states_at)) < 1e-12

    @staticmethod
    def record_kernel_calls(monkeypatch) -> list[tuple[int, int, int]]:
        """(rows, samples, d) of every exact search pass slice."""
        calls = []
        kernel = experiments.spectral_grid_states

        def recorded(energies, vectors, coeffs, lo, hi, samples):
            calls.append((len(energies), samples, energies.shape[1]))
            return kernel(energies, vectors, coeffs, lo, hi, samples)

        monkeypatch.setattr(experiments, "spectral_grid_states", recorded)
        return calls

    def test_every_pass_slice_stays_within_the_budget(self, monkeypatch):
        cfg = sweep_cfg(-0.3, 1.2, 23)
        default = phase_sweep(cfg).amplitude
        budget = 2 * GRID_SAMPLES * coset_size(1) + 100
        monkeypatch.setattr(experiments, "SEARCH_AMPLITUDES", budget)
        calls = self.record_kernel_calls(monkeypatch)
        small = phase_sweep(cfg).amplitude
        assert max(rows * samples * d for rows, samples, d in calls) <= budget
        grid = [rows for rows, samples, _ in calls if samples == GRID_SAMPLES]
        assert grid == [2] * 11 + [1]
        # zoom passes run in slices of budget // (ZOOM_SAMPLES * d) = 13 points
        assert max(rows for rows, samples, _ in calls if samples == ZOOM_SAMPLES) == 13
        assert np.max(np.abs(small - default)) < 1e-14

    def test_default_sweep_makes_three_grid_slices_then_one_call_per_zoom_pass(
            self, monkeypatch):
        calls = self.record_kernel_calls(monkeypatch)
        phase_sweep(ExperimentConfig("phase_sweep"))
        # g = V = 0 is stationary and never searched; d = 2 at j = 1
        assert [call[:2] for call in calls[:3]] == [(40, GRID_SAMPLES), (40, GRID_SAMPLES),
                                                   (20, GRID_SAMPLES)]
        zoom = calls[3:]
        assert 1 <= len(zoom) <= 6 and {samples for _, samples, _ in zoom} == {ZOOM_SAMPLES}
        rows = [r for r, _, _ in zoom]
        assert rows[0] == 100 and rows == sorted(rows, reverse=True)

    @pytest.mark.parametrize("g,v", [(0.3, 0.2), (0.45, 0.6)])
    def test_search_at_coset_dimension_16_matches_full_space_search(self, g, v):
        params = ModelParams(g=g, V=v, j=2)
        initial = basis_state("dddduuuu")
        assert coset_size(2) == 16
        z1, z2 = z_signs(1, 8), z_signs(2, 8)

        def corr(states):
            prob = np.abs(states) ** 2
            return prob @ (z1 * z2) - (prob @ z1) * (prob @ z2)

        states_at = dense_states_at(build_hamiltonian(params), initial)
        cfg = ExperimentConfig("correlation", params=params)
        assert abs(amplitude(cfg) - reference_max(params, corr, states_at)) < 1e-12
        minimum = -reference_max(
            params, lambda s: -np.abs(s @ initial.amplitudes.conj()) ** 2, states_at)
        cfg = ExperimentConfig("survival", params=params)
        assert abs(survival_minimum(cfg) - minimum) < 1e-12

    def test_sweep_memory_stays_under_the_cap(self):
        cfg = ExperimentConfig("phase_sweep")
        phase_sweep(cfg)  # fill the small caches first
        tracemalloc.start()
        try:
            phase_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_coupling_out_of_the_coset_evolved_exactly(self, monkeypatch):
        """A term whose x mask leaves the span grows the coset (here from 2
        to 4 states) and the search stays exact on it."""
        blocks = experiments._coupling_free_blocks(1)
        leak = PauliSum.from_terms([PauliString(1e-6, "XIII")], 4)
        monkeypatch.setattr(experiments, "_coupling_free_blocks",
                            lambda j: (blocks[0] + leak, *blocks[1:]))
        sizes = []
        hermitian_spectra = experiments.hermitian_spectra
        monkeypatch.setattr(experiments, "hermitian_spectra",
                            lambda blocks: sizes.append(blocks.shape[1:])
                            or hermitian_spectra(blocks))
        sweep = phase_sweep(sweep_cfg(0.2, 0.6, 3))
        assert sizes == [(4, 4)]
        for gv, amp in zip(sweep.control, sweep.amplitude):
            params = ModelParams(g=float(gv), V=float(gv))
            # the leak sits in the Jzero block, whose weight is epsilon = 1
            states_at = dense_states_at(build_hamiltonian(params) + leak, basis_state("dduu"))
            assert abs(amp - reference_max(params, full_corr, states_at)) < 1e-12

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_cosets_hold_the_start_and_2_to_the_3j_minus_2_states(self, j, monkeypatch):
        start = "d" * 2 * j + "u" * 2 * j
        assert coset_size(j) == 2 ** (3 * j - 2)
        params = ModelParams(g=0.3, V=0.2, j=j)
        cosets = ExactPropagator(build_hamiltonian(params)).cosets
        assert cosets.shape == (2 ** (4 * j) // coset_size(j), coset_size(j))
        assert np.any(cosets == basis_index(start), axis=1).sum() == 1
        sizes = []
        hermitian_spectra = experiments.hermitian_spectra
        monkeypatch.setattr(experiments, "hermitian_spectra",
                            lambda blocks: sizes.append(blocks.shape[1:])
                            or hermitian_spectra(blocks))
        cfg = ExperimentConfig("survival", params=params)
        assert cfg.initial_state == start
        assert 0.0 <= survival_minimum(cfg) < 1.0
        assert sizes == [(coset_size(j), coset_size(j))]

    def test_exact_j3_survival_keeps_norm_number_and_energy(self, tmp_path):
        params = ModelParams(g=0.3, V=0.2, j=3)
        cfg = ExperimentConfig("survival", params=params, samples=9, out=tmp_path / "s.csv")
        initial, idx, states = experiments._exact_states(cfg, np.linspace(0.0, default_t_final(cfg), 9))
        assert idx.shape == (coset_size(3),)
        h, nop = build_hamiltonian(params), build_collective_ops(3)["Nop"]
        for coset_amps in states:
            amps = np.zeros(2**12, dtype=complex)
            amps[idx] = coset_amps
            state = StateVector(amps, 12)
            assert abs(state.norm() - 1.0) < 1e-9
            assert abs(expectation(state, nop) - expectation(initial, nop)) < 1e-9
            assert abs(expectation(state, h) - expectation(initial, h)) < 1e-9
        rows = np.loadtxt(run(cfg)[0], delimiter=",", skiprows=1)
        assert rows.shape == (9, 3) and rows[0, 2] == pytest.approx(1.0)
        assert np.all((rows[:, 2] >= 0.0) & (rows[:, 2] <= 1.0 + 1e-12))


def traced_peak(make) -> int:
    """Peak traced memory of make(), in bytes."""
    tracemalloc.start()
    try:
        make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_interpreter(code: str) -> None:
    """Run ``code`` in a new python process that imports this agassi_sim."""
    src = str(Path(agassi_sim.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


class TestCosetCache:
    """The start state's coset and its blocks are built once per start
    support and blocks, read-only, without numpy.ma."""

    def test_figure_jobs_build_the_coset_once(self, tmp_path, capsys):
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "reproduce_figures", root / "scripts" / "reproduce_figures.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        experiments._support_blocks.cache_clear()
        assert script.run(tmp_path) == 0
        info = experiments._support_blocks.cache_info()
        # ten exact and digital jobs from dduu; the compile report builds none
        assert (info.misses, info.hits) == (1, 9)

    def test_a_hit_refuses_writes(self):
        initial = basis_state("dduu")
        experiments._coset_blocks(initial, 1)
        hits = experiments._support_blocks.cache_info().hits
        idx, blocks = experiments._coset_blocks(initial, 1)
        assert experiments._support_blocks.cache_info().hits == hits + 1
        for array in (idx, blocks):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("patterns,cosets", [(("dduu", "uudd"), 1), (("dduu", "dudd"), 2)])
    def test_superposition_matches_a_sorted_unique_reference(self, patterns, cosets):
        amps = sum(basis_state(p).amplitudes for p in patterns) / np.sqrt(len(patterns))
        initial = StateVector(amps, 4)
        free = experiments._coupling_free_blocks(1)
        span = x_span([x for block in free for x, _ in x_blocks(block)])
        expected = np.unique(np.flatnonzero(amps)[:, None] ^ span)
        idx, blocks = experiments._coset_blocks(initial, 1)
        assert idx.dtype == expected.dtype and idx.tolist() == expected.tolist()
        assert len(idx) == cosets * len(span)
        for block, matrix in zip(free, blocks):
            assert matrix.tobytes() == to_matrix(block.without_identity(), expected).tobytes()

    def test_equal_blocks_built_separately_share_one_entry(self):
        free = experiments._coupling_free_blocks(1)
        rebuilt = tuple(PauliSum.from_terms(block.terms, block.n) for block in free)
        assert all(a is not b and a == b for a, b in zip(free, rebuilt))
        experiments._support_blocks.cache_clear()
        support = (basis_index("dduu"),)
        first = experiments._support_blocks(support, free)
        assert experiments._support_blocks(support, rebuilt) is first
        info = experiments._support_blocks.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cli_import_leaves_yaml_unloaded(self):
        fresh_interpreter("import agassi_sim.cli, sys; assert 'yaml' not in sys.modules")

    def test_runs_leave_numpy_ma_unloaded(self, tmp_path):
        fresh_interpreter(
            "import sys\n"
            "from agassi_sim.cli import main\n"
            "for argv in (['survival'], ['correlation'], ['phase-sweep', '--sweep-points', '5']):\n"
            f"    assert main([*argv, '--out', {str(tmp_path)!r} + '/' + argv[0] + '.csv']) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'\n")
        assert len(list(tmp_path.glob("*.csv"))) == 3


class TestExactSeries:
    """Every exact series evolves on the initial state's coset, with blocks
    built straight from the Pauli terms."""

    @pytest.mark.parametrize("init", ["dduu", "dudd", "uuuu"])
    def test_series_match_a_full_space_reference(self, init):
        params, initial = ModelParams(g=0.4, V=0.3), basis_state(init)
        given = dict(params=params, initial_state=init, samples=33, n_T=5)
        t_final = default_t_final(ExperimentConfig("survival", **given))
        times = np.linspace(0.0, t_final, 33)
        exact_at = dense_states_at(build_hamiltonian(params), initial)
        exact, digital = exact_at(times), trotter_states_at(initial, params, times, 5)

        survival = survival_series(ExperimentConfig("survival", **given)).values
        assert np.max(np.abs(survival - np.abs(exact @ initial.amplitudes.conj()) ** 2)) < 1e-12
        corr_exact, corr_digital = correlation_series(ExperimentConfig("correlation", **given))
        assert np.max(np.abs(corr_exact.values - full_corr(exact))) < 1e-12
        assert np.max(np.abs(corr_digital.values - full_corr(digital))) < 1e-12
        fid = fidelity_time_series(ExperimentConfig("fidelity_vs_time", **given))
        expected = np.abs(np.einsum("ki,ki->k", exact.conj(), digital)) ** 2
        assert np.max(np.abs(fid.values - expected)) < 1e-12

        steps, fids = fidelity_vs_steps(ExperimentConfig("fidelity_vs_nT", **given))
        final = exact_at(np.array([t_final]))[0]
        expected = [abs(np.vdot(final, trotter_states_at(initial, params, np.array([t_final]),
                                                         int(m))[0])) ** 2 for m in steps]
        assert list(steps) == [1, 2, 3, 4, 5]
        assert np.max(np.abs(fids - expected)) < 1e-12

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_the_propagator_agrees_with_the_experiments(self, j):
        cfg = ExperimentConfig("survival", params=ModelParams(g=0.4, V=0.3, j=j))
        times = np.linspace(0.0, 5.0, 17)
        initial, idx, states = experiments._exact_states(cfg, times)
        got = ExactPropagator(build_hamiltonian(cfg.params)).states_at(initial, times)
        assert np.max(np.abs(got[:, idx] - states)) < 1e-12
        assert not np.any(np.delete(got, idx, axis=1))

    @pytest.mark.parametrize("path", ["propagator", "survival_minimum", "correlation"])
    def test_exact_j3_paths_make_no_full_matrix(self, path):
        # the 4096 x 4096 complex matrix alone would be 268 MB
        params = ModelParams(g=0.3, V=0.2, j=3)
        h = build_hamiltonian(params)
        make = {
            "propagator": lambda: ExactPropagator(h),
            "survival_minimum": lambda: survival_minimum(ExperimentConfig("survival",
                                                                          params=params)),
            "correlation": lambda: correlation_series(
                ExperimentConfig("correlation", params=params, samples=401, trotter=False)),
        }[path]
        assert traced_peak(make) < 40e6

    @pytest.mark.parametrize("path", ["survival_minimum", "survival_series", "propagator"])
    def test_refused_beyond_the_guard_before_any_large_array(self, path):
        cfg = ExperimentConfig("survival", params=ModelParams(g=0.3, V=0.2, j=4), samples=9)
        make = {
            "survival_minimum": lambda: survival_minimum(cfg),
            "survival_series": lambda: survival_series(cfg),
            "propagator": lambda: ExactPropagator(PauliSum.identity(20)),
        }[path]

        def refused():
            with pytest.raises(CapacityError,
                               match=r"^dense matrix for n=(16|20) exceeds the n<=12 guard$"):
                make()

        assert traced_peak(refused) < 2e6


class TestDigitalOnTheCoset:
    """Every digital run evolves on the initial state's coset, batched over
    its times or step sizes, with the full-space arithmetic entry by entry."""

    @pytest.mark.parametrize("init,g,v", [("dduu", 1.0, 1.0), ("dudd", 0.4, 0.3),
                                          ("dduu", 0.5, -0.5)])  # the last: g + V = 0
    def test_series_equal_the_full_space_runs_bitwise(self, init, g, v):
        given = dict(params=ModelParams(g=g, V=v), initial_state=init, samples=41, n_T=7,
                     t_final=3.0)
        cfg = ExperimentConfig("fidelity_vs_time", **given)
        times = np.linspace(0.0, 3.0, 41)
        initial, idx, exact = experiments._exact_states(cfg, times)
        digital = trotter_states_at(initial, cfg.params, times, 7)[:, idx]
        expected = np.abs(np.einsum("ki,ki->k", exact.conj(), digital)) ** 2
        assert fidelity_time_series(cfg).values.tobytes() == expected.tobytes()
        _, corr = correlation_series(ExperimentConfig("correlation", **given))
        assert corr.values.tobytes() == experiments._corr_values(digital, initial, idx).tobytes()
        steps, fids = fidelity_vs_steps(ExperimentConfig("fidelity_vs_nT", **given))
        final = experiments._exact_states(cfg, np.array([3.0]))[2][0]
        per_m = np.array([trotter_evolve(initial, cfg.params, 3.0, int(m)).amplitudes[idx]
                          for m in steps])
        assert fids.tobytes() == (np.abs(per_m @ final.conj()) ** 2).tobytes()

    def test_digital_sweep_matches_a_per_point_full_space_search(self):
        sweep = phase_sweep(ExperimentConfig("phase_sweep", n_T=5), trotterized=True)
        assert len(sweep.control) == 101
        initial, expected = basis_state("dduu"), []
        for gv in sweep.control:
            params = ModelParams(g=float(gv), V=float(gv))
            states_at = partial(trotter_states_at, initial, params, n_T=5)
            expected.append(reference_max(params, full_corr, states_at) if gv else 0.0)
        assert np.max(np.abs(sweep.amplitude - expected)) < 1e-12
        assert ([classify_amplitude(a) for a in sweep.amplitude]
                == [classify_amplitude(a) for a in expected])
        assert sweep.phase == tuple(critical_line(ModelParams(g=float(gv), V=float(gv)))
                                    for gv in sweep.control)

    def test_digital_sweep_groups_its_strings_once(self):
        # the kernel caches by strings, not rates: one entry for every point,
        # plus g = epsilon, where h1's upper terms vanish and the strings change
        statevector._rotation_groups.cache_clear()
        phase_sweep(ExperimentConfig("phase_sweep", n_T=5), trotterized=True)
        assert statevector._rotation_groups.cache_info().misses <= 2

    def test_hundred_coset_steps_keep_norm_and_particle_number(self, rng):
        # two cosets of the span {0, 1111}, with two and one particles
        rows = np.array([basis_index(s) ^ x for s in ("dduu", "dudd") for x in (0, 0b1111)])
        start = rng.normal(size=4) + 1j * rng.normal(size=4)
        start /= np.linalg.norm(start)
        number = dict(x_blocks(build_collective_ops(1)["Nop"]))[0].real[rows]
        dts = np.array([0.05, 0.3, -0.4, 1.1, 2.0])
        for params in (ModelParams(g=0.7, V=0.4), ModelParams(epsilon=0.8, g=-0.3, V=1.2)):
            taken = 0
            for taken, states in enumerate(coset_steps(start, rows, params, dts), 1):
                prob = np.abs(states) ** 2
                assert np.max(np.abs(prob.sum(axis=-1) - 1.0)) < 1e-12
                assert np.max(np.abs(prob @ number - np.abs(start) ** 2 @ number)) < 1e-12
                if taken == 100:
                    break
            assert taken == 100

    def test_experiments_evolve_no_digital_state_per_point_or_in_the_full_space(self):
        """A guard in the style of the one on ``isfinite(``: experiments.py
        reads no digital state on idx out of a full-space one and calls the
        per-point full-space evolutions in no loop or comprehension."""
        source = Path(experiments.__file__).read_text()
        assert "[:, idx]" not in source
        loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        per_point = {"trotter_states_at", "trotter_evolve", "evolve_schedule"}
        looped = [node.lineno for loop in ast.walk(ast.parse(source)) if isinstance(loop, loops)
                  for node in ast.walk(loop) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) in per_point]
        assert looped == []


class TestDigitalOracle:
    """The j = 1 digital outputs from |dduu> against the closed form of
    :func:`digital_transfer`, which shares no code with the schedule, the
    kernel or the search."""

    @pytest.mark.parametrize("n_T", [1, 5, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_corr_trotter_column_is_4p_1_minus_p(self, seed, n_T):
        eps, g, v = np.random.default_rng(seed).uniform([0.5, -1.5, -1.5], [2.0, 1.5, 1.5])
        if seed == 0:
            v = -g  # g + V = 0, where nothing moves
        cfg = ExperimentConfig("correlation", params=ModelParams(epsilon=eps, g=g, V=v),
                               n_T=n_T, samples=201)
        correlation = EXPERIMENTS["correlation"]
        columns = dict(zip(correlation.columns, correlation.data(cfg)))
        moved = digital_transfer(eps, g + v, columns["t"], n_T)
        assert np.max(np.abs(columns["corr_trotter"] - 4 * moved * (1 - moved))) < 1e-12

    def test_the_7b_mismatch_counts_follow_from_the_oracle(self):
        controls = np.linspace(0.0, 1.0, 101)
        exact = [classify_amplitude(oracle_amplitude(1.0, 2 * gv)) for gv in controls]
        cfg = ExperimentConfig("phase_sweep", n_T=5)
        assert [classify_amplitude(a) for a in phase_sweep(cfg).amplitude] == exact
        mismatched = {}
        for n_T in (5, 6, 8, 10, 12, 15, 18):
            oracle = [digital_oracle_amplitude(1.0, 2 * gv, n_T) for gv in controls]
            digital = phase_sweep(dataclasses.replace(cfg, n_T=n_T), trotterized=True).amplitude
            assert np.max(np.abs(digital - oracle)) < 1e-12
            labels = [classify_amplitude(a) for a in oracle]
            assert labels == [classify_amplitude(a) for a in digital]
            mismatched[n_T] = [round(gv, 2) for gv, e, d in zip(controls, exact, labels) if e != d]
        assert {n_T: len(gvs) for n_T, gvs in mismatched.items()} == {
            5: 10, 6: 6, 8: 4, 10: 2, 12: 1, 15: 1, 18: 0}
        assert mismatched[5] == [0.4, 0.41, 0.42, 0.43, 0.44, 0.45, 0.46, 0.47, 0.48, 0.49]


class TestFidelitySeries:
    def test_fidelity_column_monotone_at_short_horizon(self):
        # (g+V) t_final = 2; the error decays like a clean power law here
        steps, fids = fidelity_vs_steps(
            cfg_for("fidelity_vs_nT", 1.0, 1.0, t_final=1.0, n_T=30)
        )
        assert len(steps) == 30
        assert np.all(np.diff(fids) > 0)
        assert fids[-1] > 0.999

    def test_default_window_matches_figure_axis(self):
        cfg = cfg_for("fidelity_vs_time", 1.0, 1.0)
        assert default_t_final(cfg) == pytest.approx(5.0)
        assert rabi_period(cfg.params) == pytest.approx(np.pi / np.sqrt(5.0))


class TestRun:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="survival", samples=1)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="survival", t_final=0.0)

    @pytest.mark.parametrize("rates", [{"e1": 5.0}, {"e1": -1e-3}, {"e2": np.nan}])
    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_gate_errors_must_lie_in_unit_interval(self, experiment, rates):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            ExperimentConfig(experiment=experiment, **rates)

    @pytest.mark.parametrize("t_final", [np.inf, -np.inf, np.nan])
    def test_t_final_must_be_finite(self, t_final):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(experiment="survival", t_final=t_final)

    def test_phase_sweep_runs_at_j1_only(self):
        with pytest.raises(ValueError, match="j = 2"):
            ExperimentConfig(experiment="phase_sweep", params=ModelParams(j=2))
        ExperimentConfig(experiment="survival", params=ModelParams(j=2))

    @pytest.mark.parametrize("n_T", [0, -3, 2.5])
    def test_n_T_must_be_positive_integer(self, n_T):
        with pytest.raises(ValueError, match="n_T"):
            ExperimentConfig(experiment="fidelity_vs_nT", n_T=n_T)

    def test_oversized_grid_rejected_with_its_size(self):
        # built only; nothing of this size is ever allocated
        with pytest.raises(ValueError, match=str(10**9 * 16)):
            ExperimentConfig(experiment="survival", samples=10**9)
        with pytest.raises(ValueError, match=str(401 * 2**16)):
            ExperimentConfig(experiment="survival", params=ModelParams(j=4))
        ExperimentConfig(experiment="survival", samples=MAX_AMPLITUDES // 16)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="survival", samples=MAX_AMPLITUDES // 16 + 1)

    @pytest.mark.parametrize("experiment,given,name", [
        ("survival", {"samples": 2.5}, "samples"),
        ("phase_sweep", {"sweep_points": 2.5}, "sweep_points"),
        ("survival", {"initial_state": 5}, "initial_state"),
        ("survival", {"out": 5}, "out"),
        ("fidelity_vs_nT", {"n_T": True}, "n_T"),
        ("survival", {"params": {"j": True}}, "j"),
        ("survival", {"params": {"g": True}}, "g"),
        ("survival", {"params": {"epsilon": True}}, "epsilon"),
        ("survival", {"params": {"V": "0.5"}}, "V"),
        ("survival", {"t_final": True}, "t_final"),
        ("correlation", {"trotter": "no"}, "trotter"),
        ("compile_report", {"e1": True}, "e1"),
        ("compile_report", {"e2": "1e-3"}, "e2"),
        ("phase_sweep", {"sweep_start": "0"}, "sweep_start"),
        ("phase_sweep", {"sweep_stop": True}, "sweep_stop"),
    ], ids=["samples-float", "sweep-points-float", "init-number", "out-number", "nt-bool",
            "j-bool", "g-bool", "epsilon-bool", "v-string", "tf-bool", "trotter-string",
            "e1-bool", "e2-string", "sweep-start-string", "sweep-stop-bool"])
    def test_value_of_wrong_type_refused_naming_its_field(self, experiment, given, name):
        with pytest.raises(ValueError, match=rf"^{name} must be (an integer|a number|a string"
                                             rf"|true or false)"):
            run_given = {k: v for k, v in given.items() if k != "params"}
            ExperimentConfig(experiment=experiment, params=ModelParams(**given.get("params", {})),
                             **run_given)

    def test_params_must_be_model_params(self):
        with pytest.raises(ValueError, match="params must be a ModelParams"):
            ExperimentConfig(experiment="survival", params={"j": 1})

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_default_initial_state_is_half_filled_with_upper_level_empty(self, j):
        cfg = ExperimentConfig(experiment="survival", params=ModelParams(j=j))
        assert cfg.initial_state == "d" * 2 * j + "u" * 2 * j
        assert ExperimentConfig(experiment="survival", initial_state="udud").initial_state == "udud"

    def test_initial_state_length_checked(self):
        with pytest.raises(ValueError):
            survival_series(cfg_for("survival", 0.5, 0.5, initial_state="dd", samples=4))

    def test_mis_sized_or_misspelt_initial_state_refused_on_construction(self):
        cfg = ExperimentConfig("survival")
        with pytest.raises(ValueError, match=r"^initial_state 'dduu' has 4 qubits, j = 2 "
                                             r"needs 8; pass initial_state=None"):
            dataclasses.replace(cfg, params=ModelParams(j=2))
        with pytest.raises(ValueError, match=r"^initial_state 'dxuu': unknown spin label 'x'"):
            ExperimentConfig("survival", initial_state="dxuu")
        copy = dataclasses.replace(cfg, params=ModelParams(j=2), initial_state=None)
        assert copy.initial_state == "dddduuuu"

    def test_requires_output_path(self):
        with pytest.raises(ValueError):
            run(cfg_for("survival", 0.5, 0.5))

    @pytest.mark.parametrize(
        "experiment,header",
        [
            ("fidelity_vs_time", "t,gvt,fidelity"),
            ("fidelity_vs_nT", "n_T,fidelity"),
            ("survival", "t,gvt,survival"),
            ("correlation", "t,gvt,corr_exact,corr_trotter"),
            ("phase_sweep", "g_eq_v,amplitude,phase"),
        ],
    )
    def test_csv_schemas(self, tmp_path, experiment, header):
        out = tmp_path / f"{experiment}.csv"
        cfg = ExperimentConfig(
            experiment=experiment,
            params=ModelParams(epsilon=1.0, g=0.5, V=0.5),
            n_T=3,
            samples=9,
            sweep_points=5,
            t_final=2.0,
            out=str(out),
        )
        outputs = run(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == header
        expected_rows = {"fidelity_vs_nT": 3, "phase_sweep": 5}.get(experiment, 9)
        assert len(lines) == expected_rows + 1
        manifest = json.loads(outputs[-1].read_text())
        assert manifest["experiment"] == experiment
        assert manifest["parameters"]["g"] == 0.5
        assert "tool_version" in manifest and "wall_time_s" in manifest

    def test_csv_full_precision_round_trip(self, tmp_path):
        out = tmp_path / "survival.csv"
        cfg = ExperimentConfig(
            experiment="survival",
            params=ModelParams(epsilon=1.0, g=1.0, V=1.0),
            samples=5,
            t_final=1.0,
            out=str(out),
        )
        run(cfg)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        series = survival_series(cfg)
        for row, t, v in zip(rows, series.times, series.values):
            assert float(row[0]) == t
            assert float(row[2]) == v

    def test_compile_report(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        cfg = ExperimentConfig(
            experiment="compile_report",
            params=ModelParams(epsilon=1.0, g=1.0, V=1.0),
            n_T=5,
            out=str(out),
        )
        outputs = run(cfg)
        report = out.read_text()
        assert "single-qubit per step    52" in report
        assert "two-qubit equiv per step 50" in report
        assert "0.276" in report
        printed = capsys.readouterr().out
        assert "52" in printed
        gates_path = outputs[1]
        assert gates_path.read_text().count("MS") == 5 * 18  # 16 collective + 2 pair MS per step


class TestCli:
    def test_survival_subcommand(self, tmp_path, capsys):
        out = tmp_path / "surv.csv"
        code = cli_main([
            "survival", "--g", "0.5", "--v", "0.5", "--tf", "3.0",
            "--samples", "11", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_compile_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = cli_main(["compile-report", "--g", "1", "--v", "1", "--nt", "5",
                         "--out", str(out)])
        assert code == 0
        assert "total gate error E_G     0.276" in capsys.readouterr().out

    def test_exact_only_flag(self, tmp_path):
        out = tmp_path / "corr.csv"
        code = cli_main([
            "correlation", "--g", "0.4", "--v", "0.4", "--samples", "6",
            "--tf", "2.0", "--exact-only", "--out", str(out),
        ])
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            assert line.endswith("nan")

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(
            "g: 0.5\nv: 0.5\nsamples: 7\ntf: 2.0\nout: {}\n".format(tmp_path / "base.csv")
        )
        override = tmp_path / "override.csv"
        code = cli_main([
            "survival", "--config", str(config), "--out", str(override),
            "--samples", "5",
        ])
        assert code == 0
        assert override.exists()
        assert len(override.read_text().splitlines()) == 6  # header + 5 samples

    def test_sweep_flags(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli_main([
            "phase-sweep", "--sweep-start", "0.4", "--sweep-stop", "0.6",
            "--sweep-points", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "0.4"

    @pytest.mark.parametrize("body,name", [
        ("nT: 10\n", "nT"),
        ("g: 0.5\nsweep: {begin: 0.2}\n", "begin"),
    ], ids=["top-level", "sweep"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, body, name):
        config = tmp_path / "run.yaml"
        config.write_text(body)
        code = cli_main(["phase-sweep", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("body,name", [
        ("nt: 2.5\n", "nt"),
        ("samples: 7.9\n", "samples"),
        ("j: 1.5\n", "j"),
        ("nt: true\n", "nt"),
        ("sweep: {points: 2.5}\n", "sweep.points"),
        ("sweep: {sweep_points: 2.5}\n", "sweep.sweep_points"),
    ], ids=["nt", "samples", "j", "nt-bool", "sweep-points", "sweep-points-alias"])
    def test_non_integral_config_value_rejected(self, tmp_path, capsys, body, name):
        config = tmp_path / "run.yaml"
        config.write_text(body)
        out = tmp_path / "x.csv"
        assert cli_main(["phase-sweep", "--config", str(config), "--out", str(out)]) == 2
        assert f"{name} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,body,name", [
        ("phase-sweep", "g: [1, 2]\n", "g"),
        ("phase-sweep", "g: {a: 1}\n", "g"),
        ("phase-sweep", "sweep: {start: [0]}\n", "sweep.start"),
        ("survival", "sweep: {sweep_stop: x}\n", "sweep.sweep_stop"),
        ("survival", "epsilon: true\n", "epsilon"),
        ("survival", "epsilon: '1.5'\n", "epsilon"),
        ("survival", "tf: '2'\n", "tf"),
        ("compile-report", "e1: [0.1]\n", "e1"),
        ("survival", "init: 5\n", "init"),
        ("survival", "out: 5\n", "out"),
        ("survival", "g: [1\n", "run.yaml"),
        ("survival", "e1: 5\n", "e1 must lie in [0, 1]"),
        ("survival", "g: 0.1\ng: 0.9\n", "run.yaml is not valid YAML: key(s) g given twice"),
        ("phase-sweep", "sweep:\n  points: 3\n  points: 4\n", "key(s) points given twice"),
        ("phase-sweep", "sweep: {start: 0.1, sweep_start: 0.2}\n",
         "run.yaml gives start and sweep_start"),
        ("phase-sweep", "sweep: {stop: 0.9, sweep_stop: 0.8, points: 3, sweep_points: 4}\n",
         "gives stop and sweep_stop; points and sweep_points"),
    ], ids=["g-list", "g-mapping", "sweep-start-list", "sweep-stop-on-survival",
            "epsilon-bool", "epsilon-string", "tf-string", "e1-list", "init-number",
            "out-number", "malformed-yaml", "e1-out-of-range-on-survival", "key-twice",
            "sweep-key-twice", "sweep-both-spellings", "sweep-two-pairs"])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, command, body, name):
        config = tmp_path / "run.yaml"
        config.write_text(body)
        argv = [command, "--config", str(config)]
        if "out:" not in body:
            argv += ["--out", str(tmp_path / "new" / "x.csv")]
        assert cli_main(argv) == 2
        assert name in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]

    def test_reproduce_figures_script(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        src = str(Path(agassi_sim.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-W", "error", str(root / "scripts" / "reproduce_figures.py"),
             "--outdir", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        manifests = sorted(tmp_path.glob("*.manifest.json"))
        assert len(manifests) == 11
        for manifest in manifests:
            outputs = json.loads(manifest.read_text())["outputs"]
            assert outputs[0] == str(manifest).removesuffix(".manifest.json")
            assert all(Path(path).is_file() for path in outputs)

    def test_exponent_without_dot_read_as_number(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("e1: 1e-4\ne2: 2E-3\nnt: 1\n")
        out = tmp_path / "report.txt"
        assert cli_main(["compile-report", "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads(out.with_suffix(".txt.manifest.json").read_text())
        assert (manifest["parameters"]["e1"], manifest["parameters"]["e2"]) == (1e-4, 2e-3)

    def test_refused_run_creates_no_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "x.csv"
        assert cli_main(["survival", "--init", "dd", "--out", str(out)]) == 2
        assert "qubits" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_initial_state_of_another_j_refused(self, tmp_path, capsys):
        out = tmp_path / "new" / "x.csv"
        assert cli_main(["survival", "--j", "2", "--init", "dduu", "--out", str(out)]) == 2
        assert "initial_state 'dduu' has 4 qubits" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_default_initial_state_follows_j(self, tmp_path):
        out = tmp_path / "surv.csv"
        assert cli_main(["survival", "--j", "2", "--samples", "5", "--out", str(out)]) == 0
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert manifest["parameters"]["initial_state"] == "dddduuuu"
        assert float(out.read_text().splitlines()[1].split(",")[2]) == pytest.approx(1.0)

    def test_cli_import_leaves_scipy_unloaded(self):
        code = "import agassi_sim.cli, sys; assert 'scipy' not in sys.modules"
        src = str(Path(agassi_sim.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_integral_float_config_value_accepted(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("nt: 2.0\ng: 1\nv: 1\ntf: 1\n")
        out = tmp_path / "steps.csv"
        assert cli_main(["fidelity-steps", "--config", str(config), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_config_trotter_must_be_boolean(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text('trotter: "false"\n')
        code = cli_main(["correlation", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "trotter" in capsys.readouterr().err

    def test_config_trotter_boolean_accepted(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("trotter: false\ng: 0.4\nv: 0.4\nsamples: 4\ntf: 1.0\n")
        out = tmp_path / "corr.csv"
        code = cli_main(["correlation", "--config", str(config), "--out", str(out)])
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            assert line.endswith("nan")

    def test_invalid_value_exits_nonzero(self, tmp_path, capsys):
        code = cli_main(["survival", "--j", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_out_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["survival"])

    @pytest.mark.parametrize("flags", [
        ["fidelity-steps", "--nt", "0"],
        ["survival", "--samples", str(10**9)],
        ["phase-sweep", "--j", "2", "--sweep-points", "3"],
        ["survival", "--tf", "inf"],
        ["phase-sweep", "--sweep-start", "1", "--sweep-stop", "0", "--sweep-points", "3"],
        ["phase-sweep", "--sweep-start", "0.5", "--sweep-stop", "0.5", "--sweep-points", "3"],
        ["phase-sweep", "--sweep-start", "nan", "--sweep-points", "3"],
        ["compile-report", "--e1", "5"],
        ["compile-report", "--e2", "nan"],
    ], ids=["nt-zero", "oversized-grid", "sweep-j2", "tf-inf",
            "sweep-descending", "sweep-empty", "sweep-nan", "e1-above-one", "e2-nan"])
    def test_bad_size_exits_2_without_output(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert cli_main([*flags, "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".csv.manifest.json").exists()

    @pytest.mark.parametrize("flag", ["--trotter", "--exact-only"])
    @pytest.mark.parametrize("name", [n for n in EXPERIMENTS if n != "correlation"])
    def test_digital_flags_only_on_correlation(self, tmp_path, capsys, name, flag):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit):
            cli_main([EXPERIMENTS[name].command, flag, "--out", str(out)])
        assert not out.exists()

    def test_compile_report_manifest_records_default_time(self, tmp_path):
        out = tmp_path / "report.txt"
        assert cli_main(["compile-report", "--g", "1", "--v", "1", "--out", str(out)]) == 0
        manifest = json.loads(out.with_suffix(".txt.manifest.json").read_text())
        assert manifest["parameters"]["t_final"] == 1.0


def table_argv(name: str, out) -> list[str]:
    argv = [EXPERIMENTS[name].command, "--g", "0.5", "--v", "0.5", "--nt", "2",
            "--tf", "1", "--samples", "5", "--out", str(out)]
    return argv + ["--sweep-points", "3"] if name == "phase_sweep" else argv


class TestExperimentTable:
    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_each_subcommand_writes_its_columns(self, tmp_path, capsys, name):
        out = tmp_path / "out.txt"
        assert cli_main(table_argv(name, out)) == 0
        manifest = json.loads(out.with_suffix(".txt.manifest.json").read_text())
        assert manifest["experiment"] == name
        columns = EXPERIMENTS[name].columns
        if columns:
            lines = out.read_text().splitlines()
            assert lines[0] == ",".join(columns)
            assert len(lines) == 1 + {"fidelity_vs_nT": 2, "phase_sweep": 3}.get(name, 5)
            assert all(len(line.split(",")) == len(columns) for line in lines[1:])
        else:
            assert "total gate error E_G" in out.read_text()
            gates = out.with_suffix(".txt.gates.txt").read_text()
            assert gates.startswith("# qubits=4 steps=2\n")

    def test_parser_reused_across_calls(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(["survival", "--sweep-points", "3", "--out", str(tmp_path / "bad.csv")])
        first = tmp_path / "surv.csv"
        assert cli_main(["survival", "--g", "1", "--v", "1", "--tf", "1",
                         "--samples", "4", "--out", str(first)]) == 0
        second = tmp_path / "steps.csv"
        assert cli_main(["fidelity-steps", "--g", "1", "--v", "1", "--tf", "1",
                         "--nt", "3", "--out", str(second)]) == 0
        assert not (tmp_path / "bad.csv").exists()
        survival = first.read_text().splitlines()
        assert survival[0] == "t,gvt,survival" and len(survival) == 5
        assert float(survival[1].split(",")[2]) == pytest.approx(1.0)
        steps = second.read_text().splitlines()
        assert steps[0] == "n_T,fidelity"
        assert [line.split(",")[0] for line in steps[1:]] == ["1", "2", "3"]
        manifests = [json.loads(p.with_suffix(".csv.manifest.json").read_text())
                     for p in (first, second)]
        assert [m["experiment"] for m in manifests] == ["survival", "fidelity_vs_nT"]
        assert [m["parameters"]["n_T"] for m in manifests] == [5, 3]
