"""Experiment-runner tests: observables, amplitude extraction, CSV output, CLI."""

import json

import numpy as np
import pytest

from agassi_sim.cli import main as cli_main
from agassi_sim.experiments import (
    EXPERIMENTS,
    MAX_AMPLITUDES,
    ExperimentConfig,
    amplitude,
    classify_amplitude,
    correlation_series,
    default_t_final,
    fidelity_vs_steps,
    phase_sweep,
    rabi_period,
    run,
    survival_minimum,
    survival_series,
)
from agassi_sim.model import ModelParams


def transfer_amplitude(eps: float, gv: float) -> float:
    return gv**2 / (gv**2 + eps**2)


def oracle_amplitude(eps: float, gv: float) -> float:
    """Closed-form oscillation amplitude 4A(1-A), clipped at the saturation value 1."""
    a = transfer_amplitude(eps, gv)
    return 1.0 if a >= 0.5 else 4.0 * a * (1.0 - a)


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

    def test_initial_state_length_checked(self):
        cfg = cfg_for("survival", 0.5, 0.5, initial_state="dd", samples=4)
        with pytest.raises(ValueError):
            survival_series(cfg)

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
    ], ids=["nt-zero", "oversized-grid", "sweep-j2", "tf-inf"])
    def test_bad_size_exits_2_without_output(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert cli_main([*flags, "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".csv.manifest.json").exists()

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
