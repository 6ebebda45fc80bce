"""Experiment runner: fidelity, survival, correlation and phase-probe sweeps.

Every experiment evolves the half-filled product state |down down up up>
(configurable) and writes one CSV per run plus a JSON manifest recording all
parameters, the package version and the wall time.  Time axes are reported
both as t (units 1/epsilon) and as the dimensionless product (g+V) t.

The phase probe works on the connected correlator

    corr_z12 = <Z1 Z2> - <Z1><Z2>,

whose Rabi-oscillation amplitude under exact evolution is 4A(1-A) with
transfer amplitude A = (g+V)^2 / ((g+V)^2 + epsilon^2); the amplitude
saturates at 1 exactly when A >= 1/2, i.e. at and beyond the critical line
g + V = epsilon.  Amplitudes are extracted by maximizing over a time grid
spanning two Rabi periods (>= 200 samples per period) followed by a local
Brent refinement of the best grid cell, which pins the extremum to far
better than 1e-9; plain grid maxima are only good to about 1e-4, not enough
to resolve the saturation plateau.

Sweep points are independent; only the CSV writes are serialized.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from . import __version__
from .ion_compiler import compile_schedule, count_gates, error_budget, sequence_to_text
from .model import ModelParams, build_hamiltonian, critical_line
from .paulis import PauliString, PauliSum
from .statevector import (
    ExactPropagator,
    StateVector,
    TimeSeries,
    basis_state,
    fidelity,
)
from .trotter import (
    build_schedule,
    diagonal_energies,
    trotter_evolve,
    trotter_states_at,
)

EXPERIMENTS = (
    "fidelity_vs_time",
    "fidelity_vs_nT",
    "survival",
    "correlation",
    "phase_sweep",
    "compile_report",
)

SATURATION_TOL = 1e-6
"""An amplitude within this distance of 1 counts as saturated (broken phase)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: ModelParams = field(default_factory=ModelParams)
    n_T: int = 5
    t_final: float | None = None
    samples: int = 401
    initial_state: str = "dduu"
    sweep_start: float = 0.0
    sweep_stop: float = 1.0
    sweep_points: int = 101
    e1: float = 1e-4
    e2: float = 1e-3
    trotter: bool = True
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        if self.t_final is not None and not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if self.sweep_points < 2:
            raise ValueError("sweep_points must be at least 2")


@dataclass(frozen=True)
class SweepResult:
    """Amplitude of the corr_z12 oscillation across a g = V grid."""

    control: np.ndarray
    amplitude: np.ndarray
    phase: tuple[str, ...]


def rabi_period(params: ModelParams) -> float:
    """pi / sqrt(epsilon^2 + (g+V)^2), the period of the population swing."""
    return float(np.pi / np.hypot(params.epsilon, params.control))


def default_t_final(cfg: ExperimentConfig) -> float:
    """cfg.t_final, or a window with (g+V) t spanning [0, 10] (10/epsilon
    when the coupling vanishes)."""
    if cfg.t_final is not None:
        return cfg.t_final
    scale = cfg.params.control if cfg.params.control > 0 else cfg.params.epsilon
    return 10.0 / scale


def _initial(cfg: ExperimentConfig) -> StateVector:
    state = basis_state(cfg.initial_state)
    if state.n != cfg.params.n_qubits:
        raise ValueError(
            f"initial state has {state.n} qubits, model needs {cfg.params.n_qubits}"
        )
    return state


@lru_cache(maxsize=8)
def _z_observables(n: int) -> tuple[PauliSum, PauliSum, PauliSum]:
    def single(q):
        letters = ["I"] * n
        letters[q - 1] = "Z"
        return PauliSum.from_terms([PauliString(1.0, "".join(letters))], n)

    z1, z2 = single(1), single(2)
    return z1, z2, z1 * z2


def _corr_from_states(states: np.ndarray, n: int) -> np.ndarray:
    """corr_z12 for a batch of states, shape (len(times), 2^n)."""
    z1, z2, z12 = _z_observables(n)
    prob = np.abs(states) ** 2
    e1 = prob @ diagonal_energies(z1)
    e2 = prob @ diagonal_energies(z2)
    e12 = prob @ diagonal_energies(z12)
    return e12 - e1 * e2


def _corr_value(state: StateVector) -> float:
    return float(_corr_from_states(state.amplitudes[None, :], state.n)[0])


def _survival_values(states: np.ndarray, initial: StateVector) -> np.ndarray:
    return np.abs(states @ initial.amplitudes.conj()) ** 2


def _refine_max(f, t_lo: float, t_hi: float) -> float:
    """Maximum of a smooth scalar function on a bracket, by Brent search."""
    if t_hi <= t_lo:
        return f(t_lo)
    res = minimize_scalar(
        lambda t: -f(t), bounds=(t_lo, t_hi), method="bounded",
        options={"xatol": 1e-13},
    )
    return max(-res.fun, f(t_lo), f(t_hi))


def _grid_max_refined(f, times: np.ndarray, values: np.ndarray) -> float:
    """Grid maximum improved by refining the best grid cell."""
    k = int(np.argmax(values))
    lo = times[max(k - 1, 0)]
    hi = times[min(k + 1, len(times) - 1)]
    return max(float(values[k]), _refine_max(f, lo, hi))


def amplitude_time_grid(params: ModelParams, samples_per_period: int = 200,
                        periods: float = 2.0) -> np.ndarray:
    period = rabi_period(params)
    n_samples = max(int(np.ceil(samples_per_period * periods)) + 1, 2)
    return np.linspace(0.0, periods * period, n_samples)


def amplitude(cfg: ExperimentConfig, *, trotterized: bool = False) -> float:
    """Oscillation amplitude of corr_z12: the maximum over a grid covering
    two Rabi periods, refined locally to machine precision.

    With ``trotterized=True`` the digital evolution at cfg.n_T replaces the
    exact one (each sample time is reached in n_T steps).  A vanishing
    coupling g + V = 0 leaves the initial eigenstate stationary, so the
    amplitude is 0.
    """
    params = cfg.params
    if params.control == 0.0:
        return 0.0
    initial = _initial(cfg)
    times = amplitude_time_grid(params)
    if trotterized:
        states = trotter_states_at(initial, params, times, cfg.n_T)
        values = _corr_from_states(states, params.n_qubits)

        def corr_at(t: float) -> float:
            return _corr_value(trotter_evolve(initial, params, float(t), cfg.n_T))

    else:
        propagator = ExactPropagator(build_hamiltonian(params))
        states = propagator.states_at(initial, times)
        values = _corr_from_states(states, params.n_qubits)

        def corr_at(t: float) -> float:
            return _corr_value(propagator.evolve(initial, t))

    return _grid_max_refined(corr_at, times, values)


def survival_minimum(cfg: ExperimentConfig) -> float:
    """Minimum of the exact survival probability over two Rabi periods,
    grid-scanned and locally refined."""
    params = cfg.params
    initial = _initial(cfg)
    propagator = ExactPropagator(build_hamiltonian(params))
    times = amplitude_time_grid(params)
    values = _survival_values(propagator.states_at(initial, times), initial)

    def neg_survival(t: float) -> float:
        return -float(_survival_values(
            propagator.evolve(initial, t).amplitudes[None, :], initial)[0])

    return -_grid_max_refined(neg_survival, times, -values)


def classify_amplitude(amp: float, tol: float = SATURATION_TOL) -> str:
    """Phase label inferred from an oscillation amplitude: saturated (within
    tol of 1) means broken-symmetry, anything lower means symmetric."""
    return "BSP" if amp >= 1.0 - tol else "SP"


def fidelity_time_series(cfg: ExperimentConfig) -> TimeSeries:
    """Fidelity between exact and digital states on a uniform time grid."""
    params = cfg.params
    initial = _initial(cfg)
    times = np.linspace(0.0, default_t_final(cfg), cfg.samples)
    propagator = ExactPropagator(build_hamiltonian(params))
    exact_states = propagator.states_at(initial, times)
    digital_states = trotter_states_at(initial, params, times, cfg.n_T)
    overlaps = np.einsum("ki,ki->k", exact_states.conj(), digital_states)
    return TimeSeries(times, np.abs(overlaps) ** 2)


def fidelity_vs_steps(cfg: ExperimentConfig, max_steps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact-vs-digital fidelity at fixed final time for n_T = 1..max_steps."""
    params = cfg.params
    initial = _initial(cfg)
    t_final = default_t_final(cfg)
    max_steps = max_steps if max_steps is not None else cfg.n_T
    exact = ExactPropagator(build_hamiltonian(params)).evolve(initial, t_final)
    steps = np.arange(1, max_steps + 1)
    fids = np.array([
        fidelity(exact, trotter_evolve(initial, params, t_final, int(m)))
        for m in steps
    ])
    return steps, fids


def survival_series(cfg: ExperimentConfig) -> TimeSeries:
    """Exact survival probability |<psi(0)|psi(t)>|^2 on a uniform grid."""
    params = cfg.params
    initial = _initial(cfg)
    times = np.linspace(0.0, default_t_final(cfg), cfg.samples)
    states = ExactPropagator(build_hamiltonian(params)).states_at(initial, times)
    return TimeSeries(times, _survival_values(states, initial))


def correlation_series(cfg: ExperimentConfig) -> tuple[TimeSeries, TimeSeries | None]:
    """corr_z12 under exact evolution and, when cfg.trotter, under the
    digital evolution at cfg.n_T on the same grid."""
    params = cfg.params
    initial = _initial(cfg)
    times = np.linspace(0.0, default_t_final(cfg), cfg.samples)
    states = ExactPropagator(build_hamiltonian(params)).states_at(initial, times)
    exact = TimeSeries(times, _corr_from_states(states, params.n_qubits))
    if not cfg.trotter:
        return exact, None
    digital_states = trotter_states_at(initial, params, times, cfg.n_T)
    return exact, TimeSeries(times, _corr_from_states(digital_states, params.n_qubits))


def phase_sweep(cfg: ExperimentConfig, *, trotterized: bool = False) -> SweepResult:
    """Amplitude of corr_z12 on a g = V grid, with the phase-line label of
    each point."""
    controls = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points)
    amps = np.empty(len(controls))
    labels = []
    for k, gv in enumerate(controls):
        params = ModelParams(epsilon=cfg.params.epsilon, g=float(gv), V=float(gv), j=1)
        point = replace(cfg, params=params)
        amps[k] = amplitude(point, trotterized=trotterized)
        labels.append(critical_line(params))
    return SweepResult(control=controls, amplitude=amps, phase=tuple(labels))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) if not isinstance(x, str) else x for x in row) + "\n")


def _write_manifest(path: Path, cfg: ExperimentConfig, outputs: list[Path],
                    wall_time: float, extra: dict | None = None) -> Path:
    manifest = {
        "experiment": cfg.experiment,
        "parameters": {
            "epsilon": cfg.params.epsilon,
            "g": cfg.params.g,
            "V": cfg.params.V,
            "j": cfg.params.j,
            "n_T": cfg.n_T,
            "t_final": default_t_final(cfg) if cfg.experiment != "compile_report" else cfg.t_final,
            "samples": cfg.samples,
            "initial_state": cfg.initial_state,
            "sweep": {
                "start": cfg.sweep_start,
                "stop": cfg.sweep_stop,
                "points": cfg.sweep_points,
            },
            "e1": cfg.e1,
            "e2": cfg.e2,
            "trotter": cfg.trotter,
        },
        "tool_version": __version__,
        "wall_time_s": wall_time,
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        manifest.update(extra)
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def compile_report_text(cfg: ExperimentConfig) -> tuple[str, str]:
    """Human-readable gate/cost report plus the serialized program."""
    t_final = cfg.t_final if cfg.t_final is not None else 1.0
    schedule = build_schedule(cfg.params, t_final, cfg.n_T)
    sequence = compile_schedule(schedule)
    counts = count_gates(sequence)
    budget = error_budget(counts, cfg.e1, cfg.e2, cfg.n_T)
    per = counts.per_trotter_step
    lines = [
        f"trotter steps            {cfg.n_T}",
        f"single-qubit per step    {per.single_qubit}",
        f"two-qubit equiv per step {per.two_qubit_equivalent}",
        f"collective MS per step   {per.collective_ms}",
        f"single-qubit total       {counts.single_qubit}",
        f"two-qubit equiv total    {counts.two_qubit_equivalent}",
        f"gate error e1            {cfg.e1!r}",
        f"gate error e2            {cfg.e2!r}",
        f"total gate error E_G     {budget.total!r}",
    ]
    if budget.projected_fidelity is not None:
        lines.append(f"projected fidelity       {budget.projected_fidelity!r}")
    return "\n".join(lines) + "\n", sequence_to_text(sequence)


def run(cfg: ExperimentConfig) -> list[Path]:
    """Execute an experiment, write its CSV (or report) and manifest.

    Returns the paths written, manifest last.
    """
    if cfg.out is None:
        raise ValueError("an output path is required")
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    gv = cfg.params.control
    outputs: list[Path] = []
    extra: dict | None = None

    if cfg.experiment == "fidelity_vs_time":
        series = fidelity_time_series(cfg)
        _write_csv(out, ["t", "gvt", "fidelity"],
                   ((t, gv * t, v) for t, v in zip(series.times, series.values)))
        outputs.append(out)
    elif cfg.experiment == "fidelity_vs_nT":
        steps, fids = fidelity_vs_steps(cfg)
        _write_csv(out, ["n_T", "fidelity"],
                   ((f"{int(m)}", v) for m, v in zip(steps, fids)))
        outputs.append(out)
    elif cfg.experiment == "survival":
        series = survival_series(cfg)
        _write_csv(out, ["t", "gvt", "survival"],
                   ((t, gv * t, v) for t, v in zip(series.times, series.values)))
        outputs.append(out)
    elif cfg.experiment == "correlation":
        exact, digital = correlation_series(cfg)
        digital_values = (digital.values if digital is not None
                          else np.full(len(exact), np.nan))
        _write_csv(out, ["t", "gvt", "corr_exact", "corr_trotter"],
                   ((t, gv * t, a, b) for t, a, b
                    in zip(exact.times, exact.values, digital_values)))
        outputs.append(out)
    elif cfg.experiment == "phase_sweep":
        sweep = phase_sweep(cfg)
        _write_csv(out, ["g_eq_v", "amplitude", "phase"],
                   ((c, a, p) for c, a, p
                    in zip(sweep.control, sweep.amplitude, sweep.phase)))
        outputs.append(out)
    elif cfg.experiment == "compile_report":
        report, program = compile_report_text(cfg)
        out.write_text(report)
        print(report, end="")
        gates_path = out.with_suffix(out.suffix + ".gates.txt")
        gates_path.write_text(program)
        outputs.extend([out, gates_path])
        extra = {"report": report.strip().splitlines()}

    wall = time.perf_counter() - started
    outputs.append(_write_manifest(out, cfg, outputs, wall, extra))
    return outputs
