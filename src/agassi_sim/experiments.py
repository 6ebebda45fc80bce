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
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable

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
    _cached_propagator,
    basis_state,
    fidelity,
)
from .trotter import (
    build_schedule,
    diagonal_energies,
    trotter_evolve,
    trotter_states_at,
)

SATURATION_TOL = 1e-6
"""An amplitude within this distance of 1 counts as saturated (broken phase)."""

MAX_AMPLITUDES = 2**24
"""Largest time grid accepted, counted as samples * 2^n amplitudes (256 MiB)."""


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
                f"unknown experiment {self.experiment!r}; choose from {tuple(EXPERIMENTS)}"
            )
        if not (isinstance(self.n_T, int) and self.n_T >= 1):
            raise ValueError(f"n_T must be a positive integer, got {self.n_T!r}")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        size = self.samples * 2**self.params.n_qubits
        if size > MAX_AMPLITUDES:
            raise ValueError(
                f"samples * 2^n = {self.samples} * 2^{self.params.n_qubits} = {size} "
                f"amplitudes exceeds the limit of {MAX_AMPLITUDES}"
            )
        if self.t_final is not None and not 0 < self.t_final < np.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final!r}")
        if self.experiment == "phase_sweep" and self.params.j != 1:
            raise ValueError(f"the phase sweep runs the j = 1 model, got j = {self.params.j}")
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
    """cfg.t_final, or else t = 1 for the compile report and a window with
    (g+V) t spanning [0, 10] (10/epsilon when the coupling vanishes) for
    every other experiment."""
    if cfg.t_final is not None:
        return cfg.t_final
    if cfg.experiment == "compile_report":
        return 1.0
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


def _propagator(params: ModelParams) -> ExactPropagator:
    """The spectral propagator of H(params), cached per Hamiltonian."""
    return _cached_propagator(build_hamiltonian(params))


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


def _two_period_max(cfg: ExperimentConfig, observable: Callable, *,
                    trotterized: bool = False) -> float:
    """Maximum of ``observable(states, initial)`` over two Rabi periods: one
    batched pass on the grid, then Brent refinement of the best grid cell
    through single states, under exact or (``trotterized``) digital evolution."""
    params = cfg.params
    initial = _initial(cfg)
    times = amplitude_time_grid(params)
    if trotterized:
        states = trotter_states_at(initial, params, times, cfg.n_T)
        state_at = partial(trotter_evolve, initial, params, n_T=cfg.n_T)
    else:
        propagator = _propagator(params)
        states = propagator.states_at(initial, times)
        state_at = partial(propagator.evolve, initial)

    def value_at(t: float) -> float:
        return float(observable(state_at(t).amplitudes[None, :], initial)[0])

    return _grid_max_refined(value_at, times, observable(states, initial))


def amplitude(cfg: ExperimentConfig, *, trotterized: bool = False) -> float:
    """Oscillation amplitude of corr_z12: the maximum over a grid covering
    two Rabi periods, refined locally to machine precision.

    With ``trotterized=True`` the digital evolution at cfg.n_T replaces the
    exact one (each sample time is reached in n_T steps).  A vanishing
    coupling g + V = 0 leaves the initial eigenstate stationary, so the
    amplitude is 0.
    """
    if cfg.params.control == 0.0:
        return 0.0
    return _two_period_max(cfg, lambda states, initial: _corr_from_states(states, initial.n),
                           trotterized=trotterized)


def survival_minimum(cfg: ExperimentConfig) -> float:
    """Minimum of the exact survival probability over two Rabi periods,
    grid-scanned and locally refined."""
    return -_two_period_max(cfg, lambda states, initial: -_survival_values(states, initial))


def classify_amplitude(amp: float, tol: float = SATURATION_TOL) -> str:
    """Phase label inferred from an oscillation amplitude: saturated (within
    tol of 1) means broken-symmetry, anything lower means symmetric."""
    return "BSP" if amp >= 1.0 - tol else "SP"


def _exact_grid(cfg: ExperimentConfig) -> tuple[StateVector, np.ndarray, np.ndarray]:
    """The initial state, the output time grid and the exact states on it."""
    initial = _initial(cfg)
    times = np.linspace(0.0, default_t_final(cfg), cfg.samples)
    return initial, times, _propagator(cfg.params).states_at(initial, times)


def fidelity_time_series(cfg: ExperimentConfig) -> TimeSeries:
    """Fidelity between exact and digital states on a uniform time grid."""
    initial, times, exact_states = _exact_grid(cfg)
    digital_states = trotter_states_at(initial, cfg.params, times, cfg.n_T)
    overlaps = np.einsum("ki,ki->k", exact_states.conj(), digital_states)
    return TimeSeries(times, np.abs(overlaps) ** 2)


def fidelity_vs_steps(cfg: ExperimentConfig, max_steps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact-vs-digital fidelity at fixed final time for n_T = 1..max_steps."""
    params = cfg.params
    initial = _initial(cfg)
    t_final = default_t_final(cfg)
    max_steps = max_steps if max_steps is not None else cfg.n_T
    exact = _propagator(params).evolve(initial, t_final)
    steps = np.arange(1, max_steps + 1)
    fids = np.array([
        fidelity(exact, trotter_evolve(initial, params, t_final, int(m)))
        for m in steps
    ])
    return steps, fids


def survival_series(cfg: ExperimentConfig) -> TimeSeries:
    """Exact survival probability |<psi(0)|psi(t)>|^2 on a uniform grid."""
    initial, times, states = _exact_grid(cfg)
    return TimeSeries(times, _survival_values(states, initial))


def correlation_series(cfg: ExperimentConfig) -> tuple[TimeSeries, TimeSeries | None]:
    """corr_z12 under exact evolution and, when cfg.trotter, under the
    digital evolution at cfg.n_T on the same grid."""
    params = cfg.params
    initial, times, states = _exact_grid(cfg)
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


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
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
            "t_final": default_t_final(cfg),
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
    schedule = build_schedule(cfg.params, default_t_final(cfg), cfg.n_T)
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


def _time_rows(cfg: ExperimentConfig, series: TimeSeries, *extra) -> Iterable[tuple]:
    """Rows ``(t, (g+V) t, value, *extra)`` of a time series."""
    gv = cfg.params.control
    return ((t, gv * t, v, *rest) for t, v, *rest in zip(series.times, series.values, *extra))


def _correlation_rows(cfg: ExperimentConfig) -> Iterable[tuple]:
    exact, digital = correlation_series(cfg)
    digital_values = digital.values if digital is not None else np.full(len(exact), np.nan)
    return _time_rows(cfg, exact, digital_values)


def _sweep_rows(cfg: ExperimentConfig) -> Iterable[tuple]:
    sweep = phase_sweep(cfg)
    return zip(sweep.control, sweep.amplitude, sweep.phase)


@dataclass(frozen=True)
class Experiment:
    """One experiment: its CLI subcommand, its CSV columns and ``rows(cfg)``,
    which computes it and yields the CSV rows.  The compile report writes a
    text report and a gate file instead, and has no columns."""

    command: str
    columns: tuple[str, ...] = ()
    rows: Callable[[ExperimentConfig], Iterable[tuple]] | None = None


EXPERIMENTS: dict[str, Experiment] = {
    "fidelity_vs_time": Experiment(
        "fidelity-time", ("t", "gvt", "fidelity"),
        lambda cfg: _time_rows(cfg, fidelity_time_series(cfg))),
    "fidelity_vs_nT": Experiment(
        "fidelity-steps", ("n_T", "fidelity"),
        lambda cfg: ((f"{int(m)}", v) for m, v in zip(*fidelity_vs_steps(cfg)))),
    "survival": Experiment(
        "survival", ("t", "gvt", "survival"),
        lambda cfg: _time_rows(cfg, survival_series(cfg))),
    "correlation": Experiment(
        "correlation", ("t", "gvt", "corr_exact", "corr_trotter"), _correlation_rows),
    "phase_sweep": Experiment("phase-sweep", ("g_eq_v", "amplitude", "phase"), _sweep_rows),
    "compile_report": Experiment("compile-report"),
}


def run(cfg: ExperimentConfig) -> list[Path]:
    """Execute an experiment, write its CSV (or report) and manifest.

    Returns the paths written, manifest last.
    """
    if cfg.out is None:
        raise ValueError("an output path is required")
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    experiment = EXPERIMENTS[cfg.experiment]
    extra: dict | None = None
    if experiment.columns:
        _write_csv(out, experiment.columns, experiment.rows(cfg))
        outputs = [out]
    else:
        report, program = compile_report_text(cfg)
        out.write_text(report)
        print(report, end="")
        gates_path = out.with_suffix(out.suffix + ".gates.txt")
        gates_path.write_text(program)
        outputs = [out, gates_path]
        extra = {"report": report.strip().splitlines()}

    wall = time.perf_counter() - started
    outputs.append(_write_manifest(out, cfg, outputs, wall, extra))
    return outputs
