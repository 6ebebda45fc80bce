"""Experiment runner: fidelity, survival, correlation and phase-probe sweeps.

Every experiment evolves a half-filled product state, by default the one
with the upper level empty ("d" * 2j + "u" * 2j, |down down up up> at j = 1),
and writes one CSV per run plus a JSON manifest recording all parameters
(the initial state included), the package version and the wall time.  Time
axes are reported both as t (units 1/epsilon) and as the dimensionless
product (g+V) t.

The phase probe works on the connected correlator

    corr_z12 = <Z1 Z2> - <Z1><Z2>,

whose Rabi-oscillation amplitude under exact evolution is 4A(1-A) with
transfer amplitude A = (g+V)^2 / ((g+V)^2 + epsilon^2); the amplitude
saturates at 1 exactly when A >= 1/2, i.e. at and beyond the critical line
g + V = epsilon.  Amplitudes are extracted by one batched search: a grid
spanning two Rabi periods (200 samples per period), then passes of
ZOOM_SAMPLES times on the bracket around the previous pass's best sample,
until that bracket is at most ZOOM_WIDTH wide.  The extremum is then pinned
to about 1e-17 in value; plain grid maxima are only good to about 1e-4, not
enough to resolve the saturation plateau.

Every pass of the search batches all points of a sweep at once, in slices of
at most SEARCH_AMPLITUDES amplitudes, and each point keeps its own stopping
rule.  The exact search evaluates its states by phase tables on each point's
uniform grid (``statevector.spectral_grid_states``), about 2 sqrt(samples)
exponentials per eigenvalue instead of samples; the exact time series are
evaluated at their times by ``statevector.coset_evolution``, the function
``statevector.ExactPropagator`` evolves with too.

Every exact run, search and time series alike, evolves on the initial
state's coset (``paulis.cosets`` of the coupling-free blocks' x masks:
|dduu> and |uudd> at j = 1, 2^(3j-2) states in general), which H never
leaves.  The coset and its blocks are built once per start support and set
of blocks, and shared, read-only, by every later run from that start.  Every
digital run evolves on the same coset, which the Trotter step never leaves
either, through ``trotter.coset_steps``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .checks import boolean, finite, integer, probability, real, text
from .ion_compiler import compile_schedule, count_gates, error_budget, sequence_to_text
from .model import ModelParams, _coupling_free_blocks, coupling_weights, critical_line
from .paulis import MATRIX_QUBIT_LIMIT, CapacityError, PauliSum, cosets, to_matrix, x_masks_of
from .statevector import (StateVector, TimeSeries, basis_state, coset_evolution,
                          hermitian_spectra, parse_spin_pattern, spectral_coeffs,
                          spectral_grid_states)
from .trotter import build_schedule, coset_states, coset_steps

SATURATION_TOL = 1e-6
"""An amplitude within this distance of 1 counts as saturated (broken phase)."""

MAX_AMPLITUDES = 2**24
"""Largest time grid accepted, counted as samples * 2^n amplitudes (256 MiB)."""

GRID_SAMPLES = 401
"""Times of the first search pass, spanning two Rabi periods."""

ZOOM_SAMPLES = 65
"""Times per refinement pass: 64 intervals shrink the bracket 32-fold a pass,
so five passes take the grid's best cell (at most pi/100 wide at epsilon = 1)
below ZOOM_WIDTH."""

ZOOM_WIDTH = 1e-9
"""Bracket width at which the search stops.  The last spacing is then at most
5e-10, so the value at the best sample is within f'' s^2 / 2 ~ 1e-17 of the
maximum, below the rounding of the observable itself."""

SEARCH_AMPLITUDES = 2**15
"""Most amplitudes one slice of a search pass holds, counted as points *
samples * coset dimension: each pass runs in slices of that many points
(never fewer than one), 40 per grid slice and 252 per zoom pass at j = 1.
The exact spectra are built in chunks of the grid slice's size."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, checked on construction.  An ``initial_state`` of
    None becomes the half-filled state with the upper level empty,
    ``"d" * 2j + "u" * 2j`` (``dduu`` at j = 1).

    The state is resolved and checked against ``params.n_qubits`` on
    construction, so ``dataclasses.replace(cfg, params=...)`` keeps the old
    one: a copy that changes ``j`` is refused unless it also passes
    ``initial_state=None`` (or a pattern of the new size)."""

    experiment: str
    params: ModelParams = field(default_factory=ModelParams)
    n_T: int = 5
    t_final: float | None = None
    samples: int = 401
    initial_state: str | None = None
    sweep_start: float = 0.0
    sweep_stop: float = 1.0
    sweep_points: int = 101
    e1: float = 1e-4
    e2: float = 1e-3
    trotter: bool = True
    out: str | os.PathLike | None = None

    def __post_init__(self):
        if text(self.experiment, "experiment") not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {tuple(EXPERIMENTS)}"
            )
        if not isinstance(self.params, ModelParams):
            raise ValueError(f"params must be a ModelParams, got {self.params!r}")
        for name, least in (("n_T", 1), ("samples", 2), ("sweep_points", 2)):
            integer(getattr(self, name), name, least)
        for name in ("sweep_start", "sweep_stop"):
            finite(real(getattr(self, name), name), name)
        for name in ("e1", "e2"):
            probability(getattr(self, name), name)
        if self.t_final is not None:
            finite(real(self.t_final, "t_final"), "t_final", "positive")
        if self.initial_state is None:
            half = 2 * self.params.j
            object.__setattr__(self, "initial_state", "d" * half + "u" * half)
        text(self.initial_state, "initial_state")
        try:
            qubits = len(parse_spin_pattern(self.initial_state))
        except ValueError as exc:
            raise ValueError(f"initial_state {self.initial_state!r}: {exc}") from None
        if qubits != self.params.n_qubits:
            raise ValueError(f"initial_state {self.initial_state!r} has {qubits} qubits, "
                             f"j = {self.params.j} needs {self.params.n_qubits}; "
                             "pass initial_state=None")
        boolean(self.trotter, "trotter")
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ValueError(f"out must be a string or a path, got {self.out!r}")
        size = self.samples * 2**self.params.n_qubits
        if size > MAX_AMPLITUDES:
            raise ValueError(
                f"samples * 2^n = {self.samples} * 2^{self.params.n_qubits} = {size} "
                f"amplitudes exceeds the limit of {MAX_AMPLITUDES}"
            )
        if self.experiment == "phase_sweep" and self.params.j != 1:
            raise ValueError(f"the phase sweep runs the j = 1 model, got j = {self.params.j}")
        if not self.sweep_start < self.sweep_stop:
            raise ValueError(
                "the sweep needs sweep_start < sweep_stop, "
                f"got {self.sweep_start!r} and {self.sweep_stop!r}"
            )


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


def _survival_values(states: np.ndarray, initial: np.ndarray) -> np.ndarray:
    return np.abs(states @ initial.conj()) ** 2


def _coset_blocks(initial: StateVector, j: int) -> tuple[np.ndarray, np.ndarray]:
    """idx, the initial state's coset of the x masks of the coupling-free
    blocks at j (a union of cosets for a superposition), and those blocks
    (identity dropped) on idx, both read-only; the n <= 12 guard runs before
    any 2^n array."""
    if initial.n > MATRIX_QUBIT_LIMIT:
        raise CapacityError(initial.n)
    support = tuple(np.flatnonzero(initial.amplitudes).tolist())
    return _support_blocks(support, _coupling_free_blocks(j))


@lru_cache(maxsize=8)
def _support_blocks(support: tuple[int, ...],
                    free: tuple[PauliSum, ...]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_coset_blocks` of the basis indices ``support`` and the
    coupling-free blocks ``free``, built once per pair.  The key holds the
    blocks themselves, not j, so other blocks at the same j (a term added to
    one) never read a stale entry.  idx is the sorted union of the
    support's ``paulis.cosets``, which are disjoint, so ``np.sort`` does
    without ``np.unique`` (which would import numpy.ma)."""
    masks = [x for block in free for x in x_masks_of(block)]
    idx = np.sort(cosets(masks, free[0].n, support), axis=None)
    blocks = np.array([to_matrix(block.without_identity(), idx) for block in free])
    for array in (idx, blocks):
        array.setflags(write=False)
    return idx, blocks


def _exact_states(cfg: ExperimentConfig, times: np.ndarray) -> tuple:
    """The initial state, its coset idx and the exact states on idx at the
    given times, shape (len(times), d)."""
    initial = basis_state(cfg.initial_state)
    idx, blocks = _coset_blocks(initial, cfg.params.j)
    weighted = np.tensordot(coupling_weights(cfg.params), blocks, 1)
    return initial, idx, coset_evolution(weighted, initial.amplitudes[idx], times)


def _zoom_max(periods: np.ndarray, values_at: Callable, d: int) -> np.ndarray:
    """Per point, the maximum of ``values_at(rows, lo, hi, samples)`` (one
    row of values per point in ``rows``, at its times ``lo + k (hi - lo) /
    (samples - 1)``, k < samples) over two periods: one pass on the grid,
    then passes on the bracket around each point's best sample, until that
    bracket is at most ZOOM_WIDTH wide or stops shrinking (the float spacing
    of t reached).  A point that stops leaves the batch; the others go on.

    Each pass runs in slices of at most SEARCH_AMPLITUDES // (samples * d)
    points, d the width of a state.  A bracket's ends are ``np.linspace``'s
    own samples k -/+ 1, ``i * step + lo`` with the last pinned to ``hi``,
    computed without the grid."""
    best = np.full(len(periods), -np.inf)
    width = np.full(len(periods), np.inf)
    rows = np.arange(len(periods))
    lo, hi, samples = np.zeros(len(periods)), 2 * periods, GRID_SAMPLES
    while rows.size:
        per = max(1, SEARCH_AMPLITUDES // (samples * d))
        values = np.concatenate([values_at(rows[s:s + per], lo[s:s + per], hi[s:s + per], samples)
                                 for s in range(0, len(rows), per)])
        k = np.argmax(values, axis=1)
        best[rows] = np.maximum(best[rows], values[np.arange(len(rows)), k])
        step = (hi - lo) / (samples - 1)
        lo, hi = (np.maximum(k - 1, 0) * step + lo,
                  np.where(k + 1 < samples - 1, (k + 1) * step + lo, hi))
        going = (hi - lo > ZOOM_WIDTH) & (hi - lo < width[rows])
        width[rows] = hi - lo
        rows, lo, hi, samples = rows[going], lo[going], hi[going], ZOOM_SAMPLES
    return best


def _two_period_max(points: list[ModelParams], initial: StateVector, observable: Callable,
                    n_T: int | None = None) -> np.ndarray:
    """Per point, the maximum of ``observable(states, initial, idx)`` over two
    Rabi periods, under exact or (n_T given) digital evolution from one initial
    state; ``states`` are amplitudes on ``idx``, the initial state's coset.

    Every point goes through one :func:`_zoom_max`.  Exact states come from
    the spectra of the points' coset blocks, built in chunks of at most
    SEARCH_AMPLITUDES // (GRID_SAMPLES * d) points, by the phase tables of
    :func:`spectral_grid_states`; digital states are evolved per point on idx
    by :func:`trotter.coset_states` at the ``np.linspace`` times."""
    if not points:
        return np.empty(0)
    idx, blocks = _coset_blocks(initial, points[0].j)
    start = initial.amplitudes[idx]
    if n_T is None:
        chunk = max(1, SEARCH_AMPLITUDES // (GRID_SAMPLES * len(idx)))
        weights = np.array([coupling_weights(p) for p in points])
        energies, vectors = map(np.concatenate, zip(*(
            hermitian_spectra(np.tensordot(weights[k:k + chunk], blocks, 1))
            for k in range(0, len(points), chunk))))
        coeffs = spectral_coeffs(vectors, start)

        def states_at(rows, lo, hi, samples):
            return spectral_grid_states(energies[rows], vectors[rows], coeffs[rows],
                                        lo, hi, samples)
    else:
        def states_at(rows, lo, hi, samples):
            times = np.linspace(lo, hi, samples, axis=-1)
            return np.array([coset_states(start, idx, points[r], t, n_T)
                             for r, t in zip(rows, times)])

    return _zoom_max(np.array([rabi_period(p) for p in points]),
                     lambda *grid: observable(states_at(*grid), initial, idx), len(idx))


def _corr_values(states: np.ndarray, initial: StateVector, idx: np.ndarray) -> np.ndarray:
    """corr_z12 of states on idx, shape (..., d); the Z1 and Z2 signs of a
    basis state are its two most significant bits (qubits 1 and 2)."""
    z1, z2 = (1.0 - 2.0 * ((idx >> (initial.n - q)) & 1) for q in (1, 2))
    prob = np.abs(states) ** 2
    return prob @ (z1 * z2) - (prob @ z1) * (prob @ z2)


def _amplitudes(points: list[ModelParams], initial: StateVector, n_T: int | None) -> np.ndarray:
    """corr_z12 amplitudes at each point; a vanishing coupling g + V = 0
    leaves the initial basis state stationary, so its amplitude is 0."""
    amps = np.zeros(len(points))
    live = [k for k, p in enumerate(points) if p.control != 0.0]
    amps[live] = _two_period_max([points[k] for k in live], initial, _corr_values, n_T)
    return amps


def amplitude(cfg: ExperimentConfig, *, trotterized: bool = False) -> float:
    """Oscillation amplitude of corr_z12: the maximum over two Rabi periods,
    found by a grid pass and batched zoom passes to machine precision.

    With ``trotterized=True`` the digital evolution at cfg.n_T replaces the
    exact one (each sample time is reached in n_T steps).  A vanishing
    coupling g + V = 0 leaves the initial eigenstate stationary, so the
    amplitude is 0.
    """
    n_T = cfg.n_T if trotterized else None
    return float(_amplitudes([cfg.params], basis_state(cfg.initial_state), n_T)[0])


def survival_minimum(cfg: ExperimentConfig) -> float:
    """Minimum of the exact survival probability over two Rabi periods, by
    the same grid and zoom passes."""
    def values(states, initial, idx):
        return -_survival_values(states, initial.amplitudes[idx])
    return -float(_two_period_max([cfg.params], basis_state(cfg.initial_state), values)[0])


def classify_amplitude(amp: float) -> str:
    """Phase label inferred from an oscillation amplitude: saturated (within
    SATURATION_TOL of 1) means broken-symmetry, anything lower means symmetric."""
    return "BSP" if amp >= 1.0 - SATURATION_TOL else "SP"


def fidelity_time_series(cfg: ExperimentConfig) -> TimeSeries:
    """Fidelity between exact and digital states on a uniform time grid."""
    times = np.linspace(0.0, default_t_final(cfg), cfg.samples)
    initial, idx, exact = _exact_states(cfg, times)
    digital = coset_states(initial.amplitudes[idx], idx, cfg.params, times, cfg.n_T)
    return TimeSeries(times, np.abs(np.einsum("ki,ki->k", exact.conj(), digital)) ** 2)


def fidelity_vs_steps(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact-vs-digital fidelity at fixed final time for n_T = 1..cfg.n_T."""
    t_final = default_t_final(cfg)
    initial, idx, exact = _exact_states(cfg, np.array([t_final]))
    steps = np.arange(1, cfg.n_T + 1)
    # one batch of every step size t_final / m, whose row m is read after m steps
    batch = coset_steps(initial.amplitudes[idx], idx, cfg.params, t_final / steps)
    digital = np.array([states[m] for m, states in zip(range(cfg.n_T), batch)])
    return steps, _survival_values(digital, exact[0])


def survival_series(cfg: ExperimentConfig) -> TimeSeries:
    """Exact survival probability |<psi(0)|psi(t)>|^2 on a uniform grid."""
    times = np.linspace(0.0, default_t_final(cfg), cfg.samples)
    initial, idx, states = _exact_states(cfg, times)
    return TimeSeries(times, _survival_values(states, initial.amplitudes[idx]))


def correlation_series(cfg: ExperimentConfig) -> tuple[TimeSeries, TimeSeries | None]:
    """corr_z12 under exact evolution and, when cfg.trotter, under the
    digital evolution at cfg.n_T on the same grid."""
    times = np.linspace(0.0, default_t_final(cfg), cfg.samples)
    initial, idx, states = _exact_states(cfg, times)
    exact = TimeSeries(times, _corr_values(states, initial, idx))
    if not cfg.trotter:
        return exact, None
    digital = coset_states(initial.amplitudes[idx], idx, cfg.params, times, cfg.n_T)
    return exact, TimeSeries(times, _corr_values(digital, initial, idx))


def phase_sweep(cfg: ExperimentConfig, *, trotterized: bool = False) -> SweepResult:
    """Amplitude of corr_z12 on a g = V grid, with the phase-line label of
    each point."""
    controls = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points)
    points = [ModelParams(epsilon=cfg.params.epsilon, g=float(gv), V=float(gv), j=1)
              for gv in controls]
    amps = _amplitudes(points, basis_state(cfg.initial_state), cfg.n_T if trotterized else None)
    return SweepResult(control=controls, amplitude=amps,
                       phase=tuple(critical_line(p) for p in points))


def _write_csv(path: Path, header: tuple[str, ...], columns) -> None:
    """One line per row; ``str`` of a Python float is its ``repr``, full
    double precision."""
    columns = [list(map(str, np.asarray(column).tolist())) for column in columns]
    path.write_text("\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n")


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


def _series_columns(cfg: ExperimentConfig, *series: TimeSeries | None) -> tuple:
    """Columns ``t``, ``(g+V) t`` and the values of each series on one time
    grid; a missing series is a column of NaN."""
    times = series[0].times
    return (times, cfg.params.control * times,
            *(s.values if s is not None else np.full(len(times), np.nan) for s in series))


@dataclass(frozen=True)
class Experiment:
    """One experiment: its CLI subcommand, its CSV header and ``data(cfg)``,
    which computes it and returns one array per CSV column (so a refused run
    writes nothing).  The compile report writes a text report and a gate
    file instead, and has no columns."""

    command: str
    columns: tuple[str, ...] = ()
    data: Callable[[ExperimentConfig], tuple] | None = None


EXPERIMENTS: dict[str, Experiment] = {
    "fidelity_vs_time": Experiment(
        "fidelity-time", ("t", "gvt", "fidelity"),
        lambda cfg: _series_columns(cfg, fidelity_time_series(cfg))),
    "fidelity_vs_nT": Experiment("fidelity-steps", ("n_T", "fidelity"), fidelity_vs_steps),
    "survival": Experiment(
        "survival", ("t", "gvt", "survival"),
        lambda cfg: _series_columns(cfg, survival_series(cfg))),
    "correlation": Experiment(
        "correlation", ("t", "gvt", "corr_exact", "corr_trotter"),
        lambda cfg: _series_columns(cfg, *correlation_series(cfg))),
    "phase_sweep": Experiment(
        "phase-sweep", ("g_eq_v", "amplitude", "phase"),
        lambda cfg: tuple(vars(phase_sweep(cfg)).values())),  # its fields are the columns
    "compile_report": Experiment("compile-report"),
}


def run(cfg: ExperimentConfig) -> list[Path]:
    """Execute an experiment, write its CSV (or report) and manifest.

    Returns the paths written, manifest last.
    """
    if cfg.out is None:
        raise ValueError("an output path is required")
    out = Path(cfg.out)
    started = time.perf_counter()
    experiment = EXPERIMENTS[cfg.experiment]
    extra: dict | None = None
    # each branch computes its result before creating the output directory,
    # so a refused run leaves nothing behind
    if experiment.columns:
        columns = experiment.data(cfg)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out, experiment.columns, columns)
        outputs = [out]
    else:
        report, program = compile_report_text(cfg)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report)
        print(report, end="")
        gates_path = out.with_suffix(out.suffix + ".gates.txt")
        gates_path.write_text(program)
        outputs = [out, gates_path]
        extra = {"report": report.strip().splitlines()}

    wall = time.perf_counter() - started
    outputs.append(_write_manifest(out, cfg, outputs, wall, extra))
    return outputs
