"""The benchmark workloads: seeded inputs, one op, and its output check.

Every workload is a closed loop with one caller: the next op starts only when
the previous one has returned and been checked.  The seed draws parameter
values only (epsilon, g, V, t); the shape of an op -- Trotter step count,
sweep points, grid sizes, the job list -- is fixed, so the cost of an op does
not depend on the seed.  Fresh parameter values per op keep the package's
``lru_cache``s as cold as they are in a fresh user run.

Ops call the package through module attributes (``model.build_hamiltonian``,
not a name imported here) so that the traced run sees them.

Tolerances below are fixed from the paper's invariants, not from measured
values: the closed-form amplitude 4A(1-A) of the exact phase sweep, the
52/50 gate counts per step and the error budget they give, and
conservation of norm, particle number and energy.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from agassi_sim import cli, ion_compiler, model, statevector

EPSILON_RANGE = (0.9, 1.1)
COUPLING_RANGE = (0.2, 1.2)  # g and V; positive, so g + V never vanishes
E1, E2 = 1e-4, 1e-3  # the paper's gate error rates
SINGLE_PER_STEP, TWO_PER_STEP = 52, 50
FIGURE_JOBS = 11
GENERAL_J_STATE = "dddduuuu"
GENERAL_J_GRID = 41

AMPLITUDE_TOL = 1e-9
CONSERVATION_TOL = 1e-9
ALGEBRA_TOL = 1e-12

# CSV schema per subcommand: (header, flag giving the row count, its default).
_CSV_SCHEMA = {
    "fidelity-time": ("t,gvt,fidelity", "--samples", 401),
    "fidelity-steps": ("n_T,fidelity", "--nt", 5),
    "survival": ("t,gvt,survival", "--samples", 401),
    "correlation": ("t,gvt,corr_exact,corr_trotter", "--samples", 401),
    "phase-sweep": ("g_eq_v,amplitude,phase", "--sweep-points", 101),
}


@dataclass(frozen=True)
class Workload:
    """``setup(root, scratch)`` returns a context shared by every op of a run
    (``scratch`` is a directory the run may write to);
    ``draw(rng)`` one op's input; ``op(ctx, x)`` the timed work;
    ``check(ctx, x, out)`` a list of problems (empty when the op is correct).
    ``cleanup(out)`` releases what the op left behind."""

    setup: Callable[[Path, Path], Any]
    draw: Callable[[np.random.Generator], dict]
    op: Callable[[Any, dict], Any]
    check: Callable[[Any, dict, Any], list[str]]
    cleanup: Callable[[Any], None] = lambda out: None


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    return float(rng.uniform(*bounds))


def _flag(argv: list[str], flag: str, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


# --- figures: scripts/reproduce_figures.py through the CLI -------------------

@dataclass
class _FiguresContext:
    script: Any
    tmp_root: Path


def _figures_setup(root: Path, scratch: Path) -> _FiguresContext:
    path = root / "scripts" / "reproduce_figures.py"
    spec = importlib.util.spec_from_file_location("reproduce_figures", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return _FiguresContext(script, scratch)


def _figures_draw(rng):
    return {"epsilon": _uniform(rng, EPSILON_RANGE)}


def _figures_op(ctx: _FiguresContext, x):
    outdir = Path(tempfile.mkdtemp(prefix="figures-", dir=ctx.tmp_root))
    jobs: list[list[str]] = []

    def cli_with_epsilon(argv):
        argv = [*argv, "--epsilon", repr(x["epsilon"])]
        jobs.append(argv)
        return cli.main(argv)

    # The script looks up its ``cli`` binding per job; appending the flag
    # there runs the script's own job list unchanged.
    ctx.script.cli = cli_with_epsilon
    with contextlib.redirect_stdout(io.StringIO()):
        code = ctx.script.run(outdir)
    return {"code": code, "jobs": jobs, "outdir": outdir}


def _check_csv(path: Path, header: str, rows: int) -> list[str]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        return [f"{path.name}: header {lines[:1]} != {header!r}"]
    if len(lines) - 1 != rows:
        return [f"{path.name}: {len(lines) - 1} rows, expected {rows}"]
    for line in lines[1:]:
        for field in line.split(","):
            if field not in ("SP", "BSP") and not math.isfinite(float(field)):
                return [f"{path.name}: non-finite value in {line!r}"]
    return []


def _check_report(path: Path, n_T: int) -> list[str]:
    """E_G and the per-step gate counts of the report; the gate file must
    parse and serialize back to the same text."""
    fields = {}
    for line in path.read_text().splitlines():
        label, _, value = line.rpartition(" ")
        fields[label.strip()] = value
    try:
        per_step = (int(fields["single-qubit per step"]), int(fields["two-qubit equiv per step"]))
        value = float(fields["total gate error E_G"])
    except (KeyError, ValueError):
        return [f"{path.name}: gate counts or E_G missing"]
    problems = []
    if per_step != (SINGLE_PER_STEP, TWO_PER_STEP):
        problems.append(f"per-step gates {per_step[0]}/{per_step[1]}")
    expected = n_T * (SINGLE_PER_STEP * E1 + TWO_PER_STEP * E2)
    if abs(value - expected) > ALGEBRA_TOL:
        problems.append(f"E_G = {value}, expected {expected}")
    gates = path.with_suffix(path.suffix + ".gates.txt")
    if not gates.is_file():
        problems.append(f"{path.name}: gate file missing")
    else:
        text = gates.read_text()
        if ion_compiler.sequence_to_text(ion_compiler.sequence_from_text(text)) != text:
            problems.append(f"{gates.name}: gate text does not round-trip")
    return problems


def _check_sweep(path: Path, epsilon: float) -> list[str]:
    """Exact amplitudes on the g = V line against the closed form 4A(1-A),
    which is 1 once A = (g+V)^2 / ((g+V)^2 + epsilon^2) reaches 1/2."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)
    gv2 = (2 * data[:, 0]) ** 2
    transfer = gv2 / (gv2 + epsilon**2)
    closed = np.where(transfer >= 0.5, 1.0, 4 * transfer * (1 - transfer))
    worst = float(np.max(np.abs(data[:, 1] - closed)))
    if worst > AMPLITUDE_TOL:
        return [f"{path.name}: exact amplitude off the closed form by {worst:.3e}"]
    return []


def _figures_check(ctx, x, out) -> list[str]:
    problems = []
    if out["code"] != 0:
        problems.append(f"reproduce_figures exited {out['code']}")
    if len(out["jobs"]) != FIGURE_JOBS:
        problems.append(f"{len(out['jobs'])} jobs ran, expected {FIGURE_JOBS}")
    for argv in out["jobs"]:
        path = Path(_flag(argv, "--out", ""))
        if not (path.is_file() and path.with_suffix(path.suffix + ".manifest.json").is_file()):
            problems.append(f"{argv[0]}: output or manifest missing for {path.name}")
            continue
        if argv[0] == "compile-report":
            problems += _check_report(path, int(_flag(argv, "--nt", 5)))
        else:
            header, flag, default = _CSV_SCHEMA[argv[0]]
            csv_problems = _check_csv(path, header, int(_flag(argv, flag, default)))
            if argv[0] == "phase-sweep" and not csv_problems:
                csv_problems = _check_sweep(path, x["epsilon"])
            problems += csv_problems
    return problems


def _figures_cleanup(out) -> None:
    shutil.rmtree(out["outdir"], ignore_errors=True)


# --- general_j: Hamiltonians for j = 1..3 and the j = 2 dense oracle ---------

def _general_setup(root: Path, scratch: Path):
    # The particle-number operator does not depend on the couplings.
    return {"Nop": model.build_collective_ops(2)["Nop"]}


def _coupling_draw(rng):
    return {"g": _uniform(rng, COUPLING_RANGE), "V": _uniform(rng, COUPLING_RANGE)}


def _general_op(ctx, x):
    hams = {j: model.build_hamiltonian(model.ModelParams(epsilon=1.0, g=x["g"], V=x["V"], j=j))
            for j in (1, 2, 3)}
    split = model.build_split_j1(model.ModelParams(epsilon=1.0, g=x["g"], V=x["V"])).total
    propagator = statevector.ExactPropagator(hams[2])
    initial = statevector.basis_state(GENERAL_J_STATE)
    times = np.linspace(0.0, 10.0 / (x["g"] + x["V"]), GENERAL_J_GRID)
    rows = propagator.states_at(initial, times)
    norms, numbers, energies = [], [], []
    for amps in rows:
        norms.append(float(np.linalg.norm(amps)))
        state = statevector.StateVector(amps / norms[-1], initial.n)
        numbers.append(statevector.expectation(state, ctx["Nop"]))
        energies.append(statevector.expectation(state, hams[2]))
    return {"hams": hams, "split": split, "norms": norms,
            "numbers": numbers, "energies": energies}


def _same_sum(a, b) -> bool:
    if [t.letters for t in a.terms] != [t.letters for t in b.terms]:
        return False
    return all(abs(s.coefficient - t.coefficient) <= ALGEBRA_TOL
               for s, t in zip(a.terms, b.terms))


def _general_check(ctx, x, out) -> list[str]:
    problems = [f"H(j={j}) is not Hermitian" for j, h in out["hams"].items()
                if not h.hermitian()]
    if not _same_sum(out["hams"][1], out["split"]):
        problems.append("build_hamiltonian(j=1) differs from build_split_j1")
    half_filling = GENERAL_J_STATE.count("u")
    for label, values, ref in (("norm", out["norms"], 1.0),
                               ("Nop", out["numbers"], half_filling),
                               ("energy", out["energies"], out["energies"][0])):
        drift = max(abs(v - ref) for v in values)
        if drift > CONSERVATION_TOL:
            problems.append(f"{label} drifts by {drift:.3e}")
    return problems


WORKLOADS: dict[str, Workload] = {
    "figures": Workload(_figures_setup, _figures_draw, _figures_op, _figures_check,
                        _figures_cleanup),
    "general_j": Workload(_general_setup, _coupling_draw, _general_op, _general_check),
}
