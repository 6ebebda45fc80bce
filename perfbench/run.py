#!/usr/bin/env python3
"""Benchmark for agassi-sim: one seeded workload per fresh process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload general_j --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each workload (see ``workloads.py``) is a closed loop with one caller.  Set-up
imports the package from ``src/``, draws the inputs from ``--seed`` and runs
one untimed warm-up op; then ops run back to back for ``--seconds`` and every
op's output is checked.  With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are reported; with ``--trace 1`` ops alternate between
untraced and traced (``tracing.py``) and the per-layer metrics are reported.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and record the environment.  ``--workload
all`` runs every workload listed in ``BENCHMARK.json``, each in its own
process.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"
SCRATCH_ROOT = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 3  # this process plus two fresh probe processes
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1
COVERAGE_MIN = 0.9  # share of a traced op's wall time its top-level spans must cover


def _cap_blas_threads() -> int:
    """Run BLAS on one thread; this must happen before numpy is imported.

    The package is single-threaded and its matrices are at most 256 x 256,
    so a second BLAS thread gains little, and on a host with few shared
    cores it makes op times depend on how the two threads get scheduled."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _import_package():
    """Import agassi_sim from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "agassi_sim" / "__init__.py").is_file():
        raise ImportError(f"no agassi_sim package under {src}")
    sys.path.insert(0, str(src))
    import agassi_sim

    if Path(agassi_sim.__file__).resolve().parent != (src / "agassi_sim").resolve():
        raise ImportError(f"agassi_sim imported from {agassi_sim.__file__}, not {src}")
    return agassi_sim


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _environment(seed: int, blas_cap: int) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_cap,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  With ten samples or fewer no
    percentile has ten beyond it; the fastest op, which has the most samples
    beyond it, is reported instead, so the value moves smoothly with the
    sample count."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    scratch = SCRATCH_ROOT / str(os.getpid())
    try:
        return _measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


def _measure(args, scratch: Path) -> int:
    blas_cap = _cap_blas_threads()
    try:
        spec = json.loads(SPEC.read_text())
        _import_package()
        import numpy as np

        import tracing
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        rng = np.random.default_rng(args.seed)
        scratch.mkdir(parents=True)
        ctx = wl.setup(ROOT, scratch)
        x = wl.draw(rng)
        out = wl.op(ctx, x)
        warmup_problems = wl.check(ctx, x, out)
        wl.cleanup(out)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: set-up failed: {exc!r}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - _STARTED
    if args.setup_probe:
        print(repr(setup_s))
        return 0  # the measuring process reports warm-up problems itself

    setup_samples = [setup_s]
    if not args.trace:
        try:
            setup_samples += [_setup_probe(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"perfbench: set-up probe failed: {exc!r}", file=sys.stderr)
            return 2

    caches = tracing.CacheCounters()
    tracer = tracing.Tracer() if args.trace else None
    latencies: list[float] = []
    traced_latencies: list[float] = []
    problems: list[str] = [f"warm-up: {p}" for p in warmup_problems]
    attempted = failed = 0
    cache_totals = dict.fromkeys(caches.keys(), 0)
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds:
        x = wl.draw(rng)
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        before = caches.snapshot()
        try:
            if traced:
                with tracer.installed():
                    tracer.begin_op()
                    t0 = time.perf_counter()
                    out = wl.op(ctx, x)
                    t1 = time.perf_counter()
                    delta = caches.delta(before, caches.snapshot())
                    tracer.end_op(t0, t1, delta)
            else:
                t0 = time.perf_counter()
                out = wl.op(ctx, x)
                t1 = time.perf_counter()
                delta = caches.delta(before, caches.snapshot())
            try:
                op_problems = wl.check(ctx, x, out)
            finally:
                wl.cleanup(out)
        except (Exception, SystemExit):  # an op that raises is a failed op
            op_problems = [traceback.format_exc(limit=4)]
        else:
            (traced_latencies if traced else latencies).append(t1 - t0)
            for k, v in delta.items():
                cache_totals[k] += v
        if op_problems:
            failed += 1
            problems += [f"op {attempted}: {p}" for p in op_problems]
    elapsed = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok_ops = attempted - failed

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(args.seed, blas_cap),
              "failed_ops": failed / attempted,
              "cache_totals": cache_totals}
    if tracer is None:
        if not latencies:
            print("perfbench: no op completed", file=sys.stderr)
            return 1
        tail_s, tail_pct, tail_beyond = tail(latencies)
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": ok_ops / elapsed,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        record.update(setup_samples_s=setup_samples, samples=len(latencies),
                      tail_percentile=tail_pct, tail_samples_beyond=tail_beyond,
                      latencies_ms=[round(1e3 * v, 3) for v in latencies])
        metric_spec = spec["end_to_end"]
    else:
        values = tracer.summary()
        if traced_latencies and latencies:
            values["trace.overhead_s"] = (statistics.median(traced_latencies)
                                          - statistics.median(latencies))
        else:
            values["trace.overhead_s"] = 0.0
        if traced_latencies and values["trace.coverage"] < COVERAGE_MIN:
            problems.append(f"top-level spans cover {values['trace.coverage']:.3f} "
                            f"of traced op wall time, below {COVERAGE_MIN}")
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.write(spans_path)
        record.update(samples=len(latencies), traced_samples=len(traced_latencies),
                      spans_file=str(spans_path.relative_to(ROOT)))
        metric_spec = spec["per_layer"]

    metrics = {}
    for m in metric_spec:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:<15} {m['name']:<48} {value:>14.6g} {m['unit']}")
    print(f"{args.workload:<15} {'failed_ops':<48} {record['failed_ops']:>14.6g} share")
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints each one's metric lines and
    ends with one JSON object whose metrics are named ``workload.metric``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.py, or all of those in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
