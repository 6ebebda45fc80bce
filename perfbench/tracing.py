"""Span tracer that wraps agassi_sim's public functions from outside.

Wrappers are installed on the names where callers look them up -- the module
attribute a caller reads at call time, or the class attribute an operator or
method call resolves -- and the originals are put back when the block ends,
so the package itself carries no tracing code.  A name that a later version
of the package no longer has is skipped and its metrics read 0.

Spans (name, start, end, parent, op) are appended to flat arrays during a run
and written out once, at the end.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

MODULES = ("paulis", "model", "statevector", "trotter", "ion_compiler", "experiments", "cli")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _sum_products(args, kwargs, result):
    a, b = args
    if hasattr(b, "terms"):
        return {"paulis.string_products": len(a.terms) * len(b.terms)}
    return {}


def _matrix_bytes(args, kwargs, result):
    return {"paulis.to_matrix.bytes": 16 * 4 ** _arg(args, kwargs, 0, "op").n}


def _states_at_rows(args, kwargs, result):
    return {"statevector.states_at.rows": len(_arg(args, kwargs, 2, "times"))}


def _trotter_rows(args, kwargs, result):
    rows = len(_arg(args, kwargs, 2, "times"))
    n_T = _arg(args, kwargs, 3, "n_T")
    # each step is eight interaction strings plus one diagonal phase pass
    updates = rows * n_T * 9 * 2 ** _arg(args, kwargs, 0, "state").n
    return {"trotter.trotter_states_at.rows": rows, "trotter.amp_updates": updates}


def _compiled_gates(args, kwargs, result):
    return {"ion_compiler.compile_schedule.gates": len(result)}


def _simulated_gates(args, kwargs, result):
    return {"ion_compiler.simulate_sequence.gates": len(_arg(args, kwargs, 1, "sequence"))}


def _text_out(args, kwargs, result):
    return {"ion_compiler.text.bytes": len(result)}


def _text_in(args, kwargs, result):
    return {"ion_compiler.text.bytes": len(_arg(args, kwargs, 0, "text"))}


def _nfev(args, kwargs, result):
    return {"experiments.refine.nfev": result.nfev}


def _useful_refinement(args, kwargs, result):
    grid_max = float(np.max(_arg(args, kwargs, 2, "values")))
    return {"experiments.refine.cells": 1,
            "experiments.refine.useful": int(result > grid_max + 1e-12)}


def _output_bytes(args, kwargs, result):
    return {"experiments.output.bytes": sum(Path(p).stat().st_size for p in result)}


def _cli_failed(args, kwargs, result):
    return {"cli.main.failed": int(result != 0)}


@dataclass(frozen=True)
class Target:
    """One traced function: its span name, the owners whose attribute
    callers read (``"module"`` or ``"module:Class"`` under agassi_sim), the
    attribute, and an optional counter ``f(args, kwargs, result) -> dict``."""

    span: str
    owners: tuple[str, ...]
    attr: str
    count: Callable | None = None


TARGETS = (
    Target("paulis.sum_mul", ("paulis:PauliSum",), "__mul__", _sum_products),
    Target("paulis.jw_map", ("model",), "jw_map"),
    Target("paulis.to_matrix", ("statevector",), "to_matrix", _matrix_bytes),
    Target("model.build_hamiltonian", ("model", "experiments", "trotter"), "build_hamiltonian"),
    Target("model.build_collective_ops", ("model",), "build_collective_ops"),
    Target("model.build_split_j1", ("model", "trotter"), "build_split_j1"),
    Target("statevector.ExactPropagator", ("statevector:ExactPropagator",), "__init__"),
    Target("statevector.states_at", ("statevector:ExactPropagator",), "states_at", _states_at_rows),
    Target("statevector.evolve", ("statevector:ExactPropagator",), "evolve"),
    Target("statevector.apply_pauli_exponential", ("ion_compiler",), "apply_pauli_exponential"),
    Target("statevector.expectation", ("statevector",), "expectation"),
    Target("statevector.basis_state", ("statevector", "experiments"), "basis_state"),
    Target("statevector.fidelity", ("statevector", "experiments", "trotter"), "fidelity"),
    Target("trotter.build_schedule", ("trotter", "experiments"), "build_schedule"),
    Target("trotter.trotter_states_at", ("experiments",), "trotter_states_at", _trotter_rows),
    Target("trotter.trotter_evolve", ("trotter", "experiments"), "trotter_evolve"),
    Target("trotter.diagonal_energies", ("experiments", "trotter"), "diagonal_energies"),
    Target("ion_compiler.compile_schedule", ("ion_compiler", "experiments"), "compile_schedule",
           _compiled_gates),
    Target("ion_compiler.count_gates", ("ion_compiler", "experiments"), "count_gates"),
    Target("ion_compiler.error_budget", ("ion_compiler", "experiments"), "error_budget"),
    Target("ion_compiler.simulate_sequence", ("ion_compiler",), "simulate_sequence",
           _simulated_gates),
    Target("ion_compiler.text", ("ion_compiler", "experiments"), "sequence_to_text", _text_out),
    Target("ion_compiler.text", ("ion_compiler",), "sequence_from_text", _text_in),
    Target("experiments.phase_sweep", ("experiments",), "phase_sweep"),
    Target("experiments.amplitude", ("experiments",), "amplitude"),
    Target("experiments.grid_max_refined", ("experiments",), "_grid_max_refined",
           _useful_refinement),
    Target("experiments.refine", ("experiments",), "minimize_scalar", _nfev),
    Target("experiments.fidelity_time_series", ("experiments",), "fidelity_time_series"),
    Target("experiments.fidelity_vs_steps", ("experiments",), "fidelity_vs_steps"),
    Target("experiments.survival_series", ("experiments",), "survival_series"),
    Target("experiments.correlation_series", ("experiments",), "correlation_series"),
    Target("experiments.compile_report_text", ("experiments",), "compile_report_text"),
    Target("experiments.run", ("cli",), "run", _output_bytes),
    Target("cli.main", ("cli",), "main", _cli_failed),
    Target("cli.config_from_args", ("cli",), "config_from_args"),
)

COUNTERS = (
    "paulis.string_products", "paulis.to_matrix.bytes", "statevector.states_at.rows",
    "trotter.trotter_states_at.rows", "trotter.amp_updates",
    "ion_compiler.compile_schedule.gates", "ion_compiler.simulate_sequence.gates",
    "ion_compiler.text.bytes", "experiments.refine.nfev", "experiments.refine.cells",
    "experiments.refine.useful", "experiments.output.bytes", "cli.main.failed",
)

# Every lru_cache of the package, reported as hits and misses per op.
CACHED = {
    "model.build_hamiltonian": ("model", "build_hamiltonian"),
    "model.build_split_j1": ("model", "build_split_j1"),
    "statevector.pauli_action": ("statevector", "_pauli_action"),
    "statevector.cached_propagator": ("statevector", "_cached_propagator"),
    "trotter.diagonal_energies": ("trotter", "diagonal_energies"),
}


def _resolve(owner: str):
    """The module or class named ``"module"`` or ``"module:Class"`` under
    agassi_sim, or None when the package no longer has it."""
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(f"agassi_sim.{module_name}")
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


def _lookup(owner, attr: str):
    return vars(owner).get(attr) if owner is not None else None


class CacheCounters:
    """Hit and miss totals of every package ``lru_cache``, read from
    ``cache_info()`` so that taking them costs the op nothing."""

    def __init__(self):
        self._caches = {}
        for name, (module, attr) in CACHED.items():
            fn = _lookup(_resolve(module), attr)
            if hasattr(fn, "cache_info"):
                self._caches[name] = fn

    @staticmethod
    def keys() -> list[str]:
        return [f"{name}.{kind}" for name in CACHED for kind in ("hits", "misses")]

    def snapshot(self) -> dict[str, int]:
        out = dict.fromkeys(self.keys(), 0)
        for name, fn in self._caches.items():
            info = fn.cache_info()
            out[f"{name}.hits"], out[f"{name}.misses"] = info.hits, info.misses
        return out

    @staticmethod
    def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        return {k: after[k] - before[k] for k in before}


class Tracer:
    """Records spans and counters for the ops run inside :meth:`installed`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_bounds: list[tuple[float, float] | None] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.caches: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patches = []
        for target in TARGETS:
            for owner_name in target.owners:
                owner = _resolve(owner_name)
                original = _lookup(owner, target.attr)
                if original is not None:
                    wrapper = self._wrap(target.span, original, target.count)
                    self._patches.append((owner, target.attr, original, wrapper))

    def _wrap(self, span: str, fn, count):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                counts = self.counts[self._op]
                for key, value in count(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        done = []
        try:
            for owner, attr, original, wrapper in self._patches:
                setattr(owner, attr, wrapper)
                done.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(done):
                setattr(owner, attr, original)

    def begin_op(self) -> None:
        self._op = len(self.op_bounds)
        self.op_bounds.append(None)

    def end_op(self, t0: float, t1: float, caches: dict[str, int]) -> None:
        """Mark the current op complete; only complete ops are summarised."""
        self.op_bounds[self._op] = (t0, t1)
        self.caches[self._op] = caches

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.start),
                np.frombuffer(self.end), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32))

    def summary(self) -> dict[str, float]:
        """Per-layer values: medians over complete ops of per-op calls, self
        time, counters and cache deltas, plus a few run-level ratios."""
        ops = [k for k, b in enumerate(self.op_bounds) if b is not None]
        n_names = len(self.names)
        name, start, end, parent, op = self._arrays()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        self_time = dur - child
        n_ops = len(self.op_bounds)
        key = op * n_names + name
        size = n_ops * n_names
        calls = np.bincount(key, minlength=size).reshape(n_ops, n_names)[ops]
        selfs = np.bincount(key, weights=self_time, minlength=size).reshape(n_ops, n_names)[ops]
        incl = np.bincount(key, weights=dur, minlength=size).reshape(n_ops, n_names)[ops]
        top = parent < 0
        covered = np.bincount(op[top], weights=dur[top], minlength=n_ops)[ops]
        walls = np.array([self.op_bounds[k][1] - self.op_bounds[k][0] for k in ops])

        def med(values) -> float:
            return float(np.median(values)) if len(values) else 0.0

        out: dict[str, float] = {}
        for span in {t.span for t in TARGETS}:
            i = self._ids.get(span)
            out[f"{span}.calls"] = med(calls[:, i]) if i is not None else 0.0
            out[f"{span}.self_s"] = med(selfs[:, i]) if i is not None else 0.0
        for module in MODULES:
            cols = [i for s, i in self._ids.items() if s.startswith(module + ".")]
            out[f"{module}.self_s"] = med(selfs[:, cols].sum(axis=1)) if cols else 0.0
        for counter in COUNTERS:
            out[counter] = med([self.counts[k].get(counter, 0.0) for k in ops])
        for cache_key in CacheCounters.keys():
            out[cache_key] = med([self.caches[k][cache_key] for k in ops])
        cells = sum(self.counts[k].get("experiments.refine.cells", 0.0) for k in ops)
        useful = sum(self.counts[k].get("experiments.refine.useful", 0.0) for k in ops)
        out["experiments.refine.useful_frac"] = useful / cells if cells else 0.0
        sim = self._ids.get("ion_compiler.simulate_sequence")
        sim_time = float(incl[:, sim].sum()) if sim is not None else 0.0
        gates = sum(self.counts[k].get("ion_compiler.simulate_sequence.gates", 0.0) for k in ops)
        out["ion_compiler.simulate_sequence.gates_per_s"] = gates / sim_time if sim_time else 0.0
        out["trace.coverage"] = med(covered / walls) if len(walls) else 0.0
        out["trace.spans_per_op"] = med(calls.sum(axis=1))
        return out

    def write(self, path: Path) -> None:
        name, start, end, parent, op = self._arrays()
        bounds = np.array([b if b is not None else (np.nan, np.nan) for b in self.op_bounds])
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent, op=op, op_bounds=bounds.reshape(-1, 2))
