"""Spans around the public functions of the banalg layers, recorded from outside.

`Tracer.install()` wraps every public function defined in a layer module and
rebinds the wrapper in each `banalg` module namespace that holds the original
(a module that did `from .multipliers import multiplier_space` has its own
binding).  Each call appends one span (name, start, end, parent) to a list in
memory; nothing is written until `write()` at the end of the run.  A span's
self time is its duration minus the durations of its direct children.

Counters the per-layer metrics need (method histogram, distinct algebras,
characters found, ...) are recorded at the same call boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter

from banalg.errors import BanalgError

LAYERS = ("algebra", "constructions", "fixtures", "spectra", "multipliers",
          "interpolation", "bse", "verify", "jsonio")

# functions whose calls and self time are reported as per-layer metrics;
# every other public layer function is still wrapped, so self times are exact
REPORTED = (
    "multipliers.multiplier_space", "multipliers.left_multiplier_space",
    "multipliers.block_space", "multipliers.decompose_left_multiplier",
    "multipliers.recompose", "multipliers.blocks_from_vector",
    "multipliers.left_multiplier_residual", "multipliers.multiplier_residual",
    "multipliers.hat",
    "interpolation.solve_primal", "interpolation.solve_dual",
    "spectra.characters_numerical", "spectra.characters_semidirect",
    "spectra.characters_lau",
    "bse.check_bse_property", "bse.bse_norm_primal", "bse.bse_norm_dual",
    "bse.delta_weak_bai", "bse.verify_product_bse", "bse.split_sigma",
    "bse.theta", "bse.sigma_extension",
    "algebra.validate",
    "constructions.semidirect", "constructions.lau_product",
    "constructions.direct_sum", "constructions.phi_isomorphism",
    "fixtures.build_fixture",
    "verify.fixture_records",
    "jsonio.render_json",
)

OP = "op"  # the benchmark's own span around one op; root of each span tree


def _algebra_key(algebra) -> str:
    h = hashlib.sha1(algebra.weights.tobytes())
    h.update(algebra.structure.tobytes())
    if algebra.unit is not None:
        h.update(algebra.unit.tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.algebras: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)  # placeholder keeps spans in start order
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float):
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark op under a root span."""
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, parent, OP, start)

    def _wrap(self, name: str, fn):
        count = self._COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, parent, name, start)
                if count is not None:
                    count(self, args, None, exc)
                raise
            self._close(idx, parent, name, start)
            if count is not None:
                count(self, args, result, None)
            return result

        return wrapper

    # -- counters at call boundaries ---------------------------------------

    def _count_multiplier_space(self, args, result, exc):
        n = args[0].dim
        self.algebras.add(_algebra_key(args[0]))
        self.counts["multipliers.constraint_entries_computed"] += n ** 3 * n ** 2

    def _count_left_multiplier_space(self, args, result, exc):
        n = args[0].dim
        self.counts["multipliers.constraint_entries_computed"] += n ** 3 * n ** 2

    def _count_solve(self, args, result, exc):
        if exc is not None:
            if isinstance(exc, BanalgError):
                self.counts["interpolation.failed"] += 1
            return
        method = getattr(result, "method", None)
        if method is not None:  # solve_primal; solve_dual returns a tuple
            key = "method_" + method.replace("+", "_")
            self.counts["interpolation." + key] += 1

    def _count_characters(self, args, result, exc):
        if result is not None:
            found = result.set if hasattr(result, "set") else result
            self.counts["spectra.characters_found"] += len(found)

    _COUNTERS = {
        "multipliers.multiplier_space": _count_multiplier_space,
        "multipliers.left_multiplier_space": _count_left_multiplier_space,
        "interpolation.solve_primal": _count_solve,
        "interpolation.solve_dual": _count_solve,
        "spectra.characters_numerical": _count_characters,
        "spectra.characters_semidirect": _count_characters,
        "spectra.characters_lau": _count_characters,
    }

    # -- installing the wrappers -------------------------------------------

    def install(self):
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"banalg.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "banalg" and not name.startswith("banalg."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        selfs: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            selfs[name] += (end - start) - child[i]
        return calls, selfs

    def op_seconds(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == OP)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        calls, selfs = self.self_times()
        op_s = self.op_seconds()
        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            out[f"{name}.calls"] = (calls[name], "count")
            share = 100.0 * selfs[name] / op_s if op_s > 0 else 0.0
            out[f"{name}.self_pct"] = (share, "%")
        c = self.counts
        distinct = len(self.algebras)
        ms_calls = calls["multipliers.multiplier_space"]
        out["multipliers.distinct_algebras"] = (distinct, "count")
        out["multipliers.multiplier_space.calls_per_algebra"] = (
            ms_calls / distinct if distinct else 0.0, "ratio")
        out["multipliers.constraint_entries_computed"] = (
            c["multipliers.constraint_entries_computed"], "count")
        cone = c["interpolation.method_barrier"] + c["interpolation.method_barrier_polish"]
        for key in ("method_square", "method_barrier", "method_barrier_polish", "failed"):
            out[f"interpolation.{key}"] = (c[f"interpolation.{key}"], "count")
        out["interpolation.polish_ratio"] = (
            c["interpolation.method_barrier_polish"] / cone if cone else 0.0, "ratio")
        out["spectra.characters_found"] = (c["spectra.characters_found"], "count")
        return out

    def write(self, path: str, meta: dict):
        """Write the spans (times relative to the first span) and their totals."""
        t0 = self.spans[0][1] if self.spans else 0.0
        calls, selfs = self.self_times()
        doc = {
            "meta": meta,
            "totals": {name: {"calls": calls[name], "self_s": selfs[name]}
                       for name in sorted(calls)},
            "counts": dict(sorted(self.counts.items())),
            "spans": [[name, start - t0, end - t0, parent]
                      for name, start, end, parent in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
