#!/usr/bin/env python3
"""banalg benchmark: one closed-loop client, one process per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # each workload in a fresh process

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the run measures the end-to-end metrics for S seconds; with
--trace 1 it runs the workload's fixed trace schedule once with spans around
every public layer function, and once untraced in a fresh process for the
tracing overhead.  Human-readable lines come first; the last line of stdout
is one JSON object with the metrics named in BENCHMARK.json.  The exit code
is nonzero when a correctness gate fails or the checkout is incomplete.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: two threads run the dim-16 SVDs 1.6x faster, but on a shared
# 2-core box their run-to-run swings were twice as wide (20% vs 9% between
# windows of ten order-12 ops), wider than any bound the benchmark may set.
BLAS_THREADS = 1
# the keys of workloads.WORKLOADS, which cannot be imported before the BLAS pin
WORKLOAD_NAMES = ("verify_small", "bse_dim16")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--untraced-pass", action="store_true",
                   help="run the trace schedule untraced and print its op time "
                        "(the reference for the tracing overhead)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    """Versions and thread counts a run depends on."""
    import numpy as np
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": _openblas_threads(np),
    }
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if blas:
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return env


def _openblas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail(lat: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that keeps
    TAIL_BEYOND samples above it, but never below the median (short runs)."""
    xs = sorted(lat)
    k = max(len(xs) - TAIL_BEYOND - 1, len(xs) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def run_op(wl, inp, call):
    """Time one op; return (seconds, output or None, failure or None)."""
    from banalg.errors import BanalgError
    t = time.perf_counter()
    try:
        out = call(wl.op, inp)
    except BanalgError as exc:
        return time.perf_counter() - t, None, ("refused", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a crash is a wrong output, and the run goes on
        return time.perf_counter() - t, None, ("wrong", f"{type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t
    return dt, out, wl.check(inp, out)


class Tally:
    def __init__(self):
        self.lat: list[float] = []
        self.done: list = []  # (input, output) of ops that returned
        self.failed = 0
        self.wrong: list[str] = []

    def add(self, inp, dt, out, failure):
        self.lat.append(dt)
        if out is not None:
            self.done.append((inp, out))
        if failure is not None:
            self.failed += 1
            if failure[0] == "wrong":
                self.wrong.append(failure[1])


def _call(fn, inp):
    return fn(inp)


def timed_rounds(wl, seed: int, seconds: float) -> Tally:
    """Closed loop: whole rounds until the next one would end past `seconds`."""
    tally = Tally()
    start = time.perf_counter()
    for n, inputs in enumerate(wl.rounds(seed), 1):
        for inp in inputs:
            tally.add(inp, *run_op(wl, inp, _call))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / n >= seconds:
            return tally


def trace_schedule(wl, seed: int) -> list:
    rounds = wl.rounds(seed)
    return [inp for _ in range(wl.trace_rounds) for inp in next(rounds)]


def setup(wl, import_s: float) -> float:
    """Import time plus the median of SETUP_REPS warm-ups."""
    reps = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl.warm_up()
        reps.append(time.perf_counter() - t)
    return import_s + statistics.median(reps)


def untraced_pass_seconds(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--untraced-pass"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced pass failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["pass_s"]


def measure(args, wl, import_s: float):
    """Returns (tally, metrics {name: (value, unit)}, notes)."""
    setup_s = setup(wl, import_s)
    if not args.trace:
        tally = timed_rounds(wl, args.seed, args.seconds)
        p50 = statistics.median(tally.lat)
        t_val, t_pct, t_beyond = tail(tally.lat)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(tally.lat) / sum(tally.lat), "1/s"),
            "op_p50_ms": (1e3 * p50, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        # too noisy across seeds to gate (see BENCHMARK.json), so printed only
        notes = [f"op_tail_ms = {1e3 * t_val!r} ms at p{t_pct:.1f} of {len(tally.lat)} ops "
                 f"({t_beyond} beyond it)"]
        return tally, metrics, notes

    from tracer import Tracer
    untraced_s = untraced_pass_seconds(args)
    tracer = Tracer()
    tally = Tally()
    tracer.install()
    try:
        for inp in trace_schedule(wl, args.seed):
            tally.add(inp, *run_op(wl, inp, tracer.op))
    finally:
        tracer.uninstall()
    traced_s = tracer.op_seconds()
    metrics = tracer.layer_metrics()
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
    tracer.write(path, {"workload": wl.name, "seed": args.seed,
                        "untraced_op_s": untraced_s})
    calls, selfs = tracer.self_times()
    notes = [f"spans written to {os.path.relpath(path, ROOT)}",
             f"untraced pass {untraced_s:.4f} s, traced {traced_s:.4f} s"]
    notes += [f"self {name:<40} {selfs[name]:10.4f} s  calls {calls[name]}"
              for name in sorted(selfs, key=selfs.get, reverse=True)[:12]]
    return tally, metrics, notes


def run_all(args) -> int:
    """Every workload in a fresh process; prints one table."""
    rows, results = [], {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        results[name] = res
        ratio = res["failed"] / res["attempted"]
        rows.append(f"{name:<14} failed_ratio = {ratio:.6g} ({res['failed']}/{res['attempted']})")
        rows += [f"{name:<14} {m} = {v['value']!r} {v['unit']}"
                 for m, v in res["metrics"].items()]
    print("\n".join(rows))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def prepare(threads: int = BLAS_THREADS) -> str | None:
    """Check the checkout, pin the BLAS thread count and put `src/` on the path.

    Must run before numpy is imported.  Returns an error message, or None.
    """
    for path in (os.path.join(SRC, "banalg", "__init__.py"), SPEC):
        if not os.path.isfile(path):
            return f"error: {path} is missing; run from a full checkout"
    for var in BLAS_VARS:
        os.environ[var] = str(min(threads, len(os.sched_getaffinity(0))))
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = prepare()
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS
    import_s = time.perf_counter() - T0
    wl = WORKLOADS[args.workload]

    if args.untraced_pass:
        setup(wl, import_s)
        tally = Tally()
        for inp in trace_schedule(wl, args.seed):
            tally.add(inp, *run_op(wl, inp, _call))
        print(json.dumps({"pass_s": sum(tally.lat)}))
        return 0

    with open(SPEC) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    tally, metrics, notes = measure(args, wl, import_s)
    gate_failures = wl.gates(tally.done)

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for note in notes:
        print(note)
    print(f"failed_ratio = {tally.failed / len(tally.lat):.6g} "
          f"({tally.failed} failed of {len(tally.lat)} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for msg in tally.wrong[:10]:
        print(f"WRONG OUTPUT: {msg}")
    for msg in gate_failures:
        print(f"GATE MISMATCH: {msg}")
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        print(f"error: metrics differ from {SPEC}: "
              f"{sorted(set(got.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 2
    correct = not tally.wrong and not gate_failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(tally.lat),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
