#!/usr/bin/env python3
"""Write the benchmark's frozen files from the current code.

    python3 perfbench/record.py reference   # reference/verify_small.json
    python3 perfbench/record.py anchors     # baseline.json

`reference` stores the verdict of every verify_small reference record; the
benchmark's gate compares each later run against it, so rewrite it only when
a verdict is meant to change.  `anchors` times the calls behind ROADMAP's
re-anchor numbers under the tracer (median of three spans each, one BLAS
thread per core as ROADMAP measured them) and stores them with the environment.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import run

REFERENCE = {"seed": 0, "indices": 2}
REPEATS = 3


def write_reference():
    from workloads import VerifySmall
    cfg = VerifySmall.config(REFERENCE["seed"])
    verdicts = {r.name: r.verdict for index in range(REFERENCE["indices"])
                for r in VerifySmall.records(cfg, index)}
    doc = {**REFERENCE, "max_dim": cfg.max_dim, "verdicts": dict(sorted(verdicts.items()))}
    _dump(doc, VerifySmall.reference_path)


def semidirect_13():
    """The first (seed, index) whose semidirect fixture at max_dim 8 has m=5, p=8."""
    from banalg.fixtures import semidirect_fixture
    for seed in range(200):
        for index in range(20):
            fix = semidirect_fixture(seed, index, max_dim=8)
            if (fix.descriptor.subalgebra.dim, fix.descriptor.ideal.dim) == (5, 8):
                return seed, index, fix
    raise LookupError("no m=5, p=8 semidirect fixture in the searched range")


def write_anchors():
    import numpy as np
    from banalg import (bse, constructions, interpolation, multipliers, spectra,
                        verify)
    from tracer import Tracer

    z44 = constructions.finite_abelian_group_algebra([4, 4])
    chars = spectra.characters_numerical(z44)
    sigma = np.random.default_rng(0).standard_normal(16) + 0j
    rng = np.random.default_rng([0, 16, 16])
    rect = []  # random full-rank rectangular instances with n = 16, s < n
    for _ in range(REPEATS):
        s = int(rng.integers(1, 16))
        rect.append((rng.standard_normal((s, 16)) + 1j * rng.standard_normal((s, 16)),
                     rng.standard_normal(s) + 1j * rng.standard_normal(s),
                     rng.uniform(1.0, 2.5, 16)))
    seed, index, fix = semidirect_13()
    cfg = verify.RunConfig(seed=0)

    calls = [
        ("multiplier_space l1(Z4xZ4)", "multipliers.multiplier_space", 5.5, None,
         lambda i: multipliers.multiplier_space(z44)),
        ("left_multiplier_space l1(Z4xZ4)", "multipliers.left_multiplier_space", 5.7, 5.15,
         lambda i: multipliers.left_multiplier_space(z44)),
        ("characters_numerical n=16", "spectra.characters_numerical", 0.004, None,
         lambda i: spectra.characters_numerical(z44)),
        ("dual cone solve n=16, square E (bse_norm_dual on l1(Z4xZ4))",
         "interpolation.solve_dual", 0.013, None,
         lambda i: bse.bse_norm_dual(sigma, chars, z44)),
        ("dual cone solve n=16, random rectangular E", "interpolation.solve_dual",
         0.013, None, lambda i: interpolation.solve_dual(*rect[i])),
        (f"theorem_records lemma21, 13-dim semidirect (m=5, p=8; "
         f"semidirect_fixture seed {seed} index {index} max_dim 8)",
         "verify.theorem_records", 2.5, 2.2,
         lambda i: verify.theorem_records(fix.descriptor, "lemma21", cfg)),
    ]
    anchors = []
    for label, span, roadmap_s, earlier_s, call in calls:
        tracer = Tracer()
        tracer.install()
        try:
            for i in range(REPEATS):
                call(i)
        finally:
            tracer.uninstall()
        times = [end - start for name, start, end, _ in tracer.spans if name == span]
        anchors.append({"anchor": label, "span": span, "roadmap_s": roadmap_s,
                        "earlier_measurement_s": earlier_s, "measured_s": times,
                        "median_s": statistics.median(times)})
        print(f"{label}: median {statistics.median(times):.4f} s (ROADMAP {roadmap_s} s)")
    env = run.environment()
    with open("/proc/cpuinfo") as fh:
        env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                           if line.startswith("model name")), "unknown")
    _dump({"environment": env, "anchors": anchors}, os.path.join(run.HERE, "baseline.json"))


def _dump(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, run.ROOT)}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in (["reference"], ["anchors"]):
        print(__doc__, file=sys.stderr)
        return 2
    # ROADMAP's numbers were taken with OpenBLAS's default of one thread per core
    error = run.prepare(threads=len(os.sched_getaffinity(0)))
    if error:
        print(error, file=sys.stderr)
        return 2
    if argv == ["reference"]:
        write_reference()
    else:
        write_anchors()
    return 0


if __name__ == "__main__":
    sys.exit(main())
