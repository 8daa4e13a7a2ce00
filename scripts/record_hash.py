#!/usr/bin/env python3
"""Print the record count and three sha256 hashes of the harness's answers.

The records of `run_verify(RunConfig(seed=s, count=K, max_dim=D))` for each
seed, in the order given, form one list of `Record.to_dict()` entries; the
first hash is of `render_json` over that list, the second of the same list
with only name, anchor, verdict and detail kept (the residuals dropped).
Equal hashes on two trees mean the same answers; equal verdict hashes with
different full hashes mean only residuals moved.

The third hash, `spaces`, is of the bytes (with the shape) of
`multiplier_space`, `left_multiplier_space` and, on a product,
`block_space`, for every fixture `build_fixture(family, s, index, D)` of
every family, index < K and seed, in that order.  Equal `spaces` hashes on
two trees mean a change to the null-space systems or their kernel left every
basis bit for bit as it was.

The script runs OpenBLAS, OpenMP and MKL on one thread: it sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy
is imported, whatever the caller set, because the last bits of the
residuals, and so the full hash, depend on the BLAS thread count.

Usage: python scripts/record_hash.py [--seeds 0,97] [--count 8] [--max-dim 6]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import numpy as np  # noqa: E402

from banalg.fixtures import FAMILIES, build_fixture  # noqa: E402
from banalg.jsonio import render_json  # noqa: E402
from banalg.multipliers import (  # noqa: E402
    block_space,
    left_multiplier_space,
    multiplier_space,
)
from banalg.verify import RunConfig, run_verify  # noqa: E402

VERDICT_KEYS = ("name", "anchor", "verdict", "detail")


def sha256(obj) -> str:
    return hashlib.sha256(render_json(obj).encode()).hexdigest()


def spaces_sha256(seeds: list[int], count: int, max_dim: int) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for family in FAMILIES:
            for index in range(count):
                fix = build_fixture(family, seed, index, max_dim)
                spaces = [multiplier_space(fix.algebra), left_multiplier_space(fix.algebra)]
                if fix.descriptor is not None:
                    spaces.append(block_space(fix.descriptor))
                for space in spaces:
                    h.update(repr(space.shape).encode())
                    h.update(np.ascontiguousarray(space).tobytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,97", help="comma-separated seeds, in order")
    ap.add_argument("--count", type=int, default=8, help="fixtures per family")
    ap.add_argument("--max-dim", type=int, default=6)
    args = ap.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    records = [r.to_dict() for seed in seeds
               for r in run_verify(RunConfig(seed=seed, count=args.count,
                                             max_dim=args.max_dim)).records]
    print(f"records {len(records)}")
    print(f"full    {sha256(records)}")
    print(f"verdict {sha256([{k: r[k] for k in VERDICT_KEYS} for r in records])}")
    print(f"spaces  {spaces_sha256(seeds, args.count, args.max_dim)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
