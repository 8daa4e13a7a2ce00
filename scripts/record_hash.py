#!/usr/bin/env python3
"""Print the record count and two sha256 hashes of the harness's records.

The records of `run_verify(RunConfig(seed=s, count=K, max_dim=D))` for each
seed, in the order given, form one list of `Record.to_dict()` entries; the
first hash is of `render_json` over that list, the second of the same list
with only name, anchor, verdict and detail kept (the residuals dropped).
Equal hashes on two trees mean the same answers; equal verdict hashes with
different full hashes mean only residuals moved.

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

from banalg.jsonio import render_json  # noqa: E402
from banalg.verify import RunConfig, run_verify  # noqa: E402

VERDICT_KEYS = ("name", "anchor", "verdict", "detail")


def sha256(obj) -> str:
    return hashlib.sha256(render_json(obj).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,97", help="comma-separated seeds, in order")
    ap.add_argument("--count", type=int, default=8, help="fixtures per family")
    ap.add_argument("--max-dim", type=int, default=6)
    args = ap.parse_args()

    records = [r.to_dict() for seed in map(int, args.seeds.split(","))
               for r in run_verify(RunConfig(seed=seed, count=args.count,
                                             max_dim=args.max_dim)).records]
    print(f"records {len(records)}")
    print(f"full    {sha256(records)}")
    print(f"verdict {sha256([{k: r[k] for k in VERDICT_KEYS} for r in records])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
