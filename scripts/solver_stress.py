#!/usr/bin/env python3
"""Stress the interpolation solvers on random full-rank complex instances.

Three corpora, each of --count instances drawn from --seed:
  rectangular  s < n, n in [4, 16]: solve_primal's cone path;
  square       s = n in [2, 16]: the cone program solve_dual runs, checked
               against solve_primal's exact linear-solve value;
  square x4    the square instances again, each sigma joined by three more
               drawn from a separate generator, and the four solved in one
               batched cone loop; a member also fails when it takes other
               iterations than its sigma solved alone.
For each corpus prints the failures (a BseError, a gap beyond GAP_HARD_LIMIT,
an infeasible certificate, or a batch member off its own iteration count), the
path-following iteration total and maximum over solves (batch members), the
worst relative primal-dual gap and the wall time.  Exits 1 on any failure.

Usage: python scripts/solver_stress.py [--count N] [--seed S]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from banalg.errors import BseError
from banalg.interpolation import (
    GAP_HARD_LIMIT,
    MAX_ITER,
    _solve_cone,
    interpolation_residual,
    solve_primal,
)


def rectangular(rng):
    n = int(rng.integers(4, 17))
    s = int(rng.integers(1, n))
    return s, n


def square(rng):
    n = int(rng.integers(2, 17))
    return n, n


def instances(shape, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        s, n = shape(rng)
        E = rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))
        sigma = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        yield E, sigma, rng.uniform(0.5, 2.0, n)


def run_rectangular(E, sigma, w):
    """([iterations], relative gap, ok) of solve_primal's cone path."""
    sol = solve_primal(E, sigma, w)
    ok = (interpolation_residual(E, sol.a, sigma) <= 1e-9
          and float(np.max(np.abs(E.T @ sol.c) - w)) <= 1e-12)
    return [sol.iterations], sol.gap / max(1.0, sol.value), ok


def run_square(E, sigma, w):
    """([iterations], relative gap, ok) of the dual cone program against the
    exact square value.  solve_dual returns this program's dual_value and c;
    the cone core is called here directly for its iteration count."""
    return run_batch(E, sigma[None], w)


def run_batch(E, sigmas, w):
    """(iterations per member, worst relative gap, ok) of one batched dual cone
    loop over the rows of sigmas, each against its exact square value."""
    batch = _solve_cone(E, sigmas, w)
    exact = solve_primal(E, sigmas, w).value
    gap = float(np.max(np.abs(exact - batch.dual_value) / np.maximum(1.0, exact)))
    ok = float(np.max(np.abs(batch.c @ E) - w)) <= 1e-12
    return batch.iterations.tolist(), gap, ok


def square_x4(seed):
    """run_batch on the instance's sigma and three more from a generator of
    its own, so the other corpora draw what they drew before; a member that
    takes other iterations than its sigma alone is not ok."""
    rng = np.random.default_rng([seed, 4])

    def run(E, sigma, w):
        n = len(sigma)
        sigmas = np.vstack([sigma, rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))])
        iterations, gap, ok = run_batch(E, sigmas, w)
        alone = [_solve_cone(E, row[None], w).iterations[0] for row in sigmas]
        return iterations, gap, ok and iterations == alone

    return run


def stress(name, shape, run, count, seed) -> int:
    failures = total = most = 0
    worst = 0.0
    t0 = time.perf_counter()
    for E, sigma, w in instances(shape, count, seed):
        try:
            iterations, gap, ok = run(E, sigma, w)
        except BseError:
            failures += 1
            continue
        failures += not (ok and gap <= GAP_HARD_LIMIT and max(iterations) < MAX_ITER)
        total += sum(iterations)
        most = max(most, *iterations)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    print(f"{name:<12} {count:>6} {failures:>8} {total:>10} {most:>8} "
          f"{worst:>11.2e} {elapsed:>8.2f}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=300, help="instances per corpus")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    print(f"{'corpus':<12} {'count':>6} {'failures':>8} {'iterations':>10} "
          f"{'max iter':>8} {'worst gap':>11} {'wall s':>8}")
    failures = (stress("rectangular", rectangular, run_rectangular, args.count, args.seed)
                + stress("square", square, run_square, args.count, args.seed)
                + stress("square x4", square, square_x4(args.seed), args.count, args.seed))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
