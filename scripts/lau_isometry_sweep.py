#!/usr/bin/env python3
"""Sweep random lau-product fixtures and tabulate the norm-additivity defect.

For each fixture with a surjective contractive homomorphism, samples random
(tau, rho) pairs and records |  ||sigma|| - (||tau|| + ||rho||)  | together
with the pointwise residual of the pairing's product law.  Both should sit
at machine precision; the sweep is a quick way to eyeball that across many
random weight/scaling draws.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from banalg.bse import theta, theta_product_residual
from banalg.fixtures import fixture_generators
from banalg.spectra import characters_semidirect


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixtures", type=int, default=20)
    ap.add_argument("--samples", type=int, default=25, help="(tau, rho) pairs each")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'fixture':<12} {'dims':<8} {'isometry defect':<18} {'product law':<14}")
    worst_iso = worst_mult = 0.0
    for fix in fixture_generators("lau", seed=args.seed, count=args.fixtures):
        lc = characters_semidirect(fix.descriptor)
        na, nb = len(lc.ideal_chars), len(lc.subalgebra_chars)
        iso = mult = 0.0
        for _ in range(args.samples):
            tau = rng.standard_normal(na) + 1j * rng.standard_normal(na)
            rho = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
            iso = max(iso, abs(theta(tau, rho, lc).norm_slack))
            mult = max(mult, theta_product_residual(
                lc, tau, rho,
                rng.standard_normal(na) + 1j * rng.standard_normal(na),
                rng.standard_normal(nb) + 1j * rng.standard_normal(nb)))
        print(f"{fix.name:<12} {na}+{nb:<6} {iso:<18.3e} {mult:<14.3e}")
        worst_iso = max(worst_iso, iso)
        worst_mult = max(worst_mult, mult)
    print(f"\nworst over sweep: isometry {worst_iso:.3e}, product law {worst_mult:.3e}")
    return 0 if worst_iso < 1e-6 and worst_mult < 1e-10 else 1


if __name__ == "__main__":
    sys.exit(main())
