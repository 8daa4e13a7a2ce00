"""Metamorphic relabeling on the fixture corpus.

The relabeled basis f_i = u_i e_{pi(i)}, with pi a permutation and |u_i| = 1,
is an isometric isomorphism: f_i f_j = u_i u_j sum_k c[pi i, pi j, pi k] / u_k
f_k, ||f_i|| = w[pi i], and the unit has coordinates unit[pi] / u.  So every
count and verdict the workbench reports must be the same on both bases, with
no oracle needed for the right answer.
"""

import numpy as np
import pytest

from banalg.algebra import Algebra, annihilator_basis, validate
from banalg.bse import check_bse_property
from banalg.fixtures import FAMILIES, build_fixture
from banalg.multipliers import left_multiplier_space, multiplier_space
from banalg.spectra import characters_numerical

# 64 algebras: seeds 0 and 97, indices 0-7 of every family, max_dim 6
CORPUS = [pytest.param(seed, family, index, id=f"{family}-{seed}-{index}")
          for seed in (0, 97) for family in FAMILIES for index in range(8)]


def relabel(alg, perm, u):
    """The algebra in the basis f_i = u_i e_{perm[i]}."""
    c = alg.structure[np.ix_(perm, perm, perm)]
    c = c * u[:, None, None] * u[None, :, None] / u[None, None, :]
    unit = None if alg.unit is None else alg.unit[perm] / u
    return Algebra(alg.name + "'", alg.weights[perm], c, unit=unit)


def invariants(alg):
    """dim M, dim LM, the character count, the annihilator dimension, and
    (is_bse, semisimple) where the algebra is without order and has characters."""
    S = characters_numerical(alg)
    annihilator = annihilator_basis(alg).shape[0]
    verdict = None
    if annihilator == 0 and len(S):
        v = check_bse_property(alg, S=S)
        verdict = (v.is_bse, v.semisimple)
    return (len(multiplier_space(alg)), len(left_multiplier_space(alg)), len(S),
            annihilator, verdict)


@pytest.mark.parametrize("seed, family, index", CORPUS)
def test_relabeling_keeps_counts_and_verdicts(seed, family, index):
    alg = build_fixture(family, seed, index, max_dim=6).algebra
    rng = np.random.default_rng([seed, FAMILIES.index(family), index])
    perm = rng.permutation(alg.dim)
    u = np.exp(2j * np.pi * rng.random(alg.dim))
    relabeled = relabel(alg, perm, u)
    assert validate(relabeled).accepted
    assert invariants(relabeled) == invariants(alg)
