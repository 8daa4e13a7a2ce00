"""Metamorphic relations on the fixture corpus.

The relabeled basis f_i = u_i e_{pi(i)}, with pi a permutation and |u_i| = 1,
is an isometric isomorphism: f_i f_j = u_i u_j sum_k c[pi i, pi j, pi k] / u_k
f_k, ||f_i|| = w[pi i], and the unit has coordinates unit[pi] / u.  So every
count and verdict the workbench reports must be the same on both bases, with
no oracle needed for the right answer.

A general change of basis f_i = sum_a S[a, i] e_a, S invertible, is an
algebra isomorphism: f_i f_j = sum_l c'[i, j, l] f_l with
c' = S^T S^T c S^-1 contracted index by index, and the unit has coordinates
S^-1 unit.  It is not an isometry, so the new basis gets uniform weights
large enough for the weighted l1 norm to be submultiplicative; in finite
dimension every algebra isomorphism is bounded both ways, so the counts and
the BSE verdict must still be the same.
"""

import numpy as np
import pytest

from banalg.algebra import Algebra, annihilator_basis, validate
from banalg.bse import check_bse_property
from banalg.fixtures import FAMILIES, build_fixture
from banalg.multipliers import left_multiplier_space, multiplier_space
from banalg.spectra import characters_numerical

from conftest import change_basis

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


@pytest.mark.parametrize("scale", [0.3, 1.0])
@pytest.mark.parametrize("seed, family, index", CORPUS)
def test_change_of_basis_keeps_counts_and_verdicts(seed, family, index, scale):
    alg = build_fixture(family, seed, index, max_dim=6).algebra
    n = alg.dim
    rng = np.random.default_rng([seed, FAMILIES.index(family), index])
    G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    changed = change_basis(alg, np.eye(n) + scale * G / np.sqrt(n))
    # validate is not asserted here: its tolerance is absolute, and on the
    # s = 1 draw of lau-97-2 (cond S = 176, structure constants up to 96) it
    # rejects the changed algebra for an associativity residual of 1.3e-9,
    # the scale defect of ROADMAP item 6; the five invariants hold on it too
    assert invariants(changed) == invariants(alg)
