"""Multiplier algebras as null spaces of linear constraint systems.

LM(A):  T(xy) = x T(y)        (left multipliers)
M(A):   T(x) y = x T(y)       (multipliers)

Every constraint system and residual is a contraction of the structure
tensor c[i,j,k] (or of its sub-tensors on a product's blocks) with the
unknown map.  Spaces are the null spaces of the stacked linearized
constraints, taken with `algebra.rank_basis` (QR, then the SVD of the small
R factor, with one relative singular-value cutoff), which yields
Frobenius-orthonormal bases and stable dimension counts.  The block
machinery realizes the four-block form (T_B, S_B, S_I, R_I) of a left
multiplier on a subalgebra(+)ideal product and the linear relations tying
the blocks together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, Algebra, LinearMap, rank_basis
from .constructions import ProductDescriptor
from .errors import (
    NotAMultiplierError,
    RelationsViolatedError,
    UndefinedHatError,
)
from .spectra import CharacterSet


def _of_product(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[x, y, r] -> X(x y)_r for the product tensor c[x, y, k] and a map X."""
    return np.einsum("xyk,rk->xyr", c, X)


def _times_image(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[x, y, r] -> (x X(y))_r for the product tensor c[x, k, r] and a map X."""
    return np.einsum("xkr,ky->xyr", c, X)


def _of_product_op(c: np.ndarray, rows: int) -> np.ndarray:
    """Matrix of X -> _of_product(c, X) over row-major vec(X), X with `rows` rows."""
    x, y, k = c.shape
    return np.einsum("xyk,rs->xyrsk", c, np.eye(rows)).reshape(x * y * rows, rows * k)


def _times_image_op(c: np.ndarray, cols: int) -> np.ndarray:
    """Matrix of X -> _times_image(c, X) over row-major vec(X), X with `cols` columns."""
    x, k, r = c.shape
    return np.einsum("xkr,yz->xyrkz", c, np.eye(cols)).reshape(x * cols * r, k * cols)


def _max_norm(diff: np.ndarray, weights: np.ndarray) -> float:
    """Largest weighted-l1 norm over the last axis."""
    return float(np.max(np.abs(diff) @ weights))


@dataclass(eq=False)
class MultiplierBasis:
    algebra: Algebra
    kind: str  # "LM" | "M"
    basis: list[LinearMap]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, T: np.ndarray, tol: float = 1e-8) -> bool:
        """Whether T lies in the span of the basis (Frobenius projection residual)."""
        if not self.basis:
            return float(np.linalg.norm(T)) <= tol
        flat = np.array([b.matrix.reshape(-1) for b in self.basis])
        t = np.asarray(T, dtype=complex).reshape(-1)
        proj = flat.conj() @ t  # orthonormal rows
        resid = t - flat.T @ proj
        return float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(t)))


def left_multiplier_residual(algebra: Algebra, T: np.ndarray) -> float:
    """max_{i,j} || T(e_i e_j) - e_i T(e_j) ||."""
    c = algebra.structure
    return _max_norm(_of_product(c, T) - _times_image(c, T), algebra.weights)


def multiplier_residual(algebra: Algebra, T: np.ndarray) -> float:
    """max_{i,j} || T(e_i) e_j - e_i T(e_j) ||."""
    c = algebra.structure
    image_times = np.einsum("mi,mjr->ijr", T, c)  # T(e_i) e_j
    return _max_norm(image_times - _times_image(c, T), algebra.weights)


def _left_constraints(algebra: Algebra) -> np.ndarray:
    """Linearize T(e_i e_j) = e_i T(e_j) over vec(T) (row-major).

    Row (i, j, r), column (k, l): delta_rk c[i,j,l] - delta_lj c[i,k,r].
    """
    c, n = algebra.structure, algebra.dim
    return _of_product_op(c, n) - _times_image_op(c, n)


def _mult_constraints(algebra: Algebra) -> np.ndarray:
    """Linearize T(e_i) e_j = e_i T(e_j) over vec(T).

    Row (i, j, r), column (k, l): delta_li c[k,j,r] - delta_lj c[i,k,r].
    """
    c, n = algebra.structure, algebra.dim
    image_times = np.einsum("kjr,li->ijrkl", c, np.eye(n)).reshape(n ** 3, n * n)
    return image_times - _times_image_op(c, n)


def _space(algebra: Algebra, kind: str, constraints: np.ndarray) -> MultiplierBasis:
    rank, vh = rank_basis(constraints)
    n = algebra.dim
    basis = [LinearMap(algebra, algebra, row.reshape(n, n)) for row in vh[rank:].conj()]
    return MultiplierBasis(algebra, kind, basis)


def left_multiplier_space(algebra: Algebra) -> MultiplierBasis:
    return _space(algebra, "LM", _left_constraints(algebra))


def multiplier_space(algebra: Algebra) -> MultiplierBasis:
    return _space(algebra, "M", _mult_constraints(algebra))


@dataclass(eq=False)
class BlockDecomposition:
    """T(b, a) = (S_B(a) + T_B(b), R_I(a) + S_I(b)) with the relation residuals.

    relation_residuals holds the max residuals of items (ii), (iii), (iv).
    """

    descriptor: ProductDescriptor
    T_B: np.ndarray  # m x m
    S_B: np.ndarray  # m x p
    S_I: np.ndarray  # p x m
    R_I: np.ndarray  # p x p
    relation_residuals: dict[str, float]
    membership_residuals: dict[str, float]

    @property
    def max_relation_residual(self) -> float:
        return max(self.relation_residuals.values())

    @property
    def max_membership_residual(self) -> float:
        return max(self.membership_residuals.values())


def _block_tensors(desc: ProductDescriptor) -> tuple[np.ndarray, ...]:
    """Sub-tensors c[B,B,B], c[B,I,I], c[I,I,I], c[I,B,I] of the product.

    Each keeps only the output block the product lands in: B B -> B and
    B I, I I, I B -> I.
    """
    c = desc.algebra.structure
    B, I = desc.subalgebra_slice, desc.ideal_slice
    return c[B, B, B], c[B, I, I], c[I, I, I], c[I, B, I]


def _block_relation_residuals(desc: ProductDescriptor, T_B, S_B, S_I, R_I
                              ) -> tuple[dict[str, float], dict[str, float]]:
    wB = desc.algebra.weights[desc.subalgebra_slice]
    wI = desc.algebra.weights[desc.ideal_slice]
    cBB, cBI, cII, cIB = _block_tensors(desc)
    # (ii) R_I(a a') = a R_I(a') + a S_B(a'); (iii) R_I(a b) = a S_I(b) + a T_B(b)
    r_ii = _of_product(cII, R_I) - _times_image(cII, R_I) - _times_image(cIB, S_B)
    r_iii = _of_product(cIB, R_I) - _times_image(cII, S_I) - _times_image(cIB, T_B)
    relations = {
        "ii": _max_norm(r_ii, wI),
        "iii": _max_norm(r_iii, wI),
        # (iv) S_B(a a') = 0 and S_B(a b) = 0
        "iv": max(_max_norm(_of_product(cII, S_B), wB),
                  _max_norm(_of_product(cIB, S_B), wB)),
    }
    # T_B in LM(B), S_I in Hom_B(B, I), R_I in Hom_B(I, I), S_B in Hom_B(I, B)
    memberships = {
        "T_B": _max_norm(_of_product(cBB, T_B) - _times_image(cBB, T_B), wB),
        "S_B": _max_norm(_of_product(cBI, S_B) - _times_image(cBB, S_B), wB),
        "S_I": _max_norm(_of_product(cBB, S_I) - _times_image(cBI, S_I), wI),
        "R_I": _max_norm(_of_product(cBI, R_I) - _times_image(cBI, R_I), wI),
    }
    return relations, memberships


def decompose_left_multiplier(T: LinearMap | np.ndarray, desc: ProductDescriptor,
                              tol: float = DEFAULT_TOL) -> BlockDecomposition:
    """Split T in LM(B (+) I) into its four blocks and certify the relations."""
    alg = desc.algebra
    mat = T.matrix if isinstance(T, LinearMap) else np.asarray(T, dtype=complex)
    if mat.shape != (alg.dim, alg.dim):
        raise ValueError("multiplier matrix has the wrong shape")
    res = left_multiplier_residual(alg, mat)
    if res > tol:
        raise NotAMultiplierError(
            f"input is not a left multiplier (residual {res:.3e} > {tol:g})"
        )
    bsl, isl = desc.subalgebra_slice, desc.ideal_slice
    blocks = BlockDecomposition(
        descriptor=desc,
        T_B=mat[bsl, bsl],
        S_B=mat[bsl, isl],
        S_I=mat[isl, bsl],
        R_I=mat[isl, isl],
        relation_residuals={},
        membership_residuals={},
    )
    rel, mem = _block_relation_residuals(desc, blocks.T_B, blocks.S_B,
                                         blocks.S_I, blocks.R_I)
    blocks.relation_residuals = rel
    blocks.membership_residuals = mem
    return blocks


def recompose(blocks: BlockDecomposition, desc: ProductDescriptor | None = None,
              tol: float = DEFAULT_TOL) -> LinearMap:
    """Assemble T from relation-satisfying blocks; certify T in LM(B (+) I)."""
    desc = desc or blocks.descriptor
    alg = desc.algebra
    rel, mem = _block_relation_residuals(desc, blocks.T_B, blocks.S_B,
                                         blocks.S_I, blocks.R_I)
    violated = [
        (item, value)
        for item, value in
        {**rel, **{f"membership {k}": v for k, v in mem.items()}}.items()
        if value > tol
    ]
    if violated:
        raise RelationsViolatedError(violated)
    bsl, isl = desc.subalgebra_slice, desc.ideal_slice
    T = np.zeros((alg.dim, alg.dim), dtype=complex)
    T[bsl, bsl] = blocks.T_B
    T[bsl, isl] = blocks.S_B
    T[isl, bsl] = blocks.S_I
    T[isl, isl] = blocks.R_I
    res = left_multiplier_residual(alg, T)
    if res > tol:
        raise NotAMultiplierError(
            f"recomposed map is not a left multiplier (residual {res:.3e})"
        )
    return LinearMap(alg, alg, T)


def block_space(desc: ProductDescriptor) -> np.ndarray:
    """Null space of the joint block constraints (memberships + relations).

    Unknown vector stacks vec(T_B), vec(S_B), vec(S_I), vec(R_I); the rows
    returned are an orthonormal basis, and the row count is the dimension of
    the relation-constrained block space (which the key equivalence says
    equals dim LM of the product).  The system is assembled from the block
    sub-tensors alone, never from the LM constraints of the product, so the
    dimension comparison in lemma21 stays a real check.
    """
    m = desc.subalgebra.dim
    p = desc.ideal.dim
    cBB, cBI, cII, cIB = _block_tensors(desc)

    def rows(T_B=None, S_B=None, S_I=None, R_I=None) -> np.ndarray:
        """One relation's rows; each argument is that block's coefficient matrix."""
        parts = ((T_B, m * m), (S_B, m * p), (S_I, p * m), (R_I, p * p))
        height = next(x.shape[0] for x, _ in parts if x is not None)
        return np.hstack([np.zeros((height, width)) if x is None else x
                          for x, width in parts])

    system = np.vstack([
        # memberships, as in _block_relation_residuals
        rows(T_B=_of_product_op(cBB, m) - _times_image_op(cBB, m)),
        rows(S_I=_of_product_op(cBB, p) - _times_image_op(cBI, m)),
        rows(R_I=_of_product_op(cBI, p) - _times_image_op(cBI, p)),
        rows(S_B=_of_product_op(cBI, m) - _times_image_op(cBB, p)),
        # (ii), (iii) and the two halves of (iv)
        rows(R_I=_of_product_op(cII, p) - _times_image_op(cII, p),
             S_B=-_times_image_op(cIB, p)),
        rows(R_I=_of_product_op(cIB, p), S_I=-_times_image_op(cII, m),
             T_B=-_times_image_op(cIB, m)),
        rows(S_B=_of_product_op(cII, m)),
        rows(S_B=_of_product_op(cIB, m)),
    ])
    rank, vh = rank_basis(system)
    return vh[rank:].conj()


def blocks_from_vector(vec: np.ndarray, desc: ProductDescriptor) -> BlockDecomposition:
    """Unpack a block_space row into a BlockDecomposition (residuals recomputed)."""
    bsl, isl = desc.subalgebra_slice, desc.ideal_slice
    m = bsl.stop - bsl.start
    p = isl.stop - isl.start
    o1, o2, o3 = m * m, m * m + m * p, m * m + m * p + p * m
    T_B = vec[:o1].reshape(m, m)
    S_B = vec[o1:o2].reshape(m, p)
    S_I = vec[o2:o3].reshape(p, m)
    R_I = vec[o3:].reshape(p, p)
    rel, mem = _block_relation_residuals(desc, T_B, S_B, S_I, R_I)
    return BlockDecomposition(desc, T_B, S_B, S_I, R_I, rel, mem)


def hat(T: LinearMap | np.ndarray, S: CharacterSet, tol: float = DEFAULT_TOL,
        threshold: float = 1e-8) -> np.ndarray:
    """Gelfand transform of a multiplier: hat(T)(phi) = phi(T c) / phi(c).

    c runs over basis vectors; the one maximizing |phi(c)| defines the value
    and every other basis direction with |phi(c)| above threshold must agree
    within tol.
    """
    mat = T.matrix if isinstance(T, LinearMap) else np.asarray(T, dtype=complex)
    V = S.matrix
    scores = np.abs(V)
    top = np.max(scores, axis=1, initial=0.0)
    if np.any(top <= 0):
        raise UndefinedHatError("character vanishes on the whole basis")
    live = scores > threshold * top[:, None]
    # ratio[r, i] = phi_r(T e_i) / phi_r(e_i) on every direction that counts
    ratio = np.where(live, (V @ mat) / np.where(live, V, 1.0), 0.0)
    out = ratio[np.arange(len(V)), np.argmax(scores, axis=1)]
    disc = np.where(live, np.abs(ratio - out[:, None]), 0.0)
    if np.any(disc > np.maximum(tol, 10 * tol * np.abs(out))[:, None]):
        raise UndefinedHatError(
            f"hat value inconsistent across basis directions ({float(np.max(disc)):.3e})"
        )
    return out
