"""Multiplier algebras as null spaces of linear constraint systems.

LM(A):  T(xy) = x T(y)        (left multipliers)
M(A):   T(x) y = x T(y)       (multipliers)

Every residual is a contraction of the structure tensor c[i,j,k] (or of
its sub-tensors on a product's blocks) with the unknown map.  Each row of a
linearized constraint system holds at most 2n nonzeros, c-values on
Kronecker-delta positions, so a row block is assembled by direct placement:
one zero array of the block's shape, with the delta terms written into it by
advanced-index assignment.  Spaces are the null spaces of those systems,
taken with `algebra.rank_basis` (a QR fold over row blocks, then the SVD of
the small R factor, with one relative singular-value cutoff), which yields
Frobenius-orthonormal bases and stable dimension counts.  The M and LM
systems have n^3 rows and n^2 columns; they reach the kernel SLAB_I values
of the first structure index i at a time, so the whole system is never
built.  The block machinery realizes the four-block form (T_B, S_B, S_I,
R_I) of a left multiplier on a subalgebra(+)ideal product and the linear
relations tying the blocks together, whose eight groups reach the kernel
as eight row blocks over vec(T), each block operator written into the
columns of the entries of T its block occupies.  It reads the product's
four structure blocks from `ProductDescriptor.block_tensors`, so the block
layout of each product kind is known to the descriptor alone.

A space is its stack: `multiplier_space`, `left_multiplier_space` and
`block_space` return the read-only (dim, n, n) array of its basis maps,
whose length is the dimension.  The residuals, the block split and `hat`
take one map or a stack of maps along leading axes, so a check over a whole
space is one contraction: a residual is the worst over the stack, and a
refusal is raised when any map fails.  `split_blocks` refuses nothing: it
returns the blocks with one residual per map, and the caller judges them;
`decompose_left_multiplier` first refuses a map outside LM(A).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, Algebra, _readonly, rank_basis
from .constructions import ProductDescriptor
from .errors import NotAMultiplierError, UndefinedHatError
from .spectra import CharacterSet

# Values of the first structure index i per row block handed to rank_basis:
# at n = 16 a block is 1,024 x 256, and no more than one block and the
# triangular factor of the rows before it are held at once.
SLAB_I = 4
HAT_THRESHOLD = 1e-8  # `hat` reads a direction c where |phi(c)| exceeds this share of the top


def _of_product(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[..., x, y, r] -> X(x y)_r for the product tensor c[x, y, k] and a
    map X, or a stack of maps X[..., r, k]."""
    return np.einsum("xyk,...rk->...xyr", c, X)


def _times_image(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[..., x, y, r] -> (x X(y))_r for the product tensor c[x, k, r] and a
    map X, or a stack of maps X[..., k, y]."""
    return np.einsum("xkr,...ky->...xyr", c, X)


def _of_product_op(c: np.ndarray, rows: int) -> np.ndarray:
    """Matrix of X -> _of_product(c, X) over row-major vec(X), X with `rows` rows.

    Entry (x, y, r), (s, k) is delta_rs c[x,y,k], placed on the diagonal r = s.
    """
    x, y, k = c.shape
    op = np.zeros((x, y, rows, rows, k), dtype=c.dtype)
    idx = np.arange(rows)
    op[:, :, idx, idx, :] = c[:, :, None, :]
    return op.reshape(x * y * rows, rows * k)


def _minus_times_image(op: np.ndarray, c: np.ndarray) -> None:
    """Subtract in place, on op[x, y, r, k, z], the terms delta_yz c[x,k,r]."""
    idx = np.arange(op.shape[1])
    op[:, idx, :, :, idx] -= c.transpose(0, 2, 1)


def _times_image_op(c: np.ndarray, cols: int) -> np.ndarray:
    """Matrix of X -> _times_image(c, X) over row-major vec(X), X with `cols` columns.

    Entry (x, y, r), (k, z) is delta_yz c[x,k,r], placed on the diagonal y = z.
    """
    x, k, r = c.shape
    op = np.zeros((x, cols, r, k, cols), dtype=c.dtype)
    idx = np.arange(cols)
    op[:, idx, :, :, idx] = c.transpose(0, 2, 1)
    return op.reshape(x * cols * r, k * cols)


def _max_norm(diff: np.ndarray, weights: np.ndarray) -> float:
    """Largest weighted-l1 norm over the last axis; 0 on an empty stack."""
    return float(np.max(np.abs(diff) @ weights, initial=0.0))


def _map_norms(diff: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per map of diff[..., x, y, r], the worst weighted-l1 norm over (x, y)."""
    return np.max(np.abs(diff) @ weights, axis=(-2, -1), initial=0.0)


def left_multiplier_residual(algebra: Algebra, T: np.ndarray) -> float:
    """max_{i,j} || T(e_i e_j) - e_i T(e_j) ||, the worst over a stack T[..., n, n]."""
    c = algebra.structure
    return _max_norm(_of_product(c, T) - _times_image(c, T), algebra.weights)


def multiplier_residual(algebra: Algebra, T: np.ndarray) -> float:
    """max_{i,j} || T(e_i) e_j - e_i T(e_j) ||, the worst over a stack T[..., n, n]."""
    c = algebra.structure
    image_times = np.einsum("...mi,mjr->...ijr", T, c)  # T(e_i) e_j
    return _max_norm(image_times - _times_image(c, T), algebra.weights)


def _left_constraints(c: np.ndarray, i: slice) -> np.ndarray:
    """Linearize T(e_i e_j) = e_i T(e_j) over vec(T) (row-major), for i in `i`.

    Row (i, j, r), column (k, l): delta_rk c[i,j,l] - delta_lj c[i,k,r].
    """
    n = c.shape[0]
    rows = _of_product_op(c[i], n)
    _minus_times_image(rows.reshape(-1, n, n, n, n), c[i])
    return rows


def _mult_constraints(c: np.ndarray, i: slice) -> np.ndarray:
    """Linearize T(e_i) e_j = e_i T(e_j) over vec(T), for i in `i`.

    Row (i, j, r), column (k, l): delta_li c[k,j,r] - delta_lj c[i,k,r].
    """
    n = c.shape[0]
    ii = np.arange(n)[i]
    rows = np.zeros((len(ii), n, n, n, n), dtype=c.dtype)
    rows[np.arange(len(ii)), :, :, :, ii] = c.transpose(1, 2, 0)
    _minus_times_image(rows, c[i])
    return rows.reshape(-1, n * n)


Constraints = Callable[[np.ndarray, slice], np.ndarray]  # (c, slice of i) -> rows


def _constraint_blocks(algebra: Algebra, constraints: Constraints) -> Iterator[np.ndarray]:
    """The rows of a constraint system, SLAB_I values of i at a time, in row order."""
    c, n = algebra.structure, algebra.dim
    for i0 in range(0, n, SLAB_I):
        yield constraints(c, slice(i0, i0 + SLAB_I))


def _space(rows: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Null space of row blocks over vec(T), as the read-only (dim, n, n) stack."""
    rank, vh = rank_basis(rows)
    return _readonly(np.asarray(vh[rank:].conj().reshape(-1, n, n), dtype=complex))


def left_multiplier_space(algebra: Algebra) -> np.ndarray:
    """LM(A) as the read-only (dim, n, n) stack of a Frobenius-orthonormal basis."""
    return _space(_constraint_blocks(algebra, _left_constraints), algebra.dim)


def multiplier_space(algebra: Algebra) -> np.ndarray:
    """M(A) as the read-only (dim, n, n) stack of a Frobenius-orthonormal basis."""
    return _space(_constraint_blocks(algebra, _mult_constraints), algebra.dim)


@dataclass(eq=False)
class BlockDecomposition:
    """T(b, a) = (S_B(a) + T_B(b), R_I(a) + S_I(b)) with the relation residuals.

    relation_residuals holds the max residuals of items (ii), (iii), (iv).  The
    blocks and residuals of a stack keep its leading axes, one residual per
    map (a float for one map); the max_ properties are the worst over it.
    """

    T_B: np.ndarray  # [..., m, m]
    S_B: np.ndarray  # [..., m, p]
    S_I: np.ndarray  # [..., p, m]
    R_I: np.ndarray  # [..., p, p]
    relation_residuals: dict[str, np.ndarray]  # each [...]
    membership_residuals: dict[str, np.ndarray]

    @property
    def max_relation_residual(self) -> float:
        return float(np.max(list(self.relation_residuals.values()), initial=0.0))

    @property
    def max_membership_residual(self) -> float:
        return float(np.max(list(self.membership_residuals.values()), initial=0.0))


def _block_relation_residuals(desc: ProductDescriptor, T_B, S_B, S_I, R_I
                              ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    wB = desc.algebra.weights[desc.subalgebra_slice]
    wI = desc.algebra.weights[desc.ideal_slice]
    cBB, cBI, cII, cIB = desc.block_tensors
    # (ii) R_I(a a') = a R_I(a') + a S_B(a'); (iii) R_I(a b) = a S_I(b) + a T_B(b)
    r_ii = _of_product(cII, R_I) - _times_image(cII, R_I) - _times_image(cIB, S_B)
    r_iii = _of_product(cIB, R_I) - _times_image(cII, S_I) - _times_image(cIB, T_B)
    relations = {
        "ii": _map_norms(r_ii, wI),
        "iii": _map_norms(r_iii, wI),
        # (iv) S_B(a a') = 0 and S_B(a b) = 0
        "iv": np.maximum(_map_norms(_of_product(cII, S_B), wB),
                         _map_norms(_of_product(cIB, S_B), wB)),
    }
    # T_B in LM(B), S_I in Hom_B(B, I), R_I in Hom_B(I, I), S_B in Hom_B(I, B)
    memberships = {
        "T_B": _map_norms(_of_product(cBB, T_B) - _times_image(cBB, T_B), wB),
        "S_B": _map_norms(_of_product(cBI, S_B) - _times_image(cBB, S_B), wB),
        "S_I": _map_norms(_of_product(cBB, S_I) - _times_image(cBI, S_I), wI),
        "R_I": _map_norms(_of_product(cBI, R_I) - _times_image(cBI, R_I), wI),
    }
    return relations, memberships


def split_blocks(T: np.ndarray, desc: ProductDescriptor) -> BlockDecomposition:
    """Split a map T on B (+) I, or a stack T[..., n, n] of maps, into its four
    blocks with their relation and membership residuals; refuses nothing."""
    bsl, isl = desc.subalgebra_slice, desc.ideal_slice
    blocks = (T[..., bsl, bsl], T[..., bsl, isl], T[..., isl, bsl], T[..., isl, isl])
    return BlockDecomposition(*blocks, *_block_relation_residuals(desc, *blocks))


def decompose_left_multiplier(T: np.ndarray, desc: ProductDescriptor,
                              tol: float = DEFAULT_TOL) -> BlockDecomposition:
    """Split T in LM(B (+) I), or a stack T[..., n, n] of such maps, into its
    four blocks and certify the relations."""
    alg = desc.algebra
    mat = np.asarray(T, dtype=complex)
    if mat.shape[-2:] != (alg.dim, alg.dim):
        raise ValueError("multiplier matrix has the wrong shape")
    res = left_multiplier_residual(alg, mat)
    if res > tol:
        raise NotAMultiplierError(
            f"input is not a left multiplier (residual {res:.3e} > {tol:g})"
        )
    return split_blocks(mat, desc)


def block_space(desc: ProductDescriptor) -> np.ndarray:
    """Null space of the joint block constraints (memberships + relations), as
    the read-only (dim, n, n) stack of a Frobenius-orthonormal basis.

    The unknown is vec(T) of the whole map: each relation's rows write each
    block operator into the columns of the entries of T its block occupies.
    The length of the stack is the dimension of the relation-constrained
    block space, which the key equivalence says equals dim LM of the
    product.  The system is assembled from the block sub-tensors alone,
    never from the LM constraints of the product, so comparing the two
    spaces in lemma21 stays a real check.
    """
    n, m, p = desc.algebra.dim, desc.subalgebra.dim, desc.ideal.dim
    bsl, isl = desc.subalgebra_slice, desc.ideal_slice
    cBB, cBI, cII, cIB = desc.block_tensors
    entry = np.arange(n * n).reshape(n, n)  # entry[r, k] is the column of T[r, k]
    columns = {"T_B": entry[bsl, bsl].ravel(), "S_B": entry[bsl, isl].ravel(),
               "S_I": entry[isl, bsl].ravel(), "R_I": entry[isl, isl].ravel()}

    def rows(**ops: np.ndarray) -> np.ndarray:
        """One relation's rows; each argument is that block's coefficient matrix."""
        out = np.zeros((next(iter(ops.values())).shape[0], n * n), dtype=complex)
        for block, op in ops.items():
            out[:, columns[block]] = op
        return out

    system = [
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
    ]
    return _space(system, n)


def hat(T: np.ndarray, S: CharacterSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Gelfand transform of a multiplier: hat(T)(phi) = phi(T c) / phi(c).

    c runs over basis vectors; the one maximizing |phi(c)| defines the value
    and every other basis direction with |phi(c)| above HAT_THRESHOLD times
    that maximum must agree within tol.  A stack of maps T[..., n, n] gives the stack of transforms
    [..., |S|], and UndefinedHatError is raised if any map has none.
    """
    mat = np.asarray(T, dtype=complex)
    V = S.matrix
    scores = np.abs(V)
    top = np.max(scores, axis=1, initial=0.0)
    if np.any(top <= 0):
        raise UndefinedHatError("character vanishes on the whole basis")
    live = scores > HAT_THRESHOLD * top[:, None]
    # ratio[r, i] = phi_r(T e_i) / phi_r(e_i) on every direction that counts
    ratio = np.where(live, (V @ mat) / np.where(live, V, 1.0), 0.0)
    out = ratio[..., np.arange(len(V)), np.argmax(scores, axis=1)]
    disc = np.where(live, np.abs(ratio - out[..., None]), 0.0)
    if np.any(disc > np.maximum(tol, 10 * tol * np.abs(out))[..., None]):
        raise UndefinedHatError(
            f"hat value inconsistent across basis directions ({float(np.max(disc)):.3e})"
        )
    return out
