"""Multiplier algebras as null spaces of linear constraint systems.

LM(A):  T(xy) = x T(y)        (left multipliers)
M(A):   T(x) y = x T(y)       (multipliers)

Every residual is a contraction of the structure tensor c[i,j,k] (or of
its sub-tensors on a product's blocks) with the unknown map.  A row of a
linearized constraint system holds at most 2n nonzeros, c-values on
Kronecker-delta positions, so every system is placed in one zero array,
each term (X(x y), x X(y) or X(x) y) written onto its delta positions in
place.  Spaces are the null spaces of those systems, taken with
`algebra.rank_basis` (a QR fold over row blocks, then the SVD of the small R
factor, with one relative singular-value cutoff), which yields
Frobenius-orthonormal bases and stable dimension counts.  The M and LM
systems have n^3 rows and n^2 columns; they reach the kernel SLAB_I values
of the first structure index i at a time, so the whole system is never
built.  Lemma 2.1's four-block form (T_B, S_B, S_I, R_I) of a left
multiplier on a subalgebra(+)ideal product, with the relations tying the
blocks together, is one table, `_LEMMA_21`: the block residuals contract
its rows, and `block_space` places them into the block views of one zero
array per relation.  The structure blocks are read by name from
`ProductDescriptor.block_tensors`, so the block layout of each product kind
is known to the descriptor alone.

A space is its stack: `multiplier_space`, `left_multiplier_space` and
`block_space` return the read-only (dim, n, n) array of its basis maps,
whose length is the dimension.  The residuals, the block split and `hat`
take one map or a stack of maps along leading axes, so a check over a whole
space is one contraction: a residual is the worst over the stack, and a
refusal is raised when any map fails.  `split_blocks`, the one reader of
Lemma 2.1's blocks, refuses only a map of the wrong shape: it returns the
blocks with one residual per map, and the caller judges them, membership in
LM(A) included, through `left_multiplier_residual`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, Algebra, _readonly, rank_basis
from .constructions import ProductDescriptor
from .errors import UndefinedHatError
from .spectra import CharacterSet

# Values of the first structure index i per row block handed to rank_basis:
# at n = 16 a block is 1,024 x 256, and no more than one block and the
# triangular factor of the rows before it are held at once.
SLAB_I = 4
HAT_THRESHOLD = 1e-8  # `hat` reads a direction c where |phi(c)| exceeds this share of the top

# The blocks of T(b, a) = (T_B(b) + S_B(a), S_I(b) + R_I(a)): (rows, columns)
_BLOCKS = {"T_B": ("B", "B"), "S_B": ("B", "I"), "S_I": ("I", "B"), "R_I": ("I", "I")}

# Lemma 2.1, one row per relation: X(x y) = sum of x X'(y) over its terms,
# each (structure block, map block), with residual weights on the output's
# side; a structure block is named by its field of `desc.block_tensors`.
# The two halves of (iv) share a name and are combined by max.
_LEMMA_21 = (
    # memberships: T_B in LM(B), S_I in Hom_B(B, I), R_I in Hom_B(I, I), S_B in Hom_B(I, B)
    ("T_B", "B", ("BB", "T_B"), (("BB", "T_B"),)),
    ("S_I", "I", ("BB", "S_I"), (("BI", "S_I"),)),
    ("R_I", "I", ("BI", "R_I"), (("BI", "R_I"),)),
    ("S_B", "B", ("BI", "S_B"), (("BB", "S_B"),)),
    ("ii", "I", ("II", "R_I"), (("II", "R_I"), ("IB", "S_B"))),  # R_I(aa') = aR_I(a') + aS_B(a')
    ("iii", "I", ("IB", "R_I"), (("II", "S_I"), ("IB", "T_B"))),  # R_I(ab) = aS_I(b) + aT_B(b)
    ("iv", "B", ("II", "S_B"), ()),  # S_B(a a') = 0
    ("iv", "B", ("IB", "S_B"), ()),  # S_B(a b) = 0
)


def _of_product(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[..., x, y, r] -> X(x y)_r for the product tensor c[x, y, k] and a
    map X, or a stack of maps X[..., r, k]."""
    return np.einsum("xyk,...rk->...xyr", c, X)


def _times_image(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """[..., x, y, r] -> (x X(y))_r for the product tensor c[x, k, r] and a
    map X, or a stack of maps X[..., k, y]."""
    return np.einsum("xkr,...ky->...xyr", c, X)


def _add_of_product(view: np.ndarray, c: np.ndarray) -> None:
    """Add, on view[x, y, r, s, k], the terms delta_rs c[x,y,k] of X -> X(x y)."""
    idx = np.arange(view.shape[2])
    view[:, :, idx, idx, :] += c[:, :, None, :]


def _sub_times_image(view: np.ndarray, c: np.ndarray) -> None:
    """Subtract, on view[x, y, r, k, z], the terms delta_yz c[x,k,r] of X -> x X(y)."""
    idx = np.arange(view.shape[1])
    view[:, idx, :, :, idx] -= c.transpose(0, 2, 1)


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
    n, ci = c.shape[0], c[i]
    rows = np.zeros((len(ci), n, n, n, n), dtype=c.dtype)
    _add_of_product(rows, ci)
    _sub_times_image(rows, ci)
    return rows.reshape(-1, n * n)


def _mult_constraints(c: np.ndarray, i: slice) -> np.ndarray:
    """Linearize T(e_i) e_j = e_i T(e_j) over vec(T), for i in `i`.

    Row (i, j, r), column (k, l): delta_li c[k,j,r] - delta_lj c[i,k,r].
    """
    n = c.shape[0]
    ii = np.arange(n)[i]
    rows = np.zeros((len(ii), n, n, n, n), dtype=c.dtype)
    rows[np.arange(len(ii)), :, :, :, ii] = c.transpose(1, 2, 0)  # T(e_i) e_j
    _sub_times_image(rows, c[i])
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


def _sides(desc: ProductDescriptor) -> dict[str, slice]:
    """The coordinates of B and of I in the product."""
    return {"B": desc.subalgebra_slice, "I": desc.ideal_slice}


def _block_relation_residuals(desc: ProductDescriptor, T_B, S_B, S_I, R_I
                              ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per map, the weighted residual of each row of _LEMMA_21, the relations
    (ii)-(iv) and the memberships apart."""
    weights = {k: desc.algebra.weights[sl] for k, sl in _sides(desc).items()}
    tensors = desc.block_tensors._asdict()
    maps = dict(zip(_BLOCKS, (T_B, S_B, S_I, R_I)))
    relations: dict[str, np.ndarray] = {}
    memberships: dict[str, np.ndarray] = {}
    for name, side, (t, block), times in _LEMMA_21:
        diff = _of_product(tensors[t], maps[block])
        for t, block in times:
            diff = diff - _times_image(tensors[t], maps[block])
        norm = _map_norms(diff, weights[side])
        group = memberships if name in _BLOCKS else relations
        group[name] = np.maximum(group[name], norm) if name in group else norm
    return relations, memberships


def split_blocks(T: np.ndarray, desc: ProductDescriptor) -> BlockDecomposition:
    """Split a map T on B (+) I, or a stack T[..., n, n] of maps, into its four
    blocks with their relation and membership residuals; refuses only a map of
    the wrong shape."""
    if np.shape(T)[-2:] != (desc.algebra.dim,) * 2:
        raise ValueError("multiplier matrix has the wrong shape")
    side = _sides(desc)
    blocks = [T[..., side[r], side[c]] for r, c in _BLOCKS.values()]
    return BlockDecomposition(*blocks, *_block_relation_residuals(desc, *blocks))


def _block_system(desc: ProductDescriptor) -> list[np.ndarray]:
    """The row blocks of Lemma 2.1 over vec(T), one per row of _LEMMA_21.

    Each row's terms are placed, in place, into the views
    [..., block rows, block cols] of one zero (x, y, r, n, n) array, the
    entries of T each term's block occupies.
    """
    n, side = desc.algebra.dim, _sides(desc)
    size = {"B": desc.subalgebra.dim, "I": desc.ideal.dim}
    tensors = desc.block_tensors._asdict()

    def cells(rows: np.ndarray, block: str) -> np.ndarray:
        row_side, col_side = _BLOCKS[block]
        return rows[..., side[row_side], side[col_side]]

    system = []
    for _, out, (t, block), times in _LEMMA_21:
        c = tensors[t]
        rows = np.zeros((*c.shape[:2], size[out], n, n), dtype=complex)
        _add_of_product(cells(rows, block), c)
        for t, block in times:
            _sub_times_image(cells(rows, block), tensors[t])
        system.append(rows.reshape(-1, n * n))
    return system


def block_space(desc: ProductDescriptor) -> np.ndarray:
    """Null space of the joint block constraints (memberships + relations), as
    the read-only (dim, n, n) stack of a Frobenius-orthonormal basis.

    The unknown is vec(T) of the whole map.  The length of the stack is the
    dimension of the relation-constrained block space, which the key
    equivalence says equals dim LM of the product.  The system is assembled
    from the block sub-tensors alone, never from the LM constraints of the
    product, so comparing the two spaces in lemma21 stays a real check.
    """
    return _space(_block_system(desc), desc.algebra.dim)


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
