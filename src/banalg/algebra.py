"""Finite-dimensional commutative algebras over C with weighted l1 norms.

An algebra is a basis e_0..e_{n-1}, a structure tensor c with
e_i e_j = sum_k c[i,j,k] e_k, and strictly positive weights w_i defining
||a|| = sum_i w_i |a_i|.  The weighted-l1 family makes the operator norm and
the dual norm exact (column formulas), so no norm evaluation below involves
an inner optimization.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationRejected

DEFAULT_TOL = 1e-9
RANK_CUTOFF = 1e-10  # relative singular-value cutoff of rank_basis


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(eq=False)
class Algebra:
    """Structure constants + norm weights, immutable after construction.

    structure[i, j, k] is the e_k coefficient of e_i * e_j.
    """

    name: str
    weights: np.ndarray
    structure: np.ndarray
    unit: np.ndarray | None = None

    def __post_init__(self):
        self.weights = _readonly(np.asarray(self.weights, dtype=float))
        self.structure = _readonly(np.asarray(self.structure, dtype=complex))
        n = self.weights.shape[0]
        if self.structure.shape != (n, n, n):
            raise ValueError(
                f"structure tensor shape {self.structure.shape} does not match dim {n}"
            )
        if n < 1:
            raise ValueError("dim must be >= 1")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")
        if self.unit is not None:
            self.unit = _readonly(np.asarray(self.unit, dtype=complex))
            if self.unit.shape != (n,):
                raise ValueError("unit vector length does not match dim")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @functools.cached_property
    def without_order(self) -> bool:
        """Whether the annihilator is 0, decided once and kept."""
        return annihilator_basis(self).shape[0] == 0

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim})"


def operator_norm(P: np.ndarray, source: Algebra, target: Algebra) -> float:
    """Exact operator norm of the (target dim, source dim) matrix P of a map
    between weighted l1 spaces: the max weighted column norm."""
    return float(np.max(target.weights @ np.abs(P) / source.weights))


@dataclass
class ValidationReport:
    name: str
    tol: float
    max_associativity_residual: float
    max_commutativity_residual: float
    max_submultiplicativity_excess: float
    unit_residual: float | None
    failures: list[str] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return not self.failures


def associativity_residual(algebra: Algebra) -> float:
    """max over basis triples of ||(e_i e_j) e_k - e_i (e_j e_k)|| (weighted l1)."""
    c = algebra.structure
    left = np.einsum("ijm,mkl->ijkl", c, c)
    right = np.einsum("jkm,iml->ijkl", c, c)
    diff = np.abs(left - right) @ algebra.weights
    return float(np.max(diff))


def validate(algebra: Algebra, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the algebra axioms; accepted iff every residual is within tol.

    Submultiplicativity is checked at basis level, ||e_i e_j|| <= w_i w_j,
    which implies ||ab|| <= ||a|| ||b|| for the weighted l1 norm.
    """
    c = algebra.structure
    w = algebra.weights
    failures = []

    assoc = associativity_residual(algebra)
    if assoc > tol:
        failures.append("associativity")

    comm = float(np.max(np.abs(c - c.transpose(1, 0, 2))))
    if comm > tol:
        failures.append("commutativity")

    prod_norms = np.abs(c) @ w  # ||e_i e_j|| indexed (i, j)
    excess = float(np.max(prod_norms - np.outer(w, w)))
    if excess > tol:
        failures.append("submultiplicativity")

    unit_res = None
    if algebra.unit is not None:
        images = np.einsum("i,ijk->jk", algebra.unit, c)  # row j: unit * e_j
        unit_res = float(np.max(np.abs(images - np.eye(algebra.dim)) @ w))
        if unit_res > tol:
            failures.append("unit")

    return ValidationReport(
        name=algebra.name,
        tol=tol,
        max_associativity_residual=assoc,
        max_commutativity_residual=comm,
        max_submultiplicativity_excess=max(excess, 0.0),
        unit_residual=unit_res,
        failures=failures,
    )


def require_valid(algebra: Algebra, tol: float = DEFAULT_TOL) -> ValidationReport:
    report = validate(algebra, tol)
    if not report.accepted:
        raise ValidationRejected(", ".join(report.failures), report)
    return report


def rank_basis(M: np.ndarray | Iterable[np.ndarray]) -> tuple[int, np.ndarray]:
    """Numerical rank of M and an orthonormal basis of C^cols split by it.

    M is a matrix, or an iterable of row blocks with a common column count
    that stack to the matrix.  Returns (rank, vh): the rows vh[:rank] span
    the row space of M and the rows vh[rank:].conj() span its null space.  A
    singular value counts when it exceeds RANK_CUTOFF times the largest one;
    a zero matrix has rank 0 and a 0-row matrix has rank 0 with vh = I.
    Each block is stacked under the rows before it, and while the stack is
    taller than wide it is folded into its triangular factor,
    R = qr([R; block]) (the tall-skinny QR of Demmel, Grigori, Hoemmen and
    Langou); then the SVD of the small R factor is taken (Chan's R-SVD): R is
    at most cols x cols, so a tall constraint system is never held whole and
    never builds its rows x rows left singular vectors.  A square or wide
    stack is not folded, since its QR would not shrink it: a single square
    or wide matrix gets one SVD.
    """
    R = None
    for block in (M,) if isinstance(M, np.ndarray) else M:
        R = block if R is None else np.concatenate([R, block])
        del block  # the stack holds its rows: drop the block before the QR
        if R.shape[0] > R.shape[1]:
            R = np.linalg.qr(R, mode="r")
    if R is None:
        raise ValueError("rank_basis needs at least one row block")
    if R.shape[0] == 0:
        return 0, np.eye(R.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(R)
    rank = int(np.sum(s > RANK_CUTOFF * s[0])) if s[0] > 0 else 0
    return rank, vh


def annihilator_basis(algebra: Algebra) -> np.ndarray:
    """Orthonormal basis (rows) of {a : a * x = 0 for all x}.

    Empty for without-order algebras.  Built from the null space of the
    stacked multiplication system a -> (a * e_j)_j.
    """
    n = algebra.dim
    # K[(j, k), i] = c[i, j, k]
    rank, vh = rank_basis(algebra.structure.transpose(1, 2, 0).reshape(n * n, n))
    return vh[rank:].conj()

