"""Character spaces of finite-dimensional commutative algebras.

A character is a nonzero multiplicative linear functional, stored as its
value vector on the basis.  A set holds each character once: a
`CharacterSet` stacks the value vectors into one read-only matrix (a row
per character) and their multiplicativity residuals into one read-only
vector, and the `Character`s it yields are views of the matrix rows.  The
numerical solver passes to the semisimple quotient A/rad, with rad the
radical of the trace form, where the multiplication operators commute and
are simultaneously diagonalizable: the characters are their joint
eigenvalues, read off with the eigenvectors of one generic element and
verified multiplicative.  The extraction is deterministic and finds
exactly dim A/rad characters.  Product algebras also get closed-form
character sets E u F assembled from their parents' sets by one constructor
that verifies every row multiplicative and always cross-checks the set
against the numerical route.  A lau product A x_phi B
is the semidirect product with ideal A and subalgebra B, where
b.a = phi(b)a, so its characters are the semidirect E u F, with
psi = phi_A o phi for each character phi_A of A; a direct sum is the case
phi = 0.  The set induces every psi in one contraction over the matrix of
ideal character values, locates each nonzero psi among the subalgebra
characters on one distance matrix, and keeps the worst normalizer
discrepancy, so nothing downstream induces them again.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from dataclasses import InitVar, dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, Algebra, _readonly, rank_basis
from .constructions import ProductDescriptor, ideal_span_is_full
from .errors import ConstructionError, IllConditionedError, SpectraError

SEPARATION = 1e-6  # characters closer than this in sup norm are the same character
GENERIC_SEED = 0  # seeds the generic element of characters_numerical, afresh in every call


@dataclass(eq=False)
class Character:
    algebra: Algebra
    values: np.ndarray
    residual: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.algebra.dim,):
            raise ValueError("character value vector length mismatch")
        if not np.any(np.abs(self.values) > 0):
            raise ValueError("a character is a nonzero functional")


@dataclass(eq=False)
class CharacterSet:
    """Characters of one algebra, stacked once at construction: `matrix` is
    the read-only |S| x n array of their value vectors (rows) and
    `residuals` the read-only vector of their multiplicativity residuals.
    The set keeps no Character; indexing and iteration yield Character
    views of the matrix rows."""

    algebra: Algebra
    characters: InitVar[Sequence[Character]]
    # "numerical" or "closed_form"; no library code reads it, and it stays
    # because perfbench/workloads.py passes it
    provenance: str = "numerical"
    matrix: np.ndarray = field(init=False, repr=False)
    residuals: np.ndarray = field(init=False, repr=False)
    _rank: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self, characters):
        if any(ch.algebra is not self.algebra for ch in characters):
            raise SpectraError("character belongs to a different algebra")
        V = np.array([ch.values for ch in characters], dtype=complex)
        V = self.matrix = _readonly(V.reshape(len(characters), self.algebra.dim))
        self.residuals = _readonly(np.array([ch.residual for ch in characters], dtype=float))
        # sup-norm distance of every pair at once, a character never to itself
        dist = np.abs(V[:, None, :] - V[None, :, :]).max(axis=2, initial=0.0)
        np.fill_diagonal(dist, np.inf)
        if np.any(dist <= SEPARATION):
            raise SpectraError("character set has (near-)duplicate entries")

    def __len__(self):
        return len(self.matrix)

    def __iter__(self) -> Iterator[Character]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> Character:
        return Character(self.algebra, self.matrix[i], float(self.residuals[i]))

    def rank(self) -> int:
        """Rank of the character matrix, decided once and kept."""
        if self._rank is None:
            self._rank = rank_basis(self.matrix)[0]
        return self._rank


def multiplicativity_residual(algebra: Algebra, values: np.ndarray) -> np.ndarray:
    """max_{i,j} |phi(e_i e_j) - phi(e_i) phi(e_j)| for a functional phi, or
    one residual per row of a stack values[..., n]."""
    v = np.asarray(values)
    lhs = np.einsum("ijk,...k->...ij", algebra.structure, v)  # phi(e_i e_j)
    rhs = v[..., :, None] * v[..., None, :]
    return np.abs(lhs - rhs).max(axis=(-2, -1), initial=0.0)


def _trace_form(algebra: Algebra) -> np.ndarray:
    """t[a, b] = tr(L_a L_b); its radical is the nilradical (Dieudonne)."""
    c = algebra.structure
    return np.einsum("ajk,bkj->ab", c, c)


def characters_numerical(algebra: Algebra, tol: float = DEFAULT_TOL) -> CharacterSet:
    """All characters of a validated commutative algebra.

    Characters vanish on the radical, which is the radical of the trace form
    t(a, b) = tr L_ab (Dieudonne's criterion), so they live on the rows V
    that span the functionals vanishing on it.  There the multiplication
    operators act as the commuting Lambda_i = V L_i V^H of A/rad = C^q, and
    the characters are their q joint eigenvalues (Stetter's eigenmethod),
    read off with the eigenvectors of one generic Lambda_g.  Raises
    IllConditionedError when a joint eigenvalue is not multiplicative within
    tol; nilpotent algebras yield the empty set.
    """
    c = algebra.structure
    q, vh = rank_basis(_trace_form(algebra))
    V = vh[:q]
    lam = V @ c.transpose(0, 2, 1) @ V.conj().T  # L_i[k, j] = c[i, j, k]
    rng = np.random.default_rng(GENERIC_SEED)
    g = rng.standard_normal(len(c)) + 1j * rng.standard_normal(len(c))
    _, W = np.linalg.eig(np.tensordot(g, lam, axes=1))
    try:
        vals = np.einsum("irb,br->ri", np.linalg.inv(W) @ lam, W)  # diag(W^-1 Lambda_i W)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError("the generic element repeats a character value") from exc
    res = multiplicativity_residual(algebra, vals)
    # a kept row must be a nonzero functional (sup norm above SEPARATION)
    # and multiplicative within tol
    ok = (res <= tol) & (np.abs(vals).max(axis=1, initial=0.0) > SEPARATION)
    if not np.all(ok):
        raise IllConditionedError(
            f"{np.sum(~ok)} of {q} joint eigenvalues on A/rad are not characters "
            f"(worst multiplicativity residual {np.max(res):.3e})"
        )
    chars = [Character(algebra, v, residual=float(r)) for v, r in zip(vals, res)]
    chars.sort(key=lambda ch: tuple(np.round(ch.values, 9).view(float)))
    return CharacterSet(algebra, chars, provenance="numerical")


def gelfand(a: np.ndarray, S: CharacterSet) -> np.ndarray:
    """(phi(a))_{phi in S} for the coefficient vector a, or each row of a stack."""
    return (S.matrix @ a[..., None])[..., 0]


def match_character_sets(computed: CharacterSet, closed: CharacterSet,
                         threshold: float = SEPARATION) -> tuple[list[int], float]:
    """Greedy nearest-neighbor pairing in sup norm, ties broken by index order.

    Returns (pairing, hausdorff) where pairing[i] is the closed-form index
    matched to computed[i].  Raises SpectraError when the sets do not match
    one-for-one within the threshold.
    """
    if len(computed) != len(closed):
        raise SpectraError(
            f"character sets have different sizes ({len(computed)} vs {len(closed)})"
        )
    # dist[i, j]: sup distance of computed[i] to closed[j]; a paired j leaves
    dist = np.abs(computed.matrix[:, None, :] - closed.matrix).max(axis=2, initial=0.0)
    pairing: list[int] = []
    worst = 0.0
    for row in dist:
        j = int(np.argmin(row))
        if row[j] > threshold:
            raise SpectraError(f"unmatched character (nearest at sup-distance {row[j]:.3e})")
        worst = max(worst, float(row[j]))
        pairing.append(j)
        dist[:, j] = np.inf
    return pairing, worst


def psi_of(values: np.ndarray, desc: ProductDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """Induced functionals psi(b) = phi(b * a0) on the subalgebra, a0 normalized so
    phi(a0) = 1, for the (q, p) values of q ideal characters at once.

    Returns (psi, discrepancy) of shapes (q, m) and (q,): a0 is taken along
    the basis direction maximizing |phi| against the weights, and psi is
    induced again with an independent second normalizer, along the next
    direction (a stable sort, so ties go by index); the sup difference of the
    two is the discrepancy.  Both normalizers go through one contraction.
    """
    I = desc.ideal
    values = np.asarray(values, dtype=complex)
    q, p = values.shape
    order = np.argsort(-np.abs(values) / I.weights, axis=1, kind="stable")
    rows = np.arange(q)
    k = order[:, 0]
    a0 = np.zeros((q, p), dtype=complex)
    a0[rows, k] = 1.0 / values[rows, k]
    a0s = [a0]
    if p >= 2:
        # second normalizer: perturb inside ker(phi) so phi(a0') is still 1
        k2 = order[:, 1]
        pert = np.zeros((q, p), dtype=complex)
        pert[rows, k2] = 1.0
        pert -= a0 * values[rows, k2][:, None]
        a0s.append(a0 + pert)
    c_bi = desc.block_tensors[1]  # c[B, I, I]
    psis = np.einsum("jak,sqa,qk->sqj", c_bi, np.array(a0s), values)
    return psis[0], np.abs(psis[0] - psis[-1]).max(axis=1, initial=0.0)


def characters_semidirect(desc: ProductDescriptor, tol: float = DEFAULT_TOL,
                          ideal_chars: CharacterSet | None = None,
                          subalgebra_chars: CharacterSet | None = None,
                          ) -> "SemidirectCharacters":
    """Closed-form Delta(B (+) I) = E u F from the parents' character sets.

    E pairs each ideal character phi with its induced psi_phi (possibly zero),
    all induced by one `psi_of` call; F extends each subalgebra character by
    zero on the ideal.  A lau product A x_phi B is the semidirect product with
    ideal A and subalgebra B acting by b.a = phi(b)a, so there the psi of a
    character phi_A of A is phi_A o phi, and on a direct sum every psi is 0.
    Every row is verified multiplicative, and the union is matched against
    the numerical character set of the assembled algebra.  Pass
    ideal_chars/subalgebra_chars to share parent sets (and their order)
    between several products over the same parents.
    """
    alg = desc.algebra
    if subalgebra_chars is None:
        subalgebra_chars = characters_numerical(desc.subalgebra, tol)
    if ideal_chars is None:
        ideal_chars = characters_numerical(desc.ideal, tol)
    psi, disc = psi_of(ideal_chars.matrix, desc)
    if np.any(disc > tol):
        raise SpectraError(f"psi construction is normalizer-dependent ({np.max(disc):.3e})")
    nonzero = np.abs(psi).max(axis=1, initial=0.0) > tol
    # psi_phi is the character of B equal to it within SEPARATION
    dists = np.abs(psi[:, None, :] - subalgebra_chars.matrix).max(axis=2, initial=0.0)
    if np.any(nonzero & (dists.min(axis=1, initial=np.inf) > SEPARATION)):
        raise SpectraError("nonzero induced psi did not land on a subalgebra character")
    psi_index = [int(np.argmin(d)) if live else None for d, live in zip(dists, nonzero)]
    ec = len(ideal_chars)
    rows = np.zeros((ec + len(subalgebra_chars), alg.dim), dtype=complex)
    rows[:ec, desc.ideal_slice] = ideal_chars.matrix
    rows[:ec, desc.subalgebra_slice] = np.where(nonzero[:, None], psi, 0.0)
    rows[ec:, desc.subalgebra_slice] = subalgebra_chars.matrix
    res = multiplicativity_residual(alg, rows)
    bad = np.flatnonzero(res > tol)
    if bad.size:
        part = "E" if bad[0] < ec else "F"
        raise SpectraError(
            f"assembled {part}-character is not multiplicative ({res[bad[0]]:.3e})")
    closed = CharacterSet(alg, [Character(alg, v, float(r)) for v, r in zip(rows, res)],
                          provenance="closed_form")
    _, distance = match_character_sets(characters_numerical(alg, tol), closed)
    return SemidirectCharacters(
        set=closed,
        subalgebra_chars=subalgebra_chars,
        ideal_chars=ideal_chars,
        psi_index=psi_index,
        descriptor=desc,
        psi_discrepancy=float(np.max(disc, initial=0.0)),
        cross_check_distance=distance,
    )


@dataclass(eq=False)
class SemidirectCharacters:
    """E u F decomposition; E block first (indexed like ideal_chars), then F.

    psi_index[r] locates psi_phi (for ideal character r) inside
    subalgebra_chars; None marks psi_phi = 0.  On a lau product A x_phi B
    (ideal A, subalgebra B) the psi of a character phi_A of A is phi_A o phi.
    psi_discrepancy is the worst normalizer discrepancy `psi_of` reported
    while building E, and cross_check_distance the sup distance of the
    pairing with the numerical character set of the product.
    """

    set: CharacterSet
    subalgebra_chars: CharacterSet
    ideal_chars: CharacterSet
    psi_index: list[int | None]
    descriptor: ProductDescriptor
    psi_discrepancy: float
    cross_check_distance: float
    _phi_rank: int | None = field(default=None, init=False, repr=False)

    @property
    def e_count(self) -> int:
        return len(self.ideal_chars)

    @functools.cached_property
    def spans_full_ideal(self) -> bool:
        """Whether <IB> = I, decided once and kept."""
        return ideal_span_is_full(self.descriptor)

    def surjective(self) -> bool:
        """Whether phi maps B onto A on a lau product or direct sum: every
        phi_A o phi is a character of B, and rank phi = dim A (decided once
        and kept).  A semidirect descriptor has no phi: ConstructionError."""
        phi = self.descriptor.phi
        if phi is None:
            raise ConstructionError("surjectivity needs a lau product or direct sum")
        if any(ix is None for ix in self.psi_index):
            return False
        if self._phi_rank is None:
            self._phi_rank = rank_basis(phi.matrix)[0]
        return self._phi_rank == self.descriptor.ideal.dim
