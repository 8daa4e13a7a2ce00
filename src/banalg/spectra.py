"""Character spaces of finite-dimensional commutative algebras.

A character is a nonzero multiplicative linear functional, stored as its
value vector on the basis.  The numerical solver passes to the semisimple
quotient A/rad, with rad the radical of the trace form, where the
multiplication operators commute and are simultaneously diagonalizable:
the characters are their joint eigenvalues, read off with the eigenvectors
of one generic element and verified multiplicative.  The extraction is
deterministic and finds exactly dim A/rad characters.  Product algebras
also get closed-form character sets assembled from their parents, and the
two routes are cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, Algebra, Element, rank_basis
from .constructions import ProductDescriptor, ideal_span_is_full
from .errors import IllConditionedError, NoNormalizerError, SpectraError

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

    def __call__(self, a) -> complex:
        coeffs = a.coeffs if isinstance(a, Element) else np.asarray(a, dtype=complex)
        return complex(self.values @ coeffs)

    def distance(self, other: "Character") -> float:
        return float(np.max(np.abs(self.values - other.values)))


@dataclass(eq=False)
class CharacterSet:
    algebra: Algebra
    characters: list[Character]
    provenance: str = "numerical"  # or "closed_form"
    _rank: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if any(ch.algebra is not self.algebra for ch in self.characters):
            raise SpectraError("character belongs to a different algebra")
        # sup-norm distance of every pair at once, a character never to itself
        V = self.matrix
        dist = np.abs(V[:, None, :] - V[None, :, :]).max(axis=2, initial=0.0)
        np.fill_diagonal(dist, np.inf)
        if np.any(dist <= SEPARATION):
            raise SpectraError("character set has (near-)duplicate entries")

    def __len__(self):
        return len(self.characters)

    def __iter__(self):
        return iter(self.characters)

    def __getitem__(self, i) -> Character:
        return self.characters[i]

    @property
    def matrix(self) -> np.ndarray:
        """|S| x n matrix whose rows are the character value vectors."""
        if not self.characters:
            return np.zeros((0, self.algebra.dim), dtype=complex)
        return np.array([ch.values for ch in self.characters])

    def rank(self) -> int:
        """Rank of the character matrix, decided once and kept."""
        if self._rank is None:
            self._rank = rank_basis(self.matrix)[0]
        return self._rank


def multiplicativity_residual(algebra: Algebra, values: np.ndarray) -> float:
    """max_{i,j} |phi(e_i e_j) - phi(e_i) phi(e_j)|."""
    lhs = algebra.structure @ values  # (n, n): phi(e_i e_j)
    rhs = np.outer(values, values)
    return float(np.max(np.abs(lhs - rhs)))


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
    res = np.abs(np.einsum("ijk,rk->rij", c, vals)
                 - vals[:, :, None] * vals[:, None, :]).max(axis=(1, 2), initial=0.0)
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


def gelfand(a: Element, S: CharacterSet) -> np.ndarray:
    """(phi(a))_{phi in S}."""
    if not len(S):
        return np.zeros(0, dtype=complex)
    return S.matrix @ a.coeffs


def is_semisimple(algebra: Algebra) -> bool:
    """True iff the radical of the trace form t(a, b) = tr L_ab is 0."""
    return rank_basis(_trace_form(algebra))[0] == algebra.dim


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
    unused = list(range(len(closed)))
    pairing: list[int] = []
    worst = 0.0
    for ch in computed:
        dists = [(ch.distance(closed[j]), j) for j in unused]
        d, j = min(dists)
        if d > threshold:
            raise SpectraError(f"unmatched character (nearest at sup-distance {d:.3e})")
        pairing.append(j)
        unused.remove(j)
        worst = max(worst, d)
    return pairing, worst


def psi_of(phi: Character, desc: ProductDescriptor, tol: float = DEFAULT_TOL
           ) -> tuple[np.ndarray | None, float]:
    """Induced functional psi(b) = phi(b * a0) on the subalgebra, a0 normalized so phi(a0) = 1.

    Returns (values-on-B-basis or None for the zero functional, choice_discrepancy):
    a0 is taken along the basis direction maximizing |phi| against the weights,
    and the computation is repeated with an independent second normalizer; the
    sup difference of the two results is reported as choice_discrepancy.
    """
    I = desc.ideal
    isl, bsl = desc.ideal_slice, desc.subalgebra_slice
    if phi.algebra is not I:
        raise SpectraError("phi must be a character of the ideal")
    scores = np.abs(phi.values) / I.weights
    if np.max(scores) <= 0:
        raise NoNormalizerError("phi vanishes identically")

    c_bi = desc.algebra.structure[bsl, isl, isl]  # b * a lands in the ideal block

    def psi_from(a0: np.ndarray) -> np.ndarray:
        return np.einsum("jak,a,k->j", c_bi, a0, phi.values)

    k = int(np.argmax(scores))
    a0 = np.zeros(I.dim, dtype=complex)
    a0[k] = 1.0 / phi.values[k]
    psi1 = psi_from(a0)

    if I.dim >= 2:
        order = np.argsort(-scores)
        k2 = int(order[1])
        # second normalizer: perturb inside ker(phi) so phi(a0') is still 1
        pert = np.zeros(I.dim, dtype=complex)
        pert[k2] = 1.0
        pert -= a0 * phi.values[k2]
        a0b = a0 + pert
        psi2 = psi_from(a0b)
        discrepancy = float(np.max(np.abs(psi1 - psi2)))
    else:
        discrepancy = 0.0

    if np.max(np.abs(psi1)) <= tol:
        return None, discrepancy
    return psi1, discrepancy


def characters_semidirect(desc: ProductDescriptor, tol: float = DEFAULT_TOL,
                          cross_check: bool = True) -> "SemidirectCharacters":
    """Closed-form Delta(B (+) I) = E u F from the parents' character sets.

    E pairs each ideal character phi with its induced psi_phi (possibly zero);
    F extends each subalgebra character by zero on the ideal.  The union is
    verified multiplicative and, when cross_check is set, matched against the
    numerical character set of the assembled algebra.
    """
    if desc.kind != "semidirect":
        raise SpectraError("descriptor is not a semidirect product")
    alg = desc.algebra
    B, I = desc.subalgebra, desc.ideal
    b_chars = characters_numerical(B, tol)
    i_chars = characters_numerical(I, tol)
    chars: list[Character] = []
    psis: list[np.ndarray | None] = []
    psi_index: list[int | None] = []
    for phi in i_chars:
        psi_vals, disc = psi_of(phi, desc, tol)
        if disc > tol:
            raise SpectraError(f"psi construction is normalizer-dependent ({disc:.3e})")
        vals = np.zeros(alg.dim, dtype=complex)
        if psi_vals is not None:
            vals[desc.subalgebra_slice] = psi_vals
            dists = [float(np.max(np.abs(psi_vals - psi.values))) for psi in b_chars]
            j = int(np.argmin(dists)) if dists else 0
            if not dists or dists[j] > SEPARATION:
                raise SpectraError(
                    "nonzero induced psi did not land on a subalgebra character"
                )
            psi_index.append(j)
        else:
            psi_index.append(None)
        vals[desc.ideal_slice] = phi.values
        res = multiplicativity_residual(alg, vals)
        if res > tol:
            raise SpectraError(f"assembled E-character is not multiplicative ({res:.3e})")
        chars.append(Character(alg, vals, res))
        psis.append(psi_vals)
    e_count = len(chars)
    for psi in b_chars:
        vals = np.zeros(alg.dim, dtype=complex)
        vals[desc.subalgebra_slice] = psi.values
        res = multiplicativity_residual(alg, vals)
        if res > tol:
            raise SpectraError(f"assembled F-character is not multiplicative ({res:.3e})")
        chars.append(Character(alg, vals, res))
    out = SemidirectCharacters(
        set=CharacterSet(alg, chars, provenance="closed_form"),
        subalgebra_chars=b_chars,
        ideal_chars=i_chars,
        psi_values=psis,
        psi_index=psi_index,
        e_count=e_count,
        descriptor=desc,
    )
    if cross_check:
        numeric = characters_numerical(alg, tol)
        _, hausdorff = match_character_sets(numeric, out.set)
        out.cross_check_distance = hausdorff
    return out


@dataclass(eq=False)
class SemidirectCharacters:
    """E u F decomposition; E block first (indexed like ideal_chars), then F.

    psi_index[r] locates psi_phi (for ideal character r) inside
    subalgebra_chars; None marks psi_phi = 0.
    """

    set: CharacterSet
    subalgebra_chars: CharacterSet
    ideal_chars: CharacterSet
    psi_values: list[np.ndarray | None]
    psi_index: list[int | None]
    e_count: int
    descriptor: ProductDescriptor
    cross_check_distance: float | None = None

    @property
    def spans_full_ideal(self) -> bool:
        return ideal_span_is_full(self.descriptor)


@dataclass(eq=False)
class LauCharacters:
    """Delta(A x_phi B) = E u F; E block aligned with a_chars, F with b_chars.

    gamma[r] is the index in b_chars of the composed character phi_A o phi
    (defined for surjective phi; None entries mark compositions that are zero).
    numerical is the numerical character set of the cross check, if one ran.
    """

    set: CharacterSet
    a_chars: CharacterSet
    b_chars: CharacterSet
    gamma: list[int | None]
    descriptor: ProductDescriptor
    cross_check_distance: float | None = None
    numerical: CharacterSet | None = field(default=None, init=False, repr=False)
    _phi_rank: int | None = field(default=None, init=False, repr=False)

    @property
    def e_count(self) -> int:
        return len(self.a_chars)

    def phi_rank(self) -> int:
        """Rank of the matrix of phi, decided once and kept."""
        if self._phi_rank is None:
            self._phi_rank = rank_basis(self.descriptor.phi.matrix)[0]
        return self._phi_rank


def characters_lau(desc: ProductDescriptor, tol: float = DEFAULT_TOL,
                   cross_check: bool = True,
                   a_chars: CharacterSet | None = None,
                   b_chars: CharacterSet | None = None) -> LauCharacters:
    """Closed-form Delta(A x_phi B): E = {(phi_A, phi_A o phi)}, F = {(0, psi)}.

    Pass a_chars/b_chars to share parent character sets (and their ordering)
    between several products over the same parents.
    """
    if desc.kind not in ("lau", "direct_sum"):
        raise SpectraError("descriptor is not a lau product or direct sum")
    alg = desc.algebra
    A, B = desc.first, desc.second
    if a_chars is None:
        a_chars = characters_numerical(A, tol)
    if b_chars is None:
        b_chars = characters_numerical(B, tol)
    chars: list[Character] = []
    gamma: list[int | None] = []
    for phi_a in a_chars:
        comp = phi_a.values @ desc.phi.matrix  # (phi_A o phi)(e_j^B)
        vals = np.zeros(alg.dim, dtype=complex)
        vals[desc.first_slice] = phi_a.values
        vals[desc.second_slice] = comp
        res = multiplicativity_residual(alg, vals)
        if res > tol:
            raise SpectraError(f"assembled E-character is not multiplicative ({res:.3e})")
        chars.append(Character(alg, vals, res))
        if np.max(np.abs(comp), initial=0.0) <= tol:
            gamma.append(None)
        else:
            dists = [float(np.max(np.abs(comp - psi.values))) for psi in b_chars]
            j = int(np.argmin(dists))
            if dists[j] > SEPARATION:
                raise SpectraError(
                    "composition with phi did not land on a subalgebra character"
                )
            gamma.append(j)
    for psi in b_chars:
        vals = np.zeros(alg.dim, dtype=complex)
        vals[desc.second_slice] = psi.values
        res = multiplicativity_residual(alg, vals)
        if res > tol:
            raise SpectraError(f"assembled F-character is not multiplicative ({res:.3e})")
        chars.append(Character(alg, vals, res))
    out = LauCharacters(
        set=CharacterSet(alg, chars, provenance="closed_form"),
        a_chars=a_chars,
        b_chars=b_chars,
        gamma=gamma,
        descriptor=desc,
    )
    if cross_check:
        out.numerical = characters_numerical(alg, tol)
        _, out.cross_check_distance = match_character_sets(out.numerical, out.set)
    return out
