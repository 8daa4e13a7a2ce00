"""Weighted complex-l1 minimum-norm interpolation and its dual.

Primal:  minimize sum_i w_i |a_i|   subject to  E a = sigma      (a complex)
Dual:    maximize |sum_j c_j sigma_j|  subject to  |(E^T c)_i| <= w_i  for all i

The dual constraint says the functional sum_j c_j phi_j has weighted dual
norm at most one, so any feasible c certifies a lower bound and any feasible
a certifies an upper bound; the solver closes the gap between the two and
returns both sides.

Method: lift each complex coordinate to an R^2 pair, so that coordinate i
becomes one 3-dimensional second-order cone z_i = (t_i, Re a_i, Im a_i) with
t_i >= |a_i|.  The cone program
    minimize sum_i w_i t_i  subject to  A x = b          (x the lifted a)
    maximize b.y            subject to  s_i = (w_i, -A_i^T y) in the cone
is solved by a primal-dual path-following method: Nesterov-Todd scaling and
a Mehrotra predictor-corrector step (Alizadeh & Goldfarb, Math. Prog. 2003;
Lobo, Vandenberghe, Boyd & Lebret, LAA 1998).  Both iterates stay strictly
inside their cones and the gap z.s shrinks to GAP_REL; the interpolant is
then projected onto A x = b and the certificate scaled into feasibility.
When E is square and invertible (semisimple case: as many characters as
dimensions) the primal is a single linear solve and no iteration runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import rank_basis
from .errors import BseError

GAP_REL = 1e-8  # relative primal-dual gap target
GAP_HARD_LIMIT = 1e-6  # beyond this the solve is reported as failed
MAX_ITER = 60  # path-following steps; random full-rank instances take 6 to 14

_J = np.array([1.0, -1.0, -1.0])  # the cone's Lorentz form diag(1, -1, -1)


@dataclass
class InterpolationSolution:
    """Feasible primal/dual pair with a certified gap.

    value is the primal objective of the returned (feasible) interpolant;
    dual_value = |sum_j c_j sigma_j| for the returned (feasible) certificate;
    the true optimum lies in [dual_value, value].  unique reports whether the
    minimizer is the only one; the norm value, not the minimizer, is the
    contractual output either way.
    """

    a: np.ndarray
    c: np.ndarray
    value: float
    dual_value: float
    gap: float
    method: str  # "square" (one linear solve) | "barrier" (path following)
    unique: bool


def _real_lift(E: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s, n = E.shape
    A = np.zeros((2 * s, 2 * n))
    A[0::2, 0::2] = E.real
    A[0::2, 1::2] = -E.imag
    A[1::2, 0::2] = E.imag
    A[1::2, 1::2] = E.real
    b = np.zeros(2 * s)
    b[0::2] = sigma.real
    b[1::2] = sigma.imag
    return A, b


def interpolation_residual(E: np.ndarray, a: np.ndarray, sigma: np.ndarray) -> float:
    return float(np.max(np.abs(E @ a - sigma), initial=0.0))


def certificate_slack(E: np.ndarray, c: np.ndarray, w: np.ndarray) -> float:
    """max_i |(E^T c)_i| - w_i; feasible certificates have slack <= 0."""
    return float(np.max(np.abs(E.T @ c) - w))


def certificate_value(c: np.ndarray, sigma: np.ndarray) -> float:
    return float(abs(c @ sigma))


def _scale_into_feasibility(E: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    ratio = float(np.max(np.abs(E.T @ c) / w))
    if ratio > 1.0:
        c = c / ratio
    return c


def _det(x: np.ndarray) -> np.ndarray:
    """Cone-wise x^T J x = x_0^2 - |x_bar|^2; positive inside the cone."""
    return np.sum(_J * x * x, axis=1)


def _jordan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cone-wise Jordan product x o y = (x.y, x_0 y_bar + y_0 x_bar)."""
    return np.concatenate([np.sum(x * y, axis=1, keepdims=True),
                           x[:, :1] * y[:, 1:] + y[:, :1] * x[:, 1:]], axis=1)


def _jordan_solve(lam: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The d with lam o d = r, cone-wise (lam inside the cone)."""
    l0, lb = lam[:, :1], lam[:, 1:]
    d0 = ((l0[:, 0] * r[:, 0] - np.sum(lb * r[:, 1:], axis=1)) / _det(lam))[:, None]
    return np.concatenate([d0, (r[:, 1:] - d0 * lb) / l0], axis=1)


def _max_step(x: np.ndarray, d: np.ndarray) -> float:
    """Largest t with x + t d in every cone: the first positive root of
    det(x + t d) = a t^2 + 2 b t + c, or inf when there is none."""
    a = _det(d)
    b = np.sum(_J * x * d, axis=1)
    c = _det(x)
    disc = b * b - a * c
    hits = (disc >= 0) & ((a < 0) | (b < 0))
    if not np.any(hits):
        return np.inf
    return float(np.min(c[hits] / (np.sqrt(disc[hits]) - b[hits])))


def _nt_scaling(z: np.ndarray, s: np.ndarray):
    """Nesterov-Todd scaling: W and W^-1, cone-wise, with W z = W^-1 s = lam."""
    zdet, sdet = _det(z), _det(s)
    zn = z / np.sqrt(zdet)[:, None]
    sn = s / np.sqrt(sdet)[:, None]
    gamma = np.sqrt((1.0 + np.sum(zn * sn, axis=1)) / 2.0)
    wbar = (sn + _J * zn) / (2.0 * gamma)[:, None]
    wbar[:, 0] += 1.0
    v = wbar / np.sqrt(2.0 * wbar[:, :1])
    beta = (sdet / zdet) ** 0.25
    vv = 2.0 * v[:, :, None] * v[:, None, :]
    Jv = _J * v
    W = beta[:, None, None] * (vv - np.diag(_J))
    Winv = (2.0 * Jv[:, :, None] * Jv[:, None, :] - np.diag(_J)) / beta[:, None, None]
    return W, Winv, np.einsum("iab,ib->ia", W, z)


def _is_unique(E: np.ndarray, a: np.ndarray, support: np.ndarray) -> bool:
    """The optimal face is one point iff the support columns E_i a_i/|a_i|,
    read as vectors of R^2s, are linearly independent.  The path-following
    iterate converges to the face's relative interior, so the support read
    off it is the largest support of any minimizer."""
    T = np.flatnonzero(support)
    if T.size > 2 * E.shape[0]:
        return False
    cols = E[:, T] * np.exp(1j * np.angle(a[T]))
    K = np.concatenate([cols.real, cols.imag])
    eig = np.linalg.eigvalsh(K.T @ K)
    return bool(eig[0] > GAP_REL * eig[-1])


def _solve_cone(E: np.ndarray, sigma: np.ndarray, w: np.ndarray,
                gap_rel: float) -> InterpolationSolution:
    """Path following on the lifted cone program from a strictly feasible start."""
    s, n = E.shape
    sn = float(np.max(np.abs(sigma)))
    A, b = _real_lift(E, sigma / sn)
    Ag = A.reshape(2 * s, n, 2).transpose(1, 0, 2)  # (n, 2s, 2): the blocks A_i
    cost = np.zeros((n, 3))
    cost[:, 0] = w
    bscale = max(1.0, float(np.linalg.norm(b)))
    cscale = max(1.0, float(np.linalg.norm(w)))

    def lift_t(y):  # G^T y, cone-wise: (0, A_i^T y)
        out = np.zeros((n, 3))
        out[:, 1:] = np.einsum("irt,r->it", Ag, y)
        return out

    # start: the min-norm interpolant with slack 1 in every cone, y = 0
    x0 = np.linalg.lstsq(A, b, rcond=None)[0].reshape(n, 2)
    z = np.concatenate([np.linalg.norm(x0, axis=1, keepdims=True) + 1.0, x0], axis=1)
    y = np.zeros(2 * s)
    sl = cost.copy()
    for _ in range(MAX_ITER):
        rp = b - np.einsum("irt,it->r", Ag, z[:, 1:])
        rd = cost - lift_t(y) - sl
        gap = float(np.sum(z * sl))
        if (gap <= gap_rel * max(1.0, float(w @ z[:, 0]))
                and np.linalg.norm(rp) <= 1e-10 * bscale
                and np.linalg.norm(rd) <= 1e-10 * cscale):
            break
        if not (np.min(_det(z)) > 0 and np.min(_det(sl)) > 0):
            break  # an iterate lies within rounding of its cone's boundary
        W, Winv, lam = _nt_scaling(z, sl)
        # the scaled constraint matrix G W^-1, transposed (one 3 x 2s block per
        # cone), as Q R: the normal matrix G W^-2 G^T is R^T R, and working
        # with Q keeps G dz = rp accurate to rounding however large W^-1 grows
        Q, R = np.linalg.qr(np.einsum("iab,irb->iar", Winv[:, :, 1:], Ag)
                            .reshape(3 * n, 2 * s))
        u = np.linalg.solve(R.T, rp)

        def direction(rc):
            # W dz + W^-1 ds = lam \ rc,  G dz = rp,  G^T dy + ds = rd
            f = (_jordan_solve(lam, rc) - np.einsum("iab,ib->ia", Winv, rd)).reshape(-1)
            t = u - Q.T @ f
            dz_scaled = (f + Q @ t).reshape(n, 3)
            dy = np.linalg.solve(R, t)
            ds = rd - lift_t(dy)
            dz = np.einsum("iab,ib->ia", Winv, dz_scaled)
            ds_scaled = np.einsum("iab,ib->ia", Winv, ds)
            alpha = min(1.0, 0.99 * min(_max_step(lam, dz_scaled),
                                        _max_step(lam, ds_scaled)))
            return dz, dy, ds, dz_scaled, ds_scaled, alpha

        lam_sq = _jordan(lam, lam)
        dz, _, ds, dz_a, ds_a, alpha = direction(-lam_sq)
        gap_aff = float(np.sum((z + alpha * dz) * (sl + alpha * ds)))
        centering = min(1.0, max(0.0, gap_aff / gap)) ** 3
        rc = -lam_sq - _jordan(dz_a, ds_a)
        rc[:, 0] += centering * gap / n
        dz, dy, ds, _, _, alpha = direction(rc)
        z = z + alpha * dz
        y = y + alpha * dy
        sl = sl + alpha * ds

    # coordinate i is in the support when its share of the objective beats
    # its dual constraint's relative slack; their product is ~ mu either way
    share = w * z[:, 0] / float(w @ z[:, 0])
    support = share > 1.0 - np.linalg.norm(sl[:, 1:], axis=1) / w
    x = z[:, 1:].reshape(-1)
    x = x + np.linalg.lstsq(A, b - A @ x, rcond=None)[0]
    a = sn * (x[0::2] + 1j * x[1::2])
    c = _scale_into_feasibility(E, y[0::2] - 1j * y[1::2], w)
    value = float(np.sum(w * np.abs(a)))
    dual_value = certificate_value(c, sigma)
    gap = value - dual_value
    if not (gap <= GAP_HARD_LIMIT * max(1.0, value)
            and interpolation_residual(E, a, sigma) <= 1e-9 * sn):
        raise BseError(
            f"interpolation solver failed to certify the optimum "
            f"(relative gap {gap / max(1.0, value):.3e})"
        )
    return InterpolationSolution(a, c, value, dual_value, gap, "barrier",
                                 _is_unique(E, a, support))


def _system(E, sigma, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solvers' common entry: arrays, and E of full row rank."""
    E = np.asarray(E, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    w = np.asarray(w, dtype=float)
    if E.shape[0] == 0:
        raise BseError("empty constraint system")
    if rank_basis(E)[0] < E.shape[0]:
        raise BseError("constraint matrix is rank-deficient")
    return E, sigma, w


def solve_primal(E: np.ndarray, sigma: np.ndarray, w: np.ndarray,
                 gap_rel: float = GAP_REL) -> InterpolationSolution:
    """Primal route: exact linear solve when E is square, cone solver otherwise.

    Always returns a feasible interpolant and a feasible dual certificate
    whose values bracket the optimum within the achieved gap.
    """
    E, sigma, w = _system(E, sigma, w)
    s, n = E.shape
    if not np.any(np.abs(sigma) > 0):
        return InterpolationSolution(
            np.zeros(n, dtype=complex), np.zeros(s, dtype=complex), 0.0, 0.0, 0.0,
            "square" if s == n else "barrier", unique=True,
        )
    if s == n:
        # full-rank square system: the interpolation constraints pin a uniquely
        a = np.linalg.solve(E, sigma)
        value = float(np.sum(w * np.abs(a)))
        # dual certificate: the interpolant's phases pushed through E^{-T}
        mags = np.abs(a)
        live = mags > 1e-14 * float(np.max(mags))
        d = np.where(live, w * np.exp(-1j * np.angle(a)), 0.0)
        c = np.linalg.solve(E.T, d)
        c = _scale_into_feasibility(E, c, w)
        dual_value = certificate_value(c, sigma)
        return InterpolationSolution(a, c, value, dual_value,
                                     value - dual_value, "square", unique=True)
    return _solve_cone(E, sigma, w, gap_rel)


def solve_dual(E: np.ndarray, sigma: np.ndarray, w: np.ndarray,
               gap_rel: float = GAP_REL) -> tuple[float, np.ndarray]:
    """Dual route: run the cone program itself and report the certificate side.

    Runs regardless of the shape of E, so on semisimple instances (square E)
    this is an independent computation from the primal's plain linear solve.
    """
    E, sigma, w = _system(E, sigma, w)
    if not np.any(np.abs(sigma) > 0):
        return 0.0, np.zeros(E.shape[0], dtype=complex)
    sol = _solve_cone(E, sigma, w, gap_rel)
    return sol.dual_value, sol.c
