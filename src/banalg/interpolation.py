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

Each iteration works in the NT-scaled variables dz~ = W dz, ds~ = W^-1 ds,
where W z = W^-1 s = lam and z.s = lam.lam.  The 3-dimensional cones give the
NT quantities in closed form: lam = beta (2 v (v.z) - J z) and
W^-1 = (2 (Jv)(Jv)^T - J) / beta, so W itself is never formed, and det z and
det s come from the boundary test that precedes them.  The step forms one QR
factorization of (G W^-1)^T, the inverse of its R, W^-1 r_d, J lam and
det lam once, and both directions share them.  The predictor stays in the
scaled space: dz~ comes from Q, ds~ = -lam - dz~ (its rc = -lam o lam, and
lam o d = rc has d = -lam), and the affine gap is (lam + a dz~).(lam + a ds~),
so it needs no dy and no product with W^-1.  The corrector solves lam o d = rc
with the shared J lam and det lam, then adds dy from R^-1,
ds = r_d - G^T dy (the dual residual then shrinks by exactly 1 - alpha) and
dz = W^-1 dz~.  Each direction is written into one preallocated stack of
(dz~, ds~), and each step length is one first-root computation over that
stack.

The loop runs a stack of k right-hand sides sigma on one E at once, with a
leading batch axis on every iterate; a single sigma is a batch of one.  The
members share the lift A and its blocks A_i^T, the cost and its scale, and
one least-squares solve with k right-hand sides for the start point and one
for the final projection.  Each member has its own z, s, y and residual
scale, and its own NT scaling, QR of (G W^-1)^T, directions and step lengths.
Each member stops on its own test (the gap closed, an iterate within rounding
of its cone's boundary, or MAX_ITER) and leaves the batch as it stands, so it
takes the iterations of its solve alone and is certified on its own.

When E is square and invertible (semisimple case: as many characters as
dimensions) the primal is a linear solve, one factorization of E and one of
E^T for the whole stack, and no iteration runs.  Both routes take sigma (s,)
or a stack (k, s) and keep its leading axes in every result; the cone
program gives an all-zero sigma the zero pair without a solve.  Both return
the optimal value bracketed by a feasible pair; the interpolant is one
minimizer, and the value, not the minimizer, is the contractual output.
`solve_primal` and `solve_dual` check that E has full row rank; the BSE
norms, which have just checked the rank of the same character matrix, call
their cores `_primal` and `_dual` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import rank_basis
from .errors import BseError

GAP_REL = 1e-8  # relative primal-dual gap target
GAP_HARD_LIMIT = 1e-6  # beyond this the solve is reported as failed
# path-following steps; random full-rank instances take at most 16 rectangular
# (3,000 at seed 7) and 7 square, 5.8 on average on the verify harness
MAX_ITER = 60

_J = np.array([1.0, -1.0, -1.0])  # the cone's Lorentz form diag(1, -1, -1)
_JD = np.diag(_J)


@dataclass
class InterpolationSolution:
    """Feasible primal/dual pair with a certified gap, for sigma or each row of
    a stack; every field but method keeps sigma's leading axes.

    value is the primal objective of the returned (feasible) interpolant;
    dual_value = |sum_j c_j sigma_j| for the returned (feasible) certificate;
    the true optimum lies in [dual_value, value].  The value, not the
    interpolant, is the contractual output: a is one minimizer.
    """

    a: np.ndarray
    c: np.ndarray
    value: float | np.ndarray
    dual_value: float | np.ndarray
    gap: float | np.ndarray
    method: str  # "square" (one linear solve) | "barrier" (path following)
    iterations: int | np.ndarray  # path-following steps taken; 0 when none ran


def _real_lift(E: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s, n = E.shape
    A = np.zeros((2 * s, 2 * n))
    A[0::2, 0::2] = E.real
    A[0::2, 1::2] = -E.imag
    A[1::2, 0::2] = E.imag
    A[1::2, 1::2] = E.real
    b = np.zeros(sigma.shape[:-1] + (2 * s,))
    b[..., 0::2] = sigma.real
    b[..., 1::2] = sigma.imag
    return A, b


def interpolation_residual(E: np.ndarray, a: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    return np.max(np.abs((E @ a[..., None])[..., 0] - sigma), axis=-1, initial=0.0)


def _scale_into_feasibility(E: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """c (or each row of a stack of c) divided by its dual norm when that exceeds 1."""
    ratio = np.max(np.abs(c[..., None, :] @ E) / w, axis=-1)
    return c / np.maximum(ratio, 1.0)


def _solution(sigma: np.ndarray, w: np.ndarray, a: np.ndarray, c: np.ndarray,
              method: str, iterations: np.ndarray) -> InterpolationSolution:
    """The stacked pair (a, c) and its values in sigma's leading axes, with one
    BLAS call per row, so a row of a stack gets the bits of its solve alone."""
    lead = sigma.shape[:-1]
    a, c = a.reshape(lead + a.shape[-1:]), c.reshape(sigma.shape)
    value = np.sum(w * np.abs(a), axis=-1)
    dual_value = np.abs(c[..., None, :] @ sigma[..., :, None])[..., 0, 0][()]
    return InterpolationSolution(a, c, value, dual_value, value - dual_value, method,
                                 iterations.reshape(lead)[()])


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cone-wise (last axis) dot product."""
    return np.einsum("...k,...k->...", x, y)


def _det(x: np.ndarray) -> np.ndarray:
    """Cone-wise x^T J x = x_0^2 - |x_bar|^2; positive inside the cone."""
    return _dot(_J * x, x)


def _jordan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cone-wise Jordan product x o y = (x.y, x_0 y_bar + y_0 x_bar)."""
    out = x[..., :1] * y + y[..., :1] * x
    out[..., 0] = _dot(x, y)
    return out


def _max_step(Jx: np.ndarray, xdet: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Largest t per member with x + t d in every cone: the first positive root
    of det(x + t d) = a t^2 + 2 b t + c, or inf when there is none.  x enters as
    J x (members, n, 3) and det x (members, n), which one step shares between
    its step lengths; d stacks each member's directions, (members, r, n, 3),
    and the member's step suits all r of them."""
    a = _det(d)
    b = _dot(Jx[:, None], d)
    xdet = xdet[:, None]
    disc = b * b - a * xdet
    hits = (disc >= 0) & ((a < 0) | (b < 0))
    roots = np.divide(xdet, np.sqrt(np.abs(disc)) - b, out=np.full(b.shape, np.inf),
                      where=hits)
    return roots.min(axis=(1, 2))


def _nt_scaling(z: np.ndarray, s: np.ndarray, zdet: np.ndarray,
                sdet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nesterov-Todd scaling, cone-wise, from z, s and their determinants:
    W^-1 and lam with W z = W^-1 s = lam.  W = beta (2 v v^T - J) is never
    formed; lam = beta (2 v (v.z) - J z) and W^-1 = (2 (Jv)(Jv)^T - J) / beta."""
    zn = z / np.sqrt(zdet)[..., None]
    sn = s / np.sqrt(sdet)[..., None]
    gamma = np.sqrt((1.0 + _dot(zn, sn)) / 2.0)
    wbar = (sn + _J * zn) / (2.0 * gamma)[..., None]
    wbar[..., 0] += 1.0
    v = wbar / np.sqrt(2.0 * wbar[..., :1])
    beta = (sdet / zdet) ** 0.25
    Jv = _J * v
    Winv = (2.0 * Jv[..., :, None] * Jv[..., None, :] - _JD) / beta[..., None, None]
    lam = beta[..., None] * (2.0 * _dot(v, z)[..., None] * v - _J * z)
    return Winv, lam


def _solve_cone(E: np.ndarray, sigma: np.ndarray, w: np.ndarray,
                gap_rel: float) -> InterpolationSolution:
    """Path following on the lifted cone program from a strictly feasible start,
    for every row of the (k, s) stack sigma, none of them all zero, in one loop.

    Returns the stacked solution.  Each member stops on its own test and is
    then left as it is, so it takes the iterations, and gets the result, of
    a batch of one.
    """
    k = len(sigma)
    s, n = E.shape
    sn = np.max(np.abs(sigma), axis=1)
    A, b = _real_lift(E, sigma / sn[:, None])
    AgT = A.reshape(2 * s, n, 2).transpose(1, 2, 0).copy()  # (n, 2, 2s): the A_i^T
    cost = np.zeros((n, 3))
    cost[:, 0] = w
    bscale = np.maximum(1.0, np.linalg.norm(b, axis=1))
    cscale = max(1.0, float(np.linalg.norm(w)))

    # start: the min-norm interpolant with slack 1 in every cone, y = 0
    x0 = np.linalg.lstsq(A, b.T, rcond=None)[0].T.reshape(k, n, 2)
    z = np.concatenate([np.linalg.norm(x0, axis=2, keepdims=True) + 1.0, x0], axis=2)
    y = np.zeros((k, 2 * s))
    sl = np.repeat(cost[None], k, axis=0)
    # the members still iterating, and their rows of the state, in one order
    live, bl, bsl = np.arange(k), b, bscale
    z_end, y_end = np.empty_like(z), np.empty_like(y)
    iterations = np.full(k, MAX_ITER)
    buffer = np.empty((k, 2, n, 3))  # (dz~, ds~) of one direction, per member
    for iteration in range(MAX_ITER):
        m = len(live)
        rp = bl - z[..., 1:].reshape(m, 2 * n) @ A.T
        rd = cost - sl  # and minus G^T y = (0, A_i^T y), cone-wise
        rd[..., 1:] -= (y @ A).reshape(m, n, 2)
        gap = _dot(z.reshape(m, -1), sl.reshape(m, -1))
        zdet, sdet = _det(z), _det(sl)
        stop = gap <= gap_rel * np.maximum(1.0, z[..., 0] @ w)
        if stop.any():  # the residuals matter only where the gap has closed
            stop &= ((np.sqrt(_dot(rp, rp)) <= 1e-10 * bsl)
                     & (np.sqrt(_dot(rd.reshape(m, -1), rd.reshape(m, -1)))
                        <= 1e-10 * cscale))
        # or an iterate lies within rounding of its cone's boundary
        stop |= ~(np.minimum(zdet, sdet).min(axis=1) > 0)
        if stop.any():
            done = live[stop]
            z_end[done], y_end[done] = z[stop], y[stop]
            iterations[done] = iteration
            keep = ~stop
            live, bl, bsl, z, sl, y, rp, rd, gap, zdet, sdet = (
                v[keep] for v in (live, bl, bsl, z, sl, y, rp, rd, gap, zdet, sdet))
            m = len(live)
            if not m:
                break
        Winv, lam = _nt_scaling(z, sl, zdet, sdet)
        Jlam = _J * lam
        lamdet = _dot(Jlam, lam)
        # the scaled constraint matrix G W^-1, transposed (one 3 x 2s block per
        # cone), as Q R: the normal matrix G W^-2 G^T is R^T R, and working
        # with Q keeps G dz = rp accurate to rounding however large W^-1 grows
        Q, R = np.linalg.qr((Winv[..., 1:] @ AgT).reshape(m, 3 * n, 2 * s))
        Rinv = np.linalg.inv(R)
        u = (rp[:, None] @ Rinv)[:, 0]  # R^-T rp
        rd_scaled = (Winv @ rd[..., None]).reshape(m, 3 * n)
        steps = buffer[:m]

        def scaled_direction(rhs):
            # dz~ + ds~ = rhs = lam \ rc,  G W^-1 dz~ = rp,  W^-1 G^T dy + ds~ = W^-1 rd
            f = rhs.reshape(m, -1) - rd_scaled
            t = u - (f[:, None] @ Q)[:, 0]
            steps[:, 0] = (f + (Q @ t[..., None])[..., 0]).reshape(m, n, 3)
            steps[:, 1] = rhs - steps[:, 0]
            return t, np.minimum(1.0, 0.99 * _max_step(Jlam, lamdet, steps))

        # predictor (rc = -lam o lam, so lam \ rc = -lam): z.s = lam.lam under
        # NT scaling, so the affine gap is read in the scaled space
        _, alpha = scaled_direction(-lam)
        ends = lam[:, None] + alpha[:, None, None, None] * steps
        gap_aff = _dot(ends[:, 0].reshape(m, -1), ends[:, 1].reshape(m, -1))
        centering = np.minimum(1.0, np.maximum(0.0, gap_aff / gap)) ** 3
        rc = -_jordan(lam, lam) - _jordan(steps[:, 0], steps[:, 1])
        rc[..., 0] += (centering * gap / n)[:, None]
        # corrector: the d with lam o d = rc, then ds = rd - G^T dy shrinks the
        # dual residual by exactly 1 - alpha, however large W^-1 grows
        d0 = _dot(Jlam, rc) / lamdet
        rhs = (rc - d0[..., None] * lam) / lam[..., :1]
        rhs[..., 0] = d0
        t, alpha = scaled_direction(rhs)
        z += alpha[:, None, None] * (Winv @ steps[:, 0, :, :, None])[..., 0]
        dy = (Rinv @ t[..., None])[..., 0]
        y += alpha[:, None] * dy
        rd[..., 1:] -= (dy @ A).reshape(m, n, 2)  # now ds = rd - G^T dy
        sl += alpha[:, None, None] * rd
    z_end[live], y_end[live] = z, y  # those at MAX_ITER

    x = z_end[..., 1:].reshape(k, 2 * n)
    x = x + np.linalg.lstsq(A, (b - x @ A.T).T, rcond=None)[0].T
    a = sn[:, None] * (x[:, 0::2] + 1j * x[:, 1::2])
    c = _scale_into_feasibility(E, y_end[:, 0::2] - 1j * y_end[:, 1::2], w)
    sol = _solution(sigma, w, a, c, "barrier", iterations)
    failed = ~((sol.gap <= GAP_HARD_LIMIT * np.maximum(1.0, sol.value))
               & (interpolation_residual(E, a, sigma) <= 1e-9 * sn))
    if failed.any():
        i = np.argmax(failed)  # the first member that failed
        raise BseError(f"interpolation solver failed to certify the optimum "
                       f"(relative gap {sol.gap[i] / max(1.0, sol.value[i]):.3e})")
    return sol


def _nonzero_cone(E: np.ndarray, sigma: np.ndarray, w: np.ndarray,
                  gap_rel: float) -> InterpolationSolution:
    """`_solve_cone` on the rows of sigma (s,) or (k, s) that are not all zero;
    an all-zero row gets a = 0, c = 0 and value 0 without a solve."""
    s, n = E.shape
    stack = sigma.reshape(-1, s)
    live = np.any(np.abs(stack) > 0, axis=1)
    a, iterations = np.zeros((len(stack), n), complex), np.zeros(len(stack), int)
    c = np.zeros_like(stack)
    if live.any():
        sol = _solve_cone(E, stack[live], w, gap_rel)
        a[live], c[live], iterations[live] = sol.a, sol.c, sol.iterations
    return _solution(sigma, w, a, c, "barrier", iterations)


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
    whose values bracket the optimum within the achieved gap, for sigma or
    for each row of a stack.
    """
    return _primal(*_system(E, sigma, w), gap_rel)


def _primal(E: np.ndarray, sigma: np.ndarray, w: np.ndarray,
            gap_rel: float) -> InterpolationSolution:
    """solve_primal on arrays that passed `_system`'s checks."""
    s, n = E.shape
    if s != n:
        return _nonzero_cone(E, sigma, w, gap_rel)
    # full-rank square system: the interpolation constraints pin each a
    # uniquely, and one factorization serves the whole stack
    stack = sigma.reshape(-1, s)
    a = np.ascontiguousarray(np.linalg.solve(E, stack.T).T)
    # dual certificate: the interpolant's phases pushed through E^{-T}
    mags = np.abs(a)
    live = mags > 1e-14 * np.max(mags, axis=1, keepdims=True)
    d = np.where(live, w * np.exp(-1j * np.angle(a)), 0.0)
    c = _scale_into_feasibility(E, np.ascontiguousarray(np.linalg.solve(E.T, d.T).T), w)
    return _solution(sigma, w, a, c, "square", np.zeros(len(stack), dtype=int))


def solve_dual(E: np.ndarray, sigma: np.ndarray, w: np.ndarray,
               gap_rel: float = GAP_REL) -> tuple[float | np.ndarray, np.ndarray]:
    """Dual route: run the cone program itself and report the certificate side,
    the values and certificates in sigma's leading axes.  Runs regardless of
    the shape of E, so on semisimple instances (square E) this is an
    independent computation from the primal's plain linear solve.
    """
    return _dual(*_system(E, sigma, w), gap_rel)


def _dual(E: np.ndarray, sigma: np.ndarray, w: np.ndarray,
          gap_rel: float) -> tuple[float | np.ndarray, np.ndarray]:
    """solve_dual on arrays that passed `_system`'s checks."""
    sol = _nonzero_cone(E, sigma, w, gap_rel)
    return sol.dual_value, sol.c
