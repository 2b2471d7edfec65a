"""Radial oracles on balls: Robin eigenvalues, closed-form Robin-Poisson
solutions, and ball energies for the quadratic energy form.

For unit exponents 2/2/2 the first eigenvalue comes from shooting on the
radial ODE -u'' - (d-1)/r u' = lam*u with u'(R) + b*u(R) = 0, by RK4 with a
series start at the axis over a batch of columns at once.  The bracket scan
in lam, which drops each column at its first sign change, and the Illinois
(modified regula falsi) refinement of every root together multiply the
per-column 2x2 step propagators, since the ODE is linear in (u, u'): a block
of steps is built at once and reduced pairwise, and the blocks are applied
in order.  The profile pass shares their RK4 step body.  General exponents
minimize the mesh Rayleigh quotient by projected, tridiagonally
preconditioned descent with Armijo backtracking on the quotient alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import IntegrandModel


def sphere_area(d: int) -> float:
    """Surface measure of the unit (d-1)-sphere; 2 for d=1, 2*pi for d=2."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d: int, R: float) -> float:
    return sphere_area(d) / d * R**d


def ball_radius(d: int, volume: float) -> float:
    return (volume * d / sphere_area(d)) ** (1.0 / d)


@dataclass(frozen=True)
class RadialEigenvalueQuery:
    """First-Robin-eigenvalue query for the ball of radius R.

    grad_exp/bdry_exp/denom_exp are the exponents on the gradient term, the
    boundary term and the L^alpha norm in the denominator; the quotient is
    [int |u'|^g + b oint |u|^g] / (int |u|^a)^(g/a).  Homogeneity requires
    grad_exp == bdry_exp.
    """

    d: int
    R: float
    b: float
    grad_exp: float = 2.0
    bdry_exp: float = 2.0
    denom_exp: float = 2.0
    mesh_n: int = 1024

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not (math.isfinite(self.R) and self.R > 0.0 and self.b > 0.0):
            raise ValueError("R must be finite and positive, b positive")
        for e in (self.grad_exp, self.bdry_exp, self.denom_exp):
            if not e > 1.0:
                raise ValueError(f"exponents must exceed 1, got {e}")
        if self.grad_exp != self.bdry_exp:
            raise ValueError("boundary exponent must equal gradient exponent "
                             "(quotient homogeneity)")
        if self.mesh_n < 64:
            raise ValueError(f"mesh_n must be >= 64, got {self.mesh_n}")


@dataclass
class RadialSolution:
    lam: float
    profile: np.ndarray  # (m, 2) rows of (r, u(r))
    meta: dict = dc_field(default_factory=dict)


class RadialConvergenceError(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


# ---------------------------------------------------------------------------
# shooting branch (all exponents = 2)

def _series_start(lam, d, h):
    # power series of the regular solution around r = 0; terms depend on
    # lam*h^2 only, which keeps the integrator exactly scale-covariant
    t = lam * h * h
    d2, d4 = d + 2.0, d + 4.0
    u = 1.0 - t / (2 * d) + t * t / (8 * d * d2) - t * t * t / (48 * d * d2 * d4)
    up = (t / h) * (-1.0 / d + t / (2 * d * d2) - t * t / (8 * d * d2 * d4))
    return u, up


def _rk4_step(u, v, nlam, c0, cm, c1, h, h2, h6):
    # one RK4 step of u' = v, v' = -lam*u - c(r)*v; c0, cm, c1 are c at the
    # start, midpoint and end of the step, h2 = h/2 and h6 = h/6
    k1v = nlam * u - c0 * v
    u2, v2 = u + h2 * v, v + h2 * k1v
    k2v = nlam * u2 - cm * v2
    u3, v3 = u + h2 * v2, v + h2 * k2v
    k3v = nlam * u3 - cm * v3
    u4, v4 = u + h * v3, v + h * k3v
    k4v = nlam * u4 - c1 * v4
    return (u + h6 * (v + 2 * v2 + 2 * v3 + v4),
            v + h6 * (k1v + 2 * k2v + 2 * k3v + k4v))


def _rk4(lam, d, R, n, path=False):
    """RK4 for the radial ODE from the series start at r = h, one column per
    entry of lam with its own step h = R/n (R broadcasts against lam), one
    step at a time.  The profile pass runs here; the bracket scan and the
    Illinois refinement run through _propagate, which takes the same steps.

    Returns (u(R), u'(R)); with path=True, the (n+1, ...) arrays of u and u'
    at r = 0, h, ..., R instead.  Every operation is elementwise, so a
    column's result does not depend on the batch it runs in.
    """
    lam = np.asarray(lam, dtype=float)
    h = np.asarray(R, dtype=float) / n
    h2, h6 = h / 2.0, h / 6.0
    u, v = _series_start(lam, d, h)
    nlam, dm1 = -lam, d - 1.0
    if path:
        us, vs = np.empty((2, n + 1) + u.shape)
        us[0], vs[0], us[1], vs[1] = 1.0, 0.0, u, v
    r = h
    c0 = dm1 / r
    for i in range(2, n + 1):
        cm, re = dm1 / (r + h2), r + h
        c1 = dm1 / re
        u, v = _rk4_step(u, v, nlam, c0, cm, c1, h, h2, h6)
        r, c0 = re, c1
        if path:
            us[i], vs[i] = u, v
    return (us, vs) if path else (u, v)


_BLOCK = 64  # RK4 steps per propagator block; bounds the temporaries
_SCAN_VALUES = 2048  # (lam, column) pairs per scan chunk, unless a row is wider


def _propagate(lam, d, R, n):
    """(u(R), u'(R)) of _rk4(lam, d, R, n) by products of step propagators.

    The ODE is linear in (u, u'), so each RK4 step is a 2x2 matrix per
    column: its columns are the step applied to (1, 0) and to (0, 1).  The
    matrices of _BLOCK steps are built at once and multiplied pairwise, and
    each block's product is applied to (u, u') in order.  The products are
    written out elementwise, so a column's result does not depend on the
    batch it runs in; they only reassociate the loop's rounding.
    """
    lam, h = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.asarray(R, dtype=float) / n)
    h2, h6 = h / 2.0, h / 6.0
    u, v = _series_start(lam, d, h)
    nlam, dm1 = -lam, d - 1.0
    r = h
    for first in range(1, n, _BLOCK):
        steps = min(_BLOCK, n - first)
        # nodes r_first .. r_(first+steps), summed one h at a time as in _rk4
        rs = np.add.accumulate(np.concatenate(
            [r[None], np.broadcast_to(h, (steps,) + h.shape)]))
        cr = dm1 / rs
        step = (nlam, cr[:-1], dm1 / (rs[:-1] + h2), cr[1:], h, h2, h6)
        a, c = _rk4_step(1.0, 0.0, *step)
        b, e = _rk4_step(0.0, 1.0, *step)
        while len(a) > 1:
            # M[2k+1] @ M[2k]; an odd last matrix moves up a level unchanged
            k = len(a) // 2 * 2
            a1, b1, c1, e1 = a[0:k:2], b[0:k:2], c[0:k:2], e[0:k:2]
            a2, b2, c2, e2 = a[1:k:2], b[1:k:2], c[1:k:2], e[1:k:2]
            pa, pb = a2 * a1 + b2 * c1, a2 * b1 + b2 * e1
            pc, pe = c2 * a1 + e2 * c1, c2 * b1 + e2 * e1
            if k < len(a):
                pa, pb = np.concatenate([pa, a[k:]]), np.concatenate([pb, b[k:]])
                pc, pe = np.concatenate([pc, c[k:]]), np.concatenate([pe, e[k:]])
            a, b, c, e = pa, pb, pc, pe
        u, v = a[0] * u + b[0] * v, c[0] * u + e[0] * v
        r = rs[-1]
    return u, v


_MAX_REFINE = 80  # Illinois steps before a root counts as not converged


def _illinois(G, a, b, Ga, Gb, tol=1e-14):
    """Roots of G inside the sign-change brackets 0 <= a < b, all refined
    together by the Illinois rule (regula falsi that halves the G of an end
    kept twice running).  G(x, idx) evaluates the columns idx at x.  A column
    stops when G(x) == 0 or its bracket shrinks below tol relative; the root
    is then x or the bracket midpoint."""
    out = np.empty(a.shape)
    idx = np.arange(a.size)
    moved = np.zeros(a.size, dtype=int)  # end replaced last step: -1 a, +1 b
    for _ in range(_MAX_REFINE):
        x = b - Gb * (b - a) / (Gb - Ga)
        off = ~((a < x) & (x < b))  # stagnant or undefined step: bisect
        x[off] = 0.5 * (a[off] + b[off])
        Gx = G(x, idx)
        left = (Gx < 0) == (Ga < 0)
        Ga = np.where(~left & (moved == 1), 0.5 * Ga, Ga)
        Gb = np.where(left & (moved == -1), 0.5 * Gb, Gb)
        a, Ga = np.where(left, x, a), np.where(left, Gx, Ga)
        b, Gb = np.where(left, b, x), np.where(left, Gb, Gx)
        moved = np.where(left, -1, 1)
        exact = Gx == 0.0
        done = exact | (b - a <= tol * b)
        out[idx[done]] = np.where(exact, x, 0.5 * (a + b))[done]
        if done.all():
            return out
        keep = ~done
        idx, a, b, Ga, Gb, moved = (idx[keep], a[keep], b[keep], Ga[keep],
                                    Gb[keep], moved[keep])
    raise RadialConvergenceError(
        f"{idx.size} shooting root(s) not converged after {_MAX_REFINE} "
        f"Illinois steps", residual=float(np.max((b - a) / b)))


def shoot_eigenvalues(d: int, R, b, mesh_n: int = 1024) -> np.ndarray:
    """First Robin eigenvalues for arrays of radii/coefficients (p=q=alpha=2).

    A scan of G(lam) = u'(R) + b*u(R) at lam_k = k*4(pi/R)^2/63, k = 1, 2, ...
    in chunks of 1, 2, 4, ... rows (at most _SCAN_VALUES values unless a row
    is wider), drops each column at its first sign change (G(0) = b > 0) and
    stops at the first row above d(d+4)/(2R^2): the quotient of R^2 - r^2
    bounds the Dirichlet and so the first Robin eigenvalue.  Then all roots
    refine together by batched Illinois steps to 1e-14 relative; both stages
    evaluate G by step-propagator products.  Raises ValueError unless d >= 1,
    every R is finite and positive, every b is positive and mesh_n >= 64; no
    sign change, or a root still open at the step cap, raises
    RadialConvergenceError.
    """
    R = np.atleast_1d(np.asarray(R, dtype=float))
    b = np.broadcast_to(np.atleast_1d(np.asarray(b, dtype=float)), R.shape)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not np.all(np.isfinite(R) & (R > 0.0) & (b > 0.0)):
        raise ValueError("R must be finite and positive, b positive")
    if mesh_n < 64:
        raise ValueError(f"mesh_n must be >= 64, got {mesh_n}")

    def Gcols(lam, idx):
        u, v = _propagate(lam, d, R[idx], mesh_n)
        return v + b[idx] * u

    spacing = 4.0 * (math.pi / R) ** 2 / 63.0
    # last row: both bounds scale as 1/R^2, so one row index serves every R
    top = max(63, int(63.0 * d * (d + 4) / (8.0 * math.pi**2)) + 1)
    lo, Glo = np.zeros(R.size), b.copy()      # last row scanned, no change yet
    hi, Ghi = np.empty(R.size), np.empty(R.size)
    idx, k = np.arange(R.size), 1
    while idx.size and k <= top:
        width = min(k, top + 1 - k, max(1, _SCAN_VALUES // idx.size))
        rows = np.arange(k, k + width)
        lam = np.concatenate([lo[None, idx], rows[:, None] * spacing[idx]])
        G = np.concatenate([Glo[None, idx], Gcols(lam[1:], idx)])
        first = np.argmax(np.signbit(G), axis=0)  # 0 while no change
        last, cols = np.where(first > 0, first - 1, len(G) - 1), np.arange(idx.size)
        lo[idx], Glo[idx] = lam[last, cols], G[last, cols]
        hi[idx], Ghi[idx] = lam[first, cols], G[first, cols]
        idx, k = idx[first == 0], k + width
    if idx.size:
        raise RadialConvergenceError(
            "no sign change of the shooting function inside the bracket",
            residual=float(np.min(np.abs(Glo[idx]))))
    return _illinois(Gcols, lo, hi, Glo, Ghi)


def _quotient_of_profile(d, R, b, r, u, v):
    sigma = sphere_area(d)
    w = r ** (d - 1)
    num = sigma * np.trapezoid(v * v * w, r) + b * sigma * R ** (d - 1) * u[-1] ** 2
    den = sigma * np.trapezoid(u * u * w, r)
    return num / den


# ---------------------------------------------------------------------------
# Rayleigh-descent branch (general exponents)

def _rayleigh_min(d, R, b, pg, alpha, mesh_n, max_iter=100_000, tol=1e-10):
    """Minimize the mesh Rayleigh quotient by projected preconditioned descent.

    Directions come from a tridiagonal solve against the frozen linearization
    of the quotient (plain gradient steps stall far beyond the iteration cap
    on fine meshes), are l2-normalized, and pass an Armijo backtracking line
    search on the quotient alone; iterates re-project to unit nodal l^alpha
    norm.  Three restarts guard against spurious critical points; the
    smallest quotient wins, ties by restart index.  A winner that diverged,
    or stopped at max_iter with a last relative change >= tol, raises.
    """
    from scipy.linalg.lapack import dptsv

    N = mesh_n
    h = R / N
    r = np.linspace(0.0, R, N + 1)
    rbar = (r[:-1] + h / 2) ** (d - 1)            # face weights for the gradient term
    tw = np.full(N + 1, h)                        # trapezoid weights
    tw[0] = tw[-1] = h / 2
    dw = tw * r ** (d - 1)                        # measure weights, r^{d-1} dr
    sigma = sphere_area(d)
    bR = b * R ** (d - 1)
    spow = sigma ** (1.0 - pg / alpha)

    def quotient(u):  # Q and the parts its gradient reuses
        du = np.diff(u) / h
        num = np.sum(np.abs(du) ** pg * rbar) * h + bR * np.abs(u[-1]) ** pg
        dint = np.sum(dw * np.abs(u) ** alpha)
        den = dint ** (pg / alpha)
        return spow * num / den, (du, num, dint, den)

    def gradient(u, parts):
        du, num, dint, den = parts
        t = pg * np.abs(du) ** (pg - 1.0) * np.sign(du) * rbar
        gn = np.zeros_like(u)
        gn[:-1] -= t
        gn[1:] += t
        gn[-1] += bR * pg * np.abs(u[-1]) ** (pg - 1.0) * np.sign(u[-1])
        gd = pg * dint ** (pg / alpha - 1.0) * dw * np.abs(u) ** (alpha - 1.0) * np.sign(u)
        return spow * (gn * den - num * gd) / den**2

    def precondition(u, Q, g):
        # frozen tridiagonal model: p-Laplacian linearization plus a mass
        # shift; SPD, so the preconditioned direction is always descent
        du = np.diff(u) / h
        eps2 = (1e-8 * max(float(np.max(np.abs(du))), 1.0)) ** 2
        c = (du * du + eps2) ** ((pg - 2.0) / 2.0) * rbar / h
        mass = (u * u + eps2 * h * h) ** ((alpha - 2.0) / 2.0) * dw
        diag = np.zeros(N + 1)
        diag[:-1] += c
        diag[1:] += c
        diag[-1] += bR * (u[-1] ** 2 + eps2) ** ((pg - 2.0) / 2.0)
        diag += max(Q, 1e-30) * mass + 1e-300
        x, info = dptsv(diag, -c, -g, 1, 1, 1)[2:]
        if info != 0:
            raise np.linalg.LinAlgError(f"preconditioner: LAPACK ptsv info {info}")
        return x

    def project(u):
        nrm = np.sum(np.abs(u) ** alpha) ** (1.0 / alpha)
        return u / nrm

    starts = [np.ones(N + 1), 1.0 - 0.5 * r / R,
              np.random.Generator(np.random.Philox(key=0xA11CE)).uniform(0.5, 1.5, N + 1)]
    best = None
    restart_iters = []
    for idx, u0 in enumerate(starts):
        u = project(u0.copy())
        Q, parts = quotient(u)
        g = gradient(u, parts)
        step = 1.0
        iters = 0
        last_change = np.inf
        while iters < max_iter:
            iters += 1
            direction = precondition(u, Q, g)
            dn = np.linalg.norm(direction)
            if dn == 0.0:
                break
            dhat = direction / dn
            slope = float(np.dot(g, dhat))
            if slope >= 0.0:
                dhat = -g / np.linalg.norm(g)
                slope = float(np.dot(g, dhat))
                if slope >= 0.0:
                    break
            s = min(1.0, 4.0 * step)
            accepted = False
            for _ in range(60):
                u_try = project(u + s * dhat)
                Q_try, parts = quotient(u_try)
                if Q_try <= Q + 1e-4 * s * slope:
                    accepted = True
                    break
                s *= 0.5
            if not accepted:
                break
            step = s
            last_change = abs(Q - Q_try) / max(abs(Q_try), 1e-300)
            u, Q = u_try, Q_try
            if last_change < tol:
                break
            g = gradient(u, parts)
        restart_iters.append(iters)
        # flipping signs never raises the quotient; keep the positive profile
        u_abs = project(np.abs(u))
        Q_abs = quotient(u_abs)[0]
        if Q_abs <= Q:
            u, Q = u_abs, Q_abs
        if best is None or Q < best[0]:
            best = (Q, u, iters, last_change, idx)
    Q, u, iters, change, idx = best
    if not math.isfinite(Q):
        raise RadialConvergenceError("Rayleigh descent diverged", residual=change)
    if iters >= max_iter and change >= tol:
        raise RadialConvergenceError(
            f"Rayleigh descent hit the {max_iter}-iteration cap",
            residual=change)
    return Q, r, u, {"iterations": iters, "residual": change, "restart": idx,
                     "restart_iterations": tuple(restart_iters)}


# ---------------------------------------------------------------------------
# public operations

def _shoots(q: RadialEigenvalueQuery) -> bool:
    return q.grad_exp == q.bdry_exp == q.denom_exp == 2.0


def robin_eigenvalue_ball(query: RadialEigenvalueQuery) -> RadialSolution:
    """First Robin eigenvalue (and radial eigenfunction profile) of a ball."""
    q = query
    if _shoots(q):
        return robin_eigenvalues_ball([q])[0]
    lam, r, u, info = _rayleigh_min(q.d, q.R, q.b, q.grad_exp, q.denom_exp, q.mesh_n)
    meta = {"method": "rayleigh-descent", **info}
    return RadialSolution(float(lam), np.column_stack([r, u]), meta)


def robin_eigenvalues_ball(queries) -> list[RadialSolution]:
    """robin_eigenvalue_ball for a sequence of queries, results in order.

    Unit-exponent queries that share (d, mesh_n) are shot in one batch, which
    costs little more than one of them alone; descent queries run one at a
    time.  Each result equals that of its query on its own.
    """
    out = [None] * len(queries)
    batches = {}
    for i, q in enumerate(queries):
        if _shoots(q):
            batches.setdefault((q.d, q.mesh_n), []).append(i)
        else:
            out[i] = robin_eigenvalue_ball(q)
    for (d, n), idx in batches.items():
        R = np.array([queries[i].R for i in idx])
        b = np.array([queries[i].b for i in idx])
        lam = shoot_eigenvalues(d, R, b, n)
        us, vs = _rk4(lam, d, R, n, path=True)
        for j, i in enumerate(idx):
            r = np.linspace(0.0, R[j], n + 1)
            quot = _quotient_of_profile(d, R[j], b[j], r, us[:, j], vs[:, j])
            out[i] = RadialSolution(
                float(lam[j]), np.column_stack([r, us[:, j]]),
                {"method": "shooting", "residual": abs(quot - lam[j]) / lam[j]})
    return out


def robin_poisson_ball(d: int, R: float, f_const: float, beta: float,
                       samples: int = 513) -> RadialSolution:
    """Closed-form solution of -lap u = f on B_R with beta*u + du/dn = 0:
    u(r) = f*(R^2 - r^2)/(2d) + f*R/(d*beta)."""
    if not (R > 0 and beta > 0):
        raise ValueError("R and beta must be positive")
    r = np.linspace(0.0, R, samples)
    u = f_const * (R**2 - r**2) / (2.0 * d) + f_const * R / (d * beta)
    energy = -0.5 * f_const * _integral_poisson(d, R, f_const, beta)
    return RadialSolution(float(energy), np.column_stack([r, u]),
                          {"method": "closed-form", "residual": 0.0})


def _integral_poisson(d: int, R: float, f_const: float, beta: float) -> float:
    # int_B u dx for the closed-form solution above
    sigma = sphere_area(d)
    return f_const * (sigma / d**2) * R ** (d + 1) * (R / (d + 2.0) + 1.0 / beta)


def ball_energy(model: IntegrandModel, d: int, R: float) -> float:
    """Minimal shape energy of the ball B_R for the quadratic energy form,
    including the volume term c0*|B_R|."""
    if model.normalization != "energy" or model.p != 2.0 or model.q != 2.0:
        raise ValueError("ball_energy requires the p = q = 2 energy form")
    if callable(model.f) or callable(model.beta1):
        raise TypeError("ball_energy requires constant f and beta1")
    if R == 0.0:
        return 0.0
    f, L, beta = float(model.f), model.L, float(model.beta1)
    if f == 0.0:
        return model.c0 * ball_volume(d, R)
    # minimizer solves -L lap u = f with L du/dn + beta u = 0; at the
    # minimum the quadratic part collapses to -1/2 (f, u)
    int_u = _integral_poisson(d, R, f / L, beta / L)
    return -0.5 * f * int_u + model.c0 * ball_volume(d, R)


def optimal_radius_scan(model: IntegrandModel, d: int, R_max: float,
                        n_samples: int = 512) -> tuple[float, float]:
    """Grid scan of ball_energy over R in [0, R_max]; first minimum wins."""
    if R_max <= 0 or n_samples < 2:
        raise ValueError("R_max must be positive and n_samples >= 2")
    radii = np.linspace(0.0, R_max, n_samples)
    vals = np.array([ball_energy(model, d, float(R)) for R in radii])
    k = int(np.argmin(vals))
    return float(radii[k]), float(vals[k])
