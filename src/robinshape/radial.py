"""Radial oracles on balls: Robin eigenvalues, closed-form Robin-Poisson
solutions, and ball energies for the quadratic energy form.

For unit exponents 2/2/2 the first eigenvalue comes from shooting on the
radial ODE -u'' - (d-1)/r u' = lam*u with u'(R) + b*u(R) = 0, by RK4 with a
series start at the axis over a batch of columns at once.  Since the ODE is
linear in (u, u'), every walk multiplies per-column 2x2 step propagators,
built for many 64-step blocks at once: the bracket scan in lam and the
Illinois (modified regula falsi) refinement reduce each block pairwise, the
profile pass takes each block's prefix products, and the block results carry
the state forward in order.  In d = 1 the coefficient (d-1)/r is 0, so a
column's step matrices are all one matrix, and the bracket scan and the
refinement build it once and each distinct node of its block trees once.
General exponents minimize
the mesh Rayleigh quotient by projected, tridiagonally preconditioned
descent with Armijo backtracking on the quotient alone, every query and
restart of a batch in lockstep.
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

    grad_exp is the exponent on the gradient and the boundary term alike,
    which keeps the quotient homogeneous, and denom_exp the one on the
    L^alpha norm in the denominator; the quotient is
    [int |u'|^g + b oint |u|^g] / (int |u|^a)^(g/a).
    """

    d: int
    R: float
    b: float
    grad_exp: float = 2.0
    denom_exp: float = 2.0
    mesh_n: int = 1024

    def __post_init__(self):
        _check_ball(self.d, self.R, self.b, self.mesh_n)
        for e in (self.grad_exp, self.denom_exp):
            if not e > 1.0:
                raise ValueError(f"exponents must exceed 1, got {e}")


def _check_ball(d, R, b, mesh_n):
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not np.all(np.isfinite(R) & np.isfinite(b) & (R > 0.0) & (b > 0.0)):
        raise ValueError("R and b must be finite and positive")
    if mesh_n < 64:
        raise ValueError(f"mesh_n must be >= 64, got {mesh_n}")


@dataclass
class RadialSolution:
    lam: float
    profile: np.ndarray  # (m, 2) rows of (r, u(r))
    meta: dict = dc_field(default_factory=dict)


class RadialConvergenceError(RuntimeError):
    def __init__(self, msg, residual=None, query=None):
        super().__init__(msg)
        self.residual, self.query = residual, query


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


def _rk4_increment(u, v, nlam, c0, cm, c1, h, h2, h6, du, dv, x, y, z):
    # writes into du, dv the change of (u, v) over one RK4 step of u' = v,
    # v' = -lam*u - c(r)*v per step (c0, cm, c1: c at its start, midpoint and
    # end; h2 = h/2, h6 = h/6), summed term by term in the order of
    # h6 (v + 2 v2 + 2 v3 + v4); x, y and z are scratch arrays of du's shape
    np.subtract(nlam * u, np.multiply(c0, v, out=dv), out=dv)          # k1
    u2 = u + h2 * v
    np.add(v, np.multiply(h2, dv, out=x), out=x)                       # v2
    np.add(v, np.multiply(x, 2, out=du), out=du)
    np.subtract(nlam * u2, np.multiply(cm, x, out=y), out=y)           # k2
    np.add(dv, np.multiply(y, 2, out=z), out=dv)
    np.add(u, np.multiply(h2, x, out=x), out=x)                        # u3
    np.add(v, np.multiply(h2, y, out=z), out=z)                        # v3
    np.add(du, np.multiply(z, 2, out=y), out=du)
    np.subtract(np.multiply(nlam, x, out=x), np.multiply(cm, z, out=y), out=x)  # k3
    np.add(dv, np.multiply(x, 2, out=y), out=dv)
    np.add(u, np.multiply(h, z, out=y), out=y)                         # u4
    np.add(v, np.multiply(h, x, out=x), out=x)                         # v4
    np.add(du, x, out=du)
    np.subtract(np.multiply(nlam, y, out=y), np.multiply(c1, x, out=z), out=y)  # k4
    np.add(dv, y, out=dv)
    np.multiply(h6, du, out=du)
    np.multiply(h6, dv, out=dv)


def _matmul(m2, m1, out=None, t=None):
    # out = m2 @ m1 for matrices on the two leading axes; t takes a product
    return np.add(np.multiply(m2[:, :1], m1[None, 0], out=out),
                  np.multiply(m2[:, 1:], m1[None, 1], out=t), out=out)


_BLOCK = 64  # RK4 steps per propagator block; sets each block's product tree
_PASS_VALUES = 8192  # (lam, column) values per step-matrix temporary of a pass
_SCAN_VALUES = 2048  # (lam, column) pairs per scan chunk, unless a row is wider


def _propagate(lam, d, R, n, path=False):
    """(u(R), u'(R)) of the radial ODE by RK4 from the series start at r = h,
    one column per entry of lam with its own step h = R/n (R broadcasts).

    The ODE is linear in (u, u'), so each step is a 2x2 matrix I + D per
    column; D's columns are the step's increments of (1, 0) and (0, 1).  The
    walk runs in passes of whole _BLOCK-step blocks, as many as keep a
    temporary within _PASS_VALUES values (at least one; a partial last block
    is a pass of its own).  A pass builds its matrices at once and multiplies
    each block's pairwise, all blocks together; the block products then take
    the carried state forward one after another.  With path=True the
    (n+1, ...) arrays of u and u' at r = 0, h, ..., R come back instead: a
    Hillis-Steele scan turns each block's matrices into their prefix
    products, kept as I + D so the increments keep their own rounding, which
    take the carried state to each node.  All products are elementwise, so a
    column's result depends neither on its batch nor on the pass length.
    The passes write their temporaries into one workspace per call, of
    which nothing returned is a view.

    In d = 1 without path, c(r) = 0/r is exactly 0, so every step matrix of
    a column is the same M, built once.  A level of a block's pairwise tree
    then holds copies of a full node F and a last node L: an even count
    makes L @ F and F @ F, an odd one carries L up as it is.  Each distinct
    node is built once from the same operands as in the tree, so the
    products, and the carries block by block, round as the walk above does,
    bit for bit.
    """
    lam, h = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.asarray(R, dtype=float) / n)
    h2, h6 = h / 2.0, h / 6.0
    u, v = _series_start(lam, d, h)
    nlam, dm1 = -lam, d - 1.0
    # the starts (1, 0) and (0, 1) side by side on a leading axis
    starts = np.eye(2).reshape((2, 2, 1) + (1,) * lam.ndim)
    if d == 1 and not path:
        m, s = np.empty((5, 2) + lam.shape), starts[:, :, 0]
        _rk4_increment(s[0], s[1], nlam, 0.0, 0.0, 0.0, h, h2, h6, *m)
        m = np.add(s, m[:2])
        full, rest = divmod(n - 1, _BLOCK)
        for count, times in ((_BLOCK, full), (rest, min(rest, 1))):
            F = L = m
            while count > 1:
                if count % 2 == 0:  # the last pair is L @ F
                    L = _matmul(L, F)
                F, count = _matmul(F, F), (count + 1) // 2
            for _ in range(times):
                u, v = L[:, 0] * u + L[:, 1] * v
        return u, v
    per_pass = max(1, _PASS_VALUES // (_BLOCK * lam.size)) * _BLOCK
    # the step matrices, and two regions for the node sums, the RK4 stages
    # and the products, each of four (steps + 1)-node arrays
    size = 4 * (min(per_pass, n) + 1) * lam.size
    mats, one, two = np.empty((3, size))

    def take(region, *shape):  # the front of a region, shaped
        shape += lam.shape
        return region[:math.prod(shape)].reshape(shape)

    if path:
        uv = np.empty((2, n + 1) + lam.shape)
        uv[0, 0], uv[1, 0], uv[0, 1], uv[1, 1] = 1.0, 0.0, u, v
    r, first = h, 1
    while first < n:
        steps = min(per_pass, n - first)
        steps = steps - steps % _BLOCK or steps
        # nodes r_first .. r_(first+steps), summed one h at a time
        nodes, rs = take(one, steps + 1), take(two, steps + 1)
        nodes[0], nodes[1:] = r, h
        np.add.accumulate(nodes, out=rs)
        cr, cm = take(one, steps + 1), take(one[size // 4:], steps)
        np.divide(dm1, rs, out=cr)
        np.divide(dm1, np.add(rs[:-1], h2, out=cm), out=cm)
        r = rs[-1].copy()
        # m[i, j]: the increments of u (i = 0) and u' (i = 1) from start j
        m = take(mats, 2, 2, steps)
        _rk4_increment(starts[0], starts[1], nlam, cr[:-1], cm, cr[1:], h, h2,
                       h6, m[0], m[1], take(one[size // 2:], 2, steps),
                       take(two, 2, steps), take(two[size // 2:], 2, steps))
        # (2, 2, blocks, steps per block) + column shape: each block reduces
        # along axis 3 on its own
        bs = min(steps, _BLOCK)
        m = m.reshape((2, 2, -1, bs) + lam.shape)
        nb = m.shape[2]
        if path:
            k = 1
            while k < bs:
                # (I + D2)(I + D1) = I + D1 + D2 + D2 D1, D2 the k steps after D1
                new, t = take(one, 2, 2, nb, bs - k), take(two, 2, 2, nb, bs - k)
                _matmul(m[:, :, :, k:], m[:, :, :, :-k], new, t)
                np.add(np.add(m[:, :, :, :-k], m[:, :, :, k:], out=t), new, out=new)
                m[:, :, :, k:] = new
                k *= 2
            for j in range(nb):
                rows = slice(first + 1 + j * bs, first + 1 + (j + 1) * bs)
                step = _matmul(m[:, :, j], uv[:, None, None, rows.start - 1],
                               take(one, 2, 1, bs), take(two, 2, 1, bs))
                np.add(uv[:, None, rows.start - 1], step[:, 0], out=uv[:, rows])
        else:
            np.add(starts[:, :, None], m, out=m)
            into = one  # a level writes into the region it does not read
            while m.shape[3] > 1:
                # M[2k+1] @ M[2k]; an odd last matrix moves up a level unchanged
                k = m.shape[3] // 2 * 2
                p = take(into, 2, 2, nb, (m.shape[3] + 1) // 2)
                _matmul(m[:, :, :, 1:k:2], m[:, :, :, 0:k:2], p[:, :, :, :k // 2],
                        take(two, 2, 2, nb, k // 2))
                p[:, :, :, k // 2:] = m[:, :, :, k:]
                m, into = p, (mats if into is one else one)
            for j in range(nb):
                u, v = m[:, 0, j, 0] * u + m[:, 1, j, 0] * v
        first += steps
    return (uv[0], uv[1]) if path else (u, v)


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
    every R and b is finite and positive and mesh_n >= 64; no sign change, or
    a root still open at the step cap, raises RadialConvergenceError.
    """
    R = np.atleast_1d(np.asarray(R, dtype=float))
    b = np.broadcast_to(np.atleast_1d(np.asarray(b, dtype=float)), R.shape)
    _check_ball(d, R, b, mesh_n)

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

def _spow(x, e):
    # x**e elementwise by numpy's scalar power, which an array power can miss
    # by an ulp: each query must round as it does alone
    return np.array([v ** e for v in x.flat]).reshape(x.shape)


def _rayleigh_min(d, R, b, pg, alpha, mesh_n, max_iter=100_000, tol=1e-10):
    """Minimize the mesh Rayleigh quotient by projected preconditioned descent,
    for arrays d, R and b of queries that share (pg, alpha, mesh_n); one d
    serves every query.

    Directions come from a tridiagonal solve against the frozen linearization
    of the quotient (plain gradient steps stall far beyond the iteration cap
    on fine meshes), are l2-normalized, and pass an Armijo backtracking line
    search on the quotient alone; iterates re-project to unit nodal l^alpha
    norm.  Three restarts guard against spurious critical points; the
    smallest quotient wins, ties by restart index.  Each query x restart is a
    row; rows step in lockstep, leave as they stop and round as they would
    alone.  A row stops once the relative change of Q falls below tol, or
    when its direction does not descend (a tridiagonal model that does not
    factor gives it no direction), its line search fails or it reaches
    max_iter.  Returns (lam, r, u, infos), one entry per query.
    Any winner whose last relative change is not below tol raises, a
    non-finite one included; the first such query in order does, with its
    index as .query.
    """
    from scipy.linalg.lapack import dptsv

    R = np.atleast_1d(np.asarray(R, dtype=float))
    b = np.broadcast_to(np.atleast_1d(np.asarray(b, dtype=float)), R.shape)
    d = np.broadcast_to(np.atleast_1d(d), R.shape).tolist()  # each row's own
    N, m = mesh_n, R.size
    h = R / N
    r = np.array([np.linspace(0.0, Rj, N + 1) for Rj in R])
    rbar = np.array([(rj[:-1] + hj / 2) ** (dj - 1)  # face weights, gradient term
                     for rj, hj, dj in zip(r, h, d)])
    tw = np.repeat(h[:, None], N + 1, axis=1)       # trapezoid weights
    tw[:, 0] = tw[:, -1] = h / 2
    dw = tw * np.array([rj ** (dj - 1) for rj, dj in zip(r, d)])  # r^{d-1} dr
    spow = np.array([sphere_area(dj) ** (1.0 - pg / alpha) for dj in d])
    bR = np.array([bj * Rj ** (dj - 1) for bj, Rj, dj in zip(b.tolist(), R.tolist(), d)])

    def quotient(u, h, rbar, dw, bR, spow):  # Q and the parts its gradient reuses
        du = (u[..., 1:] - u[..., :-1]) / h[..., None]
        num = ((np.abs(du) ** pg * rbar).sum(axis=-1) * h
               + bR * _spow(np.abs(u[..., -1]), pg))
        dint = (dw * np.abs(u) ** alpha).sum(axis=-1)
        den = _spow(dint, pg / alpha)
        return spow * num / den, du, num, dint, den

    def gradient(u, du, num, dint, den, h, rbar, dw, bR, spow):
        t = pg * np.abs(du) ** (pg - 1.0) * np.sign(du) * rbar
        gn = np.zeros_like(u)
        gn[:, :-1] -= t
        gn[:, 1:] += t
        gn[:, -1] += bR * pg * _spow(np.abs(u[:, -1]), pg - 1.0) * np.sign(u[:, -1])
        gd = ((pg * _spow(dint, pg / alpha - 1.0))[:, None] * dw
              * np.abs(u) ** (alpha - 1.0) * np.sign(u))
        return (spow[:, None] * (gn * den[:, None] - num[:, None] * gd)
                / _spow(den, 2)[:, None])

    def precondition(u, Q, g, h, rbar, dw, bR, _):
        # frozen tridiagonal model: p-Laplacian linearization plus a mass
        # shift; SPD in exact arithmetic, so the preconditioned direction is
        # descent, but at extreme inputs a pivot can round to <= 0
        du = (u[:, 1:] - u[:, :-1]) / h[:, None]
        eps2 = np.array([(1e-8 * max(float(x), 1.0)) ** 2
                         for x in np.abs(du).max(axis=1)])
        c = (du * du + eps2[:, None]) ** ((pg - 2.0) / 2.0) * rbar / h[:, None]
        mass = (u * u + (eps2 * h * h)[:, None]) ** ((alpha - 2.0) / 2.0) * dw
        diag = np.zeros_like(u)
        diag[:, :-1] += c
        diag[:, 1:] += c
        diag[:, -1] += bR * _spow(_spow(u[:, -1], 2) + eps2, (pg - 2.0) / 2.0)
        diag += np.maximum(Q, 1e-30)[:, None] * mass + 1e-300
        # all rows in one solve, kept apart by zero off-diagonal entries.  A
        # row whose model does not factor keeps a nan direction, so it retires
        # as one that does not descend, and the others are solved again
        # without it (ptsv leaves the right-hand side unsolved on failure).  A
        # non-finite row spills over, so such rows are solved again alone
        off = np.concatenate([-c, np.zeros((len(c), 1))], axis=1)
        x, live = np.full_like(u, np.nan), np.arange(len(u))
        while live.size:
            xs, info = dptsv(diag[live].ravel(), off[live].ravel()[:-1],
                             -g[live].ravel())[2:]
            if info == 0:
                x[live] = xs.reshape(-1, N + 1)
                break
            live = np.delete(live, (info - 1) // (N + 1))
        for j in live[~np.isfinite(x[live]).all(axis=1)]:
            xj, info = dptsv(diag[j], -c[j], -g[j])[2:]
            x[j] = xj if info == 0 else np.nan
        return x

    def project(u):
        return u / _spow((np.abs(u) ** alpha).sum(axis=-1), 1.0 / alpha)[..., None]

    # row 3i + k starts query i from the k-th start
    start = np.random.Generator(np.random.Philox(key=0xA11CE)).uniform(0.5, 1.5, N + 1)
    U = project(np.stack([np.ones((m, N + 1)), 1.0 - 0.5 * r / R[:, None],
                          np.broadcast_to(start, (m, N + 1))], 1).reshape(3 * m, N + 1))
    consts = C = [np.repeat(a, 3, axis=0) for a in (h, rbar, dw, bR, spow)]
    Q, *parts = quotient(U, *C)
    G = gradient(U, *parts, *C)
    rows, step, change = np.arange(3 * m), np.ones(3 * m), np.full(3 * m, np.inf)
    Uf, Qf, change_f, iters_f = U.copy(), Q.copy(), change.copy(), np.zeros(3 * m, int)

    def retire(stop, it, *extra):
        # record the rows that stop at iteration it and drop them
        nonlocal rows, U, Q, G, step, change, C
        if not stop.any():
            return extra
        j, keep = rows[stop], ~stop
        Uf[j], Qf[j], change_f[j], iters_f[j] = U[stop], Q[stop], change[stop], it
        rows, U, Q, G, step, change, *C = (a[keep] for a in (rows, U, Q, G, step, change, *C))
        return [a[keep] for a in extra]

    for it in range(1, max_iter + 1):
        if not rows.size:
            break
        x = precondition(U, Q, G, *C)
        # a zero or non-finite direction has a nan slope: it stops here with
        # every row whose direction does not descend
        with np.errstate(divide="ignore", invalid="ignore"):
            dhat = x / np.sqrt(np.vecdot(x, x))[:, None]
            slope = np.vecdot(G, dhat)
        dhat, slope = retire(~(slope < 0.0), it, dhat, slope)
        # Armijo from min(1, 4 step) with up to 60 halvings, priced three at
        # a time; a row takes its first passing trial, and acc holds its
        # (step, u, Q, du, num, dint, den)
        s, pend, tried = np.minimum(1.0, 4.0 * step), np.arange(rows.size), 0
        acc = [np.empty(Q.shape + sh) for sh in ((), (N + 1,), (), (N,), (), (), ())]
        while pend.size and tried < 60:
            T = np.array([s, s * 0.5, s * 0.5 * 0.5])
            u_try = project(U[pend] + T[..., None] * dhat[pend])
            trial = (T, u_try) + quotient(u_try, *(a[pend] for a in C))
            ok = trial[2] <= Q[pend] + 1e-4 * T * slope[pend]
            hit = ok.any(axis=0)
            took = pend[hit], ok.argmax(axis=0)[hit], np.flatnonzero(hit)
            for dst, src in zip(acc, trial):
                dst[took[0]] = src[took[1:]]
            s, pend, tried = T[-1, ~hit] * 0.5, pend[~hit], tried + 3
        failed = np.zeros(rows.size, dtype=bool)
        failed[pend] = True
        step, U_new, Q_new, *parts = retire(failed, it, *acc)
        change = np.abs(Q - Q_new) / np.maximum(np.abs(Q_new), 1e-300)
        U, Q = U_new, Q_new
        parts = retire(change < tol, it, *parts)
        G = gradient(U, *parts, *C)
    retire(np.ones(rows.size, dtype=bool), max_iter)

    # flipping signs never raises the quotient; keep the positive profile
    U_abs = project(np.abs(Uf))
    Q_abs = quotient(U_abs, *consts)[0]
    flip = Q_abs <= Qf
    Uf[flip], Qf[flip] = U_abs[flip], Q_abs[flip]
    win = [min(range(3 * i, 3 * i + 3), key=Qf.__getitem__) for i in range(m)]
    for i, j in enumerate(win):
        if not change_f[j] < tol:  # a non-finite Q has a non-finite change
            raise RadialConvergenceError(
                f"Rayleigh descent did not converge: stopped after "
                f"{iters_f[j]} iterations (cap {max_iter})",
                float(change_f[j]), i)
    infos = [{"iterations": int(iters_f[j]), "residual": float(change_f[j]),
              "restart": j % 3, "restart_iterations": tuple(iters_f[j - j % 3:][:3].tolist())}
             for j in win]
    return Qf[win], r, Uf[win], infos


# ---------------------------------------------------------------------------
# public operations

def robin_eigenvalue_ball(query: RadialEigenvalueQuery) -> RadialSolution:
    """First Robin eigenvalue (and radial eigenfunction profile) of a ball."""
    return robin_eigenvalues_ball([query])[0]


def robin_eigenvalues_ball(queries) -> list[RadialSolution]:
    """robin_eigenvalue_ball for a sequence of queries, results in order.

    Unit-exponent queries that share (d, mesh_n) are shot in one batch, and
    descent queries that share (exponents, mesh_n) descend in lockstep;
    either costs little more than one query alone.  Each result equals that
    of its query on its own, and of several failing queries the first in
    order raises.
    """
    out = [None] * len(queries)
    shots, descents, failed = {}, {}, []
    for i, q in enumerate(queries):
        if q.grad_exp == q.denom_exp == 2.0:
            shots.setdefault((q.d, q.mesh_n), []).append(i)
        else:
            descents.setdefault((q.grad_exp, q.denom_exp, q.mesh_n), []).append(i)
    for (pg, alpha, n), idx in descents.items():
        try:
            qs = [queries[i] for i in idx]
            lam, r, u, infos = _rayleigh_min([q.d for q in qs], [q.R for q in qs],
                                             [q.b for q in qs], pg, alpha, n)
        except RadialConvergenceError as exc:
            failed.append((idx[exc.query], exc))
            continue
        for j, i in enumerate(idx):
            out[i] = RadialSolution(float(lam[j]), np.column_stack([r[j], u[j]]),
                                    {"method": "rayleigh-descent", **infos[j]})
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    for (d, n), idx in shots.items():
        R = np.array([queries[i].R for i in idx])
        b = np.array([queries[i].b for i in idx])
        lam = shoot_eigenvalues(d, R, b, n)
        us, vs = _propagate(lam, d, R, n, path=True)
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
    u(r) = f*(R^2 - r^2)/(2d) + f*R/(d*beta).  A profile or energy that
    overflows raises OverflowError."""
    if not (R > 0 and beta > 0):
        raise ValueError("R and beta must be positive")
    r = np.linspace(0.0, R, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        u = f_const * (R**2 - r**2) / (2.0 * d) + f_const * R / (d * beta)
    energy = -0.5 * f_const * _integral_poisson(d, R, f_const, beta)
    if not (np.isfinite(u).all() and math.isfinite(energy)):
        raise OverflowError(f"closed-form Robin-Poisson profile at R = {R!r}, "
                            f"f = {f_const!r} is not finite")
    return RadialSolution(float(energy), np.column_stack([r, u]),
                          {"method": "closed-form", "residual": 0.0})


def _integral_poisson(d: int, R: float, f_const: float, beta: float) -> float:
    # int_B u dx for the closed-form solution above
    sigma = sphere_area(d)
    return f_const * (sigma / d**2) * R ** (d + 1) * (R / (d + 2.0) + 1.0 / beta)


def ball_energy(model: IntegrandModel, d: int, R: float) -> float:
    """Minimal shape energy of the ball B_R for the quadratic energy form,
    including the volume term c0*|B_R|.  It is R^d (c0 |B_1| - k f^2 R
    (R/(d+2) + L/beta)) with k > 0: nonnegative until the bracket turns
    negative and falling after, so over [0, R_max] an end is least."""
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
