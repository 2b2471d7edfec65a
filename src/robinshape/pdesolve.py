"""Inner minimization on a fixed shape mask.

For p = q = 2 the face-based energy is a symmetric positive definite
quadratic solved matrix-free by conjugate gradients; general exponents
minimize the eta-regularized energy by Polak-Ribiere nonlinear CG with
Armijo backtracking.  Zero initial guess always, fixed-order reductions,
so results are reproducible bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import IntegrandModel
from .sbvgrid import BOUNDARY_MODES, Grid, SbvField, ShapeMask, boundary_faces


class SolverError(RuntimeError):
    def __init__(self, msg, residual=None, iterations=None):
        super().__init__(msg)
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolverConfig:
    """tol is the relative residual (linear) or relative energy-change
    (nonlinear) tolerance; eta floors the gradient magnitude in the
    p-Laplacian terms and must stay 0 only in linear mode."""

    tol: float = 1e-10
    max_iter: int | None = None
    eta: float | None = None
    mode: str = "auto"  # "linear-cg" | "nonlinear-descent" | "auto"
    precondition: bool = False
    weights: str = "auto"

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.eta is not None and self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.mode not in ("auto", "linear-cg", "nonlinear-descent"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.weights not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary weights {self.weights!r}; "
                             f"choose from {', '.join(BOUNDARY_MODES)}")

    def resolve(self, model: IntegrandModel):
        mode = self.mode
        if mode == "auto":
            mode = "linear-cg" if (model.p == 2.0 and model.q == 2.0) else "nonlinear-descent"
        eta = self.eta
        if eta is None:
            eta = 0.0 if mode == "linear-cg" else 1e-6
        if mode == "nonlinear-descent" and eta == 0.0:
            raise ValueError("eta = 0 is only allowed in linear mode")
        return mode, eta


def _mask_face_data(model: IntegrandModel, grid: Grid, mask: ShapeMask,
                    weights: str):
    """Interior-face connectivity and boundary Robin weights for a mask."""
    cells = mask.cells
    conn = []
    if grid.d == 1:
        conn.append(cells[:-1] & cells[1:])
    else:
        conn.append(cells[:-1, :] & cells[1:, :])
        conn.append(cells[:, :-1] & cells[:, 1:])
    bfaces = boundary_faces(mask, weights)
    bw = np.zeros(grid.shape())
    if bfaces:
        centers = np.array([grid.face_center(f) for f, _ in bfaces])
        coeffs = model.bdry_coeff(centers)
        if np.any(coeffs < 0):
            raise SolverError("negative Robin coefficient: indefinite assembly")
        for (face, w), bc in zip(bfaces, coeffs):
            lo, hi = grid.face_cells(face)
            inner = lo if (lo is not None and cells[lo]) else hi
            bw[inner] += bc * w
    return conn, bw, bfaces


def _laplacian_apply(u, conn, grid: Grid):
    """Graph-Laplacian action over interior faces, u^T L u = sum of delta^2."""
    out = np.zeros_like(u)
    if grid.d == 1:
        d = np.where(conn[0], u[1:] - u[:-1], 0.0)
        out[:-1] -= d
        out[1:] += d
    else:
        d0 = np.where(conn[0], u[1:, :] - u[:-1, :], 0.0)
        out[:-1, :] -= d0
        out[1:, :] += d0
        d1 = np.where(conn[1], u[:, 1:] - u[:, :-1], 0.0)
        out[:, :-1] -= d1
        out[:, 1:] += d1
    return out


def solve_inner(model: IntegrandModel, grid: Grid, mask: ShapeMask,
                config: SolverConfig | None = None, return_info: bool = False):
    """Minimize the fixed-support energy; returns the field extended by zero
    with jump faces exactly on the mask boundary."""
    if config is None:
        config = SolverConfig()
    if mask.count() == 0:
        field = SbvField(grid, np.zeros(grid.shape()), frozenset())
        return (field, {"iterations": 0, "residual": 0.0, "mode": "empty"}) \
            if return_info else field

    mode, eta = config.resolve(model)
    fvals = model.f_at(grid.centers())
    if np.min(fvals) < 0:
        warnings.warn("source term changes sign: model flagged, solver proceeds")
    conn, bw, bfaces = _mask_face_data(model, grid, mask, config.weights)
    cap = config.max_iter if config.max_iter is not None else 10 * grid.n**grid.d

    if mode == "linear-cg":
        u, info = _solve_cg(model, grid, mask, fvals, conn, bw, config, cap)
    else:
        u, info = _solve_descent(model, grid, mask, fvals, conn, bw, eta,
                                 config, cap)
    jumps = frozenset(f for f, _ in bfaces)
    field = SbvField(grid, u, jumps)
    return (field, info) if return_info else field


def _solve_cg(model, grid, mask, fvals, conn, bw, config, cap):
    gc = model.grad_coeff
    kappa = gc * grid.h ** (grid.d - 2)
    cells = mask.cells
    rhs = np.where(cells, fvals, 0.0) * grid.cell_volume

    def apply_A(u):
        out = 2.0 * kappa * _laplacian_apply(u, conn, grid) + 2.0 * bw * u
        return np.where(cells, out, 0.0)

    bnorm = float(np.linalg.norm(rhs))
    u = np.zeros(grid.shape())
    if bnorm == 0.0:
        return u, {"iterations": 0, "residual": 0.0, "mode": "linear-cg"}
    if config.precondition:
        diag = 2.0 * bw.copy()
        deg = np.zeros(grid.shape())
        if grid.d == 1:
            deg[:-1] += conn[0]
            deg[1:] += conn[0]
        else:
            deg[:-1, :] += conn[0]
            deg[1:, :] += conn[0]
            deg[:, :-1] += conn[1]
            deg[:, 1:] += conn[1]
        diag += 2.0 * kappa * deg
        diag = np.where(cells & (diag > 0), diag, 1.0)
        minv = 1.0 / diag
    else:
        minv = None

    r = rhs.copy()
    z = r * minv if minv is not None else r
    p = z.copy()
    rz = float(np.sum(r * z))
    res = bnorm
    for it in range(1, cap + 1):
        Ap = apply_A(p)
        alpha = rz / float(np.sum(p * Ap))
        u = u + alpha * p
        r = r - alpha * Ap
        res = float(np.linalg.norm(r))
        if res <= config.tol * bnorm:
            return u, {"iterations": it, "residual": res / bnorm,
                       "mode": "linear-cg"}
        z = r * minv if minv is not None else r
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"CG did not converge in {cap} iterations",
                      residual=res / bnorm, iterations=cap)


def _masked_energy_grad(model, grid, mask, fvals, conn, bw_faces, eta):
    """Energy and gradient callables for the eta-regularized face energy."""
    gc = model.grad_coeff
    p, q = model.p, model.q
    h = grid.h
    vol = grid.cell_volume
    cells = mask.cells
    bfaces, bcoeffs = bw_faces
    inner_cells = []
    for face, w in bfaces:
        lo, hi = grid.face_cells(face)
        inner_cells.append(lo if (lo is not None and cells[lo]) else hi)

    def split(u):
        ds = []
        if grid.d == 1:
            ds.append(np.where(conn[0], (u[1:] - u[:-1]) / h, 0.0))
        else:
            ds.append(np.where(conn[0], (u[1:, :] - u[:-1, :]) / h, 0.0))
            ds.append(np.where(conn[1], (u[:, 1:] - u[:, :-1]) / h, 0.0))
        return ds

    def energy(u):
        E = 0.0
        for dd in split(u):
            E += gc * float(np.sum((dd * dd + eta * eta) ** (p / 2.0))) * vol
        E -= float(np.sum(np.where(cells, fvals * u, 0.0))) * vol
        for (face, w), bc, cell in zip(bfaces, bcoeffs, inner_cells):
            E += bc * (u[cell] ** 2 + eta * eta) ** (q / 2.0) * w
        return E

    def gradient(u):
        g = np.where(cells, -fvals, 0.0) * vol
        ds = split(u)
        t0 = gc * p * (ds[0] ** 2 + eta * eta) ** (p / 2.0 - 1.0) * ds[0] / h * vol
        if grid.d == 1:
            g[:-1] -= t0
            g[1:] += t0
        else:
            g[:-1, :] -= t0
            g[1:, :] += t0
            t1 = gc * p * (ds[1] ** 2 + eta * eta) ** (p / 2.0 - 1.0) * ds[1] / h * vol
            g[:, :-1] -= t1
            g[:, 1:] += t1
        for (face, w), bc, cell in zip(bfaces, bcoeffs, inner_cells):
            g[cell] += bc * q * (u[cell] ** 2 + eta * eta) ** (q / 2.0 - 1.0) \
                * u[cell] * w
        return np.where(cells, g, 0.0)

    return energy, gradient


def _bface_coeffs(model, grid, mask, weights):
    bfaces = boundary_faces(mask, weights)
    if bfaces:
        centers = np.array([grid.face_center(f) for f, _ in bfaces])
        coeffs = model.bdry_coeff(centers)
        if np.any(coeffs < 0):
            raise SolverError("negative Robin coefficient: indefinite assembly")
    else:
        coeffs = np.zeros(0)
    return bfaces, coeffs


def _solve_descent(model, grid, mask, fvals, conn, bw, eta, config, cap):
    bfc = _bface_coeffs(model, grid, mask, config.weights)
    energy, gradient = _masked_energy_grad(model, grid, mask, fvals, conn,
                                           bfc, eta)
    u = np.zeros(grid.shape())
    E = energy(u)
    g = gradient(u)
    direction = -g
    g_prev = g
    step = 1.0
    trace = [E]
    it = 0
    change = np.inf
    while it < cap:
        it += 1
        slope = float(np.sum(g * direction))
        if slope >= 0.0:
            direction = -g
            slope = float(np.sum(g * direction))
            if slope >= 0.0:
                break
        s = min(1.0, 4.0 * step) if it > 1 else step
        accepted = False
        for _ in range(60):
            u_try = u + s * direction
            E_try = energy(u_try)
            if E_try <= E + 1e-4 * s * slope:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        # polish with the one-dimensional quadratic model through
        # (0, E), slope, (s, E_try); exact for the p = 2 energy
        curv = E_try - E - slope * s
        if curv > 0.0:
            s_q = -slope * s * s / (2.0 * curv)
            if 0.0 < s_q <= 16.0 * s:
                u_q = u + s_q * direction
                E_q = energy(u_q)
                if E_q < E_try:
                    s, u_try, E_try = s_q, u_q, E_q
        step = s
        change = abs(E - E_try) / max(abs(E_try), 1e-300)
        u = u_try
        E = E_try
        trace.append(E)
        g_new = gradient(u)
        beta = max(0.0, float(np.sum(g_new * (g_new - g_prev)))
                   / max(float(np.sum(g_prev * g_prev)), 1e-300))
        if it % 50 == 0:
            beta = 0.0
        direction = -g_new + beta * direction
        g, g_prev = g_new, g_new
        if change < config.tol:
            return u, {"iterations": it, "residual": change,
                       "mode": "nonlinear-descent", "energy_trace": trace}
    if change < max(config.tol, 1e-8) or it == 0:
        return u, {"iterations": it, "residual": change,
                   "mode": "nonlinear-descent", "energy_trace": trace}
    raise SolverError(f"descent did not reach tolerance in {it} iterations",
                      residual=change, iterations=it)


def energy_of(model: IntegrandModel, mask: ShapeMask, field: SbvField,
              eta: float = 0.0, weights: str = "auto") -> float:
    """Face-based fixed-support energy of a field, including the volume term
    c0*|mask|; the solver's objective up to that constant."""
    grid = field.grid
    fvals = model.f_at(grid.centers())
    cells = mask.cells
    conn = []
    if grid.d == 1:
        conn.append(cells[:-1] & cells[1:])
    else:
        conn.append(cells[:-1, :] & cells[1:, :])
        conn.append(cells[:, :-1] & cells[:, 1:])
    bfc = _bface_coeffs(model, grid, mask, weights)
    energy, _ = _masked_energy_grad(model, grid, mask, fvals, conn, bfc, eta)
    return energy(field.values) + model.c0 * mask.volume()


def energy_gradient(model: IntegrandModel, mask: ShapeMask, field: SbvField,
                    eta: float = 0.0, weights: str = "auto") -> np.ndarray:
    """Assembled residual of the nonlinear objective at the given field."""
    grid = field.grid
    fvals = model.f_at(grid.centers())
    cells = mask.cells
    conn = []
    if grid.d == 1:
        conn.append(cells[:-1] & cells[1:])
    else:
        conn.append(cells[:-1, :] & cells[1:, :])
        conn.append(cells[:, :-1] & cells[:, 1:])
    bfc = _bface_coeffs(model, grid, mask, weights)
    _, gradient = _masked_energy_grad(model, grid, mask, fvals, conn, bfc, eta)
    return gradient(field.values)


def grid_robin_eigenvalue(grid: Grid, mask: ShapeMask, b: float,
                          weights: str = "auto", tol: float = 1e-10,
                          max_iter: int = 400):
    """Smallest eigenvalue of the Robin form on the mask via inverse power
    iteration on the raw Rayleigh quotient assembly (gradient coefficient 1,
    boundary coefficient b)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    cells = mask.cells
    m = int(np.count_nonzero(cells))
    if m == 0:
        raise ValueError("empty mask has no eigenvalue")
    idx = -np.ones(grid.shape(), dtype=np.int64)
    idx[cells] = np.arange(m)
    kap = grid.h ** (grid.d - 2)
    rows, cols, vals = [], [], []

    def add_pair(a, bb):
        rows.extend([a, bb, a, bb])
        cols.extend([a, bb, bb, a])
        vals.extend([kap, kap, -kap, -kap])

    if grid.d == 1:
        pairs = np.nonzero(cells[:-1] & cells[1:])[0]
        for i in pairs:
            add_pair(idx[i], idx[i + 1])
    else:
        ii, jj = np.nonzero(cells[:-1, :] & cells[1:, :])
        for i, j in zip(ii, jj):
            add_pair(idx[i, j], idx[i + 1, j])
        ii, jj = np.nonzero(cells[:, :-1] & cells[:, 1:])
        for i, j in zip(ii, jj):
            add_pair(idx[i, j], idx[i, j + 1])
    for face, w in boundary_faces(mask, weights):
        lo, hi = grid.face_cells(face)
        inner = lo if (lo is not None and cells[lo]) else hi
        k = idx[inner]
        rows.append(k)
        cols.append(k)
        vals.append(b * w)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    mass = grid.cell_volume
    lu = spla.splu(A.tocsc())
    x = np.ones(m)
    lam = None
    for it in range(max_iter):
        y = lu.solve(mass * x)
        y /= np.sqrt(mass * float(np.dot(y, y)))
        lam_new = float(y @ (A @ y)) / (mass * float(np.dot(y, y)))
        if lam is not None and abs(lam_new - lam) <= tol * abs(lam_new):
            lam = lam_new
            x = y
            break
        lam, x = lam_new, y
    values = np.zeros(grid.shape())
    values[cells] = x
    return lam, values
