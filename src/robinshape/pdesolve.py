"""Inner minimization on a fixed shape mask.

Every solver works on the mask's own m cells, read from the mask's
`MaskAssembly` (sbvgrid): the cells in compressed numbering, their
neighbour arrays with one zero sentinel for absent neighbours, and the
boundary faces as arrays.  The method follows the model's exponents.  For
p = q = 2 the face-based energy is a symmetric positive definite quadratic
solved matrix-free by conjugate gradients over the m unknowns, the operator
a gather stencil over the neighbour arrays; any other exponents minimize
the eta-regularized energy by Polak-Ribiere nonlinear CG with Armijo
backtracking.  The grid eigensolver assembles its sparse matrix from the
same arrays.  Zero initial guess always, and every vector reduction is a
numpy add.reduce (np.sum, or ndarray.sum in the CG loop; BLAS calls would
thread and sum in another order), so results are reproducible bit for bit.
The CG iteration updates its vectors in place and reuses the residual's r.r
in the next step.

The face energy (`_face_energy`, `energy_of`) is the package's one discrete
functional: Lg ((u_hi - u_lo)^2/h^2 + eta^2)^(p/2) h^d per interior face,
-f u h^d per cell, and Bg (u^2 + eta^2)^(q/2) times the boundary weight
per boundary face, plus c0 |mask|.  The reported J is this energy with the
solver's eta and boundary weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import IntegrandModel
from .sbvgrid import (BOUNDARY_MODES, Grid, MaskAssembly, SbvField, ShapeMask,
                      mask_assembly, support_jumps)


class SolverError(RuntimeError):
    def __init__(self, msg, residual=None, iterations=None):
        super().__init__(msg)
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolverConfig:
    """tol is the relative residual (CG) or relative energy-change (descent)
    tolerance; eta floors the gradient magnitude in the p-Laplacian terms.
    The method follows the model's exponents: conjugate gradients for
    p = q = 2, where eta defaults to 0, and the nonlinear descent otherwise,
    where eta defaults to 1e-6 and must stay positive."""

    tol: float = 1e-10
    max_iter: int | None = None
    eta: float | None = None
    weights: str = "auto"

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.eta is not None and self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.weights not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary weights {self.weights!r}; "
                             f"choose from {', '.join(BOUNDARY_MODES)}")

    def resolve(self, model: IntegrandModel):
        """(mode, eta): "linear-cg" for p = q = 2, else "nonlinear-descent"."""
        linear = model.p == 2.0 and model.q == 2.0
        eta = self.eta
        if eta is None:
            eta = 0.0 if linear else 1e-6
        if not linear and eta == 0.0:
            raise ValueError("eta = 0 is only allowed at p = q = 2")
        return ("linear-cg" if linear else "nonlinear-descent"), eta


def _robin_weights(model: IntegrandModel, asm: MaskAssembly, weights: str):
    """Robin coefficient times surface weight, per boundary face."""
    coeffs = model.bdry_coeff(asm.centers)
    if np.any(coeffs < 0):
        raise SolverError("negative Robin coefficient: indefinite assembly")
    return coeffs * asm.weights(weights)


def solve_inner(model: IntegrandModel, grid: Grid, mask: ShapeMask,
                config: SolverConfig | None = None, return_info: bool = False):
    """Minimize the fixed-support energy; returns the field extended by zero
    with jump faces exactly on the mask boundary."""
    if config is None:
        config = SolverConfig()
    if mask.count() == 0:
        field = SbvField.zero(grid)
        return (field, {"iterations": 0, "residual": 0.0, "mode": "empty"}) \
            if return_info else field

    mode, eta = config.resolve(model)
    fvals = model.f_at(grid.centers())
    if np.min(fvals) < 0:
        warnings.warn("source term changes sign: model flagged, solver proceeds")
    asm = mask_assembly(mask)
    fc = asm.gather(fvals)
    bcw = _robin_weights(model, asm, config.weights)
    cap = config.max_iter if config.max_iter is not None else 10 * grid.n**grid.d

    if mode == "linear-cg":
        x, info = _solve_cg(model, asm, fc, bcw, config, cap)
    else:
        x, info = _solve_descent(model, asm, fc, bcw, eta, config, cap)
    field = SbvField(grid, asm.scatter(x), support_jumps(grid, mask.cells))
    return (field, info) if return_info else field


def _solve_cg(model, asm, fc, bcw, config, cap):
    grid = asm.grid
    k2 = 2.0 * (model.grad_coeff * grid.h ** (grid.d - 2))
    diag = k2 * asm.degree + 2.0 * asm.cell_sum(bcw)
    nbrs = asm.nbrs
    ext = np.zeros(asm.m + 1)  # a vector with the zero sentinel appended

    def apply_A(p):
        ext[:-1] = p
        return diag * p - k2 * ext[nbrs].sum(axis=0)

    rhs = fc * grid.cell_volume
    bnorm = float(np.sqrt((rhs * rhs).sum()))
    u = np.zeros(asm.m)
    if bnorm == 0.0:
        return u, {"iterations": 0, "residual": 0.0, "mode": "linear-cg"}

    r = rhs.copy()
    p = r.copy()
    rr = float((r * r).sum())
    res = bnorm
    for it in range(1, cap + 1):
        Ap = apply_A(p)
        alpha = rr / float((p * Ap).sum())
        u += alpha * p
        r -= alpha * Ap
        rr_new = float((r * r).sum())
        res = float(np.sqrt(rr_new))
        if res <= config.tol * bnorm:
            return u, {"iterations": it, "residual": res / bnorm,
                       "mode": "linear-cg"}
        p *= rr_new / rr
        p += r
        rr = rr_new
    raise SolverError(f"CG did not converge in {cap} iterations",
                      residual=res / bnorm, iterations=cap)


def _face_energy(model, asm, fc, bcw, eta):
    """Energy and gradient callables of the eta-regularized face energy over
    the mask's cells, without the volume term."""
    gc = model.grad_coeff
    p, q = model.p, model.q
    h = asm.grid.h
    vol = asm.grid.cell_volume
    e2 = eta * eta

    def energy(x):
        E = 0.0
        for lo, hi in asm.links:
            dd = (x[hi] - x[lo]) / h
            E += gc * float(np.sum((dd * dd + e2) ** (p / 2.0))) * vol
        E -= float(np.sum(fc * x)) * vol
        s = x[asm.inner]
        return E + float(np.sum(bcw * (s * s + e2) ** (q / 2.0)))

    def gradient(x):
        g = -fc * vol
        for lo, hi in asm.links:
            dd = (x[hi] - x[lo]) / h
            t = gc * p * (dd * dd + e2) ** (p / 2.0 - 1.0) * dd / h * vol
            g[lo] -= t
            g[hi] += t
        s = x[asm.inner]
        return g + asm.cell_sum(bcw * q * (s * s + e2) ** (q / 2.0 - 1.0) * s)

    return energy, gradient


def _solve_descent(model, asm, fc, bcw, eta, config, cap):
    energy, gradient = _face_energy(model, asm, fc, bcw, eta)
    u = np.zeros(asm.m)
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
    c0*|mask|: the solver's objective up to that constant, and the shape
    functional J when eta and weights are the solver's."""
    asm = mask_assembly(mask)
    fc = asm.gather(model.f_at(field.grid.centers()))
    energy, _ = _face_energy(model, asm, fc,
                             _robin_weights(model, asm, weights), eta)
    return energy(asm.gather(field.values)) + model.c0 * mask.volume()


def energy_gradient(model: IntegrandModel, mask: ShapeMask, field: SbvField,
                    eta: float = 0.0, weights: str = "auto") -> np.ndarray:
    """Assembled residual of the nonlinear objective at the given field."""
    asm = mask_assembly(mask)
    fc = asm.gather(model.f_at(field.grid.centers()))
    _, gradient = _face_energy(model, asm, fc,
                               _robin_weights(model, asm, weights), eta)
    return asm.scatter(gradient(asm.gather(field.values)))


def grid_robin_eigenvalue(grid: Grid, mask: ShapeMask, b: float,
                          max_iter: int = 400):
    """Smallest eigenvalue of the Robin form on the mask via inverse power
    iteration on the raw Rayleigh quotient assembly (gradient coefficient 1,
    boundary coefficient b, "auto" boundary weights).  Raises SolverError
    when the eigenvalue has not settled to relative change 1e-10 within
    max_iter iterations."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    asm = mask_assembly(mask)
    m = asm.m
    if m == 0:
        raise ValueError("empty mask has no eigenvalue")
    kap = grid.h ** (grid.d - 2)
    lo = np.concatenate([lo for lo, _ in asm.links])
    hi = np.concatenate([hi for _, hi in asm.links])
    # per interior face, in order: kap on both diagonals, -kap off them;
    # then b*w on the diagonal per boundary face
    rows = np.concatenate([np.stack([lo, hi, lo, hi], axis=1).ravel(), asm.inner])
    cols = np.concatenate([np.stack([lo, hi, hi, lo], axis=1).ravel(), asm.inner])
    vals = np.concatenate([np.tile([kap, kap, -kap, -kap], len(lo)),
                           b * asm.weights()])
    A = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    mass = grid.cell_volume
    lu = spla.splu(A.tocsc())
    x = np.ones(m)
    lam, change = None, np.inf
    for _ in range(max_iter):
        y = lu.solve(mass * x)
        y /= np.sqrt(mass * float(np.sum(y * y)))
        lam_new = float(np.sum(y * (A @ y))) / (mass * float(np.sum(y * y)))
        if lam is not None:
            change = abs(lam_new - lam) / abs(lam_new)
            if change <= 1e-10:
                return lam_new, asm.scatter(y)
        lam, x = lam_new, y
    raise SolverError(f"inverse iteration did not converge in {max_iter} "
                      f"iterations (relative change {change:.3e})",
                      residual=change, iterations=max_iter)
