"""Inner minimization on a fixed shape mask.

Every solver works on the mask's own m cells, read from the mask's
`MaskAssembly` (sbvgrid): the cells in compressed numbering, their
neighbour arrays with one zero sentinel for absent neighbours, and the
boundary faces as arrays.  The method follows the model's exponents.  For
p = q = 2 the face-based energy is a symmetric positive definite quadratic
solved matrix-free by conjugate gradients over the m unknowns, the operator
a gather stencil over the neighbour arrays.  Any other exponents minimize
the eta-regularized energy by damped Newton: one sparse factorization of
the Hessian per iteration, Armijo backtracking, and a stop when half the
squared Newton decrement is at most tol |E|, which bounds the energy gap to
the minimiser, or once a step no longer changes E.  The Hessian and the
grid eigensolver's matrix are one face form (`_face_matrix`), factorized by
SuperLU with the MMD_AT_PLUS_A ordering.  Zero initial guess always, and
every vector reduction is a numpy add.reduce (np.sum, or ndarray.sum in the
CG loop; BLAS calls would thread and sum in another order), so results are
reproducible bit for bit.  The CG iteration updates its vectors in place
and reuses the residual's r.r in the next step.

The face energy (`_face_energy`, `energy_of`) is the package's one discrete
functional: Lg ((u_hi - u_lo)^2/h^2 + eta^2)^(p/2) h^d per interior face,
-f u h^d per cell, and Bg (u^2 + eta^2)^(q/2) times the boundary weight
per boundary face, plus c0 |mask|.  eta is no setting but a fact of the
exponents (`_eta`): 0 at p = q = 2 and 1e-6 otherwise.  The reported J is
this energy with the solver's boundary weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import IntegrandModel
from .sbvgrid import (BOUNDARY_MODES, MaskAssembly, SbvField, ShapeMask,
                      _same_grid, mask_assembly, support_jumps)


class SolverError(RuntimeError):
    def __init__(self, msg, residual=None, iterations=None):
        super().__init__(msg)
        self.residual = residual
        self.iterations = iterations


@dataclass
class SolverConfig:
    """The method and eta follow the model's exponents (`_eta`): conjugate
    gradients for p = q = 2, where tol bounds the relative residual, and
    damped Newton otherwise, where tol bounds half the squared Newton
    decrement relative to |E|.  max_iter caps the CG or Newton iterations
    (default 10 n^d); weights picks the boundary weights."""

    tol: float = 1e-10
    max_iter: int | None = None
    weights: str = "auto"

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.weights not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary weights {self.weights!r}; "
                             f"choose from {', '.join(BOUNDARY_MODES)}")


def _eta(model: IntegrandModel) -> float:
    """The floor of the gradient magnitude and boundary trace in the
    p-Laplacian terms: 0 at p = q = 2, where the energy is quadratic, and
    1e-6 otherwise, where it keeps the Newton Hessian finite."""
    return 0.0 if model.p == 2.0 and model.q == 2.0 else 1e-6


def _robin_weights(model: IntegrandModel, asm: MaskAssembly, weights: str):
    """Robin coefficient times surface weight, per boundary face."""
    coeffs = model.bdry_coeff(asm.centers)
    if np.any(coeffs < 0):
        raise SolverError("negative Robin coefficient: indefinite assembly")
    return coeffs * asm.weights(weights)


def solve_inner(model: IntegrandModel, mask: ShapeMask,
                config: SolverConfig | None = None, return_info: bool = False):
    """Minimize the fixed-support energy on the mask's grid; returns the field
    extended by zero with jump faces exactly on the mask boundary."""
    grid = mask.grid
    if config is None:
        config = SolverConfig()
    if mask.count() == 0:
        field = SbvField.zero(grid)
        return (field, {"iterations": 0, "residual": 0.0, "mode": "empty"}) \
            if return_info else field

    eta = _eta(model)
    fvals = model.f_at(grid.centers())
    if np.min(fvals) < 0:
        warnings.warn("source term changes sign: model flagged, solver proceeds")
    asm = mask_assembly(mask)
    fc = asm.gather(fvals)
    bcw = _robin_weights(model, asm, config.weights)
    cap = config.max_iter if config.max_iter is not None else 10 * grid.n**grid.d

    if eta == 0.0:  # p = q = 2
        x, info = _solve_cg(model, asm, fc, bcw, config, cap)
    else:
        x, info = _solve_newton(model, asm, fc, bcw, eta, config, cap)
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
    """Energy, gradient and Hessian callables of the eta-regularized face
    energy over the mask's cells, without the volume term."""
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

    def hessian(x):
        dd2 = np.concatenate([((x[hi] - x[lo]) / h) ** 2 for lo, hi in asm.links])
        s2 = x[asm.inner] ** 2
        return _face_matrix(
            asm, gc * p * (dd2 + e2) ** (p / 2.0 - 2.0) * ((p - 1.0) * dd2 + e2)
            * vol / (h * h),
            bcw * q * (s2 + e2) ** (q / 2.0 - 2.0) * ((q - 1.0) * s2 + e2))

    return energy, gradient, hessian


def _face_matrix(asm, link_w, bdry_w):
    """Sparse m x m matrix (CSC) of the face form: link_w (one value per
    interior face, axis by axis as in asm.links, or one for all) times
    (e_lo - e_hi)(e_lo - e_hi)^T, plus bdry_w on the diagonal of each
    boundary face's mask cell."""
    import scipy.sparse as sp

    lo = np.concatenate([lo for lo, _ in asm.links])
    hi = np.concatenate([hi for _, hi in asm.links])
    w = np.broadcast_to(link_w, lo.shape)[:, None]
    rows = np.concatenate([np.stack([lo, hi, lo, hi], axis=1).ravel(), asm.inner])
    cols = np.concatenate([np.stack([lo, hi, hi, lo], axis=1).ravel(), asm.inner])
    vals = np.concatenate([(w * [1.0, 1.0, -1.0, -1.0]).ravel(), bdry_w])
    return sp.csc_matrix((vals, (rows, cols)), shape=(asm.m, asm.m))


def _solve_newton(model, asm, fc, bcw, eta, config, cap):
    """Damped Newton with Armijo backtracking (Boyd and Vandenberghe,
    Convex Optimization, 9.5).  At the zero start H is of order eta^(p-2),
    so for large p the first step takes hundreds of halvings."""
    import scipy.sparse.linalg as spla

    energy, gradient, hessian = _face_energy(model, asm, fc, bcw, eta)
    u = np.zeros(asm.m)
    E = energy(u)
    trace = [E]
    for it in range(cap + 1):
        g = gradient(u)
        if not np.any(g):
            res = 0.0
            break
        du = spla.splu(hessian(u), permc_spec="MMD_AT_PLUS_A").solve(-g)
        slope = float(np.sum(g * du))  # minus the squared decrement
        res = -0.5 * slope / abs(E)
        if not slope < 0:  # flat faces make H singular to rounding
            raise SolverError(f"Newton step {it + 1} is no descent direction",
                              residual=res, iterations=it)
        if res <= config.tol:
            break
        if it == cap:
            raise SolverError(f"Newton did not converge in {cap} iterations",
                              residual=res, iterations=cap)
        s, u_try = 1.0, u + du
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is inf
            while not (E_try := energy(u_try)) <= E + 0.25 * s * slope:
                s *= 0.5
                u_try = u + s * du
                if np.array_equal(u_try, u):  # the step no longer moves u
                    raise SolverError(f"Newton step {it + 1} found no decrease",
                                      residual=res, iterations=it)
        if E_try == E:  # E cannot resolve a smaller gain
            break
        u, E = u_try, E_try
        trace.append(E)
    return u, {"iterations": it, "residual": res, "mode": "newton",
               "energy_trace": trace}


def energy_of(model: IntegrandModel, mask: ShapeMask, field: SbvField,
              weights: str = "auto") -> float:
    """Face-based fixed-support energy of a field at the model's eta,
    including the volume term c0*|mask|: the solver's objective up to that
    constant, and the shape functional J when weights are the solver's; f is
    sampled on the mask's grid, which must be the field's (else ValueError)."""
    _same_grid(mask, field)
    asm = mask_assembly(mask)
    fc = asm.gather(model.f_at(mask.grid.centers()))
    energy, _, _ = _face_energy(model, asm, fc,
                                _robin_weights(model, asm, weights), _eta(model))
    return energy(asm.gather(field.values)) + model.c0 * mask.volume()


def grid_robin_eigenvalue(mask: ShapeMask, b: float, max_iter: int = 400):
    """Smallest eigenvalue of the Robin form on the mask via inverse power
    iteration on the raw Rayleigh quotient assembly (gradient coefficient 1,
    boundary coefficient b, "auto" boundary weights).  Raises SolverError
    when the eigenvalue has not settled to relative change 1e-10 within
    max_iter iterations."""
    import scipy.sparse.linalg as spla

    grid = mask.grid
    asm = mask_assembly(mask)
    if asm.m == 0:
        raise ValueError("empty mask has no eigenvalue")
    A = _face_matrix(asm, grid.h ** (grid.d - 2), b * asm.weights())
    mass = grid.cell_volume
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    x = np.ones(asm.m)
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
