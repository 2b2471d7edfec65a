"""Inner minimization on a fixed shape mask.

Every solver works on the mask's own m cells, read from the mask's
`MaskAssembly` (sbvgrid): the cells in compressed numbering, their
neighbour arrays with one zero sentinel for absent neighbours, and the
boundary faces as arrays.  The method follows the model's exponents.  For
p = q = 2 the face-based energy is a symmetric positive definite quadratic
solved matrix-free by conjugate gradients, the operator a gather stencil
over the neighbour arrays.  Any other exponents minimize the
eta-regularized energy by damped Newton: one sparse factorization of the
Hessian per iteration, Armijo backtracking, and a stop when half the
squared Newton decrement is at most tol |E|, which bounds the energy gap to
the minimiser, or once a step no longer changes E.  SuperLU factorizes the
Hessian (`_face_matrix`) and the grid eigensolver's matrix with the
MMD_AT_PLUS_A ordering, the eigensolver's also with supernode relaxation
off (relax=1) and four-column panels (panel_size=4), which cuts its time by
20-50% and the memory it adds by 30-40%; Newton keeps SuperLU's defaults,
which there move pinned answers in their last digits for a few
milliseconds per solve.

CG and the eigensolver run the p = 2 face form (off-diagonal -k2, diagonal
k2 degree + boundary terms) on one fold (`_fold`).  Per axis, the
reflection about the midpoint of the mask's extent is kept when it maps the
mask, that diagonal and the problem's other per-cell data onto themselves
exactly; `cell_sum` adds a cell's boundary terms in an order its mirror
image shares.  Each class of cells under the kept reflections is one
unknown with the stencil of its smallest cell, its neighbours read as their
classes, so a centred disc solves on a quarter of its cells.  For CG the
other data is the right-hand side, so the unique minimiser is
mirror-invariant and CG started at zero stays on the invariant fields: dot
products weighted by the class sizes, the same iterates and stop rule.  The
eigenvalue is exact: the form's off-diagonal entries are nonpositive, so
the ground state of each component is positive and simple
(Perron-Frobenius), and the sum of a ground state's mirror images is an
invariant one.  Zero initial guess always, and every vector reduction is a
numpy add.reduce (np.sum, or ndarray.sum in the CG loop; BLAS calls would
thread and sum in another order), so results are reproducible bit for bit.
The CG iteration updates its vectors in place and reuses the residual's r.r
in the next step.

The face energy (`_face_energy`, `energy_of`) is the package's one discrete
functional: Lg ((u_hi - u_lo)^2/h^2 + eta^2)^(p/2) h^d per interior face,
-f u h^d per cell, and Bg (u^2 + eta^2)^(q/2) times the boundary weight
per boundary face, plus c0 |mask|.  eta is no setting but a fact of the
exponents (`_eta`): 0 at p = q = 2 and 1e-6 otherwise.  A face a field
flags between two mask cells is a crack: no interior face, but a boundary
face of weight h^(d-1) on each side, a crack being a straight run.  J is
this energy with the grid's boundary weights, F(u) the same on u's support.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import IntegrandModel
from .sbvgrid import (MaskAssembly, SbvField, ShapeMask, _check_fits,
                      _face_centers, _face_sides, _flagged, mask_assembly,
                      support_jumps)

EIG_MAX_ITER = 400  # inverse iterations before grid_robin_eigenvalue gives up


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
    (default 10 n^d).  The boundary weights are the mask's grid's."""

    tol: float = 1e-10
    max_iter: int | None = None

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


def _eta(model: IntegrandModel) -> float:
    """The floor of the gradient magnitude and boundary trace in the
    p-Laplacian terms: 0 at p = q = 2, where the energy is quadratic, and
    1e-6 otherwise, where it keeps the Newton Hessian finite."""
    return 0.0 if model.p == 2.0 and model.q == 2.0 else 1e-6


def _robin_weights(model: IntegrandModel, asm: MaskAssembly):
    """Robin coefficient times the grid's surface weight, per boundary face."""
    coeffs = model.bdry_coeff(asm.centers)
    if np.any(coeffs < 0):
        raise SolverError("negative Robin coefficient: indefinite assembly")
    return coeffs * asm.weights()


def solve_inner(model: IntegrandModel, mask: ShapeMask,
                config: SolverConfig | None = None, return_info: bool = False):
    """Minimize the fixed-support energy on the mask's grid; returns the field
    extended by zero with jump faces exactly on the mask boundary.  The info
    of return_info holds "unknowns", the number of values the solver
    iterated on: fewer than the mask's cells when CG runs on mirror classes."""
    grid = mask.grid
    if config is None:
        config = SolverConfig()
    if mask.count() == 0:
        field = SbvField.zero(grid)
        return (field, {"iterations": 0, "residual": 0.0, "mode": "empty",
                        "unknowns": 0}) \
            if return_info else field

    eta = _eta(model)
    fvals = model.f_at(grid.centers())
    if np.min(fvals) < 0:
        warnings.warn("source term changes sign: model flagged, solver proceeds")
    asm = mask_assembly(mask)
    fc = asm.gather(fvals)
    bcw = _robin_weights(model, asm)
    cap = config.max_iter if config.max_iter is not None else 10 * grid.n**grid.d

    if eta == 0.0:  # p = q = 2
        x, info = _solve_cg(model, asm, fc, bcw, config, cap)
    else:
        x, info = _solve_newton(model, asm, fc, bcw, eta, config, cap)
    field = SbvField(grid, asm.scatter(x), support_jumps(grid, mask.cells))
    return (field, info) if return_info else field


def _solve_cg(model, asm, fc, bcw, config, cap):
    """CG on the mask's mirror classes (`_fold`), with dot products weighted
    by the class sizes, so the residual norm is the full one."""
    grid = asm.grid
    k2 = 2.0 * (model.grad_coeff * grid.h ** (grid.d - 2))
    rhs = fc * grid.cell_volume
    cls, reps, nbrs, diag, w = _fold(asm, k2, 2.0 * asm.cell_sum(bcw), rhs)
    k, rhs = len(reps), rhs[reps]

    def dot(a, b):  # weighted only when something folds, else plain CG
        return float(((w * a if k < asm.m else a) * b).sum())
    ext = np.zeros(k + 1)  # a vector with the zero sentinel appended

    def apply_A(p):
        ext[:-1] = p
        return diag * p - k2 * ext[nbrs].sum(axis=0)

    bnorm = float(np.sqrt(dot(rhs, rhs)))
    u = np.zeros(k)
    info = {"iterations": 0, "residual": 0.0, "mode": "linear-cg", "unknowns": k}
    if bnorm == 0.0:
        return u[cls], info

    r = rhs.copy()
    p = r.copy()
    rr = dot(r, r)
    res = bnorm
    for it in range(1, cap + 1):
        Ap = apply_A(p)
        alpha = rr / dot(p, Ap)
        u += alpha * p
        r -= alpha * Ap
        rr_new = dot(r, r)
        res = float(np.sqrt(rr_new))
        if res <= config.tol * bnorm:
            return u[cls], dict(info, iterations=it, residual=res / bnorm)
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
    interior face, axis by axis as in asm.links) times
    (e_lo - e_hi)(e_lo - e_hi)^T, plus bdry_w on the diagonal of each
    boundary face's mask cell."""
    import scipy.sparse as sp

    lo = np.concatenate([lo for lo, _ in asm.links])
    hi = np.concatenate([hi for _, hi in asm.links])
    rows = np.concatenate([np.stack([lo, hi, lo, hi], axis=1).ravel(), asm.inner])
    cols = np.concatenate([np.stack([lo, hi, hi, lo], axis=1).ravel(), asm.inner])
    vals = np.concatenate([(link_w[:, None] * [1.0, 1.0, -1.0, -1.0]).ravel(), bdry_w])
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
               "unknowns": asm.m, "energy_trace": trace}


def energy_of(model: IntegrandModel, mask: ShapeMask, field: SbvField) -> float:
    """Face-based fixed-support energy of a field at the model's eta and the
    grid's boundary weights, its cracks cut (see the module docstring), plus
    c0*|mask|: the solver's objective up to that constant, and the shape
    functional J.  f is sampled on the mask's grid; a field that does not
    fit the mask raises ValueError."""
    _check_fits(mask, field)
    asm = faces = mask_assembly(mask)
    fc = asm.gather(model.f_at(mask.grid.centers()))
    cracks = [flags & np.logical_and(*_face_sides(mask.cells, ax))
              for ax, flags in enumerate(field.jumps)]
    if any(map(np.any, cracks)):  # none in a solver's field, nor in its file
        # a crack cuts the upward link of the cell below; links, _flagged: grid order
        cut = [asm.gather(c[(slice(None),) * ax + (slice(1, None),)])[lo]
               for ax, (c, (lo, _)) in enumerate(zip(cracks, asm.links))]
        lo, hi = ([s[c] for s, c in zip(side, cut)] for side in zip(*asm.links))
        x = _face_centers(asm.grid, *_flagged(cracks))
        w = np.append(asm.weights(), np.full(2 * len(x), asm.grid.face_weight))
        faces = SimpleNamespace(  # what the face energy reads of an assembly
            grid=asm.grid, links=[(a[~c], b[~c]) for (a, b), c in zip(asm.links, cut)],
            inner=np.concatenate([asm.inner, *lo, *hi]),
            centers=np.concatenate([asm.centers, x, x]), weights=lambda: w)
    energy, _, _ = _face_energy(model, faces, fc, _robin_weights(model, faces),
                                _eta(model))
    return energy(asm.gather(field.values)) + model.c0 * mask.volume()


def _fold(asm: MaskAssembly, k2: float, bdiag, *cell_arrays):
    """The mask's mirror classes for the p = 2 face form of off-diagonal
    -k2 and diagonal k2 degree + bdiag, keeping a reflection when it maps
    that diagonal and each given per-cell array onto themselves (see the
    module docstring).  Returns each cell's class (0..k-1, in the order of
    their smallest cells), each class's smallest cell, the class neighbour
    table (k where absent), the diagonal at those cells and the sizes."""
    diag = k2 * asm.degree + bdiag
    ids = np.full(asm.grid.shape(), -1)  # the mask's numbering, -1 outside
    ids.reshape(-1)[asm.flat] = rep = np.arange(asm.m)
    for ax, pos in enumerate(np.nonzero(ids >= 0)):
        shift = pos.min() + pos.max() + 1 - asm.grid.n
        perm = np.roll(np.flip(ids, ax), shift, ax)[ids >= 0]  # -1 off the mask
        if np.all(perm >= 0) and all(np.array_equal(a[perm], a)
                                     for a in (diag, *cell_arrays)):
            rep = np.minimum(rep, rep[perm])  # the reflections commute
    first = rep == np.arange(asm.m)
    cls, reps = (np.cumsum(first) - 1)[rep], np.flatnonzero(first)
    # a C-ordered table: gathering along a Fortran-ordered one is 4x slower
    nbrs = np.ascontiguousarray(np.append(cls, len(reps))[asm.nbrs[:, reps]])
    return cls, reps, nbrs, diag[reps], np.bincount(cls).astype(float)


def grid_robin_eigenvalue(mask: ShapeMask, b: float):
    """Smallest eigenvalue of the Robin form on the mask via inverse power
    iteration on the raw Rayleigh quotient assembly (gradient coefficient 1,
    boundary coefficient b, the grid's boundary weights), and its profile
    on the grid, of unit L2 norm.  It runs on the mask's mirror classes
    (`_fold`): with A the face form, E the 0/1 matrix from cells to their
    classes and W = E^T E, it factorizes the k x k matrix S = W^-1 E^T A E,
    whose rows are the class stencils, and iterates on S y = lambda h^d y
    with the W-weighted Rayleigh quotient.  A disc or a square factorizes a
    quarter of its cells, and the eigenvalue stays exact (see the module
    docstring).  The quotient takes S y as face differences from the class
    table, bdiag_c y_c + h^(d-2) sum_j (y_c - y_j), not as S @ y, which
    cancels digits as n grows.  Raises ValueError unless b is finite and
    positive, and SolverError when the eigenvalue has not settled to
    relative change 1e-10 within EIG_MAX_ITER iterations."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if not (0 < b < np.inf):
        raise ValueError(f"b must be finite and positive, got {b}")
    grid = mask.grid
    asm = mask_assembly(mask)
    if asm.m == 0:
        raise ValueError("empty mask has no eigenvalue")
    off = grid.h ** (grid.d - 2)
    bdiag = asm.cell_sum(b * asm.weights())
    cls, reps, nbrs, diag, count = _fold(asm, off, bdiag)
    k = len(count)
    side, row = np.nonzero(nbrs < k)  # -off per table entry, duplicates summed
    S = sp.csc_matrix((np.append(diag, np.full(len(row), -off)),
                       (np.append(np.arange(k), row),
                        np.append(np.arange(k), nbrs[side, row]))), shape=(k, k))
    lu = spla.splu(S, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=4)
    bdiag = bdiag[reps]
    # per axis, the neighbour classes below and above; an absent one is c
    own = np.where(nbrs < k, nbrs, np.arange(k)).reshape(grid.d, 2, k)
    mass = grid.cell_volume
    x = np.ones(k)
    lam, change = None, np.inf
    for _ in range(EIG_MAX_ITER):
        y = lu.solve(mass * x)
        dy = sum((y - y[lo]) + (y - y[hi]) for lo, hi in own)  # as cell_sum
        Sy = bdiag * y + off * dy
        yy = float(np.sum(count * y * y))
        lam_new = float(np.sum(count * y * Sy)) / (mass * yy)
        y /= np.sqrt(mass * yy)
        if lam is not None:
            change = abs(lam_new - lam) / abs(lam_new)
            if change <= 1e-10:
                return lam_new, asm.scatter(y[cls])
        lam, x = lam_new, y
    raise SolverError(f"inverse iteration did not converge in {EIG_MAX_ITER} "
                      f"iterations (relative change {change:.3e})",
                      residual=change, iterations=EIG_MAX_ITER)
