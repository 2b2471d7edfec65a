"""Outer minimization over shapes by seeded cell-flip annealing.

Between full inner re-solves the accept/reject decisions use O(1) energy
deltas computed at the frozen field (a biased estimate of the true change);
best-shape bookkeeping only trusts exact re-solved energies, so reported
results stay unbiased.  All randomness flows through one counter-based
Philox generator keyed by the schedule seed: runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import ndimage

from .model import IntegrandModel
from .pdesolve import SolverConfig, SolverError, solve_inner
from .sbvgrid import (Grid, SbvField, ShapeMask, bv_norm, mask_assembly,
                      perimeter, shape_energy)

TRACE_COLUMNS = ("sweep", "J", "volume", "perimeter", "ess_inf", "sup",
                 "accepted_flips", "components")


@dataclass
class AnnealSchedule:
    T0: float
    cooling: float
    sweeps: int
    resolve_every: int = 5
    seed: int = 0
    teleport_frac: float = 0.01

    def __post_init__(self):
        if self.T0 < 0:
            raise ValueError("T0 must be nonnegative")
        if not (0.0 < self.cooling < 1.0):
            raise ValueError("cooling factor must lie in (0, 1)")
        if self.resolve_every < 1:
            raise ValueError("resolve_every must be >= 1")
        if self.sweeps < 0:
            raise ValueError("sweeps must be nonnegative")


@dataclass
class OptimizationTrace:
    rows: list = dc_field(default_factory=list)   # tuples in TRACE_COLUMNS order
    best_J: list = dc_field(default_factory=list)  # best exact J per snapshot

    def add(self, *row):
        self.rows.append(tuple(float(v) if isinstance(v, (float, np.floating))
                               else int(v) for v in row))

    def csv_rows(self):
        return [TRACE_COLUMNS] + [tuple(repr(v) if isinstance(v, float) else str(v)
                                        for v in row) for row in self.rows]


class ShapeOptError(RuntimeError):
    def __init__(self, msg, trace: OptimizationTrace | None = None):
        super().__init__(msg)
        self.trace = trace


def component_count(mask: ShapeMask) -> int:
    if mask.count() == 0:
        return 0
    _, k = ndimage.label(mask.cells)
    return int(k)


def _neighbor_table(grid: Grid):
    """For each cell, its (neighbor cell | None, face) pairs per direction."""
    # built lazily per query; cells are index tuples
    def neighbors(cell):
        out = []
        if grid.d == 1:
            (i,) = cell
            out.append(((i - 1,) if i > 0 else None, (0, i)))
            out.append(((i + 1,) if i < grid.n - 1 else None, (0, i + 1)))
        else:
            i, j = cell
            out.append(((i - 1, j) if i > 0 else None, (0, i, j)))
            out.append(((i + 1, j) if i < grid.n - 1 else None, (0, i + 1, j)))
            out.append(((i, j - 1) if j > 0 else None, (1, i, j)))
            out.append(((i, j + 1) if j < grid.n - 1 else None, (1, i, j + 1)))
        return out
    return neighbors


def _face_coeff_arrays(model: IntegrandModel, grid: Grid):
    """Boundary g-coefficients sampled at every face center, per axis."""
    h, org = grid.h, grid.origin
    if grid.d == 1:
        x = org[0] + np.arange(grid.n + 1) * h
        return (model.bdry_coeff(x[:, None]),)
    xi = org[0] + np.arange(grid.n + 1) * h
    yj = org[1] + (np.arange(grid.n) + 0.5) * h
    X, Y = np.meshgrid(xi, yj, indexing="ij")
    bc0 = model.bdry_coeff(np.stack([X, Y], axis=-1))
    xi2 = org[0] + (np.arange(grid.n) + 0.5) * h
    yj2 = org[1] + np.arange(grid.n + 1) * h
    X2, Y2 = np.meshgrid(xi2, yj2, indexing="ij")
    bc1 = model.bdry_coeff(np.stack([X2, Y2], axis=-1))
    return bc0, bc1


def optimize_shape(model: IntegrandModel, grid: Grid, init: ShapeMask,
                   sched: AnnealSchedule, solver: SolverConfig | None = None):
    """Anneal cell flips over boundary-adjacent cells plus a small random
    teleport set; returns (best mask, its inner field, trace).  Deterministic
    for a fixed seed and configuration."""
    if solver is None:
        solver = SolverConfig()
    rng = np.random.Generator(np.random.Philox(key=sched.seed))
    mode, eta = solver.resolve(model)
    gc = model.grad_coeff
    p, q = model.p, model.q
    h, vol, wunc = grid.h, grid.cell_volume, grid.face_weight
    fvals = model.f_at(grid.centers())
    bcs = _face_coeff_arrays(model, grid)
    neighbors = _neighbor_table(grid)
    trace = OptimizationTrace()

    mask = init.copy()
    cells = mask.cells

    def phi(delta):
        return gc * ((delta / h) ** 2 + eta * eta) ** (p / 2.0) * vol

    def gface(face, s):
        bc = bcs[face[0]][face[1:]] if grid.d == 2 else bcs[0][face[1]]
        return float(bc) * abs(s) ** q * wunc

    def resolve():
        fld = solve_inner(model, grid, mask, solver)
        return fld, shape_energy(model, mask, fld, solver.weights)

    def frozen_energy(u):
        # face-based energy at the frozen field plus the volume term
        asm = mask_assembly(mask)
        x = asm.gather(u)
        E = model.c0 * mask.volume() - float(np.sum(asm.gather(fvals) * x)) * vol
        for lo, hi in asm.links:
            dd = (x[hi] - x[lo]) / h
            E += float(np.sum((dd * dd + eta * eta) ** (p / 2))) * gc * vol
        g_term = model.bdry_coeff(asm.centers) * np.abs(x[asm.inner]) ** q
        return E + float(np.sum(g_term)) * wunc

    def delta_toggle(cell, u):
        inside = cells[cell]
        if inside:
            uc = u[cell]
            dE = (fvals[cell] * uc - model.c0) * vol
            for nb, face in neighbors(cell):
                if nb is not None and cells[nb]:
                    dE += gface(face, u[nb]) - phi(u[nb] - uc)
                else:
                    dE -= gface(face, uc)
            return dE, 0.0
        nbs = [nb for nb, _ in neighbors(cell) if nb is not None and cells[nb]]
        u_est = float(np.mean([u[nb] for nb in nbs])) if nbs else 0.0
        dE = (-fvals[cell] * u_est + model.c0) * vol
        for nb, face in neighbors(cell):
            if nb is not None and cells[nb]:
                dE += phi(u[nb] - u_est) - gface(face, u[nb])
            else:
                dE += gface(face, u_est)
        return dE, u_est

    def band_candidates():
        out = set()
        if grid.d == 1:
            pad = np.zeros(grid.n + 2, dtype=bool)
            pad[1:-1] = cells
            edge = pad[:-2] != pad[1:-1]
            edge |= pad[1:-1] != pad[2:]
            for i in np.nonzero(edge)[0]:
                out.add((int(i),))
        else:
            pad = np.zeros((grid.n + 2, grid.n + 2), dtype=bool)
            pad[1:-1, 1:-1] = cells
            c = pad[1:-1, 1:-1]
            edge = (c != pad[:-2, 1:-1]) | (c != pad[2:, 1:-1]) \
                | (c != pad[1:-1, :-2]) | (c != pad[1:-1, 2:])
            for i, j in zip(*np.nonzero(edge)):
                out.add((int(i), int(j)))
        return out

    try:
        field, J_exact = resolve()
    except SolverError as exc:
        raise ShapeOptError(f"initial inner solve failed: {exc}", trace) from exc
    u = field.values.copy()
    best = (J_exact, mask.copy(), field)
    trace.best_J.append(J_exact)
    E_frozen = frozen_energy(u)
    trace.add(0, J_exact, mask.volume(), perimeter(mask), _essinf(u, cells),
              float(np.max(u, initial=0.0)), 0, component_count(mask))

    ncells = grid.n**grid.d
    for sweep in range(1, sched.sweeps + 1):
        T = sched.T0 * sched.cooling ** (sweep - 1)
        cand = band_candidates()
        k = max(1, int(round(sched.teleport_frac * ncells)))
        flat = rng.integers(0, ncells, size=k)
        for fi in flat:
            cand.add((int(fi),) if grid.d == 1 else (int(fi) // grid.n, int(fi) % grid.n))
        order = sorted(cand)
        rng.shuffle(order)
        accepted = 0
        for cell in order:
            dE, u_new = delta_toggle(cell, u)
            if dE < 0.0:
                ok = True
            elif dE == 0.0:
                ok = (T > 0.0) and (rng.random() < 0.5)
            elif T > 0.0:
                ok = rng.random() < math.exp(-dE / T)
            else:
                ok = False
            if ok:
                cells[cell] = not cells[cell]
                u[cell] = u_new
                E_frozen += float(dE)
                accepted += 1
        J_report = E_frozen
        if sweep % sched.resolve_every == 0 or sweep == sched.sweeps:
            try:
                field, J_exact = resolve()
            except SolverError as exc:
                raise ShapeOptError(f"inner solve failed at sweep {sweep}: {exc}",
                                    trace) from exc
            u = field.values.copy()
            E_frozen = frozen_energy(u)
            if J_exact < best[0]:
                best = (J_exact, mask.copy(), field)
            trace.best_J.append(min(trace.best_J[-1], J_exact))
            J_report = J_exact
        trace.add(sweep, J_report, mask.volume(), perimeter(mask),
                  _essinf(u, cells), float(np.max(u, initial=0.0)), accepted,
                  component_count(mask))
    return best[1], best[2], trace


def _essinf(u, cells):
    return float(np.min(u[cells])) if np.any(cells) else 0.0


def diagnostics(model: IntegrandModel, mask: ShapeMask, field: SbvField) -> dict:
    """Scalar summary of an inner-minimized shape: energy, volume, boundary
    measure, field bounds, and the perimeter-vs-BV-norm inequality."""
    if mask.count() == 0:
        return {"J": 0.0, "volume": 0.0, "perimeter": 0.0, "ess_inf_support": 0.0,
                "sup": 0.0, "components": 0, "bv_norm": 0.0,
                "perimeter_bound_ok": True}
    essinf = _essinf(field.values, mask.cells)
    perim = perimeter(mask)
    bv = bv_norm(field)
    ok = (essinf > 0) and (perim <= bv / essinf * (1 + 1e-12))
    return {
        "J": shape_energy(model, mask, field),
        "volume": mask.volume(),
        "perimeter": perim,
        "ess_inf_support": essinf,
        "sup": float(np.max(field.values)),
        "components": component_count(mask),
        "bv_norm": bv,
        "perimeter_bound_ok": bool(ok),
    }
