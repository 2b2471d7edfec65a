"""Outer minimization over shapes by seeded cell-flip annealing.

Every re-solve scores the mask with the solver's own face energy
(`pdesolve.energy_of` at the grid's boundary weights), the one functional
the package reports.  Between re-solves the accept/reject decisions use
O(1) energy deltas computed at the frozen field, at the same eta but with
uncorrected face weights (a biased estimate of the true change).  An
addition puts the cell at the mean of its mask neighbours, and a removal is
priced as the negated addition at the cell's own value.  The trace J of
those sweeps is the last exact J plus the accepted deltas.  Best-shape
bookkeeping only trusts exact re-solved energies.  Proposals run on flat
cell indices: a cell's neighbours and the coefficients of the faces to them
are read from the grid's adjacency (`Grid.neighbours`, `Grid.side_centers`),
and each delta is a sum of Python floats in a fixed order.
All randomness flows through one counter-based Philox generator keyed by
the schedule seed: runs are bit-reproducible.

No solve and no move price is recomputed from unchanged inputs.  A
re-solve sweep with no flip accepted since the last solve keeps that
solve's field and J, since the mask is the one it solved.  A move price
depends on the frozen field and the mask at the cell and its axis
neighbours only, so each call keeps the prices it computed until a flip
at the cell or a neighbour, or a new solve, makes them stale.  Both give
bit for bit the trajectory that recomputing everything gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import IntegrandModel
from .pdesolve import SolverConfig, SolverError, _eta
from .sbvgrid import (SbvField, ShapeMask, _check_fits, bv_norm,
                      eval_shape_functional, perimeter, shape_energy)

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
        if not (0 <= self.T0 < math.inf):
            raise ValueError(f"T0 must be nonnegative and finite, got {self.T0}")
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


class ShapeOptError(RuntimeError):
    def __init__(self, msg, trace: OptimizationTrace | None = None):
        super().__init__(msg)
        self.trace = trace


def component_count(mask: ShapeMask) -> int:
    """Connected components of the mask's cells (axis neighbours): the runs
    of cells along the last axis (the components in 1d), joined where runs
    of adjacent rows overlap by a union-find on the runs.  Each round hooks
    the larger of two distinct roots to the smaller, then pointer jumping
    (parent = parent[parent]) flattens every tree, until no joined pair has
    two roots (Shiloach and Vishkin, J. Algorithms 3, 1982)."""
    width = mask.cells.shape[-1]
    x = mask.cells.ravel()

    def heads(v):  # flat indices of the set cells whose row predecessor is unset
        head = v.copy()
        head[1:] &= ~v[:-1]
        head[::width] = v[::width]
        return np.flatnonzero(head)

    starts = heads(x)
    if mask.cells.ndim == 1 or starts.size <= 1:
        return starts.size
    at = heads(x[:-width] & x[width:])  # where runs of adjacent rows overlap
    a, b = (np.searchsorted(starts, at + k, "right") - 1 for k in (0, width))
    parent = np.arange(starts.size)
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return int(np.count_nonzero(parent == np.arange(starts.size)))
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := parent[parent], parent):
            parent = up


def _band(nbrs: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Flat cells whose in-mask state differs from that of a neighbour
    (`nbrs`, the grid's neighbours), outside the box counting as out."""
    return np.flatnonzero((np.append(inside, False)[nbrs] != inside).any(axis=0))


def optimize_shape(model: IntegrandModel, init: ShapeMask,
                   sched: AnnealSchedule, solver: SolverConfig | None = None):
    """Anneal cell flips of init's grid over boundary-adjacent cells plus a
    small random teleport set; returns (best mask, its inner field, trace).
    Deterministic for a fixed seed and configuration.  Every resolve_every-th
    sweep, and the last, reports an exact J; it solves only if a flip was
    accepted since the previous solve, and repeats that solve's J otherwise."""
    grid = init.grid
    rng = np.random.Generator(np.random.Philox(key=sched.seed))
    eta = _eta(model)
    gc = model.grad_coeff
    p, q = model.p, model.q
    h, vol, wunc = grid.h, grid.cell_volume, grid.face_weight
    c0, e2, p2 = model.c0, eta * eta, p / 2.0
    ncells = grid.n**grid.d
    fvals = model.f_at(grid.centers()).reshape(-1)
    # row c of nbrs_of and bcs_of: c's neighbour and face coefficient on each
    # side, in the order of the rows of Grid.neighbours
    nbrs = grid.neighbours()
    nbrs_of, bcs_of = nbrs.T, model.bdry_coeff(grid.side_centers()).T
    trace = OptimizationTrace()

    # u, fvals and cf (a view of the mask's cells) are flat and read with
    # .item, so every term of a delta is a Python float
    mask = init.copy()
    cf = mask.cells.reshape(-1)

    def delta_toggle(c, u):
        """Frozen-energy change of flipping cell c and the new u[c].  An
        addition puts c at the mean of its mask neighbours; a removal is the
        negated addition at u[c], which IEEE negation keeps bit for bit."""
        # (value of the neighbour in the mask or None, face coefficient)
        nbs = [(u.item(nb) if nb < ncells and cf.item(nb) else None, bc)
               for nb, bc in zip(nbrs_of[c].tolist(), bcs_of[c].tolist())]
        inside = cf.item(c)
        if inside:
            v = u.item(c)
        else:
            # sequential sum and division, as np.mean of at most four terms
            v, k = 0.0, 0
            for s, _ in nbs:
                if s is not None:
                    v += s
                    k += 1
            v = v / k if k else 0.0
        # the operand order of every term is fixed: results stay bit for bit
        dE = (-fvals.item(c) * v + c0) * vol
        for s, bc in nbs:
            if s is None:
                dE += bc * abs(v) ** q * wunc
            else:
                dE += gc * (((s - v) / h) ** 2 + e2) ** p2 * vol \
                    - bc * abs(s) ** q * wunc
        return (-dE, 0.0) if inside else (dE, v)

    try:
        J_exact, field = eval_shape_functional(model, mask, solver)
    except SolverError as exc:
        raise ShapeOptError(f"initial inner solve failed: {exc}", trace) from exc
    u = field.values.flatten()
    # prices[c] is delta_toggle(c, u) at the current u and mask; a flip at c
    # makes stale the prices of c and its neighbours, and a solve all of them
    prices = {}
    flips = 0  # accepted since the last solve
    best = (J_exact, mask.copy(), field)
    trace.best_J.append(J_exact)
    E_frozen = J_exact
    trace.add(0, J_exact, mask.volume(), perimeter(mask),
              _essinf(u, cf), float(np.max(u, initial=0.0)), 0,
              component_count(mask))

    for sweep in range(1, sched.sweeps + 1):
        T = sched.T0 * sched.cooling ** (sweep - 1)
        cand = set(_band(nbrs, cf).tolist())
        k = max(1, int(round(sched.teleport_frac * ncells)))
        cand.update(rng.integers(0, ncells, size=k).tolist())
        # sorted flat indices are in the order of sorted (i, j) tuples
        order = sorted(cand)
        rng.shuffle(order)
        accepted = 0
        for c in order:
            price = prices.get(c)
            if price is None:
                price = prices[c] = delta_toggle(c, u)
            dE, u_new = price
            if dE < 0.0:
                ok = True
            elif dE == 0.0:
                ok = (T > 0.0) and (rng.random() < 0.5)
            elif T > 0.0:
                ok = rng.random() < math.exp(-dE / T)
            else:
                ok = False
            if ok:
                cf[c] = not cf.item(c)
                u[c] = u_new
                E_frozen += dE
                accepted += 1
                del prices[c]
                for nb in nbrs_of[c].tolist():
                    prices.pop(nb, None)
        flips += accepted
        J_report = E_frozen
        if sweep % sched.resolve_every == 0 or sweep == sched.sweeps:
            if flips:
                try:
                    J_exact, field = eval_shape_functional(model, mask, solver)
                except SolverError as exc:
                    raise ShapeOptError(
                        f"inner solve failed at sweep {sweep}: {exc}",
                        trace) from exc
                u = field.values.flatten()
                prices.clear()
                flips = 0
                E_frozen = J_exact
                if J_exact < best[0]:
                    best = (J_exact, mask.copy(), field)
            trace.best_J.append(min(trace.best_J[-1], J_exact))
            J_report = J_exact
        trace.add(sweep, J_report, mask.volume(), perimeter(mask),
                  _essinf(u, cf), float(np.max(u, initial=0.0)), accepted,
                  component_count(mask))
    return best[1], best[2], trace


def _essinf(u, cells):
    return float(np.min(u[cells])) if np.any(cells) else 0.0


def diagnostics(model: IntegrandModel, mask: ShapeMask, field: SbvField) -> dict:
    """Scalar summary of an inner-minimized shape: energy, volume, boundary
    measure, field bounds and BV norm.  The energy is `shape_energy` (the
    solver's face energy) and, with the boundary measure, uses the grid's
    boundary weights.  The field vanishes off the mask and no weight
    exceeds h^(d-1), so the boundary faces alone give BV >= ess inf u * P:
    the perimeter bound holds once ess inf u > 0.  A field that does not fit
    the mask raises ValueError."""
    _check_fits(mask, field)
    if mask.count() == 0:
        return {"J": 0.0, "volume": 0.0, "perimeter": 0.0, "ess_inf_support": 0.0,
                "sup": 0.0, "components": 0, "bv_norm": 0.0,
                "perimeter_bound_ok": True}
    essinf = _essinf(field.values, mask.cells)
    return {
        "J": shape_energy(model, mask, field),
        "volume": mask.volume(),
        "perimeter": perimeter(mask),
        "ess_inf_support": essinf,
        "sup": float(np.max(field.values)),
        "components": component_count(mask),
        "bv_norm": bv_norm(field),
        "perimeter_bound_ok": essinf > 0,
    }
