"""Verification batteries behind the `verify` command.

Each suite returns a dict with "passed", CSV-ready "rows" (header first),
a text "summary", and optionally a "failing" payload for replay.  All
randomness flows through Philox keyed by the suite seed, so reruns with the
same configuration are byte-identical.  Each battery fixes its model,
exponents and meshes: the Poincare battery checks the exponent-2 bound
(p = alpha = 2), the reduction battery one p = q = 2 model.  A caller sets
only sizes, seeds, the Robin coefficient and pass thresholds.
"""

from __future__ import annotations

import math

import numpy as np

from .model import IntegrandModel
from .pdesolve import SolverConfig, grid_robin_eigenvalue
from .radial import (RadialEigenvalueQuery, robin_eigenvalues_ball,
                     shoot_eigenvalues)
from .sbvgrid import (Grid, SbvField, ShapeMask, _poincare_ratios,
                      reduction_check, support_jumps)


def _poincare_fields(rng, grid, trials):
    """Seeded 1d test fields: rectangular plateaus, smooth bumps, and
    piecewise-constant fields with flagged internal jumps: the families, the
    (trials, n) values and the (trials, n + 1) internal jump flags."""
    n = grid.n
    families = []
    values = np.zeros((trials, n))
    extra = np.zeros((trials, n + 1), dtype=bool)
    for trial in range(trials):
        fam = ("rect", "bump", "jumpy")[int(rng.integers(0, 3))]
        length = int(rng.integers(3, n - 2))
        i0 = int(rng.integers(1, n - length))
        v = float(rng.uniform(0.2, 3.0))
        row = values[trial]
        if fam == "rect":
            row[i0:i0 + length] = v
        elif fam == "bump":
            t = (np.arange(length) + 0.5) / length
            row[i0:i0 + length] = v * np.sin(math.pi * t)
        else:
            pieces = int(rng.integers(2, 5))
            cuts = sorted(set(int(c) for c in
                              rng.integers(1, length, size=pieces - 1)))
            lo = 0
            for cut in cuts + [length]:
                row[i0 + lo:i0 + cut] = float(rng.uniform(0.2, 3.0))
                if lo > 0:
                    extra[trial, i0 + lo] = True
                lo = cut
        families.append(fam)
    return families, values, extra


# the equality case's extrapolated ratio is low by at most about b h^2
# (1 - ratio measured at 0.90 to 1.00 times b h^2 for n = 64 to 1024 and
# b h = 1 to 16), so the default grid keeps b h^2 within half the default
# tolerance, up to the largest grid the CLI takes
POINCARE_BH2 = 0.01
POINCARE_MAX_N = 4096
# fields per face pass of the battery: at n = 128 each temporary of a pass
# stays near 128 KB, where one pass over 1000 fields held about 6 MB at once
POINCARE_ROWS = 128


def poincare_default_n(b: float) -> int:
    """Smallest n = 128 * 2**k with b h^2 <= POINCARE_BH2 (h = 1/n), capped
    at POINCARE_MAX_N."""
    n = 128
    while n < POINCARE_MAX_N and b > POINCARE_BH2 * n * n:
        n *= 2
    return n


def poincare_suite(trials: int = 1000, n: int | None = None,
                   seed: int = 20240501, b: float = 1.0,
                   min_ratio: float = 0.99, eq_tol: float = 0.02) -> dict:
    """Ball lower bound on seeded discrete fields plus the equality case, at
    exponent 2 (p = alpha = 2) against the shooting eigenvalue on a radial
    mesh of 768 nodes.  The default n follows b (poincare_default_n)."""
    if n is None:
        n = poincare_default_n(b)
    grid = Grid(1, n, 1.0 / n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    # every support is k whole cells, a ball of radius k*h/2: one batched
    # solve covers every size (the oracle cache)
    lams = shoot_eigenvalues(1, np.arange(1, n + 1) * grid.h / 2.0,
                             np.full(n, b), 768)

    # the battery drawn and scored POINCARE_ROWS fields at a time, each
    # chunk by one face pass; a field is built only for the replay
    rows = [("trial", "family", "m", "ratio")]
    min_seen = (np.inf, None, None)
    for first in range(0, trials, POINCARE_ROWS):
        families, values, extra = _poincare_fields(
            rng, grid, min(POINCARE_ROWS, trials - first))
        jumps = support_jumps(grid, values)[0] | extra
        ratios = _poincare_ratios(grid, values, (jumps,), b, 2.0, 2.0,
                                  lambda count: lams[count - 1])
        ms = np.count_nonzero(values, axis=1) * grid.cell_volume
        rows += [(first + i, fam, repr(m), repr(ratio)) for i, (fam, m, ratio)
                 in enumerate(zip(families, ms.tolist(), ratios.tolist()))]
        k = int(np.argmin(ratios))  # the first of the chunk's lowest ratios
        if ratios[k] < min_seen[0]:
            min_seen = (float(ratios[k]), values[k], (jumps[k],))

    # equality case: the matched ball's eigenfunction on k cells of the grid
    # and on 2k of half the spacing (same ball, same lam); the row holds the
    # Richardson value 2 r(h/2) - r(h), free of the first-order trace error
    k = n // 2
    lam = float(lams[k - 1])

    def eigenfunction(g, cells):
        values, i0 = np.zeros(g.n), (g.n - cells) // 2
        t = (np.arange(cells) + 0.5 - cells / 2) * g.h  # from the centre
        values[i0:i0 + cells] = np.cos(math.sqrt(lam) * t)
        return values

    def ratio(g, cells):  # both supports are the ball of k cells of grid
        values = eigenfunction(g, cells)[None]
        return float(_poincare_ratios(g, values, support_jumps(g, values), b,
                                      2.0, 2.0, lambda count: lam)[0])

    r_h = ratio(grid, k)
    r_half = ratio(Grid(1, 2 * n, grid.h / 2), 2 * k)
    eq_ratio = 2.0 * r_half - r_h
    rows.append(("eq", "eigenfunction", repr(k * grid.h), repr(eq_ratio)))

    floor_ok = min_seen[0] >= min_ratio
    passed = floor_ok and abs(eq_ratio - 1.0) <= eq_tol
    summary = (f"min ratio {min_seen[0]:.6f} over {trials} fields "
               f"(floor {min_ratio}); eigenfunction ratio {r_h:.6f} at h, "
               f"{r_half:.6f} at h/2, extrapolated {eq_ratio:.6f} "
               f"(tolerance {eq_tol})")
    bh2 = b * grid.h ** 2
    if not passed and bh2 > POINCARE_BH2:
        summary += (f"; b h^2 = {bh2:.4g} > {POINCARE_BH2} at n = {n}: the grid "
                    f"does not resolve the boundary layer"
                    + (f" (n = {POINCARE_MAX_N} is the largest grid)"
                       if n >= POINCARE_MAX_N else ""))
    return {
        "name": "poincare",
        "passed": bool(passed),
        "rows": rows,
        "summary": summary,
        "failing": None if passed else (
            SbvField.from_values(grid, eigenfunction(grid, k)) if floor_ok
            else SbvField(grid, *min_seen[1:])),
    }


def reduction_suite(trials: int = 100, n: int = 64, seed: int = 20240502,
                    gap_floor: float = -1e-8) -> dict:
    """F(u) >= J({u != 0}) on random fields over random supports, for the
    p = q = 2 energy-normalized model with L = c0 = f = beta1 = 1."""
    model = IntegrandModel(p=2, q=2, L=1.0, c0=1.0, f=1.0, beta1=1.0,
                           normalization="energy")
    grid = Grid(1, n, 1.0 / n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = [("trial", "support_cells", "gap")]
    worst = (np.inf, None)
    for trial in range(trials):
        support = rng.random(n) < 0.5
        values = np.where(support, rng.uniform(0.2, 2.5, size=n), 0.0)
        field = SbvField.from_values(grid, values)
        gap = reduction_check(model, field, SolverConfig())
        rows.append((trial, int(np.count_nonzero(support)), repr(gap)))
        if gap < worst[0]:
            worst = (gap, field)
    passed = worst[0] >= gap_floor
    return {
        "name": "reduction",
        "passed": bool(passed),
        "rows": rows,
        "summary": f"min gap {worst[0]:.3e} over {trials} trials (floor {gap_floor:g})",
        "failing": None if passed else worst[1],
    }


def scaling_suite(rel_tol: float = 1e-6) -> dict:
    """Change-of-variables identity lam_{b,q}(tB) = t^-q lam_{b t^(q-1),q}(B)
    plus strict radius monotonicity of the exponent-2 eigenvalue at 20 radii
    in [0.3, 3].  Per dimension, eigenvalues only: one shooting batch (mesh
    1024) for q = 2 and the radii, one lockstep descent (mesh 192) for q = 3."""
    rows = [("check", "d", "q", "t_or_R", "value", "reference", "rel_err")]
    worst = 0.0
    ok = True
    ts, radii = (0.5, 2.0, 3.0), np.linspace(0.3, 3.0, 20)
    cases = [(d, q, t) for d in (1, 2) for q in (2.0, 3.0) for t in ts]
    # per t, the ball tB at b = 1 and the ball B at b = t^(q-1)
    balls = {q: [(R, b) for t in ts for R, b in ((t, 1.0), (1.0, t ** (q - 1.0)))]
             for q in (2.0, 3.0)}
    R2, b2 = np.array(balls[2.0]).T
    shot = {d: shoot_eigenvalues(d, np.concatenate([R2, radii]),
                                 np.concatenate([b2, np.ones(20)]), 1024)
            for d in (1, 2)}
    sols = robin_eigenvalues_ball([RadialEigenvalueQuery(
        d=d, R=R, b=b, grad_exp=3.0, denom_exp=3.0, mesh_n=192)
        for d in (1, 2) for R, b in balls[3.0]])
    lams = [lam for d in (1, 2) for lam in  # in the order of cases
            shot[d][:6].tolist() + [s.lam for s in sols[6 * d - 6:6 * d]]]
    for k, (d, q, t) in enumerate(cases):
        lt, lb = lams[2 * k], lams[2 * k + 1]
        ref = t ** (-q) * lb
        rel = abs(lt - ref) / abs(ref)
        worst = max(worst, rel)
        ok &= rel <= rel_tol
        rows.append(("identity", d, q, t, repr(lt), repr(ref), repr(rel)))
    for d in (1, 2):
        mono = bool(np.all(np.diff(shot[d][6:]) < 0))
        ok &= mono
        for R, lam in zip(radii, shot[d][6:]):
            rows.append(("monotone", d, 2.0, repr(float(R)), repr(float(lam)),
                         "", ""))
        rows.append(("monotone-strict", d, 2.0, "", str(mono), "", ""))
    return {
        "name": "scaling",
        "passed": bool(ok),
        "rows": rows,
        "summary": f"worst identity rel err {worst:.2e} (tol {rel_tol:g}); "
                   f"radius monotonicity {'holds' if ok else 'VIOLATED'}",
        "failing": None,
    }


def ball_minimality_suite(ns=(128, 256), b: float = 1.0) -> dict:
    """Grid eigensolver comparison on a box of side 1.5: the disc beats the
    square of equal area.  The Richardson row extrapolates the margin to
    h = 0 at first order from the first and last of ns, which must differ."""
    if ns[0] == ns[-1]:
        raise ValueError(f"ball-minimality needs different first and last "
                         f"grid sizes, got {tuple(ns)}")
    rows = [("n", "lambda_disc", "lambda_square", "margin")]
    margins = []
    for n in ns:
        grid = Grid(2, n, 1.5 / n)
        k = round(1.0 / grid.h)
        side = k * grid.h
        R = side / math.sqrt(math.pi)
        c = (0.75, 0.75)
        i0 = (n - k) // 2
        sq = ShapeMask(grid, np.zeros((n, n), dtype=bool))
        sq.cells[i0:i0 + k, i0:i0 + k] = True
        disc = ShapeMask.disc(grid, c, R)
        lam_d, _ = grid_robin_eigenvalue(disc, b)
        lam_s, _ = grid_robin_eigenvalue(sq, b)
        margins.append(lam_s - lam_d)
        rows.append((n, repr(lam_d), repr(lam_s), repr(lam_s - lam_d)))
    r = ns[-1] / ns[0]  # first-order extrapolation from h to h / r
    m_ext = (r * margins[-1] - margins[0]) / (r - 1.0)
    rows.append(("richardson", "", "", repr(m_ext)))
    consistent = abs(m_ext - margins[-1]) <= 0.5 * abs(margins[-1])
    passed = all(m > 0 for m in margins) and m_ext > 0 and consistent
    return {
        "name": "ball-minimality",
        "passed": bool(passed),
        "rows": rows,
        "summary": (f"margins {[round(m, 5) for m in margins]}, Richardson "
                    f"{m_ext:.5f}; disc {'<' if passed else 'NOT <'} square"),
        "failing": None,
    }


SUITES = {
    "poincare": poincare_suite,
    "reduction": reduction_suite,
    "scaling": scaling_suite,
    "ball-minimality": ball_minimality_suite,
}
