"""Reference computations the benchmark checks the program against.

Nothing here calls robinshape: eigenvalues are roots of the transcendental
equations of the radial problems, inner solves are direct (banded or sparse)
factorizations of the face-based energy, and energies, total variation and
the field-file parser are written out from their definitions.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solveh_banded
from scipy.optimize import brentq
from scipy.special import j0, j1

J0_FIRST_ZERO = 2.404825557695773


def lambda_interval(R: float, b: float) -> float:
    """First Robin eigenvalue of (-R, R): lam = s^2 with s*tan(s*R) = b."""
    s = brentq(lambda s: s * math.tan(s * R) - b, 1e-12,
               math.pi / (2.0 * R) * (1.0 - 1e-15), xtol=1e-15, rtol=1e-15)
    return s * s


def lambda_disc(R: float, b: float) -> float:
    """First Robin eigenvalue of the disc of radius R: lam = (k/R)^2 with
    k*J1(k) = b*R*J0(k)."""
    k = brentq(lambda k: k * j1(k) - b * R * j0(k), 1e-12, J0_FIRST_ZERO,
               xtol=1e-15, rtol=1e-15)
    return (k / R) ** 2


def lambda_ball(d: int, R: float, b: float) -> float:
    return lambda_interval(R, b) if d == 1 else lambda_disc(R, b)


def disc_poisson(r, R: float, f: float, beta: float):
    """-lap u = f on the disc of radius R with beta*u + du/dn = 0."""
    return f * (R * R - r * r) / 4.0 + f * R / (2.0 * beta)


def interval_solve(fvals, h: float, L: float, beta: float) -> np.ndarray:
    """Minimizer of (L/2) sum (du/h)^2 h + (beta/2)(u_first^2 + u_last^2)
    - sum f u h over a run of cells, by a banded Cholesky solve."""
    m = len(fvals)
    diag = np.full(m, 2.0 * L / h)
    diag[0] += beta - L / h
    diag[-1] += beta - L / h
    rhs = np.asarray(fvals, dtype=float) * h
    if m == 1:
        return rhs / diag
    band = np.zeros((2, m))
    band[1] = diag
    band[0, 1:] = -L / h
    return solveh_banded(band, rhs)


def best_interval(fvals, h: float, L: float, beta: float, c0: float):
    """Exhaustive scan over every run of cells [a, b] (and the empty set) of
    J = min_u energy + c0*|run|; at the minimizer the quadratic part equals
    -1/2 sum f u h.  Returns (J, (a, b) or None)."""
    n = len(fvals)
    best = (0.0, None)
    for a in range(n):
        for b in range(a, n):
            seg = fvals[a:b + 1]
            if not np.any(seg):
                continue  # u = 0, J = c0*|run| >= 0
            u = interval_solve(seg, h, L, beta)
            J = -0.5 * float(np.dot(seg, u)) * h + c0 * (b - a + 1) * h
            if J < best[0]:
                best = (J, (a, b))
    return best


def _interior_pairs(cells):
    """Index pairs of neighbouring inside cells, one array pair per axis."""
    if cells.ndim == 1:
        i = np.nonzero(cells[:-1] & cells[1:])[0]
        return [((i,), (i + 1,))]
    out = []
    i, j = np.nonzero(cells[:-1, :] & cells[1:, :])
    out.append(((i, j), (i + 1, j)))
    i, j = np.nonzero(cells[:, :-1] & cells[:, 1:])
    out.append(((i, j), (i, j + 1)))
    return out


def robin_solve_sparse(cells, h: float, f, L: float, bdry_weight) -> np.ndarray:
    """Direct sparse solve of the p = q = 2 face energy on a mask:
    (L/2) h^(d-2) sum_interior (u_a - u_b)^2 + (1/2) sum_cells W u^2
    - h^d sum f u, where W is the Robin weight summed over each cell's
    boundary faces.  Returns the field extended by zero."""
    d = cells.ndim
    idx = -np.ones(cells.shape, dtype=np.int64)
    m = int(np.count_nonzero(cells))
    idx[cells] = np.arange(m)
    kap = L * h ** (d - 2)
    rows, cols, vals = [], [], []
    for lo, hi in _interior_pairs(cells):
        a, b = idx[lo], idx[hi]
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [np.full(a.size, kap), np.full(a.size, kap),
                 np.full(a.size, -kap), np.full(a.size, -kap)]
    k = np.arange(m)
    rows.append(k)
    cols.append(k)
    vals.append(bdry_weight[cells])
    A = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(m, m))
    rhs = np.broadcast_to(np.asarray(f, dtype=float), cells.shape)[cells] * h**d
    u = np.zeros(cells.shape)
    u[cells] = spla.spsolve(A.tocsc(), rhs)
    return u


def boundary_face_counts(cells) -> np.ndarray:
    """Number of boundary faces of each inside cell (zero extension)."""
    pad = np.pad(cells, 1)
    inner = tuple(slice(1, -1) for _ in range(cells.ndim))
    count = np.zeros(cells.shape, dtype=int)
    for ax in range(cells.ndim):
        for shift in (-1, 1):
            count += ~np.roll(pad, shift, axis=ax)[inner]
    return np.where(cells, count, 0)


def face_energy(u, cells, h: float, f, L: float, beta: float, p: float,
                q: float) -> float:
    """Face-based energy with uncorrected boundary weights h^(d-1):
    (L/2) sum_interior |du/h|^p h^d + (beta/2) sum_boundary |u_in|^q h^(d-1)
    - sum f u h^d (energy normalization)."""
    d = cells.ndim
    total = 0.0
    for lo, hi in _interior_pairs(cells):
        du = (u[hi] - u[lo]) / h
        total += 0.5 * L * float(np.sum(np.abs(du) ** p)) * h**d
    nb = boundary_face_counts(cells)
    total += 0.5 * beta * float(np.sum(nb * np.abs(u) ** q)) * h ** (d - 1)
    fv = np.broadcast_to(np.asarray(f, dtype=float), cells.shape)
    total -= float(np.sum(np.where(cells, fv * u, 0.0))) * h**d
    return total


def face_total_variation(u, h: float) -> float:
    """Anisotropic total variation of the zero-extended field: the sum over
    all faces of |jump| times the face measure h^(d-1)."""
    pad = np.pad(u, 1)
    tv = 0.0
    for ax in range(u.ndim):
        tv += float(np.sum(np.abs(np.diff(pad, axis=ax))))
    return tv * h ** (u.ndim - 1)


def parse_field_file(path):
    """Plain-text field file -> (n, h, values, cells); faces are skipped."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    d, n, h = int(lines[0][0]), int(lines[0][1]), float(lines[0][2])
    shape = (n,) * d
    values = np.zeros(shape)
    cells = np.zeros(shape, dtype=bool)
    for parts in lines[1:1 + n**d]:
        at = tuple(int(v) for v in parts[:d])
        values[at] = float(parts[d])
        cells[at] = parts[d + 1] == "1"
    return n, h, values, cells
