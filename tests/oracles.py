"""Independent reference computations used by the tests.

Nothing here calls into robinshape's solvers: eigenvalues come from
transcendental root-finding on the known radial solutions (cosine in 1d,
Bessel J0 in 2d, sin(kr)/r in 3d), radial ODE values from an RK4 loop one
step at a time, thresholds from extended-precision formula evaluation,
inner solves from LAPACK banded factorizations and sparse direct solves,
staircase boundary faces from a face-by-face walk over Python tuples, and
gradients, face differences and jump sums of SBV fields from loops over
single cells and faces with the pointwise bulk density eval_j, field
files from one repr per entry and a string join per line, cell
neighbours and the annealer's candidate band from padded cell arrays and
jump faces, grid Robin eigenvalues from LAPACK's tridiagonal (squares)
and dense symmetric (any 1d or 2d mask) eigensolvers, the 1d optimum over
every mask from a Viterbi pass over out/in labels, and the 1d optimum
over intervals from a damped Newton batched over them.  One
exception pins rounding rather than values: propagate_per_block repeats
radial's RK4 step formulas and products in their order.
"""

import math

import mpmath as mp
import numpy as np
from scipy.linalg import solveh_banded
from scipy.optimize import brentq
from scipy.special import j0, j1


def robin_lambda_interval(R, b):
    """First Robin eigenvalue of (-R, R): root of s*tan(s*R) = b, lam = s^2."""
    f = lambda s: s * math.tan(s * R) - b
    hi = math.pi / (2 * R) * (1 - 1e-12)
    s = brentq(f, 1e-9, hi, xtol=1e-14, rtol=1e-15)
    return s * s


def robin_lambda_disc(R, b):
    """First Robin eigenvalue of the disc of radius R: k*J1(k) = b*R*J0(k)
    for k = sqrt(lam)*R."""
    f = lambda k: k * j1(k) - b * R * j0(k)
    k = brentq(f, 1e-9, 2.404825557695772, xtol=1e-14, rtol=1e-15)
    return (k / R) ** 2


def robin_lambda_ball3(R, b):
    """First Robin eigenvalue of the 3-ball of radius R: for u = sin(kr)/r,
    x*cos(x) = (1 - b*R)*sin(x) at x = k*R, lam = k^2."""
    f = lambda x: x * math.cos(x) + (b * R - 1.0) * math.sin(x)
    x = brentq(f, 1e-9, math.pi, xtol=1e-14, rtol=1e-15)
    return (x / R) ** 2


def square_robin_eigenvalue(k, h, b):
    """Smallest Robin eigenvalue of the face form on a k x k square of cells
    of side h, k >= 2: 2 lam_min(T_k) / h^2, with T_k the 1d Robin
    tridiagonal (2 on the diagonal, -1 off it, 1 + b h at both ends), by
    LAPACK's tridiagonal eigensolver.  The form is T_k (x) I + I (x) T_k."""
    from scipy.linalg import eigvalsh_tridiagonal
    diag = np.full(k, 2.0)
    diag[[0, -1]] = 1.0 + b * h
    lam = eigvalsh_tridiagonal(diag, np.full(k - 1, -1.0),
                               select="i", select_range=(0, 0))[0]
    return 2.0 * lam / (h * h)


def rk4_radial(lam, d, R, n, path=False):
    """RK4 for the radial ODE u'' = -lam*u - (d-1)/r u', one column per entry
    of lam with its own step h = R/n (R broadcasts against lam), one step at
    a time from the regular series start at r = h.

    Returns (u(R), u'(R)); with path=True, the (n+1, ...) arrays of u and u'
    at r = 0, h, ..., R instead.
    """
    lam = np.asarray(lam, dtype=float)
    h = np.asarray(R, dtype=float) / n
    h2, h6 = h / 2.0, h / 6.0
    t, d2, d4 = lam * h * h, d + 2.0, d + 4.0
    u = 1.0 - t / (2 * d) + t * t / (8 * d * d2) - t * t * t / (48 * d * d2 * d4)
    v = (t / h) * (-1.0 / d + t / (2 * d * d2) - t * t / (8 * d * d2 * d4))
    nlam, dm1 = -lam, d - 1.0
    if path:
        us, vs = np.empty((2, n + 1) + u.shape)
        us[0], vs[0], us[1], vs[1] = 1.0, 0.0, u, v
    r = h
    c0 = dm1 / r
    for i in range(2, n + 1):
        cm, re = dm1 / (r + h2), r + h
        c1 = dm1 / re
        k1v = nlam * u - c0 * v
        u2, v2 = u + h2 * v, v + h2 * k1v
        k2v = nlam * u2 - cm * v2
        u3, v3 = u + h2 * v2, v + h2 * k2v
        k3v = nlam * u3 - cm * v3
        u4, v4 = u + h * v3, v + h * k3v
        k4v = nlam * u4 - c1 * v4
        u, v = (u + h6 * (v + 2 * v2 + 2 * v3 + v4),
                v + h6 * (k1v + 2 * k2v + 2 * k3v + k4v))
        r, c0 = re, c1
        if path:
            us[i], vs[i] = u, v
    return (us, vs) if path else (u, v)


def rk4_increment(u, v, nlam, c0, cm, c1, h, h2, h6):
    """The change of (u, v) over one RK4 step of u' = v,
    v' = -lam*u - c(r)*v, as plain array expressions; c0, cm, c1 are c at the
    start, midpoint and end of the step, h2 = h/2 and h6 = h/6."""
    k1v = nlam * u - c0 * v
    u2, v2 = u + h2 * v, v + h2 * k1v
    k2v = nlam * u2 - cm * v2
    u3, v3 = u + h2 * v2, v + h2 * k2v
    k3v = nlam * u3 - cm * v3
    u4, v4 = u + h * v3, v + h * k3v
    k4v = nlam * u4 - c1 * v4
    return h6 * (v + 2 * v2 + 2 * v3 + v4), h6 * (k1v + 2 * k2v + 2 * k3v + k4v)


def propagate_per_block(lam, d, R, n, path=False):
    """radial._propagate walked one _BLOCK-step block per loop iteration,
    with every temporary a fresh array: the same step formulas, node sums
    and per-block product tree (or prefix scan with path=True), each block
    applied to the carried (u, u') in order.  The pass-wise propagator,
    which writes its temporaries into a workspace, must equal it bit for
    bit.
    """
    from robinshape.radial import _BLOCK, _series_start

    lam, h = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.asarray(R, dtype=float) / n)
    h2, h6 = h / 2.0, h / 6.0
    u, v = _series_start(lam, d, h)
    nlam, dm1 = -lam, d - 1.0
    us, vs = [np.ones((1,) + u.shape), u[None]], [np.zeros((1,) + v.shape), v[None]]
    r = h
    for first in range(1, n, _BLOCK):
        steps = min(_BLOCK, n - first)
        # nodes r_first .. r_(first+steps), summed one h at a time
        rs = np.add.accumulate(np.concatenate(
            [r[None], np.broadcast_to(h, (steps,) + h.shape)]))
        cr = dm1 / rs
        step = (nlam, cr[:-1], dm1 / (rs[:-1] + h2), cr[1:], h, h2, h6)
        a, c = rk4_increment(1.0, 0.0, *step)
        b, e = rk4_increment(0.0, 1.0, *step)
        if path:
            k = 1
            while k < steps:
                # (I + D2)(I + D1) = I + D1 + D2 + D2 D1, D2 the k steps after D1
                a1, b1, c1, e1 = a[:-k], b[:-k], c[:-k], e[:-k]
                a2, b2, c2, e2 = a[k:], b[k:], c[k:], e[k:]
                a[k:], b[k:], c[k:], e[k:] = (
                    a1 + a2 + (a2 * a1 + b2 * c1), b1 + b2 + (a2 * b1 + b2 * e1),
                    c1 + c2 + (c2 * a1 + e2 * c1), e1 + e2 + (c2 * b1 + e2 * e1))
                k *= 2
            us.append(u + (a * u + b * v))
            vs.append(v + (c * u + e * v))
            u, v = us[-1][-1], vs[-1][-1]
        else:
            a, b, c, e = 1.0 + a, 0.0 + b, 0.0 + c, 1.0 + e
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
    return (np.concatenate(us), np.concatenate(vs)) if path else (u, v)


def threshold_formula(p, d, dps=40):
    """Admissibility threshold evaluated in extended precision."""
    with mp.workdps(dps):
        p = mp.mpf(p)
        d = mp.mpf(d)
        w = 4 * (p - 1) / ((d - 1) * p)
        inner = p + ((p - 1) ** 2 / ((d - 1) * p)) * 2 / (1 + mp.sqrt(1 + w))
        return float(max(mp.mpf(1), p / (2 * p - 1) * inner))


def threshold_from_iteration(p, d):
    """The same threshold derived the other way around: the q at which
    alpha*((q-1)/(p-1) + q/p - 1) = d/(d-1) with alpha from the iteration
    constants."""
    pprime = p / (p - 1.0)
    alpha = d * pprime / 2.0 * (1.0 + math.sqrt(1.0 + 4.0 / ((d - 1.0) * pprime)))
    g = lambda q: alpha * ((q - 1.0) / (p - 1.0) + q / p - 1.0) - d / (d - 1.0)
    return brentq(g, 1.0 + 1e-12, p, xtol=1e-14)


def slab_solution(x, ell, f=1.0, beta=1.0):
    """-u'' = f on (0, ell) with beta*u - u' = 0 at 0 and beta*u + u' = 0
    at ell."""
    return f * x * (ell - x) / 2.0 + f * ell / (2.0 * beta)


def slab_energy(ell, f=1.0, beta=1.0, c0=0.0):
    """Minimal energy of the slab: c0*ell - f^2 (ell^3/24 + ell^2/(4 beta))."""
    return c0 * ell - f * f * (ell**3 / 24.0 + ell**2 / (4.0 * beta))


def disc_poisson(r, R, f=1.0, beta=1.0):
    return f * (R * R - r * r) / 4.0 + f * R / (2.0 * beta)


def interval_robin_solve(fvals, h, beta=1.0):
    """Direct banded solve of the face-based quadratic energy on an interval
    of len(fvals) cells: (1/2) sum ((du)/h)^2 h - sum f u h + (beta/2)(u_0^2 + u_m^2)."""
    m = len(fvals)
    dmain = np.full(m, 2.0 / h)
    dmain[0] += beta - 1.0 / h
    dmain[-1] += beta - 1.0 / h
    rhs = np.asarray(fvals) * h
    if m == 1:
        return rhs / dmain
    band = np.zeros((2, m))
    band[1] = dmain
    band[0, 1:] = -1.0 / h
    return solveh_banded(band, rhs)


# ---------------------------------------------------------------------------
# staircase boundary faces and their corrected weights, face by face: a
# closed walk of directed boundary edges with the mask on the left, taking
# the left turn at saddle corners

def _boundary_face_list(mask):
    g = mask.grid
    cells = mask.cells
    faces = []
    if g.d == 1:
        pad = np.zeros(g.n + 2, dtype=bool)
        pad[1:-1] = cells
        for i in np.nonzero(pad[:-1] != pad[1:])[0]:
            faces.append((0, int(i)))
        return faces
    pad = np.zeros((g.n + 2, g.n + 2), dtype=bool)
    pad[1:-1, 1:-1] = cells
    for i, j in zip(*np.nonzero(pad[:-1, 1:-1] != pad[1:, 1:-1])):
        faces.append((0, int(i), int(j)))
    for i, j in zip(*np.nonzero(pad[1:-1, :-1] != pad[1:-1, 1:])):
        faces.append((1, int(i), int(j)))
    return sorted(faces)


# directed boundary edges: start corner, end corner, unit direction, all in
# lattice-corner coordinates; the inside of the mask stays on the left
def _directed_edge(face, cells, n):
    axis, i, j = face
    if axis == 0:
        inside_right = i < n and cells[i, j]
        if inside_right:       # normal -x, walk -y
            return (i, j + 1), (i, j), (0, -1)
        return (i, j), (i, j + 1), (0, 1)
    inside_up = j < n and cells[i, j]
    if inside_up:              # normal -y, walk +x
        return (i, j), (i + 1, j), (1, 0)
    return (i + 1, j), (i, j), (-1, 0)


_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}


def _boundary_loops(mask):
    """Ordered closed walks of the staircase boundary; each entry is a list
    of (face, start, direction)."""
    faces = _boundary_face_list(mask)
    start_map = {}
    edges = {}
    for f in faces:
        s, e, dvec = _directed_edge(f, mask.cells, mask.grid.n)
        edges[f] = (s, e, dvec)
        start_map.setdefault(s, []).append(f)
    unused = set(faces)
    loops = []
    for f0 in faces:
        if f0 not in unused:
            continue
        loop = []
        f = f0
        while True:
            unused.discard(f)
            s, e, dvec = edges[f]
            loop.append((f, s, dvec))
            cands = [c for c in start_map.get(e, ()) if c in unused or c == f0]
            if not cands:
                break
            if len(cands) == 1:
                nxt = cands[0]
            else:  # saddle corner: prefer the left turn, then straight
                pref = [_LEFT[dvec], dvec, _RIGHT[dvec]]
                nxt = None
                for want in pref:
                    for c in cands:
                        if edges[c][2] == want:
                            nxt = c
                            break
                    if nxt:
                        break
                if nxt is None:
                    nxt = cands[0]
            if nxt == f0:
                break
            f = nxt
        loops.append(loop)
    return loops


def boundary_faces_reference(mask, mode="auto"):
    """Faces of the staircase boundary with their surface weights, from a
    walk over Python tuples: the reference for sbvgrid.boundary_faces, which
    must match it exactly, faces and weights.

    mode "uncorrected" charges h^(d-1) per face.  mode "corrected" (2d)
    projects staircase faces onto a locally estimated tangent wherever the
    boundary walk shows genuine stair steps (adjacent turns of opposite
    sense), which removes the taxicab bias on smooth or diagonal boundaries
    while leaving flat runs and isolated corners exact.  "auto" picks
    corrected in 2d.
    """
    g = mask.grid
    if mode not in ("auto", "uncorrected", "corrected"):
        raise ValueError(f"unknown boundary mode {mode!r}")
    if mode == "auto":
        mode = "corrected" if g.d == 2 else "uncorrected"
    if g.d == 1 or mode == "uncorrected":
        w = g.face_weight
        return [(f, w) for f in _boundary_face_list(mask)]

    h = g.h
    out = []
    for loop in _boundary_loops(mask):
        L = len(loop)
        dirs = np.array([dv for (_, _, dv) in loop], dtype=float)
        mids = np.array([(s[0] + 0.5 * dv[0], s[1] + 0.5 * dv[1])
                         for (_, s, dv) in loop])
        if L < 8:
            out.extend((f, h) for (f, _, _) in loop)
            continue
        nxt = np.roll(dirs, -1, axis=0)
        turn = (dirs[:, 0] * nxt[:, 1] - dirs[:, 1] * nxt[:, 0]).astype(int)
        nz = np.nonzero(turn)[0]
        steppy = np.zeros(L, dtype=bool)
        if len(nz) >= 2:
            for kk, v in enumerate(nz):
                s_prev = turn[nz[kk - 1]]
                s_next = turn[nz[(kk + 1) % len(nz)]]
                if turn[v] * s_prev < 0 or turn[v] * s_next < 0:
                    steppy[v] = True
        # faces within distance 2 of a steppy vertex get tangent-projected
        P = 2
        stepmode = np.zeros(L, dtype=bool)
        for v in np.nonzero(steppy)[0]:
            for i in range(v - P + 1, v + P + 1):
                stepmode[i % L] = True
        K = min(8, (L - 1) // 2)
        for idx, (f, _, dv) in enumerate(loop):
            if not stepmode[idx] or K < 1:
                out.append((f, h))
                continue
            chord = mids[(idx + K) % L] - mids[(idx - K) % L]
            norm = float(np.hypot(chord[0], chord[1]))
            if norm == 0.0:
                out.append((f, h))
                continue
            w = h * abs(float(np.dot(dv, chord))) / norm
            out.append((f, min(h, max(0.25 * h, w))))
    return sorted(out)


def robin_face_matrix_dense(mask, b):
    """The Robin face form of a 1d or 2d mask as a dense matrix over its
    cells in grid order, summed cell pair by cell pair: h^(d-2) per interior
    face on the (e_a - e_b)(e_a - e_b)^T pattern, plus b times the
    boundary_faces_reference weight on the diagonal of each boundary face's
    mask cell."""
    cells, g = mask.cells, mask.grid
    idx = {c: k for k, c in enumerate(zip(*np.nonzero(cells)))}
    link = g.h ** (g.d - 2)
    A = np.zeros((len(idx), len(idx)))
    for c, a in idx.items():
        for ax in range(g.d):
            e = idx.get(c[:ax] + (c[ax] + 1,) + c[ax + 1:])
            if e is not None:
                A[a, a] += link
                A[e, e] += link
                A[a, e] -= link
                A[e, a] -= link
    for (axis, *pos), w in boundary_faces_reference(mask):
        # face (axis, i[, j]) lies between the cell one below along axis and
        # cell (i[, j])
        lo = tuple(k - (ax == axis) for ax, k in enumerate(pos))
        a = idx.get(lo, idx.get(tuple(pos)))
        A[a, a] += b * w
    return A


def robin_eigenvalue_dense(mask, b):
    """Smallest eigenvalue of the Robin face form on a 1d or 2d mask
    (robin_face_matrix_dense), by LAPACK's dense symmetric eigensolver, over
    the cell volume h^d."""
    A = robin_face_matrix_dense(mask, b)
    return float(np.linalg.eigvalsh(A)[0]) / mask.grid.cell_volume


def mirrored_cells(half, axes, odd, n, offset):
    """Cells of an n^d box: half (a boolean array) followed, along each axis
    in axes, by its mirror image less the image's first row where odd[axis]
    is true (so the mirror line runs through a row of cells, not between
    two), placed with its first cell at offset."""
    cells = half
    for ax in axes:
        image = np.flip(cells, ax)[(slice(None),) * ax + (slice(int(odd[ax]), None),)]
        cells = np.concatenate([cells, image], axis=ax)
    box = np.zeros((n,) * half.ndim, bool)
    box[tuple(slice(o, o + k) for o, k in zip(offset, cells.shape))] = cells
    return box


def mask_zoo(seed=2024):
    """(grid, cells) pairs that stress boundary walks and solvers: seeded
    random 2d masks (isolated cells, saddle corners, holes), masks that
    touch the box, a checkerboard, a ring, a disc, a diagonal strip, the
    empty mask, and random 1d masks."""
    from robinshape.sbvgrid import Grid
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(50):
        n = int(rng.integers(4, 21))
        out.append((Grid(2, n, 1.0 / n), rng.random((n, n)) < rng.uniform(0.15, 0.9)))
    n = 12
    grid = Grid(2, n, 1.0 / n)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    r = np.hypot(ii - 5.5, jj - 5.5)
    out += [(grid, np.ones((n, n), bool)),          # the whole box
            (grid, jj < 3),                          # a band on one box side
            (grid, (ii < 4) | (jj < 4)),             # an L in a corner
            (grid, (ii + jj) % 2 == 0),              # saddles everywhere
            (grid, (ii % 3 == 1) & (jj % 3 == 1)),   # isolated cells
            (grid, (r < 5.0) & (r > 2.0)),           # a ring around a hole
            (grid, abs(ii - jj) <= 2),               # a diagonal strip
            (grid, np.zeros((n, n), bool))]
    g64 = Grid(2, 64, 1.0 / 64, origin=(-0.5, 0.25))
    c = (np.arange(64) + 0.5) / 64
    out.append((g64, np.hypot(c[:, None] - 0.45, c[None, :] - 0.55) <= 0.3))
    for _ in range(12):
        n = int(rng.integers(4, 41))
        out.append((Grid(1, n, 1.0 / n), rng.random(n) < rng.uniform(0.2, 0.9)))
    return out


def mask_zoo_with_ends(seed=2024):
    """mask_zoo plus the empty and the full mask of a 1d and a 2d box."""
    from robinshape.sbvgrid import Grid
    out = mask_zoo(seed)
    for d, n in ((1, 9), (2, 7)):
        grid = Grid(d, n, 1.0 / n)
        out += [(grid, np.zeros(grid.shape(), bool)),
                (grid, np.ones(grid.shape(), bool))]
    return out


def components_bfs(cells):
    """Connected components of a boolean cell array under axis-neighbour
    (4-connectivity in 2d) adjacency, by a plain breadth-first search."""
    from collections import deque
    seen, count = np.zeros(cells.shape, bool), 0
    for start in zip(*np.nonzero(cells)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            cell = queue.popleft()
            for ax in range(cells.ndim):
                for step in (-1, 1):
                    nb = list(cell)
                    nb[ax] += step
                    nb = tuple(nb)
                    if (0 <= nb[ax] < cells.shape[ax] and cells[nb]
                            and not seen[nb]):
                        seen[nb] = True
                        queue.append(nb)
    return count


def robin_solve_direct(cells, h, f, gc, W):
    """Direct sparse solve of the face-based quadratic energy on a mask:
    gc * sum over interior faces of (du/h)^2 h^d - sum f u h^d
    + sum over cells of W u^2, assembled cell pair by cell pair; f is a
    constant or a grid array of cell values."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    d = cells.ndim
    idx = {c: k for k, c in enumerate(zip(*np.nonzero(cells)))}
    kap = 2.0 * gc * h ** (d - 2)
    A = sp.lil_matrix((len(idx), len(idx)))
    for c, k in idx.items():
        A[k, k] += 2.0 * W[c]
        for ax in range(d):
            nb = tuple(v + (a == ax) for a, v in enumerate(c))
            if nb in idx:
                kk = idx[nb]
                A[k, k] += kap
                A[kk, kk] += kap
                A[k, kk] -= kap
                A[kk, k] -= kap
    x = spla.spsolve(A.tocsc(), np.broadcast_to(f, cells.shape)[cells] * h**d)
    out = np.zeros(cells.shape)
    for c, k in idx.items():
        out[c] = x[k]
    return out


# ---------------------------------------------------------------------------
# SBV fields cell by cell and face by face: the loop forms of the array code

def face_tuples(jumps):
    """Flagged faces of per-axis jump arrays as sorted tuples (axis, i[, j])."""
    return [(ax, *(int(v) for v in pos)) for ax, j in enumerate(jumps)
            for pos in zip(*np.nonzero(j))]


def face_traces(field, face):
    """Values on the lower and upper side of a face (0 outside the box) and
    the face centre."""
    g = field.grid
    axis, pos = face[0], list(face[1:])
    below = list(pos)
    below[axis] -= 1
    a = float(field.values[tuple(below)]) if below[axis] >= 0 else 0.0
    b = float(field.values[tuple(pos)]) if pos[axis] < g.n else 0.0
    x = np.array([g.origin[k] + (pos[k] + (0.0 if k == axis else 0.5)) * g.h
                  for k in range(g.d)])
    return a, b, x


def _lines(columns):
    """Text lines holding the rows of a list of equal-length columns."""
    return map(" ".join, zip(*(map(repr, c.tolist()) for c in columns)))


def field_text_reference(path, field, mask=None):
    """The field file write_field_text writes, built a line at a time: one
    repr per entry and a str.join per line."""
    from robinshape.sbvgrid import Grid, ShapeMask, _check_fits, _flagged
    g = field.grid
    if mask is None:
        mask = ShapeMask(g, field.values != 0.0)
    _check_fits(mask, field)
    head = [g.d, g.n] + [repr(float(v)) for v in (g.h, *g.origin)]
    if g.weights != Grid(g.d, g.n, g.h).weights:
        head.append(g.weights)
    cells = [*np.indices(g.shape()).reshape(g.d, -1), field.values.reshape(-1),
             mask.cells.reshape(-1).astype(int)]
    axes, pos = _flagged(field.jumps)
    lines = [" ".join(map(str, head)), *_lines(cells), *_lines([axes, *pos.T])]
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def eval_j(model, x, s: float, z) -> float:
    """Bulk energy density j(x, s, z) = Lg |z|^p - f(x) s + c0 at one point."""
    x = np.asarray(x, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not (np.isfinite(s) and np.all(np.isfinite(z)) and np.all(np.isfinite(x))):
        raise ValueError("eval_j requires finite inputs")
    fx = float(model.f_at(x))
    if not math.isfinite(fx):
        raise ValueError(f"source field is not finite at {x}")
    zn = float(np.sqrt(np.dot(z, z)))
    return model.grad_coeff * zn**model.p - fx * float(s) + model.c0


def sbv_sums_reference(model, field, b, p):
    """(free-discontinuity energy, BV norm, Poincare left-hand side with
    coefficient b and exponent p) of a field, one cell and one face at a
    time: F takes j(x, u, 0) = -f u + c0 per support cell, Lg |du/h|^p per
    unflagged face and g(x, u+) + g(x, u-) per flagged face, with the
    scalar densities eval_j and eval_g; the BV norm takes |u+ - u-| h^(d-1)
    per face, and the Poincare left-hand side |du/h|^p h^d per unflagged
    face and b (|u+|^p + |u-|^p) h^(d-1) per flagged face."""
    from robinshape.model import eval_g
    g = field.grid
    F = bv = lhs = 0.0
    centers = g.centers()
    for cell in np.ndindex(*g.shape()):
        if field.values[cell] != 0.0:
            F += eval_j(model, centers[cell], field.values[cell], 0.0) * g.cell_volume
    for ax, jumps in enumerate(field.jumps):
        for pos in np.ndindex(*jumps.shape):
            face = (ax, *pos)
            ta, tb, x = face_traces(field, face)
            bv += abs(tb - ta) * g.face_weight
            if not jumps[pos]:
                F += model.grad_coeff * abs((tb - ta) / g.h) ** model.p * g.cell_volume
                lhs += abs((tb - ta) / g.h) ** p * g.cell_volume
                continue
            F += (eval_g(model, x, ta) + eval_g(model, x, tb)) * g.face_weight
            lhs += b * (abs(ta) ** p + abs(tb) ** p) * g.face_weight
    return F, bv, lhs


def poincare_battery_reference(trials, n, seed, b, lams):
    """The Poincare battery one field at a time: the seeded fields of
    suites.poincare_suite built as SbvField objects in the order of their
    Philox draws, each scored on its own over its compressed face lists,
    with the ball eigenvalue lams[k - 1] for a support of k cells.  Returns
    the (trial, family, m, ratio) rows and the first field of the lowest
    ratio."""
    from robinshape.sbvgrid import Grid, SbvField, _face_sides

    grid = Grid(1, n, 1.0 / n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows, worst = [], (np.inf, None)
    for trial in range(trials):
        fam = ("rect", "bump", "jumpy")[int(rng.integers(0, 3))]
        length = int(rng.integers(3, n - 2))
        i0 = int(rng.integers(1, n - length))
        v = float(rng.uniform(0.2, 3.0))
        values = np.zeros(n)
        extra = []
        if fam == "rect":
            values[i0:i0 + length] = v
        elif fam == "bump":
            t = (np.arange(length) + 0.5) / length
            values[i0:i0 + length] = v * np.sin(math.pi * t)
        else:
            pieces = int(rng.integers(2, 5))
            cuts = sorted(set(int(c) for c in
                              rng.integers(1, length, size=pieces - 1)))
            lo = 0
            for cut in cuts + [length]:
                values[i0 + lo:i0 + cut] = float(rng.uniform(0.2, 3.0))
                if lo > 0:
                    extra.append((0, i0 + lo))
                lo = cut
        field = SbvField.from_values(grid, values, extra)
        lo, hi = _face_sides(field.values, 0)
        jumps = field.jumps[0]
        dd = (hi[~jumps] - lo[~jumps]) / grid.h
        lhs = float(np.sum(np.abs(dd) ** 2.0)) * grid.cell_volume
        lhs += b * float(np.sum(np.abs(lo[jumps]) ** 2.0
                                + np.abs(hi[jumps]) ** 2.0)) * grid.face_weight
        k = int(np.count_nonzero(field.values))
        norm = float(np.sum(np.abs(field.values) ** 2.0)) * grid.cell_volume
        ratio = lhs / (float(lams[k - 1]) * norm ** 1.0)
        rows.append((trial, fam, repr(k * grid.cell_volume), repr(ratio)))
        if ratio < worst[0]:
            worst = (ratio, field)
    return rows, worst[1]


def face_newton_reference(model, cells, h, eta):
    """Minimiser and energy (volume term included) of the eta-regularized
    face energy on a 1d mask, solved to rounding by dense damped Newton.
    Energy, gradient and Hessian are summed one face and one cell at a
    time: gc ((u[i+1] - u[i])^2/h^2 + eta^2)^(p/2) h per pair of adjacent
    mask cells, -f u h per mask cell, and bdry_coeff(face) (u^2 +
    eta^2)^(q/2) per face between a mask cell and a cell outside the mask
    or the box; the grid origin is 0."""
    n = len(cells)
    gc, p, q, e2 = model.grad_coeff, model.p, model.q, eta * eta
    idx = [int(i) for i in np.flatnonzero(cells)]
    pos = {c: k for k, c in enumerate(idx)}
    f = [float(model.f_at(np.array([(c + 0.5) * h]))) for c in idx]
    links = [(pos[c], pos[c + 1]) for c in idx if c + 1 in pos]
    # face k lies between cells k - 1 and k
    bdry = [(pos[c], float(model.bdry_coeff(np.array([face * h]))))
            for c in idx for face, nb in ((c, c - 1), (c + 1, c + 1))
            if not (0 <= nb < n and cells[nb])]

    def energy(u):
        E = 0.0
        for a, b in links:
            E += gc * (((u[b] - u[a]) / h) ** 2 + e2) ** (p / 2) * h
        for k in range(len(idx)):
            E -= f[k] * u[k] * h
        for k, beta in bdry:
            E += beta * (u[k] ** 2 + e2) ** (q / 2)
        return E

    def derivatives(u):
        g = np.array([-fk * h for fk in f])
        H = np.zeros((len(idx), len(idx)))
        for a, b in links:
            dd = (u[b] - u[a]) / h
            s = dd * dd + e2
            t = gc * p * s ** (p / 2 - 1) * dd
            c = gc * p * s ** (p / 2 - 2) * ((p - 1) * dd * dd + e2) / h
            g[a] -= t
            g[b] += t
            H[a, a] += c
            H[b, b] += c
            H[a, b] -= c
            H[b, a] -= c
        for k, beta in bdry:
            s = u[k] ** 2 + e2
            g[k] += beta * q * s ** (q / 2 - 1) * u[k]
            H[k, k] += beta * q * s ** (q / 2 - 2) * ((q - 1) * u[k] ** 2 + e2)
        return g, H

    u = np.zeros(len(idx))
    E = energy(u)
    for _ in range(200):
        g, H = derivatives(u)
        du = -np.linalg.solve(H, g)
        slope = float(g @ du)
        if not slope < 0:
            raise FloatingPointError("Hessian singular to rounding")
        if -0.5 * slope <= 1e-28 * abs(E):
            break
        s = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            # halve until the energy drops enough or the step stops moving
            # u; a trial energy that overflows is inf or nan and is halved
            while np.any(u + s * du != u) and \
                    not energy(u + s * du) <= E + 0.25 * s * slope:
                s /= 2
            E_new = energy(u + s * du)
        if not E_new < E:
            break  # no decrease left: the minimiser to rounding
        u = u + s * du
        E = E_new
    out = np.zeros(n)
    out[idx] = u
    return out, E + model.c0 * len(idx) * h


# ---------------------------------------------------------------------------
# cell adjacency from padded cell arrays and jump faces

def mask_nbrs_reference(cells):
    """The mask numbering (grid order) of the cells below and above each
    mask cell along each axis, m outside the mask or the box, from the
    numbering padded by one m per side: rows axis 0 below, axis 0 above,
    axis 1 below, axis 1 above."""
    m = int(np.count_nonzero(cells))
    ids = np.full(cells.shape, m)
    ids[cells] = np.arange(m)
    rows = []
    for ax, n in enumerate(cells.shape):
        width = [(int(k == ax),) * 2 for k in range(cells.ndim)]
        pad = np.pad(ids, width, constant_values=m)
        for first in (0, 2):
            rows.append(np.take(pad, np.arange(first, first + n), axis=ax)[cells])
    return np.array(rows).reshape(2 * cells.ndim, m)


def band_reference(grid, cells):
    """Flat indices of the cells with a support-boundary face (the box edge
    included): each cell's lower and upper face of every axis, read from
    sbvgrid.support_jumps."""
    from robinshape.sbvgrid import support_jumps
    edge = np.zeros(cells.shape, bool)
    for ax, jumps in enumerate(support_jumps(grid, cells)):
        at = (slice(None),) * ax
        edge |= jumps[at + (slice(None, -1),)] | jumps[at + (slice(1, None),)]
    return np.flatnonzero(edge)


# ---------------------------------------------------------------------------
# the 1d optimum over every mask: a chain over out/in labels

def chain_dp_optimum(model, grid, top, K, eta):
    """Minimiser of the 1d face energy plus c0 |mask| over every mask and
    every field on the labels 0 (out) and top k/K, k = 1..K (in), by one
    Viterbi pass over the cells: -f t h + c0 h per in cell,
    gc ((t_a - t_b)^2/h^2 + eta^2)^(p/2) h per face between two in cells,
    and bdry_coeff(face) (t^2 + eta^2)^(q/2) per face between an in cell
    and an out cell or the box edge.  Returns the in cells (a boolean
    array) and the pass's value.  Raises ValueError when the minimiser uses
    the top label, since then the labels may not cover sup u."""
    n, h = grid.n, grid.h
    gc, p, q, e2 = model.grad_coeff, model.p, model.q, eta * eta
    t = top * np.arange(1, K + 1) / K
    x = grid.origin[0] + np.arange(n + 1) * h  # face k lies at x[k]
    g = model.bdry_coeff(x[:, None])[:, None] * (t * t + e2) ** (q / 2.0)
    cell = -model.f_at(grid.centers())[:, None] * t * h + model.c0 * h
    link = gc * (((t[:, None] - t[None, :]) / h) ** 2 + e2) ** (p / 2.0) * h
    # V[0] is out, V[1:] the in labels; back[i] the best label of cell i - 1
    V = np.concatenate([[0.0], cell[0] + g[0]])
    back = np.zeros((n, K + 1), dtype=int)
    for i in range(1, n):
        out_from = np.concatenate([[V[0]], V[1:] + g[i]])
        via = V[1:, None] + link
        in_best = np.argmin(via, axis=0)
        in_from = via[in_best, np.arange(K)]
        stay = V[0] + g[i]  # out to in
        back[i, 0] = np.argmin(out_from)
        back[i, 1:] = np.where(stay <= in_from, 0, in_best + 1)
        V = np.concatenate([[out_from[back[i, 0]]],
                            np.minimum(stay, in_from) + cell[i]])
    V[1:] += g[n]
    labels = np.zeros(n, dtype=int)
    labels[-1] = int(np.argmin(V))
    for i in range(n - 1, 0, -1):
        labels[i - 1] = back[i, labels[i]]
    if np.any(labels == K):
        raise ValueError(f"the top label {top} is used: raise top")
    return labels > 0, float(V[labels[-1]])


def interval_minima(model, grid, eta):
    """The terms of chain_dp_optimum minimised over the field on every
    interval of cells [a, b] of a 1d grid (zero outside it), at eta > 0, by
    damped Newton batched over the intervals: Armijo backtracking by
    halving, the tridiagonal Newton systems solved by the Thomas algorithm,
    and each interval stopped when half its squared Newton decrement is at
    most 1e-28 |E| or a step no longer lowers E.  Returns a, b and J (the
    minimum plus c0 |[a, b]|), one entry per interval."""
    if not eta > 0:
        raise ValueError("the Newton Hessian needs eta > 0")
    n, h = grid.n, grid.h
    gc, p, q, e2 = model.grad_coeff, model.p, model.q, eta * eta
    a, b = np.triu_indices(n)
    act = (np.arange(n) >= a[:, None]) & (np.arange(n) <= b[:, None])
    link = act[:, :-1] & act[:, 1:]
    beta = model.bdry_coeff(grid.origin[0] + np.arange(n + 1)[:, None] * h)
    ends = ((beta[a], a), (beta[b + 1], b))  # the two boundary faces
    f = model.f_at(grid.centers()) * act

    def energy(U, sel):  # of the intervals sel, U holding their rows
        dd = np.diff(U, axis=1) / h
        E = gc * np.sum(link[sel] * (dd * dd + e2) ** (p / 2.0), axis=1) * h
        E -= np.sum(f[sel] * U, axis=1) * h
        for bc, cell in ends:
            E += bc[sel] * (U[np.arange(len(sel)), cell[sel]] ** 2 + e2) ** (q / 2.0)
        return E

    def newton_step(U):
        rows = np.arange(len(a))
        dd = np.diff(U, axis=1) / h
        s = dd * dd + e2
        t = link * gc * p * s ** (p / 2.0 - 1.0) * dd
        c = link * gc * p * s ** (p / 2.0 - 2.0) * ((p - 1.0) * dd * dd + e2) / h
        g, D = -f * h, np.zeros_like(U)
        g[:, :-1] -= t
        g[:, 1:] += t
        D[:, :-1] += c
        D[:, 1:] += c
        for bc, cell in ends:
            u = U[rows, cell]
            s = u * u + e2
            g[rows, cell] += bc * q * s ** (q / 2.0 - 1.0) * u
            D[rows, cell] += bc * q * s ** (q / 2.0 - 2.0) * ((q - 1.0) * u * u + e2)
        D[~act] = 1.0  # cells outside the interval stay at zero
        r = -g
        for i in range(1, n):  # Thomas: eliminate the sub-diagonal -c
            w = -c[:, i - 1] / D[:, i - 1]
            D[:, i] += w * c[:, i - 1]
            r[:, i] -= w * r[:, i - 1]
        du = np.empty_like(U)
        du[:, -1] = r[:, -1] / D[:, -1]
        for i in range(n - 2, -1, -1):
            du[:, i] = (r[:, i] + c[:, i] * du[:, i + 1]) / D[:, i]
        return du, np.sum(g * du, axis=1)

    U = np.zeros(act.shape)
    E = energy(U, np.arange(len(a)))
    live = np.ones(len(a), bool)
    while live.any():
        du, slope = newton_step(U)
        live &= -0.5 * slope > 1e-28 * np.abs(E)
        s, E_try, todo = live.astype(float), E.copy(), np.flatnonzero(live)
        with np.errstate(over="ignore", invalid="ignore"):
            while len(todo):  # halve until E drops enough or u stops moving
                U_try = U[todo] + s[todo, None] * du[todo]
                E_try[todo] = energy(U_try, todo)
                done = (E_try[todo] <= E[todo] + 0.25 * s[todo] * slope[todo]) \
                    | np.all(U_try == U[todo], axis=1)
                todo = todo[~done]
                s[todo] /= 2
        live &= E_try < E
        U[live] += s[live, None] * du[live]
        E = np.where(live, E_try, E)
    return a, b, E + model.c0 * (b - a + 1) * h
