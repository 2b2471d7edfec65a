"""Discrete SBV calculus on a structured grid.

Cell-centered values carry the absolutely continuous part; an explicit set
of flagged faces carries the jump part, and gradients never differentiate
across flagged faces.  The grid covers a box; the field is extended by zero
outside it, so box faces adjacent to a nonzero cell are jump faces and the
boundary of the support is always contained in the flagged set.

Faces are identified by tuples: (axis, i) in 1d, (axis, i, j) in 2d, where
face (0, i, j) separates cells (i-1, j) | (i, j) and face (1, i, j)
separates (i, j-1) | (i, j); index i (resp. j) runs to n inclusive so the
box boundary is addressable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import IntegrandModel, eval_g

Face = tuple
BOUNDARY_MODES = ("auto", "uncorrected", "corrected")  # see boundary_faces


@dataclass(frozen=True)
class Grid:
    """Structured lattice of n^d cells of spacing h covering a box."""

    d: int
    n: int
    h: float
    origin: tuple = None

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.n < 4:
            raise ValueError(f"need at least 4 cells per axis, got {self.n}")
        if not (self.h > 0):
            raise ValueError(f"spacing must be positive, got {self.h}")
        if self.origin is None:
            object.__setattr__(self, "origin", (0.0,) * self.d)
        elif len(self.origin) != self.d:
            raise ValueError("origin length must match dimension")

    @property
    def extent(self) -> float:
        return self.n * self.h

    @property
    def volume(self) -> float:
        return self.extent**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    @property
    def face_weight(self) -> float:
        """Uncorrected surface measure per face."""
        return self.h ** (self.d - 1)

    def shape(self) -> tuple:
        return (self.n,) * self.d

    def centers(self) -> np.ndarray:
        """Cell centers, shape (n, 1) in 1d or (n, n, 2) in 2d."""
        ax = [self.origin[k] + (np.arange(self.n) + 0.5) * self.h
              for k in range(self.d)]
        if self.d == 1:
            return ax[0][:, None]
        X, Y = np.meshgrid(ax[0], ax[1], indexing="ij")
        return np.stack([X, Y], axis=-1)

    def face_center(self, face: Face) -> np.ndarray:
        if self.d == 1:
            (_, i) = face
            return np.array([self.origin[0] + i * self.h])
        axis, i, j = face
        if axis == 0:
            return np.array([self.origin[0] + i * self.h,
                             self.origin[1] + (j + 0.5) * self.h])
        return np.array([self.origin[0] + (i + 0.5) * self.h,
                         self.origin[1] + j * self.h])

    def face_cells(self, face: Face):
        """The (lower, upper) cell indices of a face; None when outside."""
        if self.d == 1:
            (_, i) = face
            lo = (i - 1,) if i > 0 else None
            hi = (i,) if i < self.n else None
            return lo, hi
        axis, i, j = face
        if axis == 0:
            lo = (i - 1, j) if i > 0 else None
            hi = (i, j) if i < self.n else None
        else:
            lo = (i, j - 1) if j > 0 else None
            hi = (i, j) if j < self.n else None
        return lo, hi


def support_jumps(grid: Grid, values: np.ndarray) -> set:
    """Faces separating a zero cell (or the outside) from a nonzero cell."""
    nz = values != 0.0
    out = set()
    if grid.d == 1:
        pad = np.zeros(grid.n + 2, dtype=bool)
        pad[1:-1] = nz
        for i in np.nonzero(pad[:-1] != pad[1:])[0]:
            out.add((0, int(i)))
        return out
    pad = np.zeros((grid.n + 2, grid.n + 2), dtype=bool)
    pad[1:-1, 1:-1] = nz
    diff0 = pad[:-1, 1:-1] != pad[1:, 1:-1]
    for i, j in zip(*np.nonzero(diff0)):
        out.add((0, int(i), int(j)))
    diff1 = pad[1:-1, :-1] != pad[1:-1, 1:]
    for i, j in zip(*np.nonzero(diff1)):
        out.add((1, int(i), int(j)))
    return out


@dataclass
class SbvField:
    """Cell values plus explicitly flagged jump faces."""

    grid: Grid
    values: np.ndarray
    jumps: frozenset

    @classmethod
    def from_values(cls, grid: Grid, values, extra_jumps=()) -> "SbvField":
        """Build a field, automatically flagging every support-boundary face."""
        values = np.asarray(values, dtype=float).reshape(grid.shape())
        jumps = support_jumps(grid, values) | set(extra_jumps)
        return cls(grid, values, frozenset(jumps))

    @classmethod
    def zero(cls, grid: Grid) -> "SbvField":
        return cls(grid, np.zeros(grid.shape()), frozenset())

    def validate(self):
        if self.values.shape != self.grid.shape():
            raise ValueError("value array shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field has non-finite values")
        missing = support_jumps(self.grid, self.values) - set(self.jumps)
        if missing:
            raise ValueError(
                f"support-boundary faces not flagged as jumps: {sorted(missing)[:4]}"
                + ("..." if len(missing) > 4 else ""))

    def traces(self, face: Face) -> tuple[float, float]:
        """Values on the two sides of a face (0 outside the box)."""
        lo, hi = self.grid.face_cells(face)
        a = float(self.values[lo]) if lo is not None else 0.0
        b = float(self.values[hi]) if hi is not None else 0.0
        return a, b

    def support_volume(self) -> float:
        return float(np.count_nonzero(self.values)) * self.grid.cell_volume


def _axis_jump_masks(field: SbvField):
    """Boolean arrays marking flagged faces, one array per axis."""
    g = field.grid
    if g.d == 1:
        m = np.zeros(g.n + 1, dtype=bool)
        for (_, i) in field.jumps:
            m[i] = True
        return (m,)
    m0 = np.zeros((g.n + 1, g.n), dtype=bool)
    m1 = np.zeros((g.n, g.n + 1), dtype=bool)
    for f in field.jumps:
        if f[0] == 0:
            m0[f[1], f[2]] = True
        else:
            m1[f[1], f[2]] = True
    return m0, m1


def gradient_field(field: SbvField) -> np.ndarray:
    """Discrete gradient at every cell, shape (*grid.shape(), d).

    Per axis: mean of the two one-sided face differences when neither face is
    flagged, the single open difference when one is, and zero when both are.
    Differences across the box boundary use the zero extension.
    """
    g = field.grid
    u = field.values
    jm = _axis_jump_masks(field)
    out = np.zeros(g.shape() + (g.d,))
    for ax in range(g.d):
        pad = np.zeros(np.array(u.shape) + np.eye(g.d, dtype=int)[ax] * 2)
        sl = tuple(slice(1, -1) if k == ax else slice(None) for k in range(g.d))
        pad[sl] = u
        lowsl = tuple(slice(0, -2) if k == ax else slice(None) for k in range(g.d))
        upsl = tuple(slice(2, None) if k == ax else slice(None) for k in range(g.d))
        dminus = (u - pad[lowsl]) / g.h
        dplus = (pad[upsl] - u) / g.h
        jma = jm[ax]
        if g.d == 1:
            open_minus = ~jma[:-1]
            open_plus = ~jma[1:]
        elif ax == 0:
            open_minus = ~jma[:-1, :]
            open_plus = ~jma[1:, :]
        else:
            open_minus = ~jma[:, :-1]
            open_plus = ~jma[:, 1:]
        both = open_minus & open_plus
        grad = np.where(both, 0.5 * (dminus + dplus),
                        np.where(open_minus, dminus,
                                 np.where(open_plus, dplus, 0.0)))
        out[..., ax] = grad
    return out


def discrete_gradient(field: SbvField, cell) -> np.ndarray:
    """Gradient vector at one cell (see gradient_field)."""
    g = field.grid
    cell = tuple(int(c) for c in np.atleast_1d(cell))
    u = field.values
    out = np.zeros(g.d)
    for ax in range(g.d):
        lo = list(cell)
        lo[ax] -= 1
        hi = list(cell)
        hi[ax] += 1
        if g.d == 1:
            fminus, fplus = (0, cell[0]), (0, cell[0] + 1)
        elif ax == 0:
            fminus, fplus = (0, cell[0], cell[1]), (0, cell[0] + 1, cell[1])
        else:
            fminus, fplus = (1, cell[0], cell[1]), (1, cell[0], cell[1] + 1)
        uval = u[cell]
        um = u[tuple(lo)] if lo[ax] >= 0 else 0.0
        up = u[tuple(hi)] if hi[ax] < g.n else 0.0
        dm = (uval - um) / g.h
        dp = (up - uval) / g.h
        om = fminus not in field.jumps
        op = fplus not in field.jumps
        if om and op:
            out[ax] = 0.5 * (dm + dp)
        elif om:
            out[ax] = dm
        elif op:
            out[ax] = dp
    return out


def eval_free_discontinuity(model: IntegrandModel, field: SbvField) -> float:
    """Bulk integral of j over the support plus the jump-face sum of
    g(x, u+) + g(x, u-), with face traces taken from the adjacent cells."""
    field.validate()
    g = field.grid
    u = field.values
    supp = u != 0.0
    total = 0.0
    if np.any(supp):
        grads = gradient_field(field)
        gn = np.sqrt(np.sum(grads * grads, axis=-1))
        fvals = model.f_at(g.centers())
        dens = model.grad_coeff * gn**model.p - fvals * u + model.c0
        total += float(np.sum(dens[supp])) * g.cell_volume
    w = g.face_weight
    for face in sorted(field.jumps):
        a, b = field.traces(face)
        x = g.face_center(face)
        total += (eval_g(model, x, a) + eval_g(model, x, b)) * w
    return total


# ---------------------------------------------------------------------------
# shape masks and their boundary measure

@dataclass
class ShapeMask:
    """Subset of grid cells standing for the competing shape."""

    grid: Grid
    cells: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=bool).reshape(self.grid.shape())

    @classmethod
    def empty(cls, grid: Grid) -> "ShapeMask":
        return cls(grid, np.zeros(grid.shape(), dtype=bool))

    @classmethod
    def full(cls, grid: Grid) -> "ShapeMask":
        return cls(grid, np.ones(grid.shape(), dtype=bool))

    @classmethod
    def interval(cls, grid: Grid, a: float, b: float) -> "ShapeMask":
        """Cells of a 1d grid whose centers lie in [a, b]."""
        if grid.d != 1:
            raise ValueError("interval masks require d = 1")
        x = grid.centers()[:, 0]
        return cls(grid, (x >= a) & (x <= b))

    @classmethod
    def disc(cls, grid: Grid, center, radius: float) -> "ShapeMask":
        """Cells of a 2d grid whose centers lie in the closed disc."""
        if grid.d != 2:
            raise ValueError("disc masks require d = 2")
        pts = grid.centers()
        r2 = np.sum((pts - np.asarray(center)) ** 2, axis=-1)
        return cls(grid, r2 <= radius**2)

    def copy(self) -> "ShapeMask":
        return ShapeMask(self.grid, self.cells.copy())

    def volume(self) -> float:
        return float(np.count_nonzero(self.cells)) * self.grid.cell_volume

    def count(self) -> int:
        return int(np.count_nonzero(self.cells))


def _boundary_face_list(mask: ShapeMask) -> list:
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
def _directed_edge(face: Face, cells: np.ndarray, n: int):
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


def _boundary_loops(mask: ShapeMask):
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


def boundary_faces(mask: ShapeMask, mode: str = "auto") -> list:
    """Faces of the staircase boundary with their surface weights.

    mode "uncorrected" charges h^(d-1) per face.  mode "corrected" (2d)
    projects staircase faces onto a locally estimated tangent wherever the
    boundary walk shows genuine stair steps (adjacent turns of opposite
    sense), which removes the taxicab bias on smooth or diagonal boundaries
    while leaving flat runs and isolated corners exact.  "auto" picks
    corrected in 2d.
    """
    g = mask.grid
    if mode not in BOUNDARY_MODES:
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


def perimeter(mask: ShapeMask, mode: str = "auto") -> float:
    """Weighted measure of the staircase boundary (see boundary_faces)."""
    return float(sum(w for _, w in boundary_faces(mask, mode)))


def shape_energy(model: IntegrandModel, mask: ShapeMask, field: SbvField,
                 mode: str = "auto") -> float:
    """Shape functional at a given inner field: bulk j over the mask plus the
    boundary g-term at the inner traces (the outer trace is zero and g(x,0)=0)."""
    g = mask.grid
    total = 0.0
    if mask.count():
        grads = gradient_field(field)
        gn = np.sqrt(np.sum(grads * grads, axis=-1))
        fvals = model.f_at(g.centers())
        dens = model.grad_coeff * gn**model.p - fvals * field.values + model.c0
        total += float(np.sum(dens[mask.cells])) * g.cell_volume
    for face, w in boundary_faces(mask, mode):
        a, b = field.traces(face)
        lo, _ = g.face_cells(face)
        inner = a if (lo is not None and mask.cells[lo]) else b
        total += eval_g(model, g.face_center(face), inner) * w
    return total


def eval_shape_functional(model: IntegrandModel, mask: ShapeMask, inner=None,
                          mode: str = "auto"):
    """Inner-minimize on the mask, then evaluate the shape functional.

    `inner` is a SolverConfig (None for defaults) or a callable
    (model, grid, mask) -> SbvField.  Returns (J, field).
    """
    from . import pdesolve
    if callable(inner):
        field = inner(model, mask.grid, mask)
    else:
        field = pdesolve.solve_inner(model, mask.grid, mask, inner)
    return shape_energy(model, mask, field, mode), field


def reduction_check(model: IntegrandModel, field: SbvField, solver=None) -> float:
    """Gap F(u) - J({u != 0}); the inner solve at fixed support can only
    lower the energy, so the gap stays nonnegative up to solver tolerance."""
    F = eval_free_discontinuity(model, field)
    mask = ShapeMask(field.grid, field.values != 0.0)
    J, _ = eval_shape_functional(model, mask, solver)
    return F - J


def poincare_check(field: SbvField, b: float, p: float, alpha: float,
                   eig=None) -> float:
    """LHS/RHS ratio of the ball lower bound: gradient-plus-jump energy over
    lambda_{b,alpha}(B_m) times the L^alpha norm to the p/alpha."""
    from . import radial
    g = field.grid
    m = field.support_volume()
    if m <= 0.0:
        raise ValueError("field has empty support")
    grads = gradient_field(field)
    gn = np.sqrt(np.sum(grads * grads, axis=-1))
    lhs = float(np.sum(gn**p)) * g.cell_volume
    w = g.face_weight
    for face in sorted(field.jumps):
        ta, tb = field.traces(face)
        lhs += b * (abs(ta) ** p + abs(tb) ** p) * w
    if eig is None:
        eig = radial.robin_eigenvalue_ball
    R = radial.ball_radius(g.d, m)
    sol = eig(radial.RadialEigenvalueQuery(d=g.d, R=R, b=b, grad_exp=p,
                                           bdry_exp=p, denom_exp=alpha))
    norm = float(np.sum(np.abs(field.values) ** alpha)) * g.cell_volume
    rhs = sol.lam * norm ** (p / alpha)
    return lhs / rhs


def bv_norm(field: SbvField) -> float:
    """Discrete BV norm: L1 gradient plus total jump mass."""
    g = field.grid
    grads = gradient_field(field)
    gn = np.sqrt(np.sum(grads * grads, axis=-1))
    total = float(np.sum(gn)) * g.cell_volume
    w = g.face_weight
    for face in sorted(field.jumps):
        a, b = field.traces(face)
        total += abs(a - b) * w
    return total


# ---------------------------------------------------------------------------
# plain-text serialization: "d n h origin" header, one cell per line, then faces

def write_field_text(path, field: SbvField, mask: ShapeMask | None = None):
    g = field.grid
    if mask is None:
        mask = ShapeMask(g, field.values != 0.0)
    head = [g.d, g.n] + [repr(float(v)) for v in (g.h, *g.origin)]
    lines = [" ".join(map(str, head))]
    if g.d == 1:
        for i in range(g.n):
            lines.append(f"{i} {float(field.values[i])!r} {int(mask.cells[i])}")
    else:
        for i in range(g.n):
            for j in range(g.n):
                lines.append(f"{i} {j} {float(field.values[i, j])!r} "
                             f"{int(mask.cells[i, j])}")
    for face in sorted(field.jumps):
        lines.append(" ".join(str(v) for v in face))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field_text(path) -> tuple[SbvField, ShapeMask]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    d, n, h, *origin = lines[0].split()  # files without an origin sit at 0
    grid = Grid(int(d), int(n), float(h), tuple(float(v) for v in origin) or None)
    values = np.zeros(grid.shape())
    cells = np.zeros(grid.shape(), dtype=bool)
    ncells = grid.n**grid.d
    for ln in lines[1:1 + ncells]:
        parts = ln.split()
        if grid.d == 1:
            i = int(parts[0])
            values[i] = float(parts[1])
            cells[i] = bool(int(parts[2]))
        else:
            i, j = int(parts[0]), int(parts[1])
            values[i, j] = float(parts[2])
            cells[i, j] = bool(int(parts[3]))
    jumps = set()
    for ln in lines[1 + ncells:]:
        jumps.add(tuple(int(v) for v in ln.split()))
    return SbvField(grid, values, frozenset(jumps)), ShapeMask(grid, cells)
