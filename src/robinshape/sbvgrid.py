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

A shape mask's boundary faces, its cells' neighbours and its surface
weights live in arrays, in one `MaskAssembly` per mask that the solvers,
the shape energy and the perimeter share; `boundary_faces` is a view of it
as (face tuple, weight) pairs.
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
        if a > b:
            raise ValueError(f"interval [{a}, {b}] has its ends reversed")
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


# ---------------------------------------------------------------------------
# one assembly per mask: its cells, their neighbours and its boundary faces

_DIRS = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)])  # counter-clockwise


class MaskAssembly:
    """Arrays describing one mask, shared by the solvers, the boundary
    measure and the shape energy.

    The mask's m cells are numbered 0..m-1 in grid order (`flat` holds their
    flat grid indices); the number m is a sentinel standing for every absent
    neighbour, outside the mask or the box, so a gather from a cell vector
    with a zero appended needs no masking.  `nbrs` has one row per direction
    (axis 0 lower, axis 0 upper, axis 1 lower, ...), `links` the interior
    faces of each axis as (lower cell, upper cell) arrays.  Boundary faces
    come in sorted tuple order: `face_axis`, `face_pos` (the i[, j] of the
    face tuple), `inner` (the mask cell beside the face), `upper_in` (whether
    that cell is the upper one) and `centers`.
    """

    def __init__(self, grid: Grid, cells: np.ndarray):
        d, m = grid.d, int(np.count_nonzero(cells))
        self.grid, self.m = grid, m
        self.flat = np.flatnonzero(cells)
        pad = np.full(tuple(k + 2 for k in grid.shape()), m)
        pad[(slice(1, -1),) * d][cells] = np.arange(m)

        def shifted(ax, lo, hi):
            return pad[tuple(slice(lo, hi) if k == ax else slice(1, -1)
                             for k in range(d))]

        self.nbrs = np.array([shifted(ax, lo, hi)[cells] for ax in range(d)
                              for lo, hi in ((None, -2), (2, None))])
        self.links = []
        for ax in range(d):
            up = self.nbrs[2 * ax + 1]
            lo = np.flatnonzero(up < m)
            self.links.append((lo, up[lo]))
        self.degree = np.count_nonzero(self.nbrs < m, axis=0)

        # face (ax, i, j) lies between padded cells pos + 1 - e_ax and pos + 1
        axes, pos, inner, upper_in = [], [], [], []
        for ax in range(d):
            below, above = shifted(ax, None, -1), shifted(ax, 1, None)
            ij = np.nonzero((below < m) != (above < m))
            below, above = below[ij], above[ij]
            axes.append(np.full(len(below), ax))
            pos.append(np.stack(ij, axis=-1))
            upper_in.append(above < m)
            inner.append(np.where(above < m, above, below))
        self.face_axis = np.concatenate(axes)
        self.face_pos = np.concatenate(pos)
        self.inner = np.concatenate(inner)
        self.upper_in = np.concatenate(upper_in)
        offset = np.where(np.arange(d) == self.face_axis[:, None], 0.0, 0.5)
        self.centers = np.asarray(grid.origin) + (self.face_pos + offset) * grid.h
        self._corrected = None

    @property
    def nfaces(self) -> int:
        return len(self.inner)

    def faces(self) -> list:
        """The boundary faces as sorted tuples (axis, i[, j])."""
        return [(a, *p) for a, p in zip(self.face_axis.tolist(),
                                        self.face_pos.tolist())]

    def weights(self, mode: str = "auto") -> np.ndarray:
        """Surface weight of each boundary face (see boundary_faces)."""
        if mode not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary mode {mode!r}")
        if self.grid.d == 1 or mode == "uncorrected":
            return np.full(self.nfaces, self.grid.face_weight)
        if self._corrected is None:
            self._corrected = _corrected_weights(self)
            self._corrected.flags.writeable = False
        return self._corrected

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Cell values of a grid array, in the mask's numbering."""
        return values.reshape(-1)[self.flat]

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """A grid array holding x on the mask and zero elsewhere."""
        out = np.zeros(self.grid.shape())
        out.reshape(-1)[self.flat] = x
        return out

    def cell_sum(self, per_face: np.ndarray) -> np.ndarray:
        """Sum of a boundary-face quantity over the faces of each cell."""
        return np.bincount(self.inner, weights=per_face, minlength=self.m)


def _corrected_weights(asm: MaskAssembly) -> np.ndarray:
    """Staircase-corrected weights of the 2d boundary faces.

    Each face becomes a directed edge between lattice corners with the mask
    on its left.  The edges form closed walks; at a saddle corner a walk
    takes the left turn, so every edge has exactly one successor and one
    predecessor.  Walks start at the first face (in sorted order) not yet
    walked.  Along a walk of at least 8 faces, a turn is steppy when the
    previous or the next turn has the opposite sense; faces within distance
    2 of a steppy turn are projected onto the chord between the midpoints
    K = 8 faces (at most (L-1)/2) behind and ahead, clamped to [h/4, h].
    """
    h, n = asm.grid.h, asm.grid.n
    i, j = asm.face_pos.T
    vertical = asm.face_axis == 0
    # direction (index into _DIRS): a vertical face walks -y when the mask
    # lies at +x, else +y; a horizontal one +x when the mask lies at +y, else -x
    k = np.where(vertical, np.where(asm.upper_in, 3, 1),
                 np.where(asm.upper_in, 0, 2))
    start = np.stack([i + (~vertical & ~asm.upper_in),
                      j + (vertical & asm.upper_in)], axis=-1)
    end = start + _DIRS[k]
    # the edge leaving each lattice corner in each direction, or -1
    leaving = np.full(((n + 1) ** 2, 4), -1)
    leaving[start[:, 0] * (n + 1) + start[:, 1], k] = np.arange(asm.nfaces)
    at_end = leaving[end[:, 0] * (n + 1) + end[:, 1]]
    left, ahead, right = (at_end[np.arange(asm.nfaces), (k + t) % 4]
                          for t in (1, 0, 3))
    succ = np.where(left >= 0, left, np.where(ahead >= 0, ahead, right)).tolist()

    w = np.full(asm.nfaces, h)
    walked = [False] * asm.nfaces
    for f0 in range(asm.nfaces):
        if walked[f0]:
            continue
        loop, f = [], f0
        while not walked[f]:
            walked[f] = True
            loop.append(f)
            f = succ[f]
        L = len(loop)
        if L < 8:
            continue
        loop = np.array(loop)
        dirs = _DIRS[k[loop]]
        nxt = np.roll(dirs, -1, axis=0)
        turn = dirs[:, 0] * nxt[:, 1] - dirs[:, 1] * nxt[:, 0]
        nz = np.flatnonzero(turn)
        t = turn[nz]
        steppy = nz[(t * np.roll(t, 1) < 0) | (t * np.roll(t, -1) < 0)]
        if len(steppy) == 0:
            continue
        near = np.zeros(L, dtype=bool)
        near[(steppy[:, None] + np.arange(-1, 3)) % L] = True
        near = np.flatnonzero(near)
        K = min(8, (L - 1) // 2)
        mids = start[loop] + 0.5 * dirs
        # 2K < L: the two chord ends are distinct faces, never the same point
        chord = mids[(near + K) % L] - mids[(near - K) % L]
        along = np.abs(chord[np.arange(len(near)), np.abs(dirs[near, 1])])
        proj = h * along / np.hypot(chord[:, 0], chord[:, 1])
        w[loop[near]] = np.minimum(h, np.maximum(0.25 * h, proj))
    return w


_memo = (None, None)


def mask_assembly(mask: ShapeMask) -> MaskAssembly:
    """The assembly of a mask, built once while its cells stay the same.

    A one-slot memo, keyed on the grid and the cell content rather than on
    the mask object (which the annealer flips in place), lets the solver,
    the shape energy, the annealer's frozen energy and the perimeter of one
    re-solve sweep share one assembly.
    """
    global _memo
    key = (mask.grid, mask.cells.tobytes())
    last, asm = _memo
    if last != key:
        asm = MaskAssembly(mask.grid, mask.cells)
        _memo = (key, asm)
    return asm


def boundary_faces(mask: ShapeMask, mode: str = "auto") -> list:
    """Faces of the staircase boundary with their surface weights, as sorted
    (face tuple, weight) pairs: a tuple view of the mask's assembly.

    mode "uncorrected" charges h^(d-1) per face.  mode "corrected" (2d)
    projects staircase faces onto a locally estimated tangent wherever the
    boundary walk shows genuine stair steps (adjacent turns of opposite
    sense), which removes the taxicab bias on smooth or diagonal boundaries
    while leaving flat runs and isolated corners exact.  "auto" picks
    corrected in 2d.
    """
    asm = mask_assembly(mask)
    return list(zip(asm.faces(), asm.weights(mode).tolist()))


def perimeter(mask: ShapeMask, mode: str = "auto") -> float:
    """Weighted measure of the staircase boundary (see boundary_faces)."""
    return float(sum(mask_assembly(mask).weights(mode).tolist()))


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
    asm = mask_assembly(mask)
    inner = asm.gather(field.values)[asm.inner]
    if not np.all(np.isfinite(inner)):
        raise ValueError("shape energy needs finite boundary traces")
    g_term = model.bdry_coeff(asm.centers) * np.abs(inner) ** model.q
    return total + float(np.sum(g_term * asm.weights(mode)))


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
