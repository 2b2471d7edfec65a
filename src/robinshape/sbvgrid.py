"""Discrete SBV calculus on a structured grid.

Cell-centered values carry the absolutely continuous part; boolean arrays of
flagged faces, one per axis, carry the jump part, and gradients never
differentiate across flagged faces.  The grid covers a box; the field is
extended by zero outside it, so box faces adjacent to a nonzero cell are
jump faces and the boundary of the support is always contained in the
flagged set.

The faces of axis k form an array of the cell shape with one more entry
along k: (n+1,) in 1d, (n+1, n) and (n, n+1) in 2d.  Face [i, j] of axis 0
separates cells (i-1, j) | (i, j) and face [i, j] of axis 1 separates
(i, j-1) | (i, j), so index n addresses the box boundary.  Where faces are
listed one by one (`extra_jumps`, the text format, `boundary_faces`) a face
is the tuple (axis, i[, j]).

Which cells touch is the grid's (`Grid.neighbours`, with the faces between
them at `Grid.side_centers`).  A shape mask's boundary faces, its cells'
neighbours and its surface weights live in arrays, in one `MaskAssembly`
per mask that the solvers, the shape energy and the perimeter share;
`boundary_faces` is a view of it as (face tuple, weight) pairs, weighed by
the grid's rule (`Grid.weights`).

One discrete functional scores a shape: the solver's face energy
(`pdesolve.energy_of`), with face differences (u_hi - u_lo)/h between
neighbouring mask cells, the grid's boundary weights and the eta the
exponents fix (0 at p = q = 2, else 1e-6).  `shape_energy`,
`eval_shape_functional` and the annealer's re-solves all report it.  The
free-discontinuity functional F, `poincare_check` and `bv_norm` read one
face pass: the same differences on the unflagged faces and the traces on
either side of the flagged ones.  So F(u) = J({u != 0}) at the minimiser
when u has no interior jumps (p = q = 2, uncorrected weights), and
`bv_norm` is the anisotropic total variation of the zero-extended field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import IntegrandModel

BOUNDARY_MODES = ("auto", "uncorrected", "corrected")  # see boundary_faces


@dataclass(frozen=True)
class Grid:
    """Lattice of n^d cells of spacing h covering a box, and its shapes' boundary
    rule (boundary_faces) as meant: 2d "auto" is "corrected", 1d "uncorrected"."""

    d: int
    n: int
    h: float
    origin: tuple = None
    weights: str = "auto"

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.n < 4:
            raise ValueError(f"need at least 4 cells per axis, got {self.n}")
        if not (0 < self.h < np.inf):
            raise ValueError(f"spacing must be positive and finite, got {self.h}")
        if self.origin is None:
            object.__setattr__(self, "origin", (0.0,) * self.d)
        elif len(self.origin) != self.d or not np.all(np.isfinite(self.origin)):
            raise ValueError(f"origin needs one finite value per axis, "
                             f"got {self.origin}")
        if self.weights not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary weights {self.weights!r}; "
                             f"choose from {', '.join(BOUNDARY_MODES)}")
        rule = "corrected" if self.weights == "auto" else self.weights
        object.__setattr__(self, "weights", "uncorrected" if self.d == 1 else rule)

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

    def neighbours(self, cells=None) -> np.ndarray:
        """Flat indices of the neighbours of the given flat cells (default:
        all), a C-contiguous (2d, k) array with rows axis 0 below, axis 0
        above, axis 1 below, axis 1 above; n^d where it lies outside the box."""
        size = self.n**self.d
        c = np.arange(size) if cells is None else np.asarray(cells)
        out = np.empty((2 * self.d, len(c)), dtype=np.intp)
        for ax in range(self.d):
            step = self.n ** (self.d - 1 - ax)
            i = c // step % self.n
            out[2 * ax] = np.where(i > 0, c - step, size)
            out[2 * ax + 1] = np.where(i < self.n - 1, c + step, size)
        return out

    def side_centers(self) -> np.ndarray:
        """Centre of the face on each side of each cell, box faces included,
        shape (2d, n^d, d): the sides in the rows of `neighbours`."""
        pos = np.indices(self.shape()).reshape(self.d, -1).T
        out = np.empty((2 * self.d,) + pos.shape)
        for k in range(2 * self.d):
            ax, up = divmod(k, 2)
            out[k] = _face_centers(self, np.full(len(pos), ax),
                                   pos + up * (np.arange(self.d) == ax))
        return out


def _face_shapes(grid: Grid) -> list:
    return [tuple(grid.n + (k == ax) for k in range(grid.d))
            for ax in range(grid.d)]


def _face_sides(a: np.ndarray, ax: int, fill=0):
    """The cell values on the lower and upper side of every face of axis ax,
    `fill` outside the box: two arrays of that axis's face shape."""
    pad = np.full(tuple(k + 2 * (i == ax) for i, k in enumerate(a.shape)), fill,
                  dtype=a.dtype)
    at = (slice(None),) * ax
    pad[at + (slice(1, -1),)] = a
    return pad[at + (slice(None, -1),)], pad[at + (slice(1, None),)]


def _face_centers(grid: Grid, axes: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Centres of the faces with the given axes and (i[, j]) rows."""
    offset = np.where(np.arange(grid.d) == axes[:, None], 0.0, 0.5)
    return np.asarray(grid.origin) + (pos + offset) * grid.h


def _flagged(jumps) -> tuple:
    """Axes and (i[, j]) rows of the flagged faces, in sorted face order."""
    pos = [np.argwhere(j) for j in jumps]
    return np.repeat(np.arange(len(pos)), [len(p) for p in pos]), np.concatenate(pos)


def support_jumps(grid: Grid, values: np.ndarray) -> tuple:
    """Faces separating a zero cell (or the outside) from a nonzero cell, as
    one boolean array per axis; fields stacked on leading axes give jumps
    stacked the same way."""
    nz = np.asarray(values) != 0.0
    return tuple(np.not_equal(*_face_sides(nz, nz.ndim - grid.d + ax))
                 for ax in range(grid.d))


def _jump_arrays(grid: Grid, faces) -> tuple:
    """Face tuples (axis, i[, j]) as one boolean array per axis; a face that
    is not on the grid raises ValueError."""
    out = tuple(np.zeros(s, dtype=bool) for s in _face_shapes(grid))
    form = "(axis, i)" if grid.d == 1 else "(axis, i, j)"
    try:
        faces = np.array(faces)
    except ValueError:
        raise ValueError(f"jump faces must all be tuples {form}") from None
    if faces.size == 0:
        return out
    if (faces.ndim != 2 or faces.shape[1] != grid.d + 1
            or not np.issubdtype(faces.dtype, np.integer)):
        raise ValueError(f"jump faces must be integer tuples {form}")
    axis, pos = faces[:, 0], faces[:, 1:]
    ok = (axis >= 0) & (axis < grid.d)
    limit = np.array(_face_shapes(grid))[np.where(ok, axis, 0)]
    ok &= np.all((pos >= 0) & (pos < limit), axis=1)
    if not np.all(ok):
        raise ValueError(f"jump face {tuple(faces[np.argmin(ok)].tolist())} "
                         f"is not on the grid")
    for ax, jumps in enumerate(out):
        jumps[tuple(pos[axis == ax].T)] = True
    return out


@dataclass
class SbvField:
    """Cell values plus flagged jump faces, one boolean array per axis."""

    grid: Grid
    values: np.ndarray
    jumps: tuple

    @classmethod
    def from_values(cls, grid: Grid, values, extra_jumps=()) -> "SbvField":
        """Build a field, automatically flagging every support-boundary face
        and the given face tuples (axis, i[, j])."""
        values = np.asarray(values, dtype=float).reshape(grid.shape())
        jumps = zip(support_jumps(grid, values), _jump_arrays(grid, extra_jumps))
        return cls(grid, values, tuple(s | e for s, e in jumps))

    @classmethod
    def zero(cls, grid: Grid) -> "SbvField":
        return cls.from_values(grid, np.zeros(grid.shape()))

    def validate(self):
        if self.values.shape != self.grid.shape():
            raise ValueError("value array shape does not match grid")
        if [np.shape(j) for j in self.jumps] != _face_shapes(self.grid):
            raise ValueError("jump arrays do not match the grid's faces")
        _check_finite(self)
        support = support_jumps(self.grid, self.values)
        axes, pos = _flagged([s & ~j for s, j in zip(support, self.jumps)])
        if len(axes):
            raise ValueError(
                f"{len(axes)} support-boundary faces not flagged as jumps, "
                f"first {(int(axes[0]), *pos[0].tolist())}")


def _check_finite(field: SbvField):
    if not np.all(np.isfinite(field.values)):
        raise ValueError("field has non-finite values")


def _faces(grid: Grid, values: np.ndarray, jumps) -> list:
    """One face pass over fields stacked on leading axes, jumps stacked alike.
    Per axis, in face layout: the differences (u_hi - u_lo)/h on unflagged
    faces, the values below and above flagged faces (0 outside the box),
    each 0 on the other faces, and the jump mask."""
    lead = values.ndim - grid.d
    out = []
    for ax, flags in enumerate(jumps):
        lo, hi = _face_sides(values, lead + ax)
        out.append((np.where(flags, 0.0, (hi - lo) / grid.h),
                    np.where(flags, lo, 0.0), np.where(flags, hi, 0.0), flags))
    return out


def _face_lists(field: SbvField) -> tuple:
    """_faces of one field compressed to its unflagged differences and flagged
    traces, each over all axes in sorted face order."""
    return tuple(map(np.concatenate, zip(*(
        (diff[~flags], lo[flags], hi[flags])
        for diff, lo, hi, flags in _faces(field.grid, field.values, field.jumps)))))


def eval_free_discontinuity(model: IntegrandModel, field: SbvField) -> float:
    """Free-discontinuity functional F(u): Lg |du/h|^p on every unflagged
    face and -f u + c0 on every support cell, times h^d, plus
    g(x, u+) + g(x, u-) times h^(d-1) on every flagged face, with face traces
    taken from the adjacent cells.  For a field without interior jumps this
    is the solver's energy (`pdesolve.energy_of`) at eta = 0 with uncorrected
    boundary weights."""
    field.validate()
    g = field.grid
    dd, a, b = _face_lists(field)
    total = model.grad_coeff * float(np.sum(np.abs(dd) ** model.p)) * g.cell_volume
    support = field.values != 0.0
    fvals = model.f_at(g.centers())[support]
    total += float(np.sum(model.c0 - fvals * field.values[support])) * g.cell_volume
    x = _face_centers(g, *_flagged(field.jumps))
    g_term = model.bdry_coeff(x) * (np.abs(a) ** model.q + np.abs(b) ** model.q)
    return total + float(np.sum(g_term * g.face_weight))


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


def _check_fits(mask: ShapeMask, field: SbvField):
    """A field on a shape shares the shape's grid, boundary rule included, is
    finite and vanishes off the shape: raise ValueError if not."""
    if field.grid != mask.grid:
        raise ValueError(f"field grid {field.grid} but mask grid {mask.grid}")
    _check_finite(field)
    if np.any(field.values[~mask.cells]):
        raise ValueError("field is nonzero on a cell outside the mask")


# ---------------------------------------------------------------------------
# one assembly per mask: its cells, their neighbours and its boundary faces

_DIRS = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)])  # counter-clockwise


class MaskAssembly:
    """Arrays describing one mask, shared by the solvers, the boundary
    measure and the shape energy.

    The mask's m cells are numbered 0..m-1 in grid order (`flat` holds their
    flat grid indices); the number m is a sentinel standing for every absent
    neighbour, outside the mask or the box, so a gather from a cell vector
    with a zero appended needs no masking.  `nbrs` is the grid's
    `neighbours` of the mask's cells in this numbering, `links` the interior
    faces of each axis as (lower cell, upper cell) arrays.  Boundary faces
    come in sorted tuple order: `face_axis`, `face_pos` (the i[, j] of the
    face tuple), `inner` (the mask cell beside the face), `upper_in` (whether
    that cell is the upper one) and `centers`.
    """

    def __init__(self, grid: Grid, cells: np.ndarray):
        d, m = grid.d, int(np.count_nonzero(cells))
        self.grid, self.m = grid, m
        self.flat = np.flatnonzero(cells)
        ids = np.full(grid.n**d + 1, m)  # the grid's outside, n^d, maps to m
        ids[self.flat] = np.arange(m)
        self.nbrs = ids[grid.neighbours(self.flat)]
        sides = [_face_sides(ids[:-1].reshape(cells.shape), ax, m) for ax in range(d)]
        self.links = []
        for ax in range(d):
            up = self.nbrs[2 * ax + 1]
            lo = np.flatnonzero(up < m)
            self.links.append((lo, up[lo]))
        self.degree = np.count_nonzero(self.nbrs < m, axis=0)

        jumps = support_jumps(grid, cells)
        self.face_axis, self.face_pos = _flagged(jumps)
        below = np.concatenate([lo[j] for (lo, _), j in zip(sides, jumps)])
        above = np.concatenate([hi[j] for (_, hi), j in zip(sides, jumps)])
        self.upper_in = above < m
        self.inner = np.where(self.upper_in, above, below)
        self.centers = _face_centers(grid, self.face_axis, self.face_pos)
        self._corrected = None

    @property
    def nfaces(self) -> int:
        return len(self.inner)

    def faces(self) -> list:
        """The boundary faces as sorted tuples (axis, i[, j])."""
        return list(zip(self.face_axis.tolist(), *self.face_pos.T.tolist()))

    def weights(self, mode: str | None = None) -> np.ndarray:
        """Surface weight of each boundary face by the grid's rule, or by the
        rule `mode` where given (see boundary_faces)."""
        grid = self.grid if mode is None else replace(self.grid, weights=mode)
        if grid.weights == "uncorrected":
            return np.full(self.nfaces, grid.face_weight)
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
        """Sum of a boundary-face quantity over the faces of each cell: the
        two sides of each axis first, then the axes in order, so a cell and
        its mirror image add the same terms in the same order."""
        d = self.grid.d
        slot = 2 * (d * self.inner + self.face_axis) + ~self.upper_in
        side = np.bincount(slot, per_face, 2 * d * self.m).reshape(self.m, d, 2)
        return (side[..., 0] + side[..., 1]).sum(axis=1)


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
    the shape energy and the perimeter of one re-solve sweep share one
    assembly.
    """
    global _memo
    key = (mask.grid, mask.cells.tobytes())
    last, asm = _memo
    if last != key:
        asm = MaskAssembly(mask.grid, mask.cells)
        _memo = (key, asm)
    return asm


def boundary_faces(mask: ShapeMask, mode: str | None = None) -> list:
    """Faces of the staircase boundary with their surface weights, as sorted
    (face tuple, weight) pairs: a tuple view of the mask's assembly.

    The weights follow the grid's rule, or `mode` where it is given.
    "uncorrected" charges h^(d-1) per face.  "corrected" (2d) projects
    staircase faces onto a locally estimated tangent wherever the boundary
    walk shows genuine stair steps (adjacent turns of opposite sense), which
    removes the taxicab bias on smooth or diagonal boundaries while leaving
    flat runs and isolated corners exact.  "auto" picks corrected in 2d.
    """
    asm = mask_assembly(mask)
    return list(zip(asm.faces(), asm.weights(mode).tolist()))


def perimeter(mask: ShapeMask) -> float:
    """The staircase boundary's measure by the grid's rule (boundary_faces)."""
    return float(sum(mask_assembly(mask).weights().tolist()))


def shape_energy(model: IntegrandModel, mask: ShapeMask, field: SbvField) -> float:
    """Shape functional at a given inner field: the solver's face energy
    `pdesolve.energy_of`."""
    from .pdesolve import energy_of
    return energy_of(model, mask, field)


def eval_shape_functional(model: IntegrandModel, mask: ShapeMask, inner=None):
    """Inner-minimize on the mask with the SolverConfig `inner` (None for
    defaults), then evaluate the shape functional.  Returns (J, field)."""
    from .pdesolve import energy_of, solve_inner
    field = solve_inner(model, mask, inner)
    return energy_of(model, mask, field), field


def reduction_check(model: IntegrandModel, field: SbvField, solver=None) -> float:
    """Gap F(u) - J({u != 0}); the inner solve at fixed support can only
    lower the energy, so the gap stays nonnegative up to solver tolerance."""
    F = eval_free_discontinuity(model, field)
    mask = ShapeMask(field.grid, field.values != 0.0)
    J, _ = eval_shape_functional(model, mask, solver)
    return F - J


def _poincare_ratios(grid: Grid, values: np.ndarray, jumps, b: float,
                     p: float, alpha: float, lam) -> np.ndarray:
    """poincare_check for fields stacked on a leading axis, one face pass for
    all of them; lam maps the support cell counts of the fields to the
    eigenvalues of their balls."""
    cells = tuple(range(1, values.ndim))
    count = np.count_nonzero(values, axis=cells)
    if not count.all():
        raise ValueError("field has empty support")
    if not np.isfinite(values).all():
        raise ValueError("field has non-finite values")
    grad = jump = 0.0
    for diff, lo, hi, _ in _faces(grid, values, jumps):
        grad = grad + np.sum(np.abs(diff) ** p, axis=cells)
        jump = jump + np.sum(np.abs(lo) ** p + np.abs(hi) ** p, axis=cells)
    lhs = grad * grid.cell_volume + b * jump * grid.face_weight
    norm = np.sum(np.abs(values) ** alpha, axis=cells) * grid.cell_volume
    return lhs / (lam(count) * norm ** (p / alpha))


def poincare_check(field: SbvField, b: float, p: float, alpha: float,
                   eig=None) -> float:
    """LHS/RHS ratio of the ball lower bound: |du/h|^p h^d on the unflagged
    faces plus b (|u-|^p + |u+|^p) h^(d-1) on the flagged ones, over
    lambda_{b,alpha}(B_m) times the L^alpha norm to the p/alpha."""
    from . import radial
    g = field.grid
    if eig is None:
        eig = radial.robin_eigenvalue_ball

    def lam(count):
        R = radial.ball_radius(g.d, float(count[0]) * g.cell_volume)
        return eig(radial.RadialEigenvalueQuery(d=g.d, R=R, b=b, grad_exp=p,
                                               denom_exp=alpha)).lam

    return float(_poincare_ratios(g, field.values[None],
                                  [j[None] for j in field.jumps], b, p, alpha, lam)[0])


def bv_norm(field: SbvField) -> float:
    """Discrete BV norm: |u_hi - u_lo| h^(d-1) over every face, flagged and
    box faces included (in 2d the anisotropic total variation)."""
    _check_finite(field)
    dd, a, b = _face_lists(field)
    return (float(np.sum(np.abs(dd))) * field.grid.h
            + float(np.sum(np.abs(a - b)))) * field.grid.face_weight


# ---------------------------------------------------------------------------
# plain-text serialization: "d n h origin [rule]" header, one cell per line,
# then faces

_BLOCK_ROWS = 8192  # lines assembled at a time, bounding the writer's memory


def _write_rows(fh, columns):
    """Write the rows of equal-length columns as lines of the entries' reprs,
    each distinct entry (floats by their bits, so -0.0 stays) formatted once."""
    tables = []
    for c in columns:
        keys, inv = np.unique(c.view(f"u{c.itemsize}") if c.dtype.kind == "f" else c,
                              return_inverse=True)
        tables.append((np.array(list(map(repr, keys.view(c.dtype).tolist())), "S"), inv))
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        # one byte row per line, each entry NUL-padded to its column's width
        parts = [t[inv[lo:lo + _BLOCK_ROWS], None].view(np.uint8) for t, inv in tables]
        space = np.full((len(parts[0]), 1), ord(" "), np.uint8)
        rows = np.hstack([b for part in parts for b in (part, space)])
        rows[:, -1] = ord("\n")
        fh.write(rows[rows != 0])


def write_field_text(path, field: SbvField, mask: ShapeMask | None = None):
    """Write a field and a mask it fits (default: its support) as text; a
    field that does not fit raises ValueError before the file is opened.
    The header ends with the grid's boundary rule where the grid's default
    rule is another."""
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
    with open(path, "wb") as fh:
        fh.write(" ".join(map(str, head)).encode() + b"\n")
        _write_rows(fh, cells)
        _write_rows(fh, [axes, *pos.T])


def _table(lines, width: int, what: str) -> np.ndarray:
    """The numbers on the given lines, `width` to a line, as a float array."""
    try:
        table = np.loadtxt(lines, ndmin=2) if lines else np.empty((0, width))
    except ValueError as err:
        raise ValueError(f"malformed {what} line: {err}") from None
    if table.shape[1] != width:
        raise ValueError(f"{what} lines hold {table.shape[1]} numbers, "
                         f"expected {width}")
    return table


def _whole(a: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(a) & (a == np.floor(a))):
        raise ValueError(f"{what} must be integers")
    return a.astype(int)


def read_field_text(path) -> tuple[SbvField, ShapeMask]:
    with open(path) as fh:
        lines = list(filter(str.strip, fh))
    if not lines:
        raise ValueError(f"{path} is empty")
    d, n, h, *origin = lines[0].split()  # files without an origin sit at 0
    rule = origin.pop() if origin and origin[-1] in BOUNDARY_MODES else "auto"
    grid = Grid(int(d), int(n), float(h), tuple(float(v) for v in origin) or None,
                rule)
    ncells = grid.n**grid.d
    cells = _table(lines[1:1 + ncells], grid.d + 2, "cell")
    faces = _whole(_table(lines[1 + ncells:], grid.d + 1, "face"), "face indices")
    if len(cells) != ncells:
        raise ValueError(f"{len(cells)} cell lines for {ncells} cells")
    idx = _whole(cells[:, :grid.d], "cell indices")
    outside = np.any((idx < 0) | (idx >= grid.n), axis=1)
    if np.any(outside):
        raise ValueError(f"cell {tuple(idx[outside][0].tolist())} is outside the grid")
    flat = np.ravel_multi_index(tuple(idx.T), grid.shape())
    if np.bincount(flat, minlength=ncells).max() > 1:
        raise ValueError("a cell has more than one line")
    flags = cells[:, -1]
    if np.any((flags != 0) & (flags != 1)):
        raise ValueError("mask flags must be 0 or 1")
    values = np.zeros(ncells)
    values[flat] = cells[:, grid.d]
    in_omega = np.zeros(ncells, dtype=bool)
    in_omega[flat] = flags == 1
    field = SbvField(grid, values.reshape(grid.shape()), _jump_arrays(grid, faces))
    field.validate()
    mask = ShapeMask(grid, in_omega)
    _check_fits(mask, field)
    return field, mask
