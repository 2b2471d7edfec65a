import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from robinshape import sbvgrid
from robinshape.model import IntegrandModel
from robinshape.pdesolve import SolverConfig, energy_of, solve_inner
from robinshape.radial import RadialSolution
from robinshape.shapeopt import diagnostics
from robinshape.sbvgrid import (Grid, MaskAssembly, SbvField, ShapeMask,
                                _face_centers, boundary_faces, bv_norm,
                                eval_free_discontinuity,
                                eval_shape_functional, perimeter,
                                poincare_check, read_field_text,
                                reduction_check, shape_energy, support_jumps,
                                write_field_text)

import oracles


def slab_model(c0=0.0, f=1.0, beta=1.0):
    return IntegrandModel(p=2, q=2, L=1.0, c0=c0, f=f, beta1=beta,
                          normalization="energy")


def on_rule(mask, weights):
    """The mask's cells on its grid under the boundary rule `weights`."""
    return ShapeMask(replace(mask.grid, weights=weights), mask.cells)


# ------------------------------------------------------------------- fields

def test_extra_jumps_off_the_grid_rejected():
    grid1 = Grid(1, 8, 0.125)
    vals1 = np.ones(8)
    grid2 = Grid(2, 8, 0.125)
    vals2 = np.ones((8, 8))
    # the last face of each axis closes the box and is accepted
    SbvField.from_values(grid1, vals1, [(0, 0), (0, 8)])
    SbvField.from_values(grid2, vals2, [(0, 8, 7), (1, 7, 8)])
    bad1 = [[(5, 2)], [(0, -1)], [(0, 9)], [(-1, 3)], [(0, 2, 3)], [(0,)],
            [(0, 2.5)], [(0, 1), (0, 1, 2)]]
    bad2 = [[(2, 3, 3)], [(0, 9, 0)], [(0, 3, 8)], [(1, 8, 3)], [(1, 3, -1)],
            [(1, 3)], [(0, 1, 1), (1, 2)]]
    for grid, vals, cases in ((grid1, vals1, bad1), (grid2, vals2, bad2)):
        for faces in cases:
            with pytest.raises(ValueError):
                SbvField.from_values(grid, vals, faces)


def test_support_boundary_must_be_flagged():
    grid = Grid(1, 8, 0.125)
    vals = np.zeros(8)
    vals[2:5] = 1.0
    fld = SbvField(grid, vals, (np.zeros(9, bool),))  # bypass auto flagging
    with pytest.raises(ValueError):
        eval_free_discontinuity(slab_model(), fld)


# ------------------------------------------------- free-discontinuity value

def test_free_discontinuity_zero_field():
    grid = Grid(1, 16, 1.0 / 16)
    assert eval_free_discontinuity(slab_model(), SbvField.zero(grid)) == 0.0


def test_free_discontinuity_plateau_plain_normalization():
    # constant 1 across the box, f = 0: only the two end faces pay, each
    # g(1) + g(0) = 1 under the plain beta |s|^q convention
    n = 64
    grid = Grid(1, n, 1.0 / n)
    m = IntegrandModel(p=2, q=2, L=0.5, c0=0.0, f=0.0, beta1=1.0)
    fld = SbvField.from_values(grid, np.ones(n))
    assert eval_free_discontinuity(m, fld) == pytest.approx(2.0, abs=1e-12)
    # the energy normalization halves the face charge
    m_energy = slab_model(beta=1.0, f=0.0)
    assert eval_free_discontinuity(m_energy, fld) == pytest.approx(1.0, abs=1e-12)


def test_free_discontinuity_slab_solution_first_order():
    errs = []
    for n in (64, 128, 256):
        grid = Grid(1, n, 1.0 / n)
        x = grid.centers()[:, 0]
        fld = SbvField.from_values(grid, oracles.slab_solution(x, 1.0))
        F = eval_free_discontinuity(slab_model(), fld)
        errs.append(abs(F - (-7.0 / 24.0)))
    assert errs[-1] / abs(7.0 / 24.0) < 0.01
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 0.9


def test_free_discontinuity_smooth_field_converges_to_integral():
    # u = sin(pi x) sin(pi y), no jumps except the zero trace at the box
    # boundary: F -> int (1/2)|grad u|^2 - u = pi^2/4 - 4/pi^2
    target = math.pi**2 / 4.0 - 4.0 / math.pi**2
    errs = []
    for n in (32, 64, 128):
        grid = Grid(2, n, 1.0 / n)
        pts = grid.centers()
        vals = np.sin(math.pi * pts[..., 0]) * np.sin(math.pi * pts[..., 1])
        fld = SbvField.from_values(grid, vals)
        F = eval_free_discontinuity(slab_model(), fld)
        errs.append(abs(F - target))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 0.9


def test_free_discontinuity_insertion_order_invariant():
    rng = np.random.default_rng(2)
    n = 32
    grid = Grid(1, n, 1.0 / n)
    vals = np.where(rng.random(n) < 0.7, rng.uniform(0.5, 1.5, n), 0.0)
    support = oracles.face_tuples(support_jumps(grid, vals))
    jumps = sorted(set(support) | {(0, 5), (0, 9)})
    m = slab_model()
    vals_ref = eval_free_discontinuity(m, SbvField.from_values(grid, vals, jumps))
    shuffled = [jumps[i] for i in rng.permutation(len(jumps))]
    assert eval_free_discontinuity(m, SbvField.from_values(grid, vals, shuffled)) \
        == vals_ref


def test_array_sums_match_face_loop_reference():
    # 2d, interior jumps between nonzero cells, callable beta and source
    rng = np.random.default_rng(17)
    n = 12
    grid = Grid(2, n, 1.0 / n, origin=(-0.3, 0.2))
    vals = np.where(rng.random((n, n)) < 0.75,
                    rng.uniform(-1.0, 2.0, (n, n)), 0.0)
    extra = [(0, 3, 4), (0, 6, 6), (0, 9, 1), (1, 5, 2), (1, 7, 9), (1, 2, 2)]
    fld = SbvField.from_values(grid, vals, extra)
    model = IntegrandModel(
        p=2.5, q=2.0, L=0.7, c0=0.3, f=lambda x: 1.0 + x[..., 0],
        beta1=lambda x: 1.0 + x[..., 0] ** 2 + 0.5 * np.sin(3.0 * x[..., 1]))
    b, p = 1.3, 2.5
    F_ref, bv_ref, lhs_ref = oracles.sbv_sums_reference(model, fld, b, p)
    # with lambda = 1 and alpha = p the ratio is LHS / sum |u|^p h^d
    unit = lambda query: RadialSolution(1.0, np.zeros((0, 2)), {})
    norm = float(np.sum(np.abs(vals) ** p)) * grid.cell_volume
    lhs = poincare_check(fld, b, p, p, eig=unit) * norm
    assert eval_free_discontinuity(model, fld) == pytest.approx(F_ref, rel=1e-13)
    assert bv_norm(fld) == pytest.approx(bv_ref, rel=1e-13)
    assert lhs == pytest.approx(lhs_ref, rel=1e-13)


# ----------------------------------------------------------------- perimeter

def test_perimeter_single_cell():
    grid = Grid(2, 16, 1.0 / 16, weights="uncorrected")
    mask = ShapeMask(grid, np.zeros((16, 16), bool))
    mask.cells[5, 5] = True
    assert perimeter(mask) == pytest.approx(4 / 16)
    grid1 = Grid(1, 16, 1.0 / 16)
    m1 = ShapeMask(grid1, np.zeros(16, bool))
    m1.cells[5] = True
    assert perimeter(m1) == pytest.approx(2.0)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
def test_perimeter_square_exact_both_modes(k):
    n = 32
    grid = Grid(2, n, 1.0 / n)
    mask = ShapeMask(grid, np.zeros((n, n), bool))
    mask.cells[4:4 + k, 7:7 + k] = True
    exact = 4 * k * grid.h
    assert perimeter(on_rule(mask, "uncorrected")) == pytest.approx(exact, rel=1e-12)
    assert perimeter(on_rule(mask, "corrected")) == pytest.approx(exact, rel=1e-12)


def test_perimeter_disc_corrected():
    n = 256
    grid = Grid(2, n, 1.0 / n)
    mask = ShapeMask.disc(grid, (0.5, 0.5), 0.4)
    target = 2 * math.pi * 0.4
    assert abs(perimeter(on_rule(mask, "corrected")) - target) / target < 0.03
    # the uncorrected staircase overshoots by the taxicab factor
    assert perimeter(on_rule(mask, "uncorrected")) / target > 1.2


def test_perimeter_disc_corrected_across_resolutions():
    R = 0.4
    target = 2 * math.pi * R
    for n in (128, 256, 512):
        grid = Grid(2, n, 1.0 / n)
        mask = ShapeMask.disc(grid, (0.5, 0.5), R)
        assert abs(perimeter(on_rule(mask, "corrected")) - target) / target < 0.02


def test_perimeter_diagonal_strip_corrected():
    n = 64
    grid = Grid(2, n, 1.0 / n)
    cells = np.zeros((n, n), bool)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cells[(ii + jj >= 30) & (ii + jj <= 60)] = True
    mask = ShapeMask(grid, cells)
    corr = perimeter(on_rule(mask, "corrected"))
    unc = perimeter(on_rule(mask, "uncorrected"))
    # the two 45-degree edges shrink by sqrt(2)/2; box-edge faces stay
    assert corr < 0.8 * unc


def test_boundary_faces_sum_to_perimeter():
    grid = Grid(2, 64, 1.0 / 64)
    mask = ShapeMask.disc(grid, (0.5, 0.5), 0.3)
    for mode in ("uncorrected", "corrected"):
        faces = boundary_faces(mask, mode)
        assert sum(w for _, w in faces) == pytest.approx(perimeter(on_rule(mask, mode)))
        assert all(0 < w <= grid.h + 1e-15 for _, w in faces)


@pytest.mark.parametrize("k", range(len(oracles.mask_zoo())))
def test_boundary_faces_match_tuple_reference(k):
    grid, cells = oracles.mask_zoo()[k]
    mask = ShapeMask(grid, cells)
    for mode in ("uncorrected", "corrected", "auto"):
        ref = oracles.boundary_faces_reference(mask, mode)
        assert boundary_faces(mask, mode) == ref
        assert perimeter(on_rule(mask, mode)) == float(sum(w for _, w in ref))


def test_boundary_faces_follow_in_place_flips():
    grid = Grid(2, 16, 1.0 / 16)
    mask = ShapeMask.disc(grid, (0.5, 0.5), 0.3)
    before = boundary_faces(mask)
    mask.cells[8, 8] = False  # a hole, flipped in place as the annealer does
    after = boundary_faces(mask)
    assert after == oracles.boundary_faces_reference(mask) != before


# ---------------------------------------------------------------- adjacency

grids = st.tuples(st.sampled_from([1, 2]), st.integers(4, 12),
                  st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
    lambda t: Grid(t[0], t[1], 1.0 / t[1], t[2:2 + t[0]]))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(grids)
def test_grid_neighbours_are_the_index_arithmetic(grid):
    size, shape = grid.n**grid.d, grid.shape()
    nb = grid.neighbours()
    assert nb.shape == (2 * grid.d, size) and nb.flags.c_contiguous
    for c in range(size):
        at = np.unravel_index(c, shape)
        for ax in range(grid.d):
            for k, step in ((2 * ax, -1), (2 * ax + 1, 1)):
                there = list(at)
                there[ax] += step
                inbox = 0 <= there[ax] < grid.n  # false at box edges and row ends
                want = np.ravel_multi_index(there, shape) if inbox else size
                assert nb[k, c] == want
                # symmetric: the neighbour below c has c above it
                if inbox:
                    assert nb[k ^ 1, want] == c
    some = np.array([size - 1, 0, size // 2])
    part = grid.neighbours(some)
    assert part.flags.c_contiguous and np.array_equal(part, nb[:, some])


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(grids)
def test_side_centers_are_the_face_centers_bit_for_bit(grid):
    centers = grid.side_centers()
    assert centers.shape == (2 * grid.d, grid.n**grid.d, grid.d)
    fld = SbvField.zero(grid)
    for c in range(grid.n**grid.d):
        at = np.unravel_index(c, grid.shape())
        for ax in range(grid.d):
            for up in (0, 1):
                pos = [int(i) + up * (k == ax) for k, i in enumerate(at)]
                face = _face_centers(grid, np.array([ax]), np.array([pos]))[0]
                _, _, x = oracles.face_traces(fld, (ax, *pos))
                assert centers[2 * ax + up, c].tolist() == face.tolist() == x.tolist()


def assert_assembly_neighbours(grid, cells):
    asm = MaskAssembly(grid, cells)
    assert asm.nbrs.flags.c_contiguous
    assert np.array_equal(asm.nbrs, oracles.mask_nbrs_reference(cells))


def test_mask_assembly_neighbours_on_the_zoo():
    for grid, cells in oracles.mask_zoo_with_ends():
        assert_assembly_neighbours(grid, cells)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(grids, st.data())
def test_mask_assembly_neighbours_on_random_masks(grid, data):
    assert_assembly_neighbours(grid, data.draw(hnp.arrays(bool, grid.shape())))


# ------------------------------------------------------------ shape energy

def test_shape_functional_empty_mask():
    grid = Grid(1, 32, 1.0 / 32)
    J, fld = eval_shape_functional(slab_model(), ShapeMask.empty(grid))
    assert J == 0.0
    assert np.all(fld.values == 0.0)


def test_shape_functional_full_slab():
    n = 256
    grid = Grid(1, n, 1.0 / n)
    J, fld = eval_shape_functional(slab_model(), ShapeMask.full(grid))
    assert J == pytest.approx(-7.0 / 24.0, rel=0.01)


def test_shape_functional_square_self_refinement():
    m = slab_model()
    vals = []
    for n in (64, 256):
        grid = Grid(2, n, 1.0 / n)
        mask = ShapeMask(grid, np.zeros((n, n), bool))
        q = n // 4
        mask.cells[q:3 * q, q:3 * q] = True
        J, _ = eval_shape_functional(m, mask)
        vals.append(J)
    assert vals[0] == pytest.approx(vals[1], rel=0.02)


@pytest.mark.parametrize("p, weights", [(2.0, "auto"), (2.0, "uncorrected"),
                                        (3.0, "auto")])
def test_reported_energy_is_the_solver_energy(p, weights):
    # J is the solver's face energy at the solver's weights, bit for bit, on
    # every route that reports it
    model = IntegrandModel(p=p, q=p, L=0.8, c0=0.3,
                           f=lambda x: 1.0 + x[..., 0],
                           beta1=lambda x: 0.5 + x[..., 0] ** 2,
                           normalization="energy")
    config = SolverConfig(tol=1e-6)
    for grid, cells in oracles.mask_zoo():
        mask = ShapeMask(replace(grid, weights=weights), cells)
        J, fld = eval_shape_functional(model, mask, config)
        E = energy_of(model, mask, fld)
        assert J == E
        assert shape_energy(model, mask, fld) == E


# ---------------------------------------------------------------- reduction

def test_reduction_zero_field():
    grid = Grid(1, 32, 1.0 / 32)
    gap = reduction_check(slab_model(c0=1.0), SbvField.zero(grid))
    assert gap == 0.0


def test_reduction_minimizer_fixed_point():
    n = 64
    grid = Grid(1, n, 1.0 / n)
    model = slab_model(c0=1.0)
    mask = ShapeMask.interval(grid, 0.2, 0.8)
    fld = solve_inner(model, mask, SolverConfig())
    gap = reduction_check(model, fld)
    assert abs(gap) < 1e-10


def test_free_discontinuity_equals_J_at_the_minimiser():
    # without interior jumps F is the solver's energy at eta = 0 with
    # uncorrected boundary weights, so the reduction gap closes
    model = IntegrandModel(p=2, q=2, L=0.8, c0=0.3,
                           f=lambda x: 1.0 + x[..., 0],
                           beta1=lambda x: 0.5 + x[..., 0] ** 2,
                           normalization="energy")
    config = SolverConfig(tol=1e-12)
    for grid, cells in oracles.mask_zoo()[::4]:
        mask = ShapeMask(replace(grid, weights="uncorrected"), cells)
        fld = solve_inner(model, mask, config)
        assert abs(reduction_check(model, fld, config)) <= 1e-10


def test_reduction_random_fields_nonnegative():
    rng = np.random.default_rng(31)
    model = slab_model(c0=1.0)
    n = 64
    grid = Grid(1, n, 1.0 / n)
    worst = np.inf
    for _ in range(30):
        support = rng.random(n) < 0.5
        vals = np.where(support, rng.uniform(0.2, 2.5, n), 0.0)
        fld = SbvField.from_values(grid, vals)
        worst = min(worst, reduction_check(model, fld))
    assert worst >= -1e-8


# ----------------------------------------------------------------- poincare

def test_poincare_indicator_closed_form():
    # u = k on an interval of measure m: LHS = 2 b k^p exactly,
    # RHS = lam * (k^alpha m)^(p/alpha) with lam from the transcendental root
    n, k_cells, kval, b = 128, 64, 1.7, 1.0
    grid = Grid(1, n, 1.0 / n)
    vals = np.zeros(n)
    vals[32:32 + k_cells] = kval
    fld = SbvField.from_values(grid, vals)
    m = k_cells * grid.h
    lam = oracles.robin_lambda_interval(m / 2.0, b)
    lhs = 2 * b * kval**2
    rhs = lam * (kval**2 * m)
    ratio = poincare_check(fld, b, 2.0, 2.0)
    assert ratio == pytest.approx(lhs / rhs, rel=1e-6)
    assert ratio >= 1.0


def test_poincare_eigenfunction_near_equality():
    n, k = 128, 64
    grid = Grid(1, n, 1.0 / n)
    m = k * grid.h
    lam = oracles.robin_lambda_interval(m / 2.0, 1.0)
    x = grid.centers()[:, 0]
    i0 = (n - k) // 2
    center = x[i0] - grid.h / 2 + m / 2
    vals = np.zeros(n)
    vals[i0:i0 + k] = np.cos(math.sqrt(lam) * (x[i0:i0 + k] - center))
    fld = SbvField.from_values(grid, vals)
    ratio = poincare_check(fld, 1.0, 2.0, 2.0)
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_poincare_mixed_exponents_indicator():
    # the lemma's form: gradient/jump exponent p over the L^alpha norm
    n, k_cells, kval, b = 128, 40, 1.3, 1.0
    grid = Grid(1, n, 1.0 / n)
    vals = np.zeros(n)
    vals[20:20 + k_cells] = kval
    fld = SbvField.from_values(grid, vals)
    for p, alpha in ((2.0, 1.5), (3.0, 2.0)):
        ratio = poincare_check(fld, b, p, alpha)
        assert ratio >= 0.99


def test_poincare_rejects_empty_support():
    grid = Grid(1, 16, 1.0 / 16)
    with pytest.raises(ValueError):
        poincare_check(SbvField.zero(grid), 1.0, 2.0, 2.0)


def test_nonfinite_field_rejected():
    grid = Grid(1, 8, 0.125)
    vals = np.ones(8)
    vals[3] = np.nan
    fld = SbvField.from_values(grid, vals)
    with pytest.raises(ValueError):
        bv_norm(fld)
    with pytest.raises(ValueError):
        poincare_check(fld, 1.0, 2.0, 2.0)
    vals[3] = np.inf
    with pytest.raises(ValueError):
        bv_norm(SbvField.from_values(grid, vals))


@pytest.mark.parametrize("use", [
    lambda model, mask, fld, path: energy_of(model, mask, fld),
    lambda model, mask, fld, path: shape_energy(model, mask, fld),
    lambda model, mask, fld, path: diagnostics(model, mask, fld),
    lambda model, mask, fld, path: write_field_text(path, fld, mask)],
    ids=["energy_of", "shape_energy", "diagnostics", "write_field_text"])
def test_field_and_mask_on_different_grids_raise(use, tmp_path):
    # a mask and a field on it share one grid, boundary rule included, and
    # the field is finite and vanishes off the mask; each pair below breaks
    # one of these, and none is scored or written
    coarse, fine = Grid(1, 32, 1 / 32), Grid(1, 64, 1 / 64)
    mask = ShapeMask.interval(coarse, 0.25, 0.75)
    disc = ShapeMask.disc(Grid(2, 16, 1 / 16), (0.5, 0.5), 0.3)
    nan = mask.cells.astype(float)
    nan[12] = np.nan
    cases = [
        # a shape of 32 cells with values of 64
        (mask, SbvField.from_values(
            fine, ShapeMask.interval(fine, 0.25, 0.75).cells), "grid"),
        # a field solved under the other boundary rule
        (disc, SbvField.from_values(
            Grid(2, 16, 1 / 16, weights="uncorrected"), disc.cells), "grid"),
        (mask, SbvField.from_values(
            coarse, ShapeMask.interval(coarse, 0.2, 0.75).cells), "outside"),
        (mask, SbvField.from_values(coarse, nan), "non-finite"),
    ]
    path = tmp_path / "field.txt"
    for on, fld, match in cases:
        with pytest.raises(ValueError, match=match):
            use(slab_model(), on, fld, str(path))
        assert not path.exists()


def test_the_grid_carries_the_boundary_rule(tmp_path):
    # the solver and the score read one rule, the grid's: the uncorrected
    # minimum of the n = 64 disc, bit for bit
    mask = ShapeMask.disc(Grid(2, 64, 1 / 64, weights="uncorrected"),
                          (0.5, 0.5), 0.4)
    model = slab_model()
    assert shape_energy(model, mask, solve_inner(model, mask)) \
        == -0.04352695542578364
    # every rule gives one measure in 1d, so one grid
    assert Grid(1, 8, 1 / 8, weights="corrected") == Grid(1, 8, 1 / 8)
    with pytest.raises(ValueError):
        Grid(2, 8, 1 / 8, weights="bogus")
    body = "\n0 1.0 1\n1 1.0 1\n2 1.0 1\n3 1.0 1\n0 0\n0 4\n"
    path = tmp_path / "field.txt"
    path.write_text("1 4 0.25 0.0" + body)
    read_field_text(str(path))
    for header in ("1 4 nan", "1 4 inf", "1 4 0.25 nan", "1 4 0.25 inf"):
        path.write_text(header + body)
        with pytest.raises(ValueError, match="finite"):
            read_field_text(str(path))


# --------------------------------------------------------- BV norm and bound

def test_perimeter_bounded_by_bv_over_essinf():
    model = slab_model(c0=0.5)
    n = 128
    grid = Grid(1, n, 1.0 / n)
    mask = ShapeMask.interval(grid, 0.3, 0.7)
    fld = solve_inner(model, mask, SolverConfig())
    essinf = float(np.min(fld.values[mask.cells]))
    assert essinf > 0
    assert perimeter(mask) <= bv_norm(fld) / essinf + 1e-12


def test_bv_over_essinf_stays_bounded_under_refinement():
    # finite perimeter, discretely: on the disc R = 0.4 the minimiser of
    # L|grad u|^2 - f u + beta u^2 is u = f (R^2 - r^2)/(4L) + f R/(2 beta),
    # least on the boundary, and its anisotropic total variation (weight
    # |cos| + |sin| on every direction, 8 over the circle) over ess inf u
    # is 8 (R + beta R^2 / (3L)) = 3.627 whatever f; the grid keeps it
    # within 2% from n = 64 to 512
    R, model = 0.4, slab_model(c0=0.2)
    limit = 8.0 * (R + R**2 / 3.0)
    for n in (64, 128, 256, 512):
        grid = Grid(2, n, 1.0 / n)
        mask = ShapeMask.disc(grid, (0.5, 0.5), R)
        fld = solve_inner(model, mask)
        essinf = float(np.min(fld.values[mask.cells]))
        assert bv_norm(fld) / essinf == pytest.approx(limit, rel=0.02)


@st.composite
def sbv_fields(draw):
    """A 1d or 2d field of one sign with zero cells and random extra jumps."""
    d = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(4, 16 if d == 1 else 7))
    grid = Grid(d, n, 1.0 / n)
    size = st.floats(0.05, 3.0)
    values = draw(hnp.arrays(float, grid.shape(),
                             elements=st.one_of(st.just(0.0), size)))
    if draw(st.booleans()):
        values = -values
    faces = draw(st.lists(st.integers(0, d - 1).flatmap(lambda ax: st.tuples(
        st.just(ax), *(st.integers(0, n - (k != ax)) for k in range(d)))),
        max_size=6))
    return SbvField.from_values(grid, values, faces)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(sbv_fields())
def test_bv_norm_is_the_face_loop_sum_and_bounds_the_perimeter(fld):
    _, bv_ref, _ = oracles.sbv_sums_reference(slab_model(), fld, 1.0, 2.0)
    bv = bv_norm(fld)
    assert bv == pytest.approx(bv_ref, rel=1e-13, abs=1e-15)
    support = fld.values != 0.0
    if np.any(support) and np.all(fld.values[support] > 0.0):
        essinf = float(np.min(fld.values[support]))
        for mode in ("uncorrected", "corrected", "auto"):
            P = perimeter(on_rule(ShapeMask(fld.grid, support), mode))
            assert P <= bv / essinf * (1.0 + 1e-12)


# ------------------------------------------------------------- serialization

def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    for d, n, origin in ((1, 16, None), (2, 8, None), (1, 16, (-2.0,)),
                         (2, 8, (-2.0, 0.5)), (2, 8, (0.1, -1e-17))):
        grid = Grid(d, n, 1.0 / n, origin)
        vals = np.where(rng.random(grid.shape()) < 0.6,
                        rng.uniform(-1, 2, grid.shape()), 0.0)
        extra = [(0, 3) if d == 1 else (0, 3, 2)]
        fld = SbvField.from_values(grid, vals, extra)
        mask = ShapeMask(grid, vals != 0.0)
        path = tmp_path / "field.txt"
        write_field_text(str(path), fld, mask)
        fld2, mask2 = read_field_text(str(path))
        assert fld2.grid == grid and fld2.grid.origin == grid.origin
        assert np.array_equal(fld2.values, fld.values)
        assert len(fld2.jumps) == d
        assert all(np.array_equal(a, b) for a, b in zip(fld2.jumps, fld.jumps))
        assert np.array_equal(mask2.cells, mask.cells)
        # rewriting what was read gives the same bytes
        write_field_text(str(tmp_path / "again.txt"), fld2, mask2)
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


# floats at the ends of repr's range: the least subnormal, the largest
# finite, the switches to exponent notation
TEXT_SPECIALS = (0.0, -0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308,
                 -1.7976931348623157e308)


@st.composite
def text_fields(draw):
    """A field and a mask it fits, with few distinct values and -0.0 among
    them, on grids whose index widths cross a digit; the origin may be
    shifted, the 2d header may carry "uncorrected", and a field of signed
    zeros without extra faces has no jump faces at all."""
    d = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((9, 10, 11, 100)))
    origin = draw(st.none() | st.tuples(*[st.floats(-1e3, 1e3)] * d))
    grid = Grid(d, n, 1.0 / n, origin, draw(st.sampled_from(("auto", "uncorrected"))))
    palette = [-0.0] + draw(st.lists(st.sampled_from(TEXT_SPECIALS) | st.floats(
        allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array(palette)[rng.integers(len(palette), size=grid.shape())]
    faces = []
    if draw(st.booleans()):
        values = np.copysign(0.0, values)
    else:
        faces = draw(st.lists(st.integers(0, d - 1).flatmap(lambda ax: st.tuples(
            st.just(ax), *(st.integers(0, n - (k != ax)) for k in range(d)))),
            max_size=6))
    fld = SbvField.from_values(grid, values, faces)
    return fld, ShapeMask(grid, (values != 0.0) | (rng.random(grid.shape()) < 0.3))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(text_fields(), st.sampled_from([None, 1, 7, 100]))
def test_field_text_is_the_line_by_line_text(tmp_path_factory, case, block):
    # the same bytes as one repr per entry joined line by line, whatever the
    # block of lines assembled at a time (the default 8192 lies between the
    # 1d and the 2d cell counts at n = 100), and the values read back bit
    # for bit
    fld, mask = case
    out = tmp_path_factory.mktemp("text")
    with mock.patch.object(sbvgrid, "_BLOCK_ROWS", block or sbvgrid._BLOCK_ROWS):
        write_field_text(str(out / "field.txt"), fld, mask)
    oracles.field_text_reference(str(out / "reference.txt"), fld, mask)
    assert (out / "field.txt").read_bytes() == (out / "reference.txt").read_bytes()
    fld2, mask2 = read_field_text(str(out / "field.txt"))
    assert fld2.values.tobytes() == fld.values.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(fld2.jumps, fld.jumps))
    assert np.array_equal(mask2.cells, mask.cells)


def test_field_header_without_origin_reads_at_zero(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("1 4 0.25\n0 0.0 0\n1 1.5 1\n2 2.5 1\n3 0.0 0\n0 1\n0 3\n")
    fld, mask = read_field_text(str(path))
    assert fld.grid == Grid(1, 4, 0.25) and fld.grid.origin == (0.0,)
    assert np.array_equal(fld.values, [0.0, 1.5, 2.5, 0.0])
    assert oracles.face_tuples(fld.jumps) == [(0, 1), (0, 3)]


def test_malformed_field_files_rejected(tmp_path):
    good1 = ["1 4 0.25 0.0", "0 0.0 0", "1 1.5 1", "2 2.5 1", "3 0.0 0",
             "0 1", "0 3"]
    # every cell at 1.0: all 16 faces of the box boundary are flagged
    good2 = ["2 4 0.25 0.0 0.0"] + [f"{i} {j} 1.0 1" for i in range(4)
                                    for j in range(4)] \
        + [f"0 {i} {j}" for i in (0, 4) for j in range(4)] \
        + [f"1 {i} {j}" for i in range(4) for j in (0, 4)]
    cases = [
        (good1, 4, "-1 0.0 0"),    # a negative cell index
        (good1, 4, "2 2.5 1"),     # a repeated cell line
        (good1, 4, None),          # a missing cell line
        (good1, 5, "0 99"),        # a face outside the box
        (good1, 5, "5 2"),         # a face with a bad axis
        (good1, 5, "0 -1"),        # a negative face index
        (good1, 2, "1 1.5 2"),     # a mask flag other than 0 or 1
        (good1, 2, "1 1.5 1 7"),   # a cell line with too many tokens
        (good1, 2, "1 1.5"),       # a cell line with too few tokens
        (good1, 6, "0 1 2"),       # a face line with too many tokens
        (good1, 2, "1.5 1.5 1"),   # a cell index that is not an integer
        (good2, 17, "0 2 4"),      # a face outside the box, off its axis
        (good2, 17, "2 1 1"),      # a face with a bad axis
        (good2, 18, "1 3"),        # a face line with too few tokens
        (good2, 3, "1 4 1.0 1"),   # a cell index outside the box
        (good1[:6], 5, None),      # nonzero cells and no face lines at all
        (good2, 32, None),         # a box face beside a nonzero cell missing
        (good1, 2, "1 1.5 0"),     # a nonzero cell outside the mask
    ]
    for good in (good1, good2):
        path = tmp_path / "good.txt"
        path.write_text("\n".join(good) + "\n")
        read_field_text(str(path))
    for k, (good, line, repl) in enumerate(cases):
        lines = list(good)
        if repl is None:
            del lines[line]
        else:
            lines[line] = repl
        path = tmp_path / f"bad{k}.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_field_text(str(path))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 8, 0.1)
    with pytest.raises(ValueError):
        Grid(1, 2, 0.1)
    with pytest.raises(ValueError):
        Grid(1, 8, -0.1)
    g = Grid(2, 8, 0.25)
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.face_weight == pytest.approx(0.25)


def test_mask_constructors():
    grid = Grid(1, 10, 0.1)
    m = ShapeMask.interval(grid, 0.25, 0.65)
    assert m.count() == 5  # centers 0.25, 0.35, ..., 0.65 inclusive
    assert m.volume() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ShapeMask.interval(grid, 0.65, 0.25)
    grid2 = Grid(2, 10, 0.1)
    d = ShapeMask.disc(grid2, (0.5, 0.5), 0.25)
    assert 0.1 < d.volume() < 0.3
