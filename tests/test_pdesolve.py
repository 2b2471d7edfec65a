import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from robinshape import pdesolve
from robinshape.model import IntegrandModel
from robinshape.pdesolve import (SolverConfig, SolverError, energy_of,
                                 grid_robin_eigenvalue, solve_inner)
from robinshape.sbvgrid import Grid, ShapeMask, mask_assembly

import oracles


def slab_model(c0=0.0, f=1.0, beta=1.0, p=2.0, q=2.0):
    return IntegrandModel(p=p, q=q, L=1.0, c0=c0, f=f, beta1=beta,
                          normalization="energy")


def test_slab_against_closed_form_n256():
    n = 256
    grid = Grid(1, n, 1.0 / n)
    fld = solve_inner(slab_model(), ShapeMask.full(grid))
    x = grid.centers()[:, 0]
    exact = oracles.slab_solution(x, 1.0)
    assert np.max(np.abs(fld.values - exact)) <= 1e-3
    assert fld.values[n // 2] == pytest.approx(0.625, abs=1e-3)
    assert fld.values[0] == pytest.approx(0.5, abs=2e-3)
    assert fld.values[-1] == pytest.approx(0.5, abs=2e-3)


def test_slab_refinement_first_order():
    errs = []
    for n in (64, 128, 256, 512):
        grid = Grid(1, n, 1.0 / n)
        fld = solve_inner(slab_model(), ShapeMask.full(grid))
        x = grid.centers()[:, 0]
        errs.append(np.max(np.abs(fld.values - oracles.slab_solution(x, 1.0))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 0.9


def test_zero_source_returns_zero_without_iterations():
    grid = Grid(1, 64, 1.0 / 64)
    fld, info = solve_inner(slab_model(f=0.0), ShapeMask.full(grid),
                            return_info=True)
    assert np.all(fld.values == 0.0)
    assert info["iterations"] == 0


def test_disc_profile_against_radial_solution():
    n = 128
    grid = Grid(2, n, 1.0 / n, weights="corrected")
    R = 0.4
    mask = ShapeMask.disc(grid, (0.5, 0.5), R)
    fld = solve_inner(slab_model(), mask, SolverConfig())
    pts = grid.centers()
    r = np.sqrt(np.sum((pts - 0.5) ** 2, axis=-1))
    exact = np.where(mask.cells, oracles.disc_poisson(r, R), 0.0)
    umax = float(np.max(np.abs(exact)))
    assert np.max(np.abs(fld.values - exact)) <= 0.05 * umax
    assert fld.values[n // 2, n // 2] == pytest.approx(0.24, abs=0.01)


def test_field_jumps_exactly_on_mask_boundary():
    grid = Grid(2, 32, 1.0 / 32)
    mask = ShapeMask.disc(grid, (0.5, 0.5), 0.3)
    fld = solve_inner(slab_model(), mask)
    from robinshape.sbvgrid import boundary_faces
    assert oracles.face_tuples(fld.jumps) == \
        [f for f, _ in boundary_faces(mask, "auto")]
    assert np.all(fld.values[~mask.cells] == 0.0)


def _cg_against_direct(mask, f=2.0, beta=1.5):
    """The CG field against a direct sparse solve of the same face energy;
    returns the number of unknowns CG iterated on."""
    # energy normalization: gradient coefficient 1/2, Robin coefficient beta/2
    model = slab_model(f=f, beta=beta)
    grid, cells = mask.grid, mask.cells
    W = np.zeros(grid.shape())
    for (axis, *pos), w in oracles.boundary_faces_reference(mask):
        lo = tuple(v - (k == axis) for k, v in enumerate(pos))
        centre = (np.array(pos) + 0.5 * (np.arange(grid.d) != axis)) * grid.h
        W[lo if min(lo) >= 0 and cells[lo] else tuple(pos)] += \
            float(model.bdry_coeff(centre)) * w
    ref = oracles.robin_solve_direct(cells, grid.h, model.f_at(grid.centers()),
                                     0.5, W)
    fld, info = solve_inner(model, mask, SolverConfig(tol=1e-12),
                            return_info=True)
    err = np.max(np.abs(fld.values - ref)) / np.max(np.abs(ref))
    assert err <= 1e-9
    return info["unknowns"]


def _off_centre_bump(x):
    return np.exp(-np.sum((x - 0.3) ** 2, axis=-1))


def test_compressed_cg_matches_direct_sparse_solve():
    for grid, cells in oracles.mask_zoo()[::3]:
        mask = ShapeMask(grid, cells)
        if mask.count() > 0:
            _cg_against_direct(mask)
    for n in (32, 33):
        grid = Grid(2, n, 1.0 / n)
        disc = ShapeMask.disc(grid, (0.5, 0.5), 0.35)
        square = ShapeMask(grid, np.zeros((n, n), bool))
        square.cells[4:n - 4, 4:n - 4] = True
        # centred in the box, so symmetric about its midlines: CG runs on
        # the cells up to and on each midline, a quarter (a half in 1d)
        half = slice(0, (n + 1) // 2)
        for mask in (disc, square, ShapeMask.full(grid),
                     ShapeMask.full(Grid(1, n, 1.0 / n))):
            assert _cg_against_direct(mask) == \
                np.count_nonzero(mask.cells[(half,) * mask.grid.d])
        # an x-dependent beta leaves only the reflection in y
        assert _cg_against_direct(disc, beta=lambda x: 0.5 + x[..., 0]) == \
            np.count_nonzero(disc.cells[:, half])
        # an off-centre source, or a beta varying along both axes, folds
        # nothing
        assert _cg_against_direct(disc, f=_off_centre_bump) == disc.count()
        assert _cg_against_direct(
            disc, beta=lambda x: 0.5 + x[..., 0] + 2.0 * x[..., 1] ** 2) \
            == disc.count()
        line = ShapeMask.interval(Grid(1, n, 1.0 / n), 0.2, 0.8)
        for f, beta in ((_off_centre_bump, 1.5),
                        (2.0, lambda x: 0.5 + x[..., 0])):
            assert _cg_against_direct(line, f=f, beta=beta) == line.count()


@pytest.mark.parametrize("n, cells, unknowns, iterations", [
    (64, 2056, 514, 102), (128, 8224, 2056, 200),
    (256, 32928, 8232, 384), (512, 131788, 32947, 790)])
def test_a_symmetric_problem_has_an_exactly_symmetric_field(n, cells, unknowns,
                                                            iterations):
    # the disc, the source and the Robin coefficient are symmetric about
    # both midlines, and so is the field, bit for bit.  CG runs on the
    # mirror classes, a quarter of the cells, in as many iterations as on
    # all of them; n = 256 is the disc of the solve-io benchmark
    mask = ShapeMask.disc(Grid(2, n, 1.0 / n), (0.5, 0.5), 0.4)
    fld, info = solve_inner(slab_model(), mask, return_info=True)
    assert np.array_equal(fld.values, fld.values[:, ::-1])
    assert np.array_equal(fld.values, fld.values[::-1])
    assert (mask.count(), info["unknowns"], info["iterations"]) == \
        (cells, unknowns, iterations)


def test_quadratic_energy_identity():
    # for the linear problem E(u*) = -(1/2) (f, u*)_h up to the volume term
    n = 128
    grid = Grid(1, n, 1.0 / n)
    model = slab_model(c0=0.3)
    mask = ShapeMask.interval(grid, 0.2, 0.9)
    fld = solve_inner(model, mask, SolverConfig(tol=1e-12))
    E = energy_of(model, mask, fld)
    fu = float(np.sum(np.where(mask.cells, 1.0 * fld.values, 0.0))) * grid.h
    assert E - model.c0 * mask.volume() == pytest.approx(-0.5 * fu, abs=1e-8)


def test_minimizer_beats_zero_field():
    grid = Grid(1, 64, 1.0 / 64)
    model = slab_model(c0=0.2)
    mask = ShapeMask.interval(grid, 0.1, 0.9)
    fld = solve_inner(model, mask)
    from robinshape.sbvgrid import SbvField
    zero = SbvField.zero(grid)
    assert energy_of(model, mask, fld) <= energy_of(model, mask, zero) + 1e-14


def test_maximum_principle_surrogate():
    rng = np.random.default_rng(17)
    model = slab_model()
    for trial in range(10):
        n = 48
        grid = Grid(1, n, 1.0 / n)
        mask = ShapeMask(grid, rng.random(n) < 0.6)
        if mask.count() == 0:
            continue
        fld = solve_inner(model, mask)
        assert float(np.min(fld.values)) >= -1e-12


def test_sup_below_slab_bound():
    # f (ell^2/8 + ell/(2 beta)) bounds the 1d solution sup on any subshape
    n = 128
    grid = Grid(1, n, 1.0 / n)
    model = slab_model(f=3.0, beta=1.0)
    for a, b in ((0.0, 1.0), (0.3, 0.8), (0.45, 0.55)):
        mask = ShapeMask.interval(grid, a, b)
        fld = solve_inner(model, mask)
        ell = grid.n * grid.h
        bound = 3.0 * (ell**2 / 8.0 + ell / 2.0)
        assert float(np.max(fld.values)) <= bound


def test_nonlinear_energy_trace_monotone():
    grid = Grid(1, 48, 1.0 / 48)
    model = slab_model(p=3.0, q=2.5)
    mask = ShapeMask.interval(grid, 0.2, 0.8)
    fld, info = solve_inner(model, mask, SolverConfig(tol=1e-9),
                            return_info=True)
    trace = info["energy_trace"]
    assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))
    assert info["mode"] == "newton"


def test_nonlinear_gradient_matches_finite_differences():
    # at eta = 1e-2, so that the eta terms of the gradient are checked too
    rng = np.random.default_rng(23)
    n = 24
    grid = Grid(1, n, 1.0 / n)
    model = slab_model(p=3.0, q=2.5)
    mask = ShapeMask.interval(grid, 0.2, 0.85)
    asm = mask_assembly(mask)
    energy, gradient, _ = pdesolve._face_energy(
        model, asm, asm.gather(model.f_at(grid.centers())),
        pdesolve._robin_weights(model, asm), 1e-2)
    base = asm.gather(rng.uniform(0.3, 1.0, n))
    g = gradient(base)
    for _ in range(20):
        dvec = asm.gather(rng.normal(size=n))
        dvec /= np.linalg.norm(dvec)
        step = 1e-6
        fd = (energy(base + step * dvec) - energy(base - step * dvec)) / (2 * step)
        an = float(np.sum(g * dvec))
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_nonlinear_agrees_with_cg_at_p2():
    # p = q = 2 solves by CG; Newton, run directly on the same energy
    # (eta 1e-8 moves it by about eta^2), lands on the same minimiser
    n = 64
    grid = Grid(1, n, 1.0 / n)
    model = slab_model()
    mask = ShapeMask.interval(grid, 0.15, 0.9)
    lin, info = solve_inner(model, mask, return_info=True)
    assert info["mode"] == "linear-cg"
    asm = mask_assembly(mask)
    fc = asm.gather(model.f_at(grid.centers()))
    bcw = pdesolve._robin_weights(model, asm)
    x, info = pdesolve._solve_newton(model, asm, fc, bcw, 1e-8,
                                     SolverConfig(tol=1e-13), 20000)
    assert info["mode"] == "newton"
    assert info["iterations"] == 1  # one full step minimises a quadratic
    assert np.max(np.abs(lin.values - asm.scatter(x))) < 1e-12


def test_zero_source_at_exponent_three_returns_zero_without_iterations():
    # the zero start is the exact minimiser: a zero gradient returns at once
    grid = Grid(1, 16, 1.0 / 16)
    fld, info = solve_inner(slab_model(f=0.0, p=3.0, q=3.0),
                            ShapeMask.full(grid), return_info=True)
    assert np.all(fld.values == 0.0)
    assert info["iterations"] == 0
    assert info["residual"] == 0.0


def _bump_model(p, q, c0=0.2):
    # the 1d optimize source of --f-bump 0.4,0.6,3 with --f-const 0
    return IntegrandModel(
        p=p, q=q, L=1.0, c0=c0, beta1=1.0, normalization="energy",
        f=lambda x: np.where((x[..., 0] > 0.4) & (x[..., 0] < 0.6), 3.0, 0.0))


def test_newton_converges_across_the_eta_kink():
    # at p = 1.5 the full Newton step crosses the eta-kink at the maximum of
    # u; a sufficient-decrease constant of 1e-4 accepts these steps with a
    # sliver of the predicted decrease and stalls on this interval
    grid = Grid(1, 64, 1.0 / 64)
    mask = ShapeMask.interval(grid, 11 / 64, 37 / 64)
    fld, info = solve_inner(_bump_model(1.5, 1.25), mask,
                            return_info=True)
    assert info["mode"] == "newton"
    assert info["residual"] <= 1e-10
    assert info["iterations"] <= 12


@pytest.mark.parametrize("p,q,cells,model", [
    (3.0, 3.0, (0.2, 0.8), "slab"),
    (1.5, 1.25, (0.0, 1.0), "slab"),
    (1.5, 1.25, (11 / 64, 37 / 64), "bump"),
    (3.0, 3.0, (26 / 64, 38 / 64), "bump"),
    # at the zero start the Hessian is of order eta^(p-2): the first step
    # takes some 80 to 120 halvings
    (6.0, 6.0, (0.0, 1.0), "slab"),
    (8.0, 3.0, (0.0, 1.0), "slab"),
    (8.0, 8.0, (26 / 64, 38 / 64), "bump"),
])
def test_newton_matches_dense_reference_within_its_certificate(p, q, cells,
                                                               model):
    # half the squared Newton decrement bounds the energy gap to the
    # minimiser, which the dense reference gives to rounding; at tol 1e-13
    # J must match it whether or not the last step overshoots the tolerance
    grid = Grid(1, 64, 1.0 / 64)
    model = slab_model(c0=0.2, p=p, q=q) if model == "slab" \
        else _bump_model(p, q)
    mask = ShapeMask.interval(grid, *cells)
    fld, info = solve_inner(model, mask, SolverConfig(tol=1e-13),
                            return_info=True)
    J = energy_of(model, mask, fld)
    _, J_ref = oracles.face_newton_reference(model, mask.cells, grid.h, 1e-6)
    E = J - model.c0 * mask.volume()
    assert J == pytest.approx(J_ref, rel=2e-12)
    assert J - J_ref <= info["residual"] * abs(E) + 1e-15 * abs(J_ref)


def test_tight_tolerance_stops_at_the_rounding_floor():
    # at tol 1e-15 the Armijo demand falls below the rounding of E; the
    # solve returns once a step no longer changes E instead of running to
    # max_iter on steps whose gain is rounding noise
    grid = Grid(1, 64, 1.0 / 64)
    model = _bump_model(1.5, 1.25)
    mask = ShapeMask.interval(grid, 1 / 64, 40 / 64)
    fld, info = solve_inner(model, mask, SolverConfig(tol=1e-15),
                            return_info=True)
    assert info["iterations"] <= 12
    assert info["residual"] <= 1e-14
    _, J_ref = oracles.face_newton_reference(model, mask.cells, grid.h, 1e-6)
    assert energy_of(model, mask, fld) == pytest.approx(J_ref, rel=1e-13)
    grid = Grid(2, 48, 1.0 / 48)
    _, info = solve_inner(slab_model(p=3.0, q=3.0),
                          ShapeMask.disc(grid, (0.5, 0.5), 0.4),
                          SolverConfig(tol=1e-15), return_info=True)
    assert info["iterations"] <= 12
    assert info["residual"] <= 1e-14


@pytest.mark.parametrize("rig", ["energy", "hessian"])
def test_newton_step_without_decrease_raises(monkeypatch, rig):
    # an energy that every step raises: backtracking finds no decrease
    # before the step stops moving u; a negated Hessian gives an ascent
    # direction, which must raise rather than pass the decrement test
    face_energy = pdesolve._face_energy

    def rigged(*args):
        energy, gradient, hessian = face_energy(*args)
        if rig == "energy":
            return (lambda x: energy(x) + float(np.any(x)), gradient, hessian)
        return energy, gradient, lambda x: -hessian(x)
    monkeypatch.setattr(pdesolve, "_face_energy", rigged)
    grid = Grid(1, 16, 1.0 / 16)
    with pytest.raises(SolverError) as err:
        solve_inner(slab_model(p=3.0, q=3.0), ShapeMask.full(grid))
    assert err.value.iterations == 0
    if rig == "energy":
        assert err.value.residual > 0
    else:  # minus half of g.du, negative for an ascent direction
        assert err.value.residual < 0


def test_subquadratic_boundary_exponent_runs():
    # q < 2 makes the boundary term non-smooth at 0; the eta floor keeps the
    # Hessian finite (values reported, not asserted against a reference)
    grid = Grid(1, 48, 1.0 / 48)
    model = slab_model(p=2.5, q=1.5)
    mask = ShapeMask.interval(grid, 0.2, 0.8)
    fld, info = solve_inner(model, mask, SolverConfig(tol=1e-8),
                            return_info=True)
    assert info["mode"] == "newton"
    assert np.all(np.isfinite(fld.values))
    assert float(np.max(fld.values)) > 0


def test_nonconvergence_raises_with_residual():
    grid = Grid(1, 64, 1.0 / 64)
    for p, max_iter in ((2.0, 2), (3.0, 1)):  # CG, then Newton
        with pytest.raises(SolverError) as err:
            solve_inner(slab_model(p=p, q=p), ShapeMask.full(grid),
                        SolverConfig(max_iter=max_iter))
        assert err.value.iterations == max_iter
        assert err.value.residual > 1e-10


def test_negative_robin_coefficient_rejected():
    grid = Grid(1, 64, 1.0 / 64)
    model = IntegrandModel(p=2, q=2, f=1.0, beta1=lambda x: -1.0 + 0 * x[..., 0],
                           normalization="energy")
    with pytest.raises(SolverError):
        solve_inner(model, ShapeMask.full(grid))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    # a cap below one iteration is refused before any solve, at every p
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=max_iter)
    assert SolverConfig(max_iter=1).max_iter == 1
    # the method and eta follow the exponents: neither is a setting
    with pytest.raises(TypeError):
        SolverConfig(mode="linear-cg")
    with pytest.raises(TypeError):
        SolverConfig(eta=1e-2)
    # the boundary weights are the grid's
    with pytest.raises(TypeError):
        SolverConfig(weights="corrected")
    assert not hasattr(SolverConfig(), "resolve")


def test_empty_mask_returns_zero_field():
    grid = Grid(2, 8, 0.125)
    fld, info = solve_inner(slab_model(), ShapeMask.empty(grid),
                            return_info=True)
    assert np.all(fld.values == 0.0)
    assert info["mode"] == "empty"


def _suite_square(n):
    # the square of ball_minimality_suite: k = round(1/h) cells a side,
    # centred in a box of side 1.5
    grid = Grid(2, n, 1.5 / n)
    k = round(1.0 / grid.h)
    i0 = (n - k) // 2
    mask = ShapeMask(grid, np.zeros((n, n), bool))
    mask.cells[i0:i0 + k, i0:i0 + k] = True
    return mask, k


def test_grid_eigenvalue_square_against_separable_root():
    # the unit square's Robin eigenvalue splits into two 1d problems
    ref = 2.0 * oracles.robin_lambda_interval(0.5, 1.0)
    mask, k = _suite_square(128)
    lam, profile = grid_robin_eigenvalue(mask, 1.0)
    side = k * mask.grid.h  # snapped square side
    assert lam == pytest.approx(ref / side**2, rel=0.02)
    inner = profile[mask.cells]
    assert np.all(inner > 0) or np.all(inner < 0)


@pytest.mark.parametrize("n, b", [(128, 1.0), (256, 1.0), (128, 10.0)])
def test_grid_eigenvalue_square_matches_the_discrete_tridiagonal(n, b):
    # the face form on a k x k square is T (x) I + I (x) T, T the 1d Robin
    # tridiagonal, so the discrete eigenvalue is exact up to rounding
    mask, k = _suite_square(n)
    lam, _ = grid_robin_eigenvalue(mask, b)
    ref = oracles.square_robin_eigenvalue(k, mask.grid.h, b)
    assert lam == pytest.approx(ref, rel=1e-10, abs=0)


def test_grid_eigenvalue_matches_dense_face_form_on_the_zoo():
    # every connected 2d mask of the zoo, corrected weights from the
    # reference walk, against a dense eigvalsh of the form assembled cell by
    # cell.  On a mask of many components the smallest eigenvalues of the
    # components nearly coincide, and inverse iteration stops on its 1e-10
    # relative change up to 2.3e-9 away from the dense value (or raises)
    checked = 0
    for grid, cells in oracles.mask_zoo():
        if grid.d != 2 or oracles.components_bfs(cells) != 1:
            continue
        mask = ShapeMask(grid, cells)
        for b in (1.0, 7.0):
            lam, _ = grid_robin_eigenvalue(mask, b)
            ref = oracles.robin_eigenvalue_dense(mask, b)
            assert lam == pytest.approx(ref, rel=1e-9, abs=0)
        checked += 1
    assert checked == 11


@st.composite
def mirrored_masks(draw):
    """A connected 1d or 2d mask: a random half mirrored across one axis or
    both, the extent along a mirror axis even or odd."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(4, 24 if d == 1 else 10))
    axes = draw(st.sampled_from([(0,)] if d == 1 else [(0,), (1,), (0, 1)]))
    odd = draw(st.tuples(*[st.booleans()] * d))
    half = draw(hnp.arrays(bool, tuple(
        draw(st.integers(1, (n + odd[ax]) // 2 if ax in axes else n))
        for ax in range(d))))
    extent = [2 * k - odd[ax] if ax in axes else k
              for ax, k in enumerate(half.shape)]
    offset = [draw(st.integers(0, n - e)) for e in extent]
    cells = oracles.mirrored_cells(half, axes, odd, n, offset)
    assume(cells.any() and oracles.components_bfs(cells) == 1)
    return ShapeMask(Grid(d, n, 1.0 / n), cells)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(mirrored_masks(), st.sampled_from([1.0, 7.0]))
def test_grid_eigenvalue_on_mirror_symmetric_masks(mask, b):
    # the iteration runs on the mirror-invariant fields: the eigenvalue must
    # be the whole form's, and the profile an eigenvector of the whole form
    lam, profile = grid_robin_eigenvalue(mask, b)
    assert lam == pytest.approx(oracles.robin_eigenvalue_dense(mask, b),
                                rel=1e-9, abs=0)
    A = oracles.robin_face_matrix_dense(mask, b)
    y = profile[mask.cells]
    Ay = A @ y
    assert np.linalg.norm(Ay - lam * mask.grid.cell_volume * y) \
        <= 1e-4 * np.linalg.norm(Ay)


def _factorized_sizes(monkeypatch):
    import scipy.sparse.linalg as spla
    sizes, splu = [], spla.splu

    def spy(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return sizes


@pytest.mark.parametrize("n", [128, 256])
def test_the_suite_masks_fold_to_a_quarter(monkeypatch, n):
    # the disc and the square of ball_minimality_suite are symmetric about
    # both axes, and so must be their face forms, corrected weights
    # included: a weight that lost its exact mirror symmetry would keep the
    # whole mask in the factorization
    sizes = _factorized_sizes(monkeypatch)
    square, k = _suite_square(n)
    grid = square.grid
    R = k * grid.h / math.sqrt(math.pi)
    for mask in (ShapeMask.disc(grid, (0.75, 0.75), R), square):
        grid_robin_eigenvalue(mask, 1.0)
        assert sizes[-1] <= mask.count() / 3.5
    # centred off the box's midlines, on a face line in y and off the cell
    # lattice in x, a disc keeps only the reflection in y, about its own
    # midline
    off = ShapeMask.disc(grid, (0.6, 0.5625), R)
    grid_robin_eigenvalue(off, 1.0)
    assert off.count() / 2.1 <= sizes[-1] <= off.count() / 1.9


def _random_mirrored_masks(count, seed=2024):
    """The U of five cells, then count - 1 seeded random connected 2d masks,
    n = 4 to 13, each a random half mirrored across axis 1 and not lying on
    its mirror line alone."""
    cells = np.zeros((5, 5), bool)
    cells[0, 1:4] = cells[1, [1, 3]] = True
    masks = [ShapeMask(Grid(2, 5, 0.2), cells)]
    rng = np.random.default_rng(seed)
    while len(masks) < count:
        n = int(rng.integers(4, 14))
        odd = bool(rng.integers(2))
        half = rng.random((int(rng.integers(1, n + 1)),
                           int(rng.integers(1, (n + odd) // 2 + 1)))) < 0.7
        width = 2 * half.shape[1] - odd
        offset = (int(rng.integers(0, n - half.shape[0] + 1)),
                  int(rng.integers(0, n - width + 1)))
        cells = oracles.mirrored_cells(half, (1,), (False, odd), n, offset)
        if (cells.any() and oracles.components_bfs(cells) == 1
                and _mirror_class_count(cells) < np.count_nonzero(cells)):
            masks.append(ShapeMask(Grid(2, n, 1.0 / n), cells))
    return masks


def _mirror_class_count(cells):
    """Cells up to and on the midlines of the axes about which the mask's
    bounding box is symmetric: one per class of its mirror symmetries."""
    i, j = np.nonzero(cells)
    box = cells[i.min():i.max() + 1, j.min():j.max() + 1]
    half = tuple(slice(0, (k + 1) // 2) if np.array_equal(box, np.flip(box, ax))
                 else slice(None) for ax, k in enumerate(box.shape))
    return np.count_nonzero(box[half])


def test_mirrored_masks_fold_in_both_solvers(monkeypatch):
    # a cell and its mirror image sum their boundary terms in the same
    # order, so on every mask mirrored across axis 1 both CG and the grid
    # eigensolver run on exactly the mask's mirror classes and keep their
    # answers; the U of five cells folds to 3 unknowns
    sizes = _factorized_sizes(monkeypatch)
    masks = _random_mirrored_masks(150)
    assert _mirror_class_count(masks[0].cells) == 3
    for mask in masks:
        classes = _mirror_class_count(mask.cells)
        assert _cg_against_direct(mask) == classes
        lam, _ = grid_robin_eigenvalue(mask, 1.0)
        assert sizes[-1] == classes
        assert lam == pytest.approx(oracles.robin_eigenvalue_dense(mask, 1.0),
                                    rel=1e-9, abs=0)


def test_grid_eigenvalue_refines_toward_reference():
    ref = 2.0 * oracles.robin_lambda_interval(0.5, 1.0)
    errs = []
    for n in (64, 128):
        grid = Grid(2, n, 1.0 / n)
        mask = ShapeMask.full(grid)
        lam, _ = grid_robin_eigenvalue(mask, 1.0)
        errs.append(abs(lam - ref))
    assert errs[1] < errs[0]


def test_grid_eigenvalue_needs_a_finite_positive_coefficient():
    # at b = -5 the form is indefinite (a dense eigvalsh of the same matrix
    # gives -35.7) while inverse iteration settles on a positive value
    mask = ShapeMask.disc(Grid(2, 16, 1.0 / 16), (0.5, 0.5), 0.4)
    for b in (-5.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            grid_robin_eigenvalue(mask, b)


def test_grid_eigenvalue_iteration_cap_raises(monkeypatch):
    grid = Grid(2, 32, 1.0 / 32)
    mask = ShapeMask.disc(grid, (0.5, 0.5), 0.35)
    monkeypatch.setattr(pdesolve, "EIG_MAX_ITER", 2)
    with pytest.raises(SolverError) as err:
        grid_robin_eigenvalue(mask, 1.0)
    assert err.value.iterations == 2
    assert err.value.residual > 1e-10


@pytest.mark.parametrize("n", [128, 256])
def test_grid_eigenvalue_of_a_transposed_mask(n):
    # an ellipse and its transpose have one spectrum; a quotient that
    # cancels digits (S @ y) tells them apart by more than rounding
    grid = Grid(2, n, 1.5 / n)
    x, y = np.moveaxis(grid.centers() - 0.75, -1, 0)
    cells = (x / 0.5) ** 2 + (y / 0.35) ** 2 < 1.0
    lam, _ = grid_robin_eigenvalue(ShapeMask(grid, cells), 1.0)
    lam_t, _ = grid_robin_eigenvalue(ShapeMask(grid, cells.T.copy()), 1.0)
    assert abs(lam - lam_t) <= 2e-15 * lam
