import math

import numpy as np
import pytest

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
    grid = Grid(2, n, 1.0 / n)
    R = 0.4
    mask = ShapeMask.disc(grid, (0.5, 0.5), R)
    fld = solve_inner(slab_model(), mask,
                      SolverConfig(weights="corrected"))
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


def test_compressed_cg_matches_direct_sparse_solve():
    # energy normalization: gradient coefficient 1/2, Robin coefficient 1.5/2
    model = slab_model(f=2.0, beta=1.5)
    for grid, cells in oracles.mask_zoo()[::3]:
        mask = ShapeMask(grid, cells)
        if mask.count() == 0:
            continue
        W = np.zeros(grid.shape())
        for (axis, *pos), w in oracles.boundary_faces_reference(mask):
            lo = tuple(v - (k == axis) for k, v in enumerate(pos))
            W[lo if min(lo) >= 0 and cells[lo] else tuple(pos)] += 0.75 * w
        ref = oracles.robin_solve_direct(cells, grid.h, 2.0, 0.5, W)
        fld = solve_inner(model, mask,
                          SolverConfig(tol=1e-12))
        err = np.max(np.abs(fld.values - ref)) / np.max(np.abs(ref))
        assert err <= 1e-9


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
        pdesolve._robin_weights(model, asm, "auto"), 1e-2)
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
    bcw = pdesolve._robin_weights(model, asm, "auto")
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
    # the method and eta follow the exponents: neither is a setting
    with pytest.raises(TypeError):
        SolverConfig(mode="linear-cg")
    with pytest.raises(TypeError):
        SolverConfig(eta=1e-2)
    assert not hasattr(SolverConfig(), "resolve")


def test_empty_mask_returns_zero_field():
    grid = Grid(2, 8, 0.125)
    fld, info = solve_inner(slab_model(), ShapeMask.empty(grid),
                            return_info=True)
    assert np.all(fld.values == 0.0)
    assert info["mode"] == "empty"


def test_grid_eigenvalue_square_against_separable_root():
    # the unit square's Robin eigenvalue splits into two 1d problems
    ref = 2.0 * oracles.robin_lambda_interval(0.5, 1.0)
    n = 128
    grid = Grid(2, n, 1.5 / n)
    k = round(1.0 / grid.h)
    i0 = (n - k) // 2
    mask = ShapeMask(grid, np.zeros((n, n), bool))
    mask.cells[i0:i0 + k, i0:i0 + k] = True
    lam, profile = grid_robin_eigenvalue(mask, 1.0)
    side = k * grid.h  # snapped square side
    assert lam == pytest.approx(ref / side**2, rel=0.02)
    inner = profile[mask.cells]
    assert np.all(inner > 0) or np.all(inner < 0)


def test_grid_eigenvalue_refines_toward_reference():
    ref = 2.0 * oracles.robin_lambda_interval(0.5, 1.0)
    errs = []
    for n in (64, 128):
        grid = Grid(2, n, 1.0 / n)
        mask = ShapeMask.full(grid)
        lam, _ = grid_robin_eigenvalue(mask, 1.0)
        errs.append(abs(lam - ref))
    assert errs[1] < errs[0]


def test_grid_eigenvalue_iteration_cap_raises():
    grid = Grid(2, 32, 1.0 / 32)
    mask = ShapeMask.disc(grid, (0.5, 0.5), 0.35)
    with pytest.raises(SolverError) as err:
        grid_robin_eigenvalue(mask, 1.0, max_iter=2)
    assert err.value.iterations == 2
    assert err.value.residual > 1e-10
