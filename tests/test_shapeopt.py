import numpy as np
import pytest

from robinshape.model import IntegrandModel
from robinshape.pdesolve import SolverConfig, energy_of
from robinshape.sbvgrid import Grid, ShapeMask, boundary_faces
from robinshape.shapeopt import (AnnealSchedule, ShapeOptError, component_count,
                                 diagnostics, optimize_shape)

import oracles


def bump_model(c0=0.2, amp=3.0, lo=0.4, hi=0.6):
    return IntegrandModel(
        p=2, q=2, L=1.0, c0=c0,
        f=lambda pts: np.where((pts[..., 0] > lo) & (pts[..., 0] < hi), amp, 0.0),
        beta1=1.0, normalization="energy")


def test_zero_source_collapses_to_empty():
    model = IntegrandModel(p=2, q=2, c0=0.5, f=0.0, beta1=1.0,
                           normalization="energy")
    grid = Grid(1, 32, 1.0 / 32)
    sched = AnnealSchedule(T0=0.001, cooling=0.8, sweeps=60, resolve_every=5,
                           seed=3)
    mask, fld, trace = optimize_shape(model, grid, ShapeMask.full(grid), sched)
    assert mask.count() == 0
    assert trace.best_J[-1] == 0.0
    assert np.all(fld.values == 0.0)


def test_empty_shape_is_fixed_point_at_zero_temperature():
    model = IntegrandModel(p=2, q=2, c0=0.5, f=0.0, beta1=1.0,
                           normalization="energy")
    grid = Grid(1, 32, 1.0 / 32)
    sched = AnnealSchedule(T0=0.0, cooling=0.5, sweeps=20, resolve_every=5,
                           seed=11)
    mask, _, trace = optimize_shape(model, grid, ShapeMask.empty(grid), sched)
    assert mask.count() == 0
    accepted = [row[6] for row in trace.rows[1:]]
    assert all(a == 0 for a in accepted)


def test_same_seed_is_bit_identical():
    model = bump_model()
    grid = Grid(1, 64, 1.0 / 64)
    sched = AnnealSchedule(T0=0.02, cooling=0.9, sweeps=40, resolve_every=3,
                           seed=42)
    r1 = optimize_shape(model, grid, ShapeMask.full(grid), sched)
    r2 = optimize_shape(model, grid, ShapeMask.full(grid), sched)
    assert r1[2].rows == r2[2].rows
    assert np.array_equal(r1[0].cells, r2[0].cells)
    assert np.array_equal(r1[1].values, r2[1].values)
    sched_other = AnnealSchedule(T0=0.02, cooling=0.9, sweeps=40,
                                 resolve_every=3, seed=43)
    r3 = optimize_shape(model, grid, ShapeMask.full(grid), sched_other)
    assert r3[2].rows != r1[2].rows


def test_best_energy_nonincreasing():
    model = bump_model()
    grid = Grid(1, 64, 1.0 / 64)
    sched = AnnealSchedule(T0=0.05, cooling=0.92, sweeps=60, resolve_every=2,
                           seed=7)
    _, _, trace = optimize_shape(model, grid, ShapeMask.full(grid), sched)
    best = trace.best_J
    assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))


def test_support_and_jumps_consistent_at_snapshot():
    model = bump_model()
    grid = Grid(1, 64, 1.0 / 64)
    sched = AnnealSchedule(T0=0.02, cooling=0.9, sweeps=30, resolve_every=3,
                           seed=5)
    mask, fld, _ = optimize_shape(model, grid, ShapeMask.full(grid), sched)
    assert oracles.face_tuples(fld.jumps) == \
        [f for f, _ in boundary_faces(mask, "auto")]


def test_small_run_matches_interval_enumeration():
    n = 48
    grid = Grid(1, n, 1.0 / n)
    model = bump_model()
    from robinshape.sbvgrid import shape_energy
    from robinshape.pdesolve import solve_inner

    def interval_energy(a, b):
        mask = ShapeMask(grid, np.zeros(n, bool))
        mask.cells[a:b + 1] = True
        x = (np.arange(a, b + 1) + 0.5) * grid.h
        fperm = np.where((x > 0.4) & (x < 0.6), 3.0, 0.0)
        u = oracles.interval_robin_solve(fperm, grid.h)
        from robinshape.sbvgrid import SbvField
        vals = np.zeros(n)
        vals[a:b + 1] = u
        fld = SbvField.from_values(grid, vals)
        return shape_energy(model, mask, fld)

    best = (0.0, None)
    for a in range(n):
        for b in range(a, n):
            J = interval_energy(a, b)
            if J < best[0]:
                best = (J, (a, b))
    sched = AnnealSchedule(T0=0.01, cooling=0.95, sweeps=200, resolve_every=2,
                           seed=20240801)
    mask, _, trace = optimize_shape(model, grid, ShapeMask.full(grid), sched)
    assert trace.best_J[-1] == pytest.approx(best[0], abs=1e-3)
    cells = np.nonzero(mask.cells)[0]
    a0, b0 = best[1]
    assert len(set(range(a0, b0 + 1)) ^ set(cells.tolist())) <= 3


def test_small_constant_source_fills_domain():
    # with c0 = 0 and constant f the slab energy is strictly decreasing in
    # the interval length, so the optimizer should keep the whole box
    model = IntegrandModel(p=2, q=2, L=1.0, c0=0.0, f=0.5, beta1=1.0,
                           normalization="energy")
    n = 64
    grid = Grid(1, n, 1.0 / n)
    sched = AnnealSchedule(T0=5e-4, cooling=0.93, sweeps=200, resolve_every=2,
                           seed=8)
    mask, _, trace = optimize_shape(model, grid,
                                    ShapeMask.interval(grid, 0.3, 0.7), sched)
    assert mask.count() == n
    assert trace.best_J[-1] == pytest.approx(
        oracles.slab_energy(1.0, f=0.5), rel=0.02)


def test_2d_anneal_carves_single_blob():
    # source concentrated in a disc; a schedule that sweeps the temperature
    # through the move-energy scale (~c0*h^2) must freeze a clean blob
    model = IntegrandModel(
        p=2, q=2, L=1.0, c0=0.05,
        f=lambda pts: np.where(np.sum((pts - 0.5) ** 2, axis=-1) < 0.04,
                               4.0, 0.0),
        beta1=1.0, normalization="energy")
    grid = Grid(2, 32, 1.0 / 32)
    sched = AnnealSchedule(T0=2e-3, cooling=0.90, sweeps=150, resolve_every=2,
                           seed=12)
    mask, fld, trace = optimize_shape(model, grid, ShapeMask.full(grid), sched)
    d = diagnostics(model, mask, fld)
    assert d["components"] == 1
    assert d["ess_inf_support"] > 0
    from robinshape.sbvgrid import eval_shape_functional
    J_disc, _ = eval_shape_functional(model, ShapeMask.disc(grid, (0.5, 0.5), 0.2))
    J_full, _ = eval_shape_functional(model, ShapeMask.full(grid))
    assert trace.best_J[-1] < J_full
    assert trace.best_J[-1] < 0.9 * J_disc + 0.1 * J_full  # near the disc score


def _reprs(rows):
    return [tuple(repr(v) for v in row) for row in rows]


def test_small_2d_trajectory_is_pinned():
    # every column of every sweep, the repr of J, ess inf and sup included,
    # as recorded from the tuple-based annealer and boundary walk (the J
    # column re-recorded when J became the solver's face energy)
    model = IntegrandModel(p=2, q=2, c0=0.2, f=4.0, beta1=1.0,
                           normalization="energy")
    grid = Grid(2, 24, 1.0 / 24)
    sched = AnnealSchedule(T0=1e-3, cooling=0.8, sweeps=10, resolve_every=2,
                           seed=5)
    _, _, trace = optimize_shape(model, grid,
                                 ShapeMask.disc(grid, (0.5, 0.5), 0.3), sched)
    recorded = [
        (0, -0.3075245064281705, 0.2847222222222222, 1.8820725288970235,
         0.5980571570122625, 0.6843471480667621, 0, 1),
        (1, -0.37540666495933495, 0.3211805555555555, 2.528656357729019,
         0.0, 0.6843471480667621, 21, 4),
        (2, -0.3747331225379642, 0.34375, 3.280871630052534,
         0.041666666666666734, 0.7194118331608571, 19, 8),
        (3, -0.3883252444290731, 0.3611111111111111, 4.4477300361347325,
         0.0, 0.7194118331608571, 24, 14),
        (4, -0.35402608362198096, 0.3836805555555555, 6.416666666666678,
         0.0416666666666667, 0.6825334541766938, 39, 25),
        (5, -0.35011532366256165, 0.40277777777777773, 8.105409255338968,
         0.0, 0.6825334541766938, 61, 35),
        (6, -0.35311944781951166, 0.390625, 7.166666666666683,
         0.04166666666666663, 0.6825334541767095, 65, 30),
        (7, -0.3491553274491413, 0.4097222222222222, 8.772075922005625,
         0.0, 0.6825334541767095, 69, 39),
        (8, -0.35311944781951166, 0.390625, 7.166666666666683,
         0.04166666666666666, 0.6825334541767081, 69, 30),
        (9, -0.35419004967136347, 0.3802083333333333, 6.166666666666676,
         0.0, 0.6825334541767081, 52, 24),
        (10, -0.35632295697222993, 0.37152777777777773, 4.915036777365828,
         0.04166666666666666, 0.6825334541767203, 39, 16),
    ]
    assert _reprs(trace.rows) == _reprs(recorded)


def test_2d_trajectory_with_varying_robin_coefficient_is_pinned():
    # beta1 differs along both axes, so reading a face coefficient from the
    # wrong axis or the wrong face moves the frozen J of the odd sweeps
    model = IntegrandModel(p=2, q=2, c0=0.2, f=4.0,
                           beta1=lambda x: 0.5 + x[..., 0] + 2.0 * x[..., 1] ** 2,
                           normalization="energy")
    grid = Grid(2, 20, 1.0 / 20)
    sched = AnnealSchedule(T0=1e-3, cooling=0.8, sweeps=8, resolve_every=2,
                           seed=9)
    _, _, trace = optimize_shape(model, grid,
                                 ShapeMask.disc(grid, (0.45, 0.55), 0.3), sched)
    recorded = [
        (0, -0.1732458524093386, 0.28, 1.8659113421525861,
         0.3196344733470286, 0.46243153917754687, 0, 1),
        (1, -0.21654080194415395, 0.31500000000000006, 1.9985215367784712,
         0.3196344733470286, 0.46243153917754687, 14, 1),
        (2, -0.23983017244538335, 0.3475000000000001, 2.327591356085802,
         0.017687375635615968, 0.5143539784938864, 13, 2),
        (3, -0.2541947990999233, 0.36750000000000005, 3.137276043361681,
         0.0, 0.5143539784938864, 10, 5),
        (4, -0.22833789591867376, 0.38000000000000006, 3.999999999999994,
         0.01708306641222389, 0.4919017911983162, 13, 9),
        (5, -0.2274631434286213, 0.38250000000000006, 4.199999999999993,
         0.0, 0.4919017911983162, 17, 10),
        (6, -0.228290130236737, 0.38000000000000006, 3.999999999999994,
         0.017941242432868588, 0.4919017911978493, 17, 9),
        (7, -0.22967007371153736, 0.37000000000000005, 3.1999999999999966,
         0.0, 0.4919017911978493, 12, 5),
        (8, -0.2306423088549096, 0.36500000000000005, 2.799999999999998,
         0.015494867325199677, 0.4919017911979275, 6, 3),
    ]
    assert _reprs(trace.rows) == _reprs(recorded)


def test_1d_trajectory_at_exponent_three_is_pinned():
    # p = q = 3 runs the Newton solver and the eta-regularized move energy
    model = IntegrandModel(
        p=3, q=3, c0=0.3, L=1.0,
        f=lambda x: np.where((x[..., 0] > 0.3) & (x[..., 0] < 0.7), 3.0, 0.0),
        beta1=lambda x: 0.5 + x[..., 0], normalization="energy")
    grid = Grid(1, 32, 1.0 / 32)
    sched = AnnealSchedule(T0=1e-2, cooling=0.8, sweeps=8, resolve_every=2,
                           seed=4)
    _, _, trace = optimize_shape(model, grid,
                                 ShapeMask.interval(grid, 0.1, 0.9), sched)
    # re-recorded for the Newton solver; the J of each re-solve sweep agrees
    # with oracles.face_newton_reference within 1e-10 relative
    recorded = [
        (0, -0.35459118899263586, 0.8125, 2.0,
         0.5823847695808992, 0.8326763084899528, 0, 1),
        (1, -0.35203305634620774, 0.8125, 2.0,
         0.6039667502035757, 0.8326763084899528, 2, 1),
        (2, -0.3572820169957286, 0.8125, 2.0,
         0.6165360873813256, 0.8394027851863275, 2, 1),
        (3, -0.34466747968015066, 0.84375, 4.0, 0.0, 0.8394027851863275, 3, 2),
        (4, -0.3512017830577364, 0.78125, 4.0, 0.0, 0.8202840380162302, 4, 2),
        (5, -0.36316820811094697, 0.6875, 2.0,
         0.660252224021414, 0.8202840380162302, 3, 1),
        (6, -0.3488908483744186, 0.6875, 6.0, 0.0, 0.7776841491783305, 4, 3),
        (7, -0.3709091919621107, 0.5625, 2.0,
         0.6541355402435063, 0.7776841491783305, 4, 1),
        (8, -0.37311657289326355, 0.53125, 2.0,
         0.6290030927750343, 0.7454246863952347, 1, 1),
    ]
    assert _reprs(trace.rows) == _reprs(recorded)


def test_best_J_is_the_solver_energy_of_the_best_field():
    # a solver eta other than the default: the annealer scores each re-solve
    # with the eta and weights of the solver that produced the field
    model = IntegrandModel(
        p=3, q=3, c0=0.3, L=1.0,
        f=lambda x: np.where((x[..., 0] > 0.3) & (x[..., 0] < 0.7), 3.0, 0.0),
        beta1=lambda x: 0.5 + x[..., 0], normalization="energy")
    grid = Grid(1, 32, 1.0 / 32)
    sched = AnnealSchedule(T0=1e-2, cooling=0.8, sweeps=8, resolve_every=2,
                           seed=4)
    solver = SolverConfig(eta=1e-2)
    mask, fld, trace = optimize_shape(model, grid,
                                      ShapeMask.interval(grid, 0.1, 0.9),
                                      sched, solver)
    assert trace.best_J[-1] == energy_of(model, mask, fld, 1e-2, "auto")


def test_diagnostics_fields():
    model = bump_model()
    n = 64
    grid = Grid(1, n, 1.0 / n)
    mask = ShapeMask.interval(grid, 0.35, 0.65)
    from robinshape.pdesolve import solve_inner
    fld = solve_inner(model, grid, mask)
    d = diagnostics(model, mask, fld)
    assert d["ess_inf_support"] > 0
    assert d["sup"] >= d["ess_inf_support"]
    assert d["components"] == 1
    assert d["perimeter"] == pytest.approx(2.0)
    assert d["perimeter_bound_ok"]
    assert d["perimeter"] <= d["bv_norm"] / d["ess_inf_support"] + 1e-12


def test_diagnostics_empty():
    model = bump_model()
    grid = Grid(1, 16, 1.0 / 16)
    from robinshape.sbvgrid import SbvField
    d = diagnostics(model, ShapeMask.empty(grid), SbvField.zero(grid))
    assert d["J"] == 0.0 and d["components"] == 0
    assert d["perimeter_bound_ok"]


def test_solver_failure_aborts_with_partial_trace():
    model = bump_model()
    grid = Grid(1, 64, 1.0 / 64)
    sched = AnnealSchedule(T0=0.02, cooling=0.9, sweeps=10, resolve_every=2,
                           seed=1)
    with pytest.raises(ShapeOptError) as err:
        optimize_shape(model, grid, ShapeMask.full(grid), sched,
                       SolverConfig(max_iter=1))
    assert err.value.trace is not None


def test_component_count():
    grid = Grid(1, 16, 1.0 / 16)
    mask = ShapeMask(grid, np.zeros(16, bool))
    assert component_count(mask) == 0
    mask.cells[2:5] = True
    mask.cells[9:11] = True
    assert component_count(mask) == 2


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(T0=-1.0, cooling=0.9, sweeps=10)
    with pytest.raises(ValueError):
        AnnealSchedule(T0=1.0, cooling=1.0, sweeps=10)
    with pytest.raises(ValueError):
        AnnealSchedule(T0=1.0, cooling=0.9, sweeps=10, resolve_every=0)
