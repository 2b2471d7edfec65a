import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from robinshape.model import IntegrandModel
from robinshape import shapeopt
from robinshape.pdesolve import SolverConfig, energy_of, solve_inner
from robinshape.sbvgrid import (Grid, ShapeMask, boundary_faces,
                                eval_shape_functional, write_field_text)
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
    mask, fld, trace = optimize_shape(model, ShapeMask.full(grid), sched)
    assert mask.count() == 0
    assert trace.best_J[-1] == 0.0
    assert np.all(fld.values == 0.0)


def test_empty_shape_is_fixed_point_at_zero_temperature(monkeypatch):
    calls = _count_solves(monkeypatch)
    model = IntegrandModel(p=2, q=2, c0=0.5, f=0.0, beta1=1.0,
                           normalization="energy")
    grid = Grid(1, 32, 1.0 / 32)
    sched = AnnealSchedule(T0=0.0, cooling=0.5, sweeps=20, resolve_every=5,
                           seed=11)
    mask, _, trace = optimize_shape(model, ShapeMask.empty(grid), sched)
    assert mask.count() == 0
    accepted = [row[6] for row in trace.rows[1:]]
    assert all(a == 0 for a in accepted)
    assert len(calls) == 1  # no flip, so no re-solve after the first


def test_same_seed_is_bit_identical():
    model = bump_model()
    grid = Grid(1, 64, 1.0 / 64)
    sched = AnnealSchedule(T0=0.02, cooling=0.9, sweeps=40, resolve_every=3,
                           seed=42)
    r1 = optimize_shape(model, ShapeMask.full(grid), sched)
    r2 = optimize_shape(model, ShapeMask.full(grid), sched)
    assert r1[2].rows == r2[2].rows
    assert np.array_equal(r1[0].cells, r2[0].cells)
    assert np.array_equal(r1[1].values, r2[1].values)
    sched_other = AnnealSchedule(T0=0.02, cooling=0.9, sweeps=40,
                                 resolve_every=3, seed=43)
    r3 = optimize_shape(model, ShapeMask.full(grid), sched_other)
    assert r3[2].rows != r1[2].rows


def test_best_energy_nonincreasing():
    model = bump_model()
    grid = Grid(1, 64, 1.0 / 64)
    sched = AnnealSchedule(T0=0.05, cooling=0.92, sweeps=60, resolve_every=2,
                           seed=7)
    _, _, trace = optimize_shape(model, ShapeMask.full(grid), sched)
    best = trace.best_J
    assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))


def test_support_and_jumps_consistent_at_snapshot():
    model = bump_model()
    grid = Grid(1, 64, 1.0 / 64)
    sched = AnnealSchedule(T0=0.02, cooling=0.9, sweeps=30, resolve_every=3,
                           seed=5)
    mask, fld, _ = optimize_shape(model, ShapeMask.full(grid), sched)
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
    mask, _, trace = optimize_shape(model, ShapeMask.full(grid), sched)
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
    mask, _, trace = optimize_shape(model, ShapeMask.interval(grid, 0.3, 0.7),
                                    sched)
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
    mask, fld, trace = optimize_shape(model, ShapeMask.full(grid), sched)
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
    _, _, trace = optimize_shape(model, ShapeMask.disc(grid, (0.5, 0.5), 0.3),
                                 sched)
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
    _, _, trace = optimize_shape(model,
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
    _, _, trace = optimize_shape(model, ShapeMask.interval(grid, 0.1, 0.9),
                                 sched)
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


def _field_digest(tmp_path, fld, mask):
    path = tmp_path / "best_field.txt"
    write_field_text(path, fld, mask)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _frozen_2d_run():
    # freezes after sweep 4; sweeps 5-20 run at T > 0 with no accepted flip,
    # so the Metropolis draws meet unchanged prices and the re-solve sweeps
    # 9, 12, 15, 18 and 20 find the mask of the sweep-6 solve
    model = IntegrandModel(p=2, q=2, c0=0.2, f=4.0, beta1=1.0,
                           normalization="energy")
    grid = Grid(2, 20, 1.0 / 20)
    sched = AnnealSchedule(T0=3e-5, cooling=0.9, sweeps=20, resolve_every=3,
                           seed=3)
    return model, grid, ShapeMask.disc(grid, (0.5, 0.5), 0.3), sched


def _hot_2d_run():
    # hot enough that most accepted flips sit on the box edges, many at row
    # ends (j = 0 or n - 1), and four sweeps share each exact solve
    model = IntegrandModel(p=2, q=2, c0=0.2, f=4.0, beta1=1.0,
                           normalization="energy")
    grid = Grid(2, 12, 1.0 / 12)
    sched = AnnealSchedule(T0=3e-3, cooling=0.9, sweeps=12, resolve_every=4,
                           seed=6, teleport_frac=0.2)
    return model, grid, ShapeMask.disc(grid, (0.5, 0.5), 0.3), sched


def _frozen_1d_run():
    # flips and teleports up to sweep 11, then a frozen tail whose re-solve
    # sweeps 15 and 18 find the mask of the sweep-12 solve
    model = bump_model()
    grid = Grid(1, 32, 1.0 / 32)
    sched = AnnealSchedule(T0=1e-2, cooling=0.7, sweeps=18, resolve_every=3,
                           seed=17, teleport_frac=0.1)
    return model, grid, ShapeMask.interval(grid, 0.2, 0.8), sched


def test_frozen_2d_trajectory_is_pinned(tmp_path):
    model, grid, init, sched = _frozen_2d_run()
    mask, fld, trace = optimize_shape(model, init, sched)
    recorded = [
        (0, -0.2983831780109025, 0.28, 1.8659113421525861, 0.5952957315478252,
         0.6759499750425486, 0, 1),
        (1, -0.38613515050466723, 0.32000000000000006, 2.0212031071399594,
         0.5952957315478252, 0.6759499750425486, 16, 1),
        (2, -0.43539782873974897, 0.3425000000000001, 2.1163904536772313,
         0.5952957315478252, 0.6759499750425486, 9, 1),
        (3, -0.40277006302399815, 0.3550000000000001, 2.274552086723368,
         0.5718804457774243, 0.7241840106160273, 5, 1),
        (4, -0.41408412853842486, 0.3600000000000001, 2.3999999999999995,
         0.5718804457774243, 0.7241840106160273, 2, 1),
        (5, -0.41408412853842486, 0.3600000000000001, 2.3999999999999995,
         0.5718804457774243, 0.7241840106160273, 0, 1),
        (6, -0.39224572569678, 0.3600000000000001, 2.3999999999999995,
         0.558384311938616, 0.7025412767581498, 0, 1),
    ]
    recorded += [(s, -0.39224572569678, 0.3600000000000001,
                  2.3999999999999995, 0.558384311938616, 0.7025412767581498,
                  0, 1) for s in range(7, 21)]
    assert _reprs(trace.rows) == _reprs(recorded)
    assert _field_digest(tmp_path, fld, mask) == (
        "b18c51f631d852af1908ee1a7c9ce8a033c0bbe062bf84f1447890109db6989e")


def test_hot_2d_trajectory_is_pinned(tmp_path):
    model, grid, init, sched = _hot_2d_run()
    mask, fld, trace = optimize_shape(model, init, sched)
    recorded = [
        (0, -0.3387028572423698, 0.3055555555555555, 1.9530983168055591,
         0.6159870971220973, 0.6990474102709741, 0, 1),
        (1, -0.5208223160806003, 0.4375, 4.38753977200306, 0.0,
         0.6990474102709741, 19, 7),
        (2, -0.5948193632884069, 0.5, 5.868530448165458, 0.0,
         0.6990474102709741, 23, 10),
        (3, -0.6224111577991702, 0.5347222222222222, 6.907138681573768, 0.0,
         0.6990474102709741, 27, 13),
        (4, -0.5466032317323287, 0.5, 5.407138681573773, 0.08333333333333333,
         0.7945610461336785, 23, 9),
        (5, -0.5598530862523275, 0.5625, 7.166666666666658, 0.0,
         0.7945610461336785, 21, 11),
        (6, -0.5603160492152908, 0.548611111111111, 6.833333333333326, 0.0,
         0.7945610461336785, 22, 11),
        (7, -0.5544132714375127, 0.5347222222222222, 6.66666666666666, 0.0,
         0.7945610461336785, 26, 12),
        (8, -0.5443821836351704, 0.5069444444444444, 5.499999999999997,
         0.0833333333333333, 0.78250199969989, 22, 9),
        (9, -0.5410273096639774, 0.5625, 6.999999999999992, 0.0,
         0.78250199969989, 22, 11),
        (10, -0.5422731301372283, 0.5277777777777778, 5.999999999999996, 0.0,
         0.78250199969989, 23, 9),
        (11, -0.5492465097668583, 0.548611111111111, 5.419151844011223,
         0.0833333333333333, 0.78250199969989, 15, 4),
        (12, -0.547060660841404, 0.5138888888888888, 5.377485177344556,
         0.08333333333333331, 0.7825019996998932, 19, 8),
    ]
    assert _reprs(trace.rows) == _reprs(recorded)
    assert _field_digest(tmp_path, fld, mask) == (
        "908867342a803839a21bd4484847b337eebc4d110488f83f58c8825f558969de")


def test_1d_trajectory_with_frozen_tail_is_pinned(tmp_path):
    model, grid, init, sched = _frozen_1d_run()
    mask, fld, trace = optimize_shape(model, init, sched)
    recorded = [
        (0, 0.027221679687500014, 0.625, 2.0, 0.2812500000000002,
         0.3515625000000002, 0, 1),
        (1, 0.034746265411376966, 0.65625, 4.0, 0.0, 0.3515625000000002, 3, 2),
        (2, 0.03609809875488283, 0.65625, 8.0, 0.0, 0.3515625000000002, 6, 4),
        (3, 0.007228107693829144, 0.5, 2.0, 0.2741297468354422,
         0.3338731210443025, 5, 1),
        (4, 0.014818046314940618, 0.53125, 4.0, 0.0, 0.3338731210443025, 3, 2),
        (5, -0.0025108066626684453, 0.4375, 2.0, 0.2741297468354422,
         0.3338731210443025, 3, 1),
        (6, -0.012626953124999979, 0.375, 2.0, 0.2662499999999994,
         0.31570312499999914, 2, 1),
        (7, -0.022570530700683586, 0.3125, 2.0, 0.2745703124999994,
         0.31570312499999914, 2, 1),
        (8, -0.027609047698974605, 0.28125, 2.0, 0.28289062499999934,
         0.31570312499999914, 1, 1),
        (9, -0.0328771456866197, 0.25, 2.0, 0.2733274647887332,
         0.29870433538732477, 1, 1),
        (10, -0.03792335623385672, 0.21875, 2.0, 0.2818689480633812,
         0.29870433538732477, 1, 1),
        (11, -0.042896609844562644, 0.1875, 2.0, 0.28917253521126834,
         0.29870433538732477, 1, 1),
        (12, -0.042974853515624994, 0.1875, 2.0, 0.28125, 0.2900390625, 0, 1),
    ]
    recorded += [(s, -0.042974853515624994, 0.1875, 2.0, 0.28125,
                  0.2900390625, 0, 1) for s in range(13, 19)]
    assert _reprs(trace.rows) == _reprs(recorded)
    assert _field_digest(tmp_path, fld, mask) == (
        "c56771f72aee43a0d6ec8dd332395d6cc5f5a64da3125d550096f3a17546fb7f")


def _expected_solves(trace, sched):
    """1 for the initial solve, plus each re-solve sweep that follows at
    least one accepted flip since the previous solve."""
    solves, pending = 1, 0
    for sweep, *_, accepted, _ in trace.rows[1:]:
        pending += accepted
        if (sweep % sched.resolve_every == 0 or sweep == sched.sweeps) \
                and pending:
            solves, pending = solves + 1, 0
    return solves


def _count_solves(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_inner(*args, **kwargs)
    monkeypatch.setattr(shapeopt, "solve_inner", counting)
    return calls


@pytest.mark.parametrize("run,solves", [
    (_frozen_2d_run, 3), (_hot_2d_run, 4), (_frozen_1d_run, 5)])
def test_unchanged_mask_is_not_resolved(run, solves, monkeypatch):
    calls = _count_solves(monkeypatch)
    model, grid, init, sched = run()
    _, _, trace = optimize_shape(model, init, sched)
    assert len(calls) == _expected_solves(trace, sched) == solves

def test_best_J_is_the_solver_energy_of_the_best_field():
    # boundary weights other than the default: the annealer scores each
    # re-solve with the weights of the solver that produced the field, and
    # the diagnostics of the best shape report the same J
    model = IntegrandModel(
        p=3, q=3, c0=0.3, L=1.0,
        f=lambda x: np.where((x[..., 0] > 0.3) & (x[..., 0] < 0.7), 3.0, 0.0),
        beta1=lambda x: 0.5 + x[..., 0], normalization="energy")
    grid = Grid(1, 32, 1.0 / 32)
    sched = AnnealSchedule(T0=1e-2, cooling=0.8, sweeps=8, resolve_every=2,
                           seed=4)
    solver = SolverConfig(weights="uncorrected")
    mask, fld, trace = optimize_shape(model, ShapeMask.interval(grid, 0.1, 0.9),
                                      sched, solver)
    assert trace.best_J[-1] == energy_of(model, mask, fld, "uncorrected")
    assert diagnostics(model, mask, fld, "uncorrected")["J"] == trace.best_J[-1]
    assert eval_shape_functional(model, mask, solver)[0] == trace.best_J[-1]


def test_diagnostics_fields():
    model = bump_model()
    n = 64
    grid = Grid(1, n, 1.0 / n)
    mask = ShapeMask.interval(grid, 0.35, 0.65)
    from robinshape.pdesolve import solve_inner
    fld = solve_inner(model, mask)
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
        optimize_shape(model, ShapeMask.full(grid), sched,
                       SolverConfig(max_iter=1))
    assert err.value.trace is not None


def test_component_count():
    grid = Grid(1, 16, 1.0 / 16)
    mask = ShapeMask(grid, np.zeros(16, bool))
    assert component_count(mask) == 0
    mask.cells[2:5] = True
    mask.cells[9:11] = True
    assert component_count(mask) == 2


def test_component_count_matches_breadth_first_search():
    # axis neighbours only: each saddle cell of the checkerboard counts on
    # its own, the ring around its hole is one component, the empty mask none
    zoo = oracles.mask_zoo()
    counts = [component_count(ShapeMask(grid, cells)) for grid, cells in zoo]
    assert counts == [oracles.components_bfs(cells) for _, cells in zoo]
    assert {grid.d for grid, _ in zoo} == {1, 2}
    n = 12
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    r = np.hypot(ii - 5.5, jj - 5.5)
    for cells, expected in (((ii + jj) % 2 == 0, n * n // 2),
                            ((r < 5.0) & (r > 2.0), 1),
                            (np.zeros((n, n), bool), 0)):
        assert any(np.array_equal(cells, c) for _, c in zoo)
        assert component_count(ShapeMask(Grid(2, n, 1.0 / n), cells)) == expected


@st.composite
def cell_arrays(draw):
    """Boolean cell arrays of 1d and 2d boxes, one cell wide included, and
    the empty and the full box among them."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 40)),
                           st.tuples(st.integers(1, 12), st.integers(1, 12))))
    kind = draw(st.sampled_from(("empty", "full", "random")))
    if kind != "random":
        return np.full(shape, kind == "full")
    return draw(hnp.arrays(bool, shape, elements=st.booleans(), fill=st.nothing()))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(cell_arrays())
def test_component_count_matches_breadth_first_search_on_random_boxes(cells):
    # component_count reads only mask.cells, so boxes that a Grid does not
    # make (one cell wide, or not square) come in through a stand-in
    assert component_count(SimpleNamespace(cells=cells)) == \
        oracles.components_bfs(cells)


def square_spiral(n):
    """A square spiral with arms two cells apart whose every step inward is
    diagonal: one curve under 8-connectivity, one component per turn under
    axis adjacency."""
    cells = np.zeros((n, n), bool)
    for k in range(n // 4):
        lo, hi = 2 * k, n - 1 - 2 * k
        cells[lo, max(lo - 1, 0):hi + 1] = True  # entered from the turn outside
        cells[lo:hi + 1, hi] = True
        cells[hi, lo:hi + 1] = True
        cells[lo + 3:hi + 1, lo] = True  # stops short of this turn's top arm
    return cells


def test_component_count_on_long_chains_of_runs():
    # masks whose runs join in long chains: the union-find needs many
    # pointer-jumping steps or hooking rounds to settle
    n = 96
    grid = Grid(2, n, 1.0 / n)
    comb = np.zeros((n, n), bool)
    comb[0] = True             # the spine
    comb[:, ::2] = True        # 48 teeth, one cell wide
    serpentine = np.zeros((n, n), bool)
    serpentine[::2] = True
    serpentine[1::4, -1] = True   # rows 0 and 2 join at the right end,
    serpentine[3::4, 0] = True    # rows 2 and 4 at the left, and so on
    for cells, expected in ((square_spiral(n), 24), (comb, 1), (serpentine, 1)):
        assert oracles.components_bfs(cells) == expected
        assert component_count(ShapeMask(grid, cells)) == expected


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(T0=-1.0, cooling=0.9, sweeps=10)
    with pytest.raises(ValueError):
        AnnealSchedule(T0=1.0, cooling=1.0, sweeps=10)
    with pytest.raises(ValueError):
        AnnealSchedule(T0=1.0, cooling=0.9, sweeps=10, resolve_every=0)
