import math
import re

import numpy as np
import pytest
from scipy.special import jn_zeros

import robinshape
from robinshape import radial
from robinshape.cli import main
from robinshape.model import IntegrandModel
from robinshape.radial import (RadialConvergenceError, RadialEigenvalueQuery,
                               ball_energy, ball_radius, ball_volume,
                               robin_eigenvalue_ball, robin_eigenvalues_ball,
                               robin_poisson_ball, shoot_eigenvalues,
                               _rayleigh_min)

import oracles


def test_interval_eigenvalue_against_transcendental_root():
    sol = robin_eigenvalue_ball(RadialEigenvalueQuery(d=1, R=1.0, b=1.0,
                                                      mesh_n=2048))
    assert sol.lam == pytest.approx(0.740174, abs=1e-4)
    assert sol.lam == pytest.approx(oracles.robin_lambda_interval(1.0, 1.0),
                                    rel=1e-9)
    assert sol.meta["method"] == "shooting"
    # the profile's own Rayleigh quotient must reproduce the eigenvalue
    assert sol.meta["residual"] < 1e-5


def test_disc_eigenvalue_against_bessel_root():
    sol = robin_eigenvalue_ball(RadialEigenvalueQuery(d=2, R=1.0, b=1.0,
                                                      mesh_n=2048))
    assert sol.lam == pytest.approx(1.577, abs=2e-3)
    assert sol.lam == pytest.approx(oracles.robin_lambda_disc(1.0, 1.0),
                                    rel=1e-8)


def test_batched_queries_match_oracles_and_single_queries():
    # mixed radii, coefficients and dimensions in one list, plus one descent
    # query: results come back in order, each equal to its query alone
    # (mesh 300 is no multiple of the propagator block length)
    cases = [(1, 0.4, 3.0, 512), (2, 1.0, 0.5, 512), (1, 2.5, 1.0, 512),
             (2, 0.7, 0.2, 512), (1, 1.6, 8.0, 512), (2, 2.5, 1.0, 512),
             (2, 1.3, 2.0, 300)]
    queries = [RadialEigenvalueQuery(d=d, R=R, b=b, mesh_n=n)
               for d, R, b, n in cases]
    queries.insert(3, RadialEigenvalueQuery(d=2, R=1.0, b=1.0, grad_exp=3.0,
                                            denom_exp=3.0, mesh_n=128))
    assert robinshape.robin_eigenvalues_ball is robin_eigenvalues_ball
    sols = robin_eigenvalues_ball(queries)
    assert [s.meta["method"] for s in sols] == ["shooting"] * 3 + \
        ["rayleigh-descent"] + ["shooting"] * 4
    for q, sol in zip(queries, sols):
        single = robin_eigenvalue_ball(q)
        assert sol.lam == single.lam
        assert np.array_equal(sol.profile, single.profile)
        if q.grad_exp == 2.0:
            oracle = (oracles.robin_lambda_interval if q.d == 1
                      else oracles.robin_lambda_disc)
            assert sol.lam == pytest.approx(oracle(q.R, q.b), rel=1e-9)
            assert sol.meta["residual"] < 1e-4


def test_first_root_below_tiny_lambda_is_found():
    # lam_1 ~ b*d/R sits far below the scan's first grid step
    for d, oracle in ((1, oracles.robin_lambda_interval),
                      (2, oracles.robin_lambda_disc)):
        lam = shoot_eigenvalues(d, [1.0, 0.5], [1e-9, 1e-9], 512)
        assert lam == pytest.approx([oracle(1.0, 1e-9), oracle(0.5, 1e-9)],
                                    rel=1e-6)


def test_scan_chunks_match_oracles():
    # b from 1e-6 to 1e6 puts the first sign change of G in every scan
    # chunk up to the 16-row one (rows 1, 2-3, 4-7, 8-15, 16-31)
    bs = 10.0 ** np.arange(-6.0, 6.5, 0.5)
    chunks = set()
    for d, oracle in ((1, oracles.robin_lambda_interval),
                      (2, oracles.robin_lambda_disc),
                      (3, oracles.robin_lambda_ball3)):
        lam = shoot_eigenvalues(d, np.ones(bs.size), bs, 1024)
        ref = [oracle(1.0, b) for b in bs]
        assert lam == pytest.approx(ref, rel=1e-9)
        rows = np.ceil(lam / (4.0 * math.pi**2 / 63.0)).astype(int)
        chunks |= set(np.floor(np.log2(rows)).astype(int).tolist())
    assert chunks == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("d", [8, 10, 12])
def test_high_dimension_shoots_below_dirichlet(d):
    # the Dirichlet eigenvalue j_{d/2-1,1}^2 lies above 4 pi^2 from d = 8 on;
    # the scan runs on to d(d+4)/2, the quotient of 1 - r^2
    dirichlet = jn_zeros(d // 2 - 1, 1)[0] ** 2
    lam = shoot_eigenvalues(d, np.ones(3), [1.0, 1e3, 1e6], 1024)
    assert np.all(np.diff(lam) > 0) and np.all(lam < dirichlet)
    assert lam[2] == pytest.approx(dirichlet, rel=1e-5)
    sol = robin_eigenvalue_ball(RadialEigenvalueQuery(d=d, R=1.0, b=1e3))
    assert sol.lam == lam[1]


def test_refinement_cap_raises(monkeypatch):
    monkeypatch.setattr(radial, "_MAX_REFINE", 3)
    with pytest.raises(RadialConvergenceError):
        shoot_eigenvalues(1, [1.0, 0.5], [1.0, 2.0], 256)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_propagator_refinement_matches_rk4_loop(monkeypatch, d):
    # the bracket scan and the Illinois steps evaluate G by step-propagator
    # products, which only reassociate the RK4 loop's rounding; with the
    # loop patched in for both, roots agree within 1e-13 and the end values
    # within 1e-12 of |(u(R), u'(R))|.  A mesh of n takes n - 1
    # steps: block - 1, block and block + 1 of them, two whole blocks, and
    # 1023 cover the partial and the exact blocks
    R, b = np.array([0.4, 1.0, 2.5]), np.array([3.0, 1.0, 0.2])
    block = radial._BLOCK
    meshes = sorted({64, 65, block, block + 1, block + 2, 2 * block + 1, 1024})
    for n in meshes:
        lam = np.linspace(0.0, 1.0, 64)[:, None] * (4.0 * (math.pi / R) ** 2)
        u, v = oracles.rk4_radial(lam, d, R, n)
        up, vp = radial._propagate(lam, d, R, n)
        mag = np.hypot(u, v)
        assert np.max(np.abs(up - u) / mag) < 1e-12
        assert np.max(np.abs(vp - v) / mag) < 1e-12
    fast = [shoot_eigenvalues(d, R, b, n) for n in meshes]
    monkeypatch.setattr(radial, "_propagate", oracles.rk4_radial)
    for n, lam in zip(meshes, fast):
        loop = shoot_eigenvalues(d, R, b, n)
        assert np.max(np.abs(lam - loop) / loop) < 1e-13


@pytest.mark.parametrize("d", [1, 2, 3])
def test_profile_scan_matches_rk4_loop(d):
    # the profile pass takes the nodes of each block from prefix products of
    # its step propagators; at shot eigenvalues the profile stays within
    # 1e-13 of each column's maximum of the one-step-at-a-time loop, for
    # partial, exact and multiple blocks and for 1 to 128 columns
    block = radial._BLOCK
    rng = np.random.Generator(np.random.Philox(key=d))
    for cols in (1, 16, 128):
        R = rng.uniform(0.3, 2.5, cols)
        lam = shoot_eigenvalues(d, R, 10.0 ** rng.uniform(-3.0, 3.0, cols), 1024)
        for n in (64, 65, block - 1, block + 1, 2 * block + 1, 1024):
            u, v = radial._propagate(lam, d, R, n, path=True)
            u_ref, v_ref = oracles.rk4_radial(lam, d, R, n, path=True)
            assert u.shape == v.shape == (n + 1, cols)
            scale = 1e-13 * np.max(np.abs(u_ref), axis=0)
            assert np.all(np.abs(u - u_ref) <= scale)
            # the last node agrees with the pairwise product of the blocks
            assert np.all(np.abs(u[-1] - radial._propagate(lam, d, R, n)[0]) <= scale)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_passes_equal_the_per_block_walk(d):
    # a pass builds the step matrices of many blocks at once and reduces
    # each block on its own, so both outputs equal the block-by-block walk
    # bit for bit.  Widths 1 and 6 make passes of all whole blocks, 26 of
    # several, and 128 and a scan chunk of shape (32, 6) passes of one
    # block, the same at every mesh, so they run on the shorter ones only
    rng = np.random.Generator(np.random.Philox(key=100 + d))
    for n in (64, 65, 129, 300, 768, 1024):
        for shape in ((1,), (6,), (26,), (128,), (32, 6)):
            if n > 300 and np.prod(shape) >= 128:
                continue
            R = rng.uniform(0.3, 2.5, shape[-1])
            lam = rng.uniform(0.0, 60.0, shape) / R**2
            for path in (False, True):
                got = radial._propagate(lam, d, R, n, path)
                want = oracles.propagate_per_block(lam, d, R, n, path)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_d1_powers_equal_the_per_block_walk():
    # in d = 1 one step matrix per column and the distinct nodes of its
    # block trees stand for the whole walk, bit for bit: every remainder of
    # a 64-step block (n = 65 ... 129), and the 128-column and (32, 6)
    # scan-chunk shapes at the meshes of verify poincare and eig
    rng = np.random.Generator(np.random.Philox(key=34))
    cases = [(n, (w,)) for n in range(65, 130) for w in (1, 7)]
    cases += [(768, (128,)), (1024, (128,)), (1024, (32, 6))]
    for n, shape in cases:
        R = rng.uniform(0.3, 2.5, shape[-1])
        lam = rng.uniform(0.0, 60.0, shape) / R**2
        got = radial._propagate(lam, 1, R, n)
        want = oracles.propagate_per_block(lam, 1, R, n)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (n, shape)


def test_d1_eigenvalues_equal_those_of_the_per_block_walk(monkeypatch, tmp_path):
    # the Poincare battery's oracle cache (radii k*h/2, k = 1..128, at mesh
    # 768) and an eig --d 1 batch of 6 values at mesh 1024 give the same
    # lambda, by repr, and the same eig.csv with the per-block walk patched in
    def run(out):
        lams = shoot_eigenvalues(1, np.arange(1, 129) / 256.0, np.ones(128), 768)
        assert main(["eig", "--d", "1", "--R", "0.5,2.0", "--b", "0.1,1.0,10.0",
                     "--mesh-n", "1024", "--out", str(out)]) == 0
        return [repr(x) for x in lams.tolist()], (out / "eig.csv").read_bytes()

    fast = run(tmp_path / "fast")
    monkeypatch.setattr(radial, "_propagate", oracles.propagate_per_block)
    walk = run(tmp_path / "walk")
    assert fast == walk
    assert fast[1].count(b",shooting,") == 6


def test_returned_arrays_outlive_the_next_call():
    # a propagator call writes its temporaries into a workspace: what it
    # returned, with path on or off, and the roots shot from it stay as they
    # were after calls at another width and mesh
    rng = np.random.Generator(np.random.Philox(key=7))
    R = rng.uniform(0.3, 2.5, 6)
    lam = rng.uniform(0.0, 60.0, 6) / R**2
    outs = [*radial._propagate(lam, 2, R, 300),
            *radial._propagate(lam, 2, R, 300, path=True),
            shoot_eigenvalues(2, R, np.ones(6), 256)]
    kept = [x.copy() for x in outs]
    R2 = rng.uniform(0.3, 2.5, 40)
    radial._propagate(rng.uniform(0.0, 60.0, 40) / R2**2, 1, R2, 129)
    radial._propagate(rng.uniform(0.0, 60.0, 40) / R2**2, 1, R2, 129, path=True)
    shoot_eigenvalues(1, R2, np.full(40, 3.0), 512)
    assert all(np.array_equal(x, k) for x, k in zip(outs, kept))
    # nor is any a view into a workspace: each holds at most the (u, u') pair
    assert all((x if x.base is None else x.base).nbytes <= 2 * x.nbytes
               for x in outs)


def test_eigenvalue_monotone_in_robin_coefficient():
    sols = robin_eigenvalues_ball([RadialEigenvalueQuery(d=1, R=1.0, b=b,
                                                         mesh_n=512)
                                   for b in (0.1, 1.0, 10.0)])
    lams = [s.lam for s in sols]
    assert lams[0] < lams[1] < lams[2]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("q", [2.0, 3.0])
def test_scaling_identity(d, q):
    # lam_1(tB) against t^-q lam_{t^(q-1)}(B), every query in one call
    mesh = 1024 if q == 2.0 else 192
    ts = (0.5, 2.0, 3.0)
    sols = robin_eigenvalues_ball([RadialEigenvalueQuery(
        d=d, R=R, b=b, grad_exp=q, denom_exp=q, mesh_n=mesh)
        for t in ts for R, b in ((t, 1.0), (1.0, t ** (q - 1.0)))])
    for t, st, sb in zip(ts, sols[::2], sols[1::2]):
        assert st.lam == pytest.approx(t ** (-q) * sb.lam, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p,alpha", [(2.0, 1.5), (3.0, 2.0)])
def test_scaling_identity_mixed_exponents(d, p, alpha):
    # gradient/boundary exponent p over the L^alpha norm scales as
    # lam_b(tB) = t^(d - p - d p/alpha) * lam_{b t^(p-1)}(B)
    delta = d - p - d * p / alpha
    for t in (0.5, 2.0):
        lt = robin_eigenvalue_ball(RadialEigenvalueQuery(
            d=d, R=t, b=1.0, grad_exp=p, denom_exp=alpha, mesh_n=160)).lam
        lb = robin_eigenvalue_ball(RadialEigenvalueQuery(
            d=d, R=1.0, b=t ** (p - 1.0), grad_exp=p, denom_exp=alpha,
            mesh_n=160)).lam
        assert lt == pytest.approx(t**delta * lb, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2])
def test_radius_monotonicity(d):
    radii = np.linspace(0.3, 3.0, 20)
    lams = shoot_eigenvalues(d, radii, np.ones(20), 512)
    assert np.all(np.diff(lams) < 0)


def test_first_eigenfunction_has_no_sign_change():
    for d in (1, 2):
        sol = robin_eigenvalue_ball(RadialEigenvalueQuery(d=d, R=1.0, b=2.0,
                                                          mesh_n=512))
        u = sol.profile[:, 1]
        assert np.all(u > 0) or np.all(u < 0)
    sol = robin_eigenvalue_ball(RadialEigenvalueQuery(
        d=2, R=1.0, b=1.0, grad_exp=3.0, denom_exp=3.0, mesh_n=128))
    u = sol.profile[:, 1]
    assert np.all(u >= 0) or np.all(u <= 0)


def test_shooting_and_descent_agree_at_two():
    for d in (1, 2):
        shot = robin_eigenvalue_ball(RadialEigenvalueQuery(d=d, R=1.0, b=1.0,
                                                           mesh_n=2048)).lam
        (desc,), _, _, _ = _rayleigh_min(d, [1.0], [1.0], 2.0, 2.0, 512)
        assert desc == pytest.approx(shot, rel=1e-5)


@pytest.mark.parametrize("query,lam,iterations", [
    ((2, 1.0, 0.5, 3.0, 3.0, 256), "0.6670169867336883", 29),
    ((1, 2.0, 1.0, 3.0, 3.0, 192), "0.1330883367885695", 13),
    ((2, 1.0, 1.0, 2.0, 1.5, 160), "1.0848924514311002", 11)])
def test_descent_results_are_pinned(query, lam, iterations):
    # pinned bit for bit: pricing the line search's trial points by the
    # quotient alone must not move any accepted step
    d, R, b, p, alpha, mesh = query
    (Q,), _, _, (info,) = _rayleigh_min(d, [R], [b], p, alpha, mesh)
    assert repr(float(Q)) == lam and info["iterations"] == iterations
    assert len(info["restart_iterations"]) == 3
    assert info["restart_iterations"][info["restart"]] == iterations


def test_descent_iteration_cap_raises():
    # stopped after 8 iterations with a last relative change of 1.4e-7,
    # far above the 1e-10 tolerance
    with pytest.raises(RadialConvergenceError):
        _rayleigh_min(2, 1.0, 0.5, 3.0, 3.0, 256, max_iter=8)


def test_stalled_descent_winner_raises():
    # at R = 1e8 in 6d the quotient overflows and every restart stops after
    # one iteration, far below the cap, with an infinite change: the winner
    # raises, alone and behind a query of the same key that converges
    def descend(R, b):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(RadialConvergenceError) as exc:
                _rayleigh_min(6, R, b, 16.0, 2.0, 64)
        return exc.value

    _, _, _, (info,) = _rayleigh_min(6, [2.0], [1.0], 16.0, 2.0, 64)
    assert info["residual"] < 1e-10
    alone = descend([1e8], [1e-12])
    batched = descend([2.0, 1e8], [1.0, 1e-12])
    assert (alone.residual, alone.query) == (math.inf, 0)
    assert (batched.residual, batched.query) == (math.inf, 1)
    assert str(batched) == str(alone)
    assert "after 1 iterations" in str(alone)


def _descent_query(d, R, b, p, alpha, mesh):
    return RadialEigenvalueQuery(d=d, R=R, b=b, grad_exp=p, denom_exp=alpha,
                                 mesh_n=mesh)


def test_descent_results_do_not_depend_on_the_batch():
    # descent queries of two keys and two meshes interleaved with shooting
    # queries, d = 1 and d = 2 in each key: each result equals its query run
    # alone, bit for bit
    queries = [_descent_query(1, 1.0, 1.0, 3.0, 3.0, 128),
               _descent_query(1, 0.9, 1.2, 2.5, 1.5, 192),
               RadialEigenvalueQuery(d=2, R=1.0, b=1.0, mesh_n=256),
               _descent_query(2, 1.3, 0.7, 2.5, 1.5, 192),
               _descent_query(1, 2.0, 0.5, 3.0, 3.0, 128),
               RadialEigenvalueQuery(d=1, R=0.7, b=2.0, mesh_n=256),
               _descent_query(2, 0.6, 3.0, 2.5, 1.5, 192),
               _descent_query(2, 1.0, 1.0, 3.0, 3.0, 128),
               _descent_query(1, 1.5, 2.0, 3.0, 3.0, 128),
               _descent_query(2, 2.0, 0.3, 2.5, 1.5, 192),
               _descent_query(2, 3.0, 1.0, 3.0, 3.0, 128)]
    sols = robin_eigenvalues_ball(queries)
    keys = ("iterations", "residual", "restart", "restart_iterations")
    for q, sol in zip(queries, sols):
        alone = robin_eigenvalue_ball(q)
        assert repr(sol.lam) == repr(alone.lam)
        assert np.array_equal(sol.profile, alone.profile)
        assert sol.meta["method"] == alone.meta["method"]
        if q.grad_exp != 2.0:
            assert sol.meta["method"] == "rayleigh-descent"
            assert all(sol.meta[k] == alone.meta[k] for k in keys)


def test_descent_failure_inside_a_batch_raises_its_own_residual():
    # at a cap of 11 iterations (R, b) = (1, 2) and (1.5, 1) converge, while
    # (0.8, 1) and (2, 2) stop at the cap with their winner still moving: a
    # batch raises for its first failing query, with the residual that query
    # raises alone, although the other queries converge
    def descend(R, b):
        return _rayleigh_min(2, R, b, 3.0, 3.0, 256, max_iter=11)

    converged = descend([1.0, 1.5], [2.0, 1.0])[3]
    assert [info["restart"] for info in converged] == [1, 1]
    alone = {}
    for R, b in ((0.8, 1.0), (2.0, 2.0)):
        with pytest.raises(RadialConvergenceError) as exc:
            descend([R], [b])
        alone[R] = exc.value
    for R, b, first in (([1.0, 1.5, 0.8, 2.0], [2.0, 1.0, 1.0, 2.0], 0.8),
                        ([2.0, 1.0, 0.8], [2.0, 2.0, 1.0], 2.0)):
        with pytest.raises(RadialConvergenceError) as exc:
            descend(R, b)
        assert str(exc.value) == str(alone[first])
        assert exc.value.residual == alone[first].residual


def test_first_failing_descent_query_of_a_list_raises(monkeypatch):
    # with the cap at 11 iterations, query 1 (the second key) and query 3
    # (the first key) both fail: the list raises for query 1, as running the
    # queries one at a time in order would
    import functools
    monkeypatch.setattr(radial, "_rayleigh_min",
                        functools.partial(_rayleigh_min, max_iter=11))
    queries = [_descent_query(2, 1.0, 2.0, 3.0, 3.0, 256),
               _descent_query(1, 0.6, 3.0, 3.0, 3.0, 128),
               RadialEigenvalueQuery(d=1, R=1.0, b=1.0, mesh_n=256),
               _descent_query(2, 0.8, 1.0, 3.0, 3.0, 256)]
    with pytest.raises(RadialConvergenceError) as alone:
        robin_eigenvalue_ball(queries[1])
    with pytest.raises(RadialConvergenceError) as batched:
        robin_eigenvalues_ball(queries)
    assert batched.value.residual == alone.value.residual
    with pytest.raises(RadialConvergenceError) as other:
        robin_eigenvalue_ball(queries[3])
    assert other.value.residual != alone.value.residual


def test_descent_preconditioner_failure_raises(monkeypatch):
    # a tridiagonal factorization that reports failure must not be used: the
    # failing row retires with no direction, and when every row fails each
    # winner is unconverged, so the first query raises, alone or in a batch
    import scipy.linalg.lapack as lapack
    ptsv = lapack.dptsv
    monkeypatch.setattr(lapack, "dptsv", lambda *a: ptsv(*a)[:3] + (1,))
    with pytest.raises(RadialConvergenceError) as alone:
        _rayleigh_min(2, 1.0, 0.5, 3.0, 3.0, 128)
    assert alone.value.query == 0
    with pytest.raises(RadialConvergenceError) as batched:
        _rayleigh_min(2, [1.0, 2.0, 0.7], [0.5, 2.0, 1.0], 3.0, 3.0, 128)
    assert batched.value.query == 0


@pytest.mark.parametrize("fault", ["info", "nan", "inf"])
def test_descent_preconditioner_failure_retires_only_its_row(monkeypatch, fault):
    # row 2 (query 0, restart 2) has its first solve fail, by a factorization
    # that reports failure or by a solution that is not finite: that restart
    # stops after one iteration, every other row solves as before, and both
    # queries answer as they do unpatched
    import scipy.linalg.lapack as lapack
    R, b = [1.0, 1.5], [2.0, 1.0]
    lam, _, u, infos = _rayleigh_min(2, R, b, 3.0, 3.0, 128)
    assert infos[0]["restart"] != 2
    ptsv, calls = lapack.dptsv, []

    def fail_row_2(*a):
        calls.append(len(a[0]))
        out = ptsv(*a)
        if len(calls) != 3:  # the first iteration solves rows 0..5 in order
            return out
        if fault == "info":
            return out[:3] + (1,)
        x = out[2].copy()
        if fault == "nan":
            x[:] = np.nan
        else:
            x[64] = np.inf  # one entry: the others stay finite
        return out[:2] + (x, 0)

    monkeypatch.setattr(lapack, "dptsv", fail_row_2)
    lam2, _, u2, infos2 = _rayleigh_min(2, R, b, 3.0, 3.0, 128)
    # one 129-node call per live row and iteration, never rows stacked
    assert set(calls) == {129}
    assert len(calls) == sum(sum(info["restart_iterations"]) for info in infos2)
    assert lam2.tolist() == lam.tolist() and np.array_equal(u2, u)
    assert infos2[0]["restart_iterations"][2] == 1
    assert infos2[0]["restart_iterations"][:2] == infos[0]["restart_iterations"][:2]
    assert infos2[1] == infos[1]


def test_query_validation():
    with pytest.raises(ValueError):
        RadialEigenvalueQuery(d=0, R=1.0, b=1.0)
    with pytest.raises(ValueError):
        RadialEigenvalueQuery(d=1, R=-1.0, b=1.0)
    with pytest.raises(ValueError):
        RadialEigenvalueQuery(d=1, R=math.inf, b=1.0)
    with pytest.raises(ValueError):
        RadialEigenvalueQuery(d=1, R=1.0, b=math.inf)
    with pytest.raises(ValueError):
        RadialEigenvalueQuery(d=1, R=1.0, b=math.inf, grad_exp=3.0)
    with pytest.raises(ValueError):
        RadialEigenvalueQuery(d=1, R=1.0, b=1.0, mesh_n=32)
    with pytest.raises(ValueError):
        RadialEigenvalueQuery(d=1, R=1.0, b=1.0, grad_exp=1.0)
    with pytest.raises(ValueError):
        RadialEigenvalueQuery(d=1, R=1.0, b=1.0, denom_exp=1.0)


@pytest.mark.parametrize("R,b,mesh_n", [
    ([1.0], [-0.5], 256), ([1.0], [math.nan], 256), ([-1.0], [1.0], 256),
    ([1.0, math.inf], [1.0], 256), ([math.nan], [1.0], 256),
    ([1.0], [0.0], 256), ([1.0], [1.0], 1), ([1.0], [math.inf], 256),
    ([1.0, 2.0], [1.0, math.inf], 256)])
def test_shoot_eigenvalues_rejects_bad_input(R, b, mesh_n):
    # the ranges RadialEigenvalueQuery enforces; for b < 0 the first
    # eigenvalue is negative, out of reach of the scan over lam >= 0
    with pytest.raises(ValueError):
        shoot_eigenvalues(1, R, b, mesh_n)


def test_poisson_disc_values():
    sol = robin_poisson_ball(2, 1.0, 1.0, 1.0)
    r, u = sol.profile[:, 0], sol.profile[:, 1]
    assert u[0] == pytest.approx(0.75, abs=1e-12)
    assert u[-1] == pytest.approx(0.5, abs=1e-12)
    # substitution check: -(u'' + u'/r) = f away from the axis
    h = r[1] - r[0]
    lap = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2 \
        + (u[2:] - u[:-2]) / (2 * h * r[1:-1])
    assert np.max(np.abs(lap + 1.0)) < 1e-8
    # Robin balance at the boundary: beta*u(R) + u'(R) = 0
    up = (u[-1] - u[-2]) / h
    assert 1.0 * u[-1] + up == pytest.approx(0.0, abs=5e-3)


def test_poisson_slab_analogue():
    # the 1d ball of radius 1/2 translated to (0, 1) matches x(1-x)/2 + 1/2
    sol = robin_poisson_ball(1, 0.5, 1.0, 1.0)
    r, u = sol.profile[:, 0], sol.profile[:, 1]
    x = r + 0.5
    assert np.max(np.abs(u - oracles.slab_solution(x, 1.0))) < 1e-12


def test_poisson_dirichlet_limit():
    traces = [robin_poisson_ball(2, 1.0, 1.0, beta).profile[-1, 1]
              for beta in (1.0, 10.0, 1e4)]
    assert traces[0] > traces[1] > traces[2]
    assert traces[2] < 1e-3


def test_ball_energy_disc():
    m = IntegrandModel(p=2, q=2, L=1.0, c0=0.0, f=1.0, beta1=1.0,
                       normalization="energy")
    J = ball_energy(m, 2, 1.0)
    assert J == pytest.approx(-5 * math.pi / 16, abs=1e-10)
    # quadrature cross-check of the three energy pieces on the profile
    sol = robin_poisson_ball(2, 1.0, 1.0, 1.0, samples=20001)
    r, u = sol.profile[:, 0], sol.profile[:, 1]
    du = np.gradient(u, r)
    quad = (0.5 * np.trapezoid(du**2 * r, r) - np.trapezoid(u * r, r)) * 2 * math.pi \
        + 0.5 * 2 * math.pi * 1.0 * u[-1] ** 2
    assert J == pytest.approx(quad, abs=1e-5)


def test_ball_energy_slab():
    m = IntegrandModel(p=2, q=2, L=1.0, c0=0.0, f=1.0, beta1=1.0,
                       normalization="energy")
    assert ball_energy(m, 1, 0.5) == pytest.approx(-7.0 / 24.0, abs=1e-12)
    assert ball_energy(m, 1, 0.5) == pytest.approx(oracles.slab_energy(1.0),
                                                   rel=1e-12)


def test_ball_energy_zero_source():
    m = IntegrandModel(p=2, q=2, L=1.0, c0=0.7, f=0.0, beta1=1.0,
                       normalization="energy")
    assert ball_energy(m, 2, 2.0) == pytest.approx(0.7 * ball_volume(2, 2.0))
    with pytest.raises(ValueError):
        ball_energy(IntegrandModel(p=2, q=2), 2, 1.0)  # plain normalization


def _scan_minimum(tmp_path, capsys, c0, f):
    """The R* and J* that `radial --scan-rmax 1` prints at d = 1, beta = 1."""
    assert main(["radial", "--d", "1", "--f", repr(f), "--beta", "1.0",
                 "--c0", repr(c0), "--scan-rmax", "1.0",
                 "--out", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    R, J = re.search(r"R\* = (\S+), J\* = (\S+)$", line).groups()
    return float(R), float(J)


def test_optimal_radius_scan_empty_when_source_off(tmp_path, capsys):
    assert _scan_minimum(tmp_path, capsys, c0=0.5, f=0.0) == (0.0, 0.0)


def test_optimal_radius_scan_matches_closed_form(tmp_path, capsys):
    # J(ell) = c0*ell - f^2(ell^3/24 + ell^2/4) on ell = 2R; with a small
    # volume multiplier the scan must run to the boundary, with c0 = 1 and
    # f = 1 the gain never beats the cost and the empty set wins
    R, J = _scan_minimum(tmp_path, capsys, c0=0.05, f=1.0)
    ells = np.linspace(0.0, 2.0, 400001)
    ref = ells[np.argmin(oracles.slab_energy(ells, c0=0.05))]
    assert 2 * R == pytest.approx(ref, abs=1e-3)
    assert R == pytest.approx(1.0)  # boundary optimum
    assert J == pytest.approx(oracles.slab_energy(2.0, c0=0.05), rel=1e-12)
    assert _scan_minimum(tmp_path, capsys, c0=1.0, f=1.0) == (0.0, 0.0)


def test_ball_energy_scan_minimum_is_an_end():
    # ball_energy on [0, R_max] is nonnegative, then falls: the first minimum
    # of any scan that holds both ends is an end, bit for bit
    rng = np.random.Generator(np.random.Philox(key=2026))
    ends = {0: 0, 511: 0}
    for _ in range(2000):
        d = int(rng.integers(1, 7))
        f = float(rng.uniform(-3.0, 3.0)) if rng.random() < 0.9 else 0.0
        c0 = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.9 else 0.0
        L, beta, R_max = (float(10.0 ** rng.uniform(lo, hi))
                          for lo, hi in ((-1, 1), (-2, 2), (-2, 1)))
        m = IntegrandModel(p=2, q=2, L=L, c0=c0, f=f, beta1=beta,
                           normalization="energy")
        radii = np.linspace(0.0, R_max, 512).tolist()
        vals = [ball_energy(m, d, R) for R in radii]
        k = vals.index(min(vals))
        assert k in ends
        ends[k] += 1
    assert min(ends.values()) > 500  # both ends win often


def test_ball_geometry_helpers():
    assert ball_volume(1, 0.5) == pytest.approx(1.0)
    assert ball_volume(2, 1.0) == pytest.approx(math.pi)
    assert ball_radius(2, math.pi) == pytest.approx(1.0)
    assert ball_radius(1, 1.0) == pytest.approx(0.5)
