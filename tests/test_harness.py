import os
import re
import subprocess
import sys

import numpy as np
import pytest

from robinshape.cli import main
from robinshape.sbvgrid import poincare_check, read_field_text
from robinshape.radial import (RadialEigenvalueQuery, RadialSolution,
                               robin_eigenvalue_ball, shoot_eigenvalues)
from robinshape import suites
from robinshape.suites import (ball_minimality_suite, poincare_default_n,
                               poincare_suite)

import oracles


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[0].startswith("# robin-shape v1 ")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return header, rows


def test_figure1_values(tmp_path):
    out = str(tmp_path)
    assert main(["figure1", "--p-min", "1.05", "--p-max", "5.0",
                 "--count", "80", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "figure1.csv"))
    assert header == ["p", "q_threshold", "p_upper"]
    ps = np.array([float(r[0]) for r in rows])
    qs = np.array([float(r[1]) for r in rows])
    assert np.all(qs < ps)  # the admissible band is nonempty
    # spot values against the extended-precision oracle
    for p, q in zip(ps[::13], qs[::13]):
        assert q == pytest.approx(oracles.threshold_formula(p, 2), rel=1e-10)


def test_eig_end_to_end(tmp_path):
    out = str(tmp_path)
    assert main(["eig", "--d", "1", "--R", "1.0", "--b", "0.1,1.0,10.0",
                 "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "eig.csv"))
    assert header[:3] == ["R", "b", "d"]
    lams = [float(r[7]) for r in rows]
    assert lams[0] < lams[1] < lams[2]
    assert lams[1] == pytest.approx(oracles.robin_lambda_interval(1.0, 1.0),
                                    rel=1e-8)


def test_eig_disc(tmp_path):
    out = str(tmp_path)
    assert main(["eig", "--d", "2", "--R", "1.0", "--b", "1.0",
                 "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "eig.csv"))
    assert float(rows[0][7]) == pytest.approx(1.577, abs=2e-3)


def test_radial_profile_and_scan(tmp_path):
    out = str(tmp_path)
    assert main(["radial", "--d", "2", "--R", "1.0", "--f", "1.0",
                 "--beta", "1.0", "--scan-rmax", "1.0", "--c0", "0.05",
                 "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "radial_profile.csv"))
    assert float(rows[0][1]) == pytest.approx(0.75)
    assert float(rows[-1][1]) == pytest.approx(0.5)
    _, rows = read_csv(os.path.join(out, "radial_scan.csv"))
    assert len(rows) == 512


def test_radial_scan_evaluates_each_radius_once(tmp_path, monkeypatch, capsys):
    # the scan's CSV rows and its printed minimum come from one pass of
    # ball_energy over the radii
    from robinshape import radial
    calls = []
    energy = radial.ball_energy

    def counted(*args):
        calls.append(args)
        return energy(*args)

    # counted wherever the command could look ball_energy up
    from robinshape import cli
    monkeypatch.setattr(radial, "ball_energy", counted)
    monkeypatch.setattr(cli, "ball_energy", counted, raising=False)
    out = str(tmp_path)
    assert main(["radial", "--d", "2", "--f", "1.0", "--beta", "2.0",
                 "--c0", "0.05", "--scan-rmax", "3.0", "--scan-samples", "97",
                 "--out", out]) == 0
    assert len(calls) == 97
    model = calls[0][0]
    _, rows = read_csv(os.path.join(out, "radial_scan.csv"))
    radii = np.linspace(0.0, 3.0, 97)
    assert rows == [[repr(float(R)), repr(energy(model, 2, float(R)))]
                    for R in radii]
    R_star, J_star = radial.optimal_radius_scan(model, 2, 3.0)
    assert f"R* = {R_star!r}, J* = {J_star!r}" in capsys.readouterr().out


def test_solve_writes_parseable_field(tmp_path):
    out = str(tmp_path)
    assert main(["solve", "--d", "1", "--n", "128", "--f-const", "1.0",
                 "--shape", "full", "--out", out]) == 0
    fld, mask = read_field_text(os.path.join(out, "field.txt"))
    assert fld.grid.n == 128
    assert mask.count() == 128
    x = fld.grid.centers()[:, 0]
    assert np.max(np.abs(fld.values - oracles.slab_solution(x, 1.0))) < 2e-3


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo configuration\nn = 64\nf_const = 2.0\n")
    out = str(tmp_path / "o")
    assert main(["solve", "--d", "1", "--config", str(cfg), "--shape", "full",
                 "--n", "32", "--out", out]) == 0
    fld, _ = read_field_text(os.path.join(out, "field.txt"))
    assert fld.grid.n == 32  # explicit flag beats the config file
    assert np.max(fld.values) > 1.0  # f = 2 came from the config


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_factor = 9\n")
    assert main(["solve", "--config", str(cfg)]) == 1


def test_range_checks_are_usage_errors(tmp_path):
    assert main(["solve", "--d", "1", "--n", "2"]) == 1
    assert main(["solve", "--tol", "5.0"]) == 1
    assert main(["eig", "--R", "-1.0"]) == 1
    assert main(["optimize", "--cooling", "1.5"]) == 1
    # non-finite list entries are usage errors, not numerical failures
    out = str(tmp_path)
    for bad in ("inf", "nan", "1.0,-inf"):
        assert main(["eig", "--R", bad, "--out", out]) == 1
        assert main(["eig", "--b", bad, "--out", out]) == 1
    assert main(["verify", "--suite", "ball-minimality", "--ns", "8,inf",
                 "--out", out]) == 1
    # ball-minimality grid sizes are whole numbers >= 4, the smallest Grid
    for bad in ("0,8", "2,8", "8.5,16"):
        assert main(["verify", "--suite", "ball-minimality", "--ns", bad,
                     "--out", out]) == 1
    assert main(["solve", "--f-bump", "0.4,nan,3", "--out", out]) == 1
    # non-finite scalars fail the range checks too, as flags and in a config
    # file alike; nan passes both comparisons with a bound
    for cmd, key, bad in (("optimize", "c0", "nan"), ("solve", "c0", "nan"),
                          ("optimize", "t0", "nan"),
                          ("solve", "f_const", "nan"),
                          ("optimize", "f_const", "nan"),
                          ("solve", "beta", "inf"), ("optimize", "beta", "inf"),
                          ("solve", "L", "nan"), ("optimize", "L", "nan")):
        assert main([cmd, "--" + key.replace("_", "-"), bad, "--out", out]) == 1
        cfg = tmp_path / f"{cmd}_{key}.cfg"
        cfg.write_text(f"{key} = {bad}\n")
        assert main([cmd, "--config", str(cfg), "--out", out]) == 1
    # Philox takes keys below 2**128; a larger seed is a usage error, as a
    # flag and in a config file alike, and the largest key still runs
    for cmd in (["optimize", "--n", "8", "--sweeps", "2"],
                ["verify", "--suite", "poincare", "--trials", "5", "--n", "64"]):
        assert main(cmd + ["--seed", str(2**128), "--out", out]) == 1
        cfg = tmp_path / f"{cmd[0]}_seed.cfg"
        cfg.write_text(f"seed = {2**128}\n")
        assert main(cmd + ["--config", str(cfg), "--out", out]) == 1
        assert main(cmd + ["--seed", str(2**128 - 1), "--out", out]) == 0
    cfg = tmp_path / "init.cfg"
    cfg.write_text("d = 2\ninit = disc:0.5:nan:0.3\n")
    assert main(["optimize", "--config", str(cfg), "--out", out]) == 1
    assert main(["optimize", "--d", "2", "--init", "disc:0.5:nan:0.3",
                 "--out", out]) == 1


def test_malformed_weights_and_init_are_usage_errors(tmp_path):
    out = str(tmp_path)
    assert main(["solve", "--d", "2", "--n", "32", "--weights", "bogus",
                 "--out", out]) == 1
    assert main(["optimize", "--weights", "bogus", "--out", out]) == 1
    for init in ("interval:0.2", "interval:0.2:x", "disc:0.5:0.5",
                 "blob", "full:1"):
        assert main(["optimize", "--init", init, "--out", out]) == 1
    assert main(["optimize", "--d", "2", "--init", "interval:0.2:0.6",
                 "--out", out]) == 1


def test_reversed_interval_is_usage_error(tmp_path):
    out = str(tmp_path)
    assert main(["solve", "--d", "1", "--shape", "interval", "--a", "0.8",
                 "--b", "0.2", "--out", out]) == 1
    assert main(["optimize", "--d", "1", "--init", "interval:0.8:0.2",
                 "--out", out]) == 1


def test_unknown_command_and_flag():
    assert main(["frobnicate"]) == 1
    assert main(["solve", "--frob", "1"]) == 1
    assert main([]) == 0  # usage text


def test_numerical_failure_exit_code(tmp_path):
    assert main(["solve", "--d", "1", "--n", "128", "--max-iter", "2",
                 "--out", str(tmp_path)]) == 2


def test_zero_source_solve_at_exponent_three(tmp_path):
    assert main(["solve", "--d", "1", "--n", "16", "--p", "3", "--q", "3",
                 "--f-const", "0", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("p,q,n", [
    (1.5, 1.25, 16), (1.5, 1.25, 32), (1.5, 1.25, 64), (1.5, 1.25, 128),
    (1.5, 1.5, 64), (1.2, 1.1, 64),
    (6, 6, 16), (6, 6, 64), (8, 8, 16), (8, 8, 64), (8, 3, 16), (8, 3, 64),
    (16, 16, 64), (16, 1.1, 64),
])
def test_nonquadratic_solves_succeed(tmp_path, p, q, n):
    assert main(["solve", "--d", "1", "--n", str(n), "--p", str(p),
                 "--q", str(q), "--f-const", "1", "--out", str(tmp_path)]) == 0


def test_subquadratic_optimize_succeeds(tmp_path):
    assert main(["optimize", "--d", "1", "--n", "64", "--p", "1.5",
                 "--q", "1.25", "--f-bump", "0.4,0.6,3",
                 "--out", str(tmp_path)]) == 0


def test_verify_failure_exit_code_and_replay(tmp_path):
    out = str(tmp_path)
    # an impossible gap floor forces the reduction suite to fail and
    # serialize its worst field for replay
    code = main(["verify", "--suite", "reduction", "--trials", "3",
                 "--n", "32", "--gap-floor", "1e9", "--out", out])
    assert code == 3
    assert os.path.exists(os.path.join(out, "failing_reduction.txt"))
    fld, _ = read_field_text(os.path.join(out, "failing_reduction.txt"))
    assert fld.grid.n == 32


@pytest.mark.parametrize("b", ["4", "10"])
def test_verify_poincare_passes_at_larger_b(tmp_path, b):
    # the equality row is the Richardson value from the grid and the grid of
    # half the spacing, whose first-order trace error cancels
    out = str(tmp_path)
    assert main(["verify", "--suite", "poincare", "--b", b, "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "verify_poincare.csv"))
    assert len(rows) == 1001 and rows[-1][:2] == ["eq", "eigenfunction"]
    assert float(rows[-1][3]) == pytest.approx(1.0, abs=1e-3)
    assert not os.path.exists(os.path.join(out, "failing_poincare.txt"))


def test_verify_poincare_default_grid_follows_b(tmp_path, capsys):
    # the extrapolated equality ratio is low by about b h^2: at b = 1000 the
    # default grid is n = 512 (0.996), where n = 128 reads 0.939 and fails
    assert [poincare_default_n(b) for b in (1.0, 100.0, 300.0, 1000.0, 1e6)] \
        == [128, 128, 256, 512, 4096]
    out = str(tmp_path)
    assert main(["verify", "--suite", "poincare", "--b", "1000",
                 "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "verify_poincare.csv"))
    assert float(rows[-1][3]) == pytest.approx(1.0, abs=0.01)
    # an explicit n wins, and a grid too coarse for b says so when it fails
    assert main(["verify", "--suite", "poincare", "--b", "1000", "--n", "128",
                 "--out", out]) == 3
    assert "does not resolve the boundary layer" in capsys.readouterr().out


def test_verify_poincare_beyond_the_largest_grid_fails_and_says_so(
        tmp_path, capsys, monkeypatch):
    # the largest grid lowered from 4096 to 256 to keep the run short
    monkeypatch.setattr(suites, "POINCARE_MAX_N", 256)
    assert main(["verify", "--suite", "poincare", "--b", "1e5", "--trials",
                 "5", "--out", str(tmp_path)]) == 3
    text = capsys.readouterr().out
    assert "at n = 256: the grid does not resolve the boundary layer" in text
    assert "(n = 256 is the largest grid)" in text


def test_verify_poincare_replays_the_failed_equality_case(tmp_path, capsys):
    # the floor passes, so the field written for replay is the sampled
    # eigenfunction on the suite grid, not the minimum-ratio field
    out = str(tmp_path)
    assert main(["verify", "--suite", "poincare", "--trials", "20", "--n",
                 "32", "--eq-tol", "1e-9", "--out", out]) == 3
    assert "extrapolated" in capsys.readouterr().out
    fld, _ = read_field_text(os.path.join(out, "failing_poincare.txt"))
    assert fld.grid.n == 32
    support = np.flatnonzero(fld.values)
    assert len(support) == 16 and np.all(np.diff(support) == 1)
    assert np.allclose(fld.values[support], fld.values[support][::-1])
    # and a failed floor writes the minimum-ratio field instead
    assert main(["verify", "--suite", "poincare", "--trials", "20", "--n",
                 "32", "--min-ratio", "5", "--out", out]) == 3
    _, rows = read_csv(os.path.join(out, "verify_poincare.csv"))
    worst = min(rows[:-1], key=lambda r: float(r[3]))
    fld, _ = read_field_text(os.path.join(out, "failing_poincare.txt"))
    exact = lambda q: RadialSolution(oracles.robin_lambda_interval(q.R, q.b),
                                     np.zeros((0, 2)), {})
    assert poincare_check(fld, 1.0, 2.0, 2.0, exact) == pytest.approx(
        float(worst[3]), rel=1e-8)


def test_verify_reduction_passes(tmp_path):
    out = str(tmp_path)
    assert main(["verify", "--suite", "reduction", "--trials", "10",
                 "--n", "32", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "verify_reduction.csv"))
    assert header == ["trial", "support_cells", "gap"]
    assert len(rows) == 10


def test_verify_needs_suite():
    assert main(["verify"]) == 1
    assert main(["verify", "--suite", "nonsense"]) == 1


@pytest.mark.parametrize("suite,key,value", [
    ("poincare", "gap_floor", "-1e-8"), ("reduction", "b", "7"),
    ("scaling", "seed", "5"), ("ball-minimality", "min_ratio", "5")])
def test_verify_rejects_keys_of_other_suites(tmp_path, capsys, suite, key,
                                             value):
    # a key the suite does not take is a usage error, as a flag and in a
    # config file alike, and nothing runs
    out = str(tmp_path)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"{key} = {value}\n")
    for how in (["--" + key.replace("_", "-"), value], ["--config", str(cfg)]):
        assert main(["verify", "--suite", suite, *how, "--out", out]) == 1
        assert key in capsys.readouterr().err
    assert not any(name.startswith("verify_") for name in os.listdir(out))


def test_verify_keys_survive_a_wrapped_suite(tmp_path, monkeypatch):
    # a profiler may swap a suite for a (*args, **kwargs) wrapper; the keys
    # come from the signatures read at import, so they still pass and a
    # foreign key is still rejected
    from robinshape import cli
    run = cli.SUITES["reduction"]
    monkeypatch.setitem(cli.SUITES, "reduction", lambda *a, **k: run(*a, **k))
    out = str(tmp_path)
    assert main(["verify", "--suite", "reduction", "--trials", "3", "--n",
                 "32", "--out", out]) == 0
    assert main(["verify", "--suite", "reduction", "--b", "7",
                 "--out", out]) == 1


def test_verify_grid_is_large_enough_for_the_battery(tmp_path):
    # the Poincare battery draws supports of 3 to n - 3 cells, so n = 6 is
    # its smallest grid; smaller n are usage errors, not numerical failures
    out = str(tmp_path)
    for n in ("4", "5"):
        assert main(["verify", "--suite", "poincare", "--n", n, "--trials",
                     "5", "--out", out]) == 1
    assert main(["verify", "--suite", "poincare", "--n", "6", "--trials",
                 "5", "--out", out]) in (0, 3)


def test_unconverged_descent_is_a_numerical_failure(tmp_path):
    # the quotient overflows at R = 1e8 in 6d: the descent stops after one
    # iteration with an infinite change, which must not be written as lambda
    with pytest.warns(RuntimeWarning):
        code = main(["eig", "--d", "6", "--R", "1e8", "--b", "1e-12",
                     "--grad-exp", "16", "--bdry-exp", "16", "--denom-exp",
                     "2", "--mesh-n", "64", "--out", str(tmp_path)])
    assert code == 2
    assert not os.path.exists(tmp_path / "eig.csv")


def test_descent_whose_preconditioner_fails_to_factor_answers(tmp_path):
    # a pivot of one restart's tridiagonal model rounds to <= 0: that restart
    # retires, and the query answers from a restart that converged; near
    # Neumann the constant profile's quotient b/R bounds lambda from above
    assert main(["eig", "--d", "1", "--R", "1e-6", "--b", "1e-12",
                 "--grad-exp", "16", "--bdry-exp", "16", "--denom-exp", "16",
                 "--mesh-n", "64", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(os.path.join(str(tmp_path), "eig.csv"))
    assert rows[0][8] == "rayleigh-descent" and float(rows[0][9]) < 1e-10
    assert float(rows[0][7]) == pytest.approx(1e-6, rel=1e-5)
    assert float(rows[0][7]) <= 1e-6


def test_import_loads_no_scipy():
    # scipy is imported where it is used: the sparse solvers and the LAPACK
    # descent
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["robinshape"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, robinshape.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_optimize_and_p2_solve_load_no_scipy(tmp_path):
    # a 2d optimize and a p = q = 2 solve (CG, the trace's and the
    # diagnostics' component counts) run on numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["robinshape"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [["optimize", "--d", "2", "--n", "16", "--init", "disc:0.5:0.5:0.3",
             "--sweeps", "6", "--out", str(tmp_path / "opt")],
            ["solve", "--d", "2", "--n", "32", "--shape", "disc",
             "--out", str(tmp_path / "solve")]]
    code = ("import sys\nfrom robinshape.cli import main\n"
            f"for argv in {runs!r}:\n    assert main(argv) == 0\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert os.path.exists(tmp_path / "opt" / "diagnostics.csv")
    assert os.path.exists(tmp_path / "solve" / "diagnostics.csv")


def test_ball_minimality_needs_two_sizes(tmp_path):
    # one size leaves the Richardson check nothing to compare
    assert main(["verify", "--suite", "ball-minimality", "--ns", "8",
                 "--out", str(tmp_path)]) == 1
    with pytest.raises(ValueError):
        ball_minimality_suite(ns=(8,))


@pytest.mark.parametrize("b", [1.0, 2.5])
def test_poincare_suite_uses_the_eigenvalue_of_each_support(b):
    # a plateau of height v on m = k*h cells has two jumps of v and no
    # gradient, so its ratio is 2b v^2 / (lam v^2 m): each rect row gives
    # back the eigenvalue the suite used for its own support size
    result = poincare_suite(trials=40, n=32, seed=7, b=b)
    rects = [row for row in result["rows"][1:] if row[1] == "rect"]
    assert len(rects) >= 5
    for _, _, m, ratio in rects:
        m, ratio = float(m), float(ratio)
        lam = 2.0 * b / (ratio * m)
        ref = robin_eigenvalue_ball(RadialEigenvalueQuery(
            d=1, R=m / 2.0, b=b, mesh_n=768)).lam
        assert lam == pytest.approx(ref, rel=1e-12)
        assert lam == pytest.approx(oracles.robin_lambda_interval(m / 2.0, b),
                                    rel=1e-9)


@pytest.mark.parametrize("seed", [20240501, 4711])
def test_poincare_battery_matches_the_per_field_loop(seed):
    # one face pass over the stacked battery against the fields built and
    # scored one at a time: the same draws, sizes and replay field, and
    # ratios that differ only by the order of the face sums.  A floor of 2
    # fails the battery, so its lowest-ratio field comes back for replay
    n = 128
    result = poincare_suite(trials=1000, n=n, seed=seed, min_ratio=2.0)
    lams = shoot_eigenvalues(1, np.arange(1, n + 1) / n / 2.0, np.ones(n), 768)
    ref_rows, ref_field = oracles.poincare_battery_reference(1000, n, seed,
                                                             1.0, lams)
    rows = result["rows"][1:-1]
    assert [r[:3] for r in rows] == [r[:3] for r in ref_rows]
    got = np.array([float(r[3]) for r in rows])
    want = np.array([float(r[3]) for r in ref_rows])
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    field = result["failing"]
    assert np.array_equal(field.values, ref_field.values)
    assert all(np.array_equal(g, w) for g, w in zip(field.jumps, ref_field.jumps))
    assert len(field.jumps) == len(ref_field.jumps) == 1


def test_optimize_reproducible_outputs(tmp_path):
    args = ["optimize", "--d", "1", "--n", "48", "--f-bump", "0.4,0.6,3",
            "--c0", "0.2", "--sweeps", "50", "--seed", "99"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    for name in ("trace.csv", "best_field.txt", "diagnostics.csv"):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_reported_J_uses_the_boundary_weights(tmp_path, capsys):
    # diagnostics.csv and the trace's perimeter follow --weights, so the
    # J written equals the J printed
    out = str(tmp_path / "solve")
    assert main(["solve", "--d", "2", "--n", "48", "--shape", "disc",
                 "--radius", "0.3", "--weights", "uncorrected",
                 "--out", out]) == 0
    printed = re.search(r"^J = (\S+);", capsys.readouterr().out, re.M).group(1)
    header, rows = read_csv(os.path.join(out, "diagnostics.csv"))
    assert rows[0][header.index("J")] == printed
    out = str(tmp_path / "optimize")
    assert main(["optimize", "--d", "2", "--n", "32", "--init",
                 "disc:0.5:0.5:0.3", "--sweeps", "4", "--weights",
                 "uncorrected", "--f-const", "4", "--c0", "0.2",
                 "--out", out]) == 0
    best = re.search(r"best J = (\S+) ", capsys.readouterr().out).group(1)
    header, rows = read_csv(os.path.join(out, "diagnostics.csv"))
    assert rows[0][header.index("J")] == best
    # uncorrected faces weigh h each: every perimeter is a whole number of h
    header, rows = read_csv(os.path.join(out, "trace.csv"))
    for row in rows:
        faces = float(row[header.index("perimeter")]) * 32
        assert faces == pytest.approx(round(faces), abs=1e-9)


def test_help_paths(capsys):
    assert main(["--help"]) == 0
    assert main(["solve", "--help"]) == 0
    seen = capsys.readouterr().out
    assert "--f-const" in seen
