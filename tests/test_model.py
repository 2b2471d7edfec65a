import math

import numpy as np
import pytest

from robinshape.model import (IntegrandModel, check_admissible, eval_g,
                              exponent_threshold, iter_constants)
from robinshape.radial import RadialConvergenceError
import oracles
from oracles import eval_j


def test_eval_j_examples():
    m = IntegrandModel(p=2, q=2, L=1.0, c0=1.0, f=0.0)
    assert eval_j(m, [0.3], 0.0, [0.0]) == 1.0
    m = IntegrandModel(p=2, q=2, L=1.0, c0=1.0, f=1.0)
    assert eval_j(m, [0.0], 2.0, [3.0, 4.0]) == pytest.approx(24.0, abs=1e-12)
    m = IntegrandModel(p=3, q=2, L=2.0, c0=0.0, f=0.0)
    assert eval_j(m, [0.0], 0.0, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)


def test_eval_j_rejects_nonfinite():
    m = IntegrandModel(p=2, q=2, f=1.0)
    with pytest.raises(ValueError):
        eval_j(m, [0.0], math.nan, [0.0])
    with pytest.raises(ValueError):
        eval_j(m, [0.0], 1.0, [math.inf])


def test_eval_g_examples():
    m = IntegrandModel(p=2, q=2, beta1=1.0)
    assert eval_g(m, [0.0], 0.0) == 0.0
    assert eval_g(m, [0.0], -3.0) == pytest.approx(9.0, abs=1e-12)
    m = IntegrandModel(p=3, q=3, beta1=0.5)
    assert eval_g(m, [0.0], 2.0) == pytest.approx(4.0, abs=1e-12)


def test_energy_normalization_halves_both_terms():
    pm = IntegrandModel(p=2, q=2, L=1.0, c0=0.0, f=0.0, beta1=1.0)
    em = IntegrandModel(p=2, q=2, L=1.0, c0=0.0, f=0.0, beta1=1.0,
                        normalization="energy")
    assert eval_j(em, [0.0], 0.0, [2.0]) == pytest.approx(
        0.5 * eval_j(pm, [0.0], 0.0, [2.0]))
    assert eval_g(em, [0.0], 3.0) == pytest.approx(0.5 * eval_g(pm, [0.0], 3.0))


def test_gradient_term_is_exact_power():
    # j(x,s,z) - j(x,s,0) must equal the gradient coefficient times |z|^p
    rng = np.random.default_rng(7)
    m = IntegrandModel(p=2.5, q=2.0, L=1.7, c0=0.3, f=lambda x: 1.0 + x[..., 0] ** 2)
    for _ in range(200):
        x = rng.uniform(0, 1, size=1)
        s = rng.uniform(-4, 4)
        z = rng.uniform(-3, 3, size=2)
        lhs = eval_j(m, x, s, z) - eval_j(m, x, s, [0.0, 0.0])
        rhs = m.grad_coeff * np.linalg.norm(z) ** m.p
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


def test_zero_order_monotone_for_nonnegative_source():
    m = IntegrandModel(p=2, q=2, f=lambda x: 0.5 + 0.5 * np.cos(x[..., 0]))
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = rng.uniform(0, 3, size=1)
        s, t = sorted(rng.uniform(-4, 4, size=2))  # f >= 0: for every s
        assert eval_j(m, x, s, [0.0]) >= eval_j(m, x, t, [0.0]) - 1e-14


def test_g_between_beta_bounds():
    beta1 = lambda x: 1.0 + 0.5 * np.sin(x[..., 0])
    beta2 = lambda x: 2.0 + 0.5 * np.sin(x[..., 0])
    m = IntegrandModel(p=3, q=2.5, beta1=beta1, beta2=beta2)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 5, size=(10_000, 1))
    s = rng.uniform(-5, 5, size=10_000)
    g = np.array([eval_g(m, xi, si) for xi, si in zip(x, s)])
    lo = beta1(x) * np.abs(s) ** m.q
    hi = beta2(x) * np.abs(s) ** m.q
    assert np.all(g >= lo - 1e-12)
    assert np.all(g <= hi + 1e-12)


def test_exponent_threshold_reference_values():
    assert exponent_threshold(2.0, 2) == pytest.approx(1.57735, abs=1e-5)
    assert exponent_threshold(3.0, 2) == pytest.approx(2.34891, abs=1e-4)
    for p, d in [(2.0, 2), (3.0, 2), (1.5, 3), (4.0, 2), (2.5, 5)]:
        assert exponent_threshold(p, d) == pytest.approx(
            oracles.threshold_formula(p, d), rel=1e-12)


def test_exponent_threshold_large_dimension_limit():
    p = 2.0
    assert exponent_threshold(p, 10**6) == pytest.approx(p * p / (2 * p - 1),
                                                         abs=1e-4)


def test_exponent_threshold_matches_iteration_constants():
    # the threshold is exactly where the contraction exponent balances d/(d-1)
    for p, d in [(2.0, 2), (3.0, 2), (2.0, 3), (1.5, 2), (5.0, 4)]:
        assert exponent_threshold(p, d) == pytest.approx(
            oracles.threshold_from_iteration(p, d), rel=1e-10)


def test_exponent_threshold_monotone_in_p():
    ps = np.linspace(1.01, 5.0, 100)
    vals = [exponent_threshold(float(p), 2) for p in ps]
    assert np.all(np.diff(vals) > 0)


def test_exponent_threshold_below_p():
    for p in np.linspace(1.05, 5.0, 60):
        assert exponent_threshold(float(p), 2) < p


def test_exponent_threshold_d1_convention():
    assert exponent_threshold(2.0, 1) == 1.0
    with pytest.raises(ValueError):
        exponent_threshold(0.9, 2)


def test_iter_constants_values():
    alpha, theta = iter_constants(2.0, 2)
    assert alpha == pytest.approx(5.46410, abs=1e-5)
    assert theta == pytest.approx(1.36603, abs=1e-5)
    for p in (1.5, 2.0, 3.0, 5.0):
        for d in (2, 3, 4):
            a, t = iter_constants(p, d)
            assert t > 1.0
            pprime = p / (p - 1.0)
            assert a == pytest.approx(t * d * pprime, rel=1e-15)
    with pytest.raises(ValueError):
        iter_constants(2.0, 1)


def test_check_admissible_interval_bound():
    # |D| = 1 in d = 1; the comparison constant is lam/4 with lam the
    # eigenvalue of the length-1 interval
    lam = oracles.robin_lambda_interval(0.5, 1.0)
    bound = 0.25 * lam
    assert bound == pytest.approx(0.4268, abs=1e-3)
    m_ok = IntegrandModel(p=2, q=2, L=1.0, f=0.4, beta1=1.0, c0=1.0)
    rep = check_admissible(m_ok, 1.0, 1)
    assert rep["j3"].status == "pass"
    assert f"{bound:.3f}"[:4] in rep["j3"].detail or "0.42" in rep["j3"].detail
    m_bad = IntegrandModel(p=2, q=2, L=1.0, f=3.0, beta1=1.0, c0=1.0)
    rep = check_admissible(m_bad, 1.0, 1)
    assert rep["j3"].status == "fail"
    assert "3" in rep["j3"].detail and "0.42" in rep["j3"].detail
    assert not rep.passed


def test_check_admissible_exponent_window():
    m = IntegrandModel(p=2, q=2, L=1.0, f=0.1, beta1=1.0)
    rep = check_admissible(m, 1.0, 2)
    assert rep["j4"].status == "pass"
    assert "1.577" in rep["j4"].detail


def test_check_admissible_sign_changing_source():
    m = IntegrandModel(p=2, q=2, f=lambda x: np.sin(7 * x[..., 0]), beta1=1.0)
    rep = check_admissible(m, 1.0, 1)
    assert rep["j4"].status == "fail"
    assert rep["j1"].status == "not-checkable"  # callable field
    assert rep["g2"].status == "pass"


def test_check_admissible_oracle_failure_is_not_checkable():
    def broken(query):
        raise RadialConvergenceError("oracle broke")
    m = IntegrandModel(p=2, q=2, f=0.1, beta1=1.0)
    rep = check_admissible(m, 1.0, 1, eig=broken)
    assert rep["j3"].status == "not-checkable"
    assert "oracle" in rep["j3"].detail


def test_check_admissible_programming_error_propagates():
    # only the oracle's own failures downgrade j3; a TypeError, as from a
    # query built with a wrong keyword, surfaces
    def broken(query):
        raise TypeError("unexpected keyword argument")
    m = IntegrandModel(p=2, q=2, f=0.1, beta1=1.0)
    with pytest.raises(TypeError, match="unexpected keyword"):
        check_admissible(m, 1.0, 1, eig=broken)


def test_check_admissible_nonpositive_beta1_reports():
    # a minimum of beta1 that is not positive fails g3, and the eigenvalue
    # comparison, which has no Robin ball to query, is not-checkable: no
    # oracle runs, and the detail names the minimum
    def oracle(query):
        raise AssertionError(f"oracle called with {query}")
    m = IntegrandModel(p=2, q=2, f=0.1, beta1=0.0)
    rep = check_admissible(m, 1.0, 2, eig=oracle)
    assert rep["g3"].status == "fail"
    assert rep["j3"].status == "not-checkable"
    assert rep["j3"].detail.startswith("min beta1 over samples = 0 is not positive")
    assert "oracle" not in rep["j3"].detail


def test_check_admissible_every_id_once():
    m = IntegrandModel(p=2, q=2, f=0.1)
    rep = check_admissible(m, 1.0, 2)
    ids = [c.id for c in rep.checks]
    assert sorted(ids) == sorted(set(ids))
    assert set(ids) == {"j1", "j2", "j3", "j4", "j5", "g1", "g2", "g3", "g4"}


def test_model_validation():
    with pytest.raises(ValueError):
        IntegrandModel(p=1.0, q=1.0)
    with pytest.raises(ValueError):
        IntegrandModel(p=2.0, q=2.5)
    with pytest.raises(ValueError):
        IntegrandModel(p=2.0, q=2.0, L=-1.0)
    with pytest.raises(ValueError):
        IntegrandModel(p=2.0, q=2.0, c0=-0.1)
    with pytest.raises(ValueError):
        IntegrandModel(p=2.0, q=2.0, normalization="mixed")
