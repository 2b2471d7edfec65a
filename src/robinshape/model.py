"""Integrand family for the bulk/boundary energy and its hypothesis checks.

The bulk density is j(x, s, z) = Lg*|z|^p - f(x)*s + c0 and the boundary
density is g(x, s) = Bg(x)*|s|^q.  Two normalizations are supported:

* ``plain``:  Lg = L,   Bg = beta1          (the |z|^p - f u + 1 family)
* ``energy``: Lg = L/2, Bg = beta1/2        (at p = q = 2 this is the
  classical Robin energy 1/2 int |grad u|^2 - int f u + beta/2 oint u^2,
  whose Euler-Lagrange system is -L lap u = f with L du/dn + beta1 u = 0)

Scalar data (f, a, beta1, beta2) may be constants or callables evaluated on
arrays of points of shape (..., d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

FieldLike = float | Callable[[np.ndarray], np.ndarray]

_NORMALIZATIONS = ("plain", "energy")


def sample_field(f: FieldLike, pts) -> np.ndarray:
    """Evaluate a constant-or-callable scalar field at points of shape (..., d)."""
    pts = np.asarray(pts, dtype=float)
    if callable(f):
        out = np.asarray(f(pts), dtype=float)
        want = pts.shape[:-1]
        if out.shape != want:
            out = np.broadcast_to(out, want).astype(float)
        return out
    return np.full(pts.shape[:-1], float(f))


@dataclass(frozen=True)
class IntegrandModel:
    """Parameters of the (j, g) integrand pair.

    p, q are the gradient and boundary exponents (p > 1, 1 < q <= p);
    L > 0 scales the gradient term; c0 >= 0 is the volume multiplier
    standing in for the "+1"; f is the source field; a the zero-order
    lower-bound offset; beta1 <= beta2 the boundary coefficient bounds.
    C_j and M0 are the large-state growth constant and threshold; they are
    stored for the hypothesis checks and unused by the solvers.
    """

    p: float
    q: float
    L: float = 1.0
    c0: float = 1.0
    f: FieldLike = 0.0
    a: FieldLike = 0.0
    beta1: FieldLike = 1.0
    beta2: FieldLike | None = None
    C_j: float = 1.0
    M0: float = 1.0
    normalization: str = "plain"

    def __post_init__(self):
        if not (self.p > 1.0):
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not (1.0 < self.q <= self.p):
            raise ValueError(f"q must lie in (1, p], got q={self.q}, p={self.p}")
        if not (self.L > 0.0):
            raise ValueError(f"L must be positive, got {self.L}")
        if self.c0 < 0.0:
            raise ValueError(f"c0 must be nonnegative, got {self.c0}")
        if self.C_j < 0.0:
            raise ValueError(f"C_j must be nonnegative, got {self.C_j}")
        if not (self.M0 > 0.0):
            raise ValueError(f"M0 must be positive, got {self.M0}")
        if self.normalization not in _NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {_NORMALIZATIONS}")

    # effective coefficients after normalization
    @property
    def grad_coeff(self) -> float:
        return self.L / 2.0 if self.normalization == "energy" else self.L

    def bdry_coeff(self, pts) -> np.ndarray:
        b = sample_field(self.beta1, pts)
        return b / 2.0 if self.normalization == "energy" else b

    def beta2_field(self) -> FieldLike:
        return self.beta1 if self.beta2 is None else self.beta2

    def f_at(self, pts) -> np.ndarray:
        return sample_field(self.f, pts)


def eval_g(model: IntegrandModel, x, s: float) -> float:
    """Boundary energy density g(x, s) = beta1(x)|s|^q (halved in energy form)."""
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(s) and np.all(np.isfinite(x))):
        raise ValueError("eval_g requires finite inputs")
    return float(model.bdry_coeff(x)) * abs(float(s)) ** model.q


def exponent_threshold(p: float, d: float) -> float:
    """Lower admissibility bound on the boundary exponent q for dimension d.

    Returns max{1, p/(2p-1) * [p + (p-1)^2/((d-1)p) * 2/(1+sqrt(1+4(p-1)/((d-1)p)))]}.
    Admissible models satisfy threshold < q <= p.  d = 1 is a testing
    convenience (the (d-1) factor degenerates) and returns 1.
    """
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d == 1:
        return 1.0
    w = 4.0 * (p - 1.0) / ((d - 1.0) * p)
    inner = p + ((p - 1.0) ** 2 / ((d - 1.0) * p)) * 2.0 / (1.0 + math.sqrt(1.0 + w))
    return max(1.0, p / (2.0 * p - 1.0) * inner)


def iter_constants(p: float, d: float) -> tuple[float, float]:
    """Exponent pair (alpha_iter, theta) of the iteration that drives the
    lower-bound argument; solves alpha = theta*d*p' with theta > 1."""
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    pprime = p / (p - 1.0)
    theta = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 / ((d - 1.0) * pprime)))
    return theta * d * pprime, theta


@dataclass
class AssumptionCheck:
    id: str
    status: str  # "pass" | "fail" | "not-checkable"
    detail: str


@dataclass
class AssumptionReport:
    checks: list[AssumptionCheck] = dc_field(default_factory=list)

    def __getitem__(self, cid: str) -> AssumptionCheck:
        for c in self.checks:
            if c.id == cid:
                return c
        raise KeyError(cid)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def summary(self) -> str:
        return "\n".join(f"{c.id:3s} {c.status:13s} {c.detail}" for c in self.checks)


def _sample_points(domain_volume: float, d: int) -> np.ndarray:
    # sampling lattice of about 4096 points on a box of the given volume
    # (the checker's stand-in for D)
    side = domain_volume ** (1.0 / d)
    per_axis = max(8, int(round(4096 ** (1.0 / d))))
    axes = [np.linspace(0.0, side, per_axis) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, d)


def check_admissible(model: IntegrandModel, domain_volume: float, d: int,
                     eig=None) -> AssumptionReport:
    """Run every machine-checkable hypothesis on the model over a box of
    volume |D| = domain_volume.

    `eig` is an eigenvalue oracle mapping a RadialEigenvalueQuery to a
    solution with a `.lam` attribute; defaults to the radial solver.  Its
    failure (RadialConvergenceError or ValueError), or a minimum of beta1
    that is not positive, downgrades the eigenvalue comparison to
    "not-checkable"; any other exception propagates.
    """
    if domain_volume <= 0:
        raise ValueError("domain_volume must be positive")
    from . import radial
    if eig is None:
        eig = radial.robin_eigenvalue_ball

    pts = _sample_points(domain_volume, d)
    f_s = sample_field(model.f, pts)
    a_s = sample_field(model.a, pts)
    b1_s = sample_field(model.beta1, pts)
    b2_s = sample_field(model.beta2_field(), pts)
    f_sup = float(np.max(np.abs(f_s)))
    f_min = float(np.min(f_s))
    b1_min = float(np.min(b1_s))
    p, q = model.p, model.q
    rep = AssumptionReport()

    builtin = not any(callable(v) for v in (model.f, model.a, model.beta1,
                                            model.beta2_field()))
    structural = ("pass" if builtin else "not-checkable",
                  "by construction for the built-in family" if builtin
                  else "user-supplied callables; measurability/semicontinuity not checkable")
    rep.checks.append(AssumptionCheck("j1", *structural))

    ok = model.c0 >= 0.0
    rep.checks.append(AssumptionCheck(
        "j2", "pass" if ok else "fail",
        f"j(x,0,0) = c0 = {model.c0:g} (needs >= 0, integrable on bounded D)"))

    # (j3): growth constants, the zero-order lower bound and the
    # sup-norm-vs-eigenvalue comparison on the volume-matched ball.
    sstar = q ** (-1.0 / (q - 1.0))
    f2_need = f_sup * (sstar - sstar**q)
    f2_margin = float(np.min(a_s)) + model.c0 - f2_need
    f2_ok = (f_min >= 0.0) and (f2_margin >= -1e-12)
    ball_R = radial.ball_radius(d, domain_volume)
    status = "not-checkable"
    detail = (f"min beta1 over samples = {b1_min:.6g} is not positive: "
              "no Robin ball eigenvalue to compare with")
    if b1_min > 0.0:
        try:
            query = radial.RadialEigenvalueQuery(d=d, R=ball_R, b=b1_min / model.L,
                                                 grad_exp=q, denom_exp=q)
            lam = float(eig(query).lam)
            bound = model.grad_coeff / (2.0 * q) * lam
            f22_ok = f_sup <= bound
            status = "pass" if (f2_ok and f22_ok) else "fail"
            detail = (f"||f||_inf = {f_sup:.6g} vs bound (L/2q)*lambda = {bound:.6g} "
                      f"(lambda = {lam:.6g} on ball R = {ball_R:.6g}); "
                      f"zero-order margin a+c0-|f|max(s-s^q) = {f2_margin:.4g}")
        except (radial.RadialConvergenceError, ValueError) as exc:
            detail = f"eigenvalue oracle failed: {exc}"
    if d == 1:
        detail += " [d=1 testing mode]"
    rep.checks.append(AssumptionCheck("j3", status, detail))

    # (j4): j(x,s,0) = c0 - f s is nonincreasing iff f >= 0; plus the q window.
    thr = exponent_threshold(p, d)
    expo_ok = thr < q <= p
    mono_ok = f_min >= 0.0
    rep.checks.append(AssumptionCheck(
        "j4", "pass" if (expo_ok and mono_ok) else "fail",
        f"threshold {thr:.6g} < q = {q:g} <= p = {p:g}: {expo_ok}; "
        + (f"min f = {f_min:.6g} >= 0 so j(x,s,0) = c0 - f s is nonincreasing for all s"
           if mono_ok else f"min f = {f_min:.6g} < 0: sign-changing f, (j4) not satisfied")))

    # (j5): the gradient bound is an equality for the family; the decay of
    # j(x,.,0) above M0 needs C_j >= ||f+||*sup (s-M0)/s^q.
    fplus = float(np.max(np.clip(f_s, 0.0, None)))
    cj_need = fplus * model.M0 ** (1.0 - q) * (q - 1.0) ** (q - 1.0) / q**q
    cj_ok = model.C_j >= cj_need - 1e-12
    rep.checks.append(AssumptionCheck(
        "j5", "pass" if cj_ok else "fail",
        f"j(x,s,z)-j(x,s,0) = Lg|z|^p exactly; large-state decay needs "
        f"C_j >= {cj_need:.6g}, have {model.C_j:g} (M0 = {model.M0:g})"))

    rep.checks.append(AssumptionCheck("g1", *structural))
    rep.checks.append(AssumptionCheck("g2", "pass", "g(x,0) = 0 by construction"))
    rep.checks.append(AssumptionCheck(
        "g3", "pass" if b1_min > 0.0 else "fail",
        f"min beta1 over samples = {b1_min:.6g} (needs > 0)"))
    gap = float(np.min(b2_s - b1_s))
    rep.checks.append(AssumptionCheck(
        "g4", "pass" if gap >= 0.0 else "fail",
        f"min (beta2-beta1) = {gap:.6g}, max beta2 = {float(np.max(b2_s)):.6g}"))
    return rep
