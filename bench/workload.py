"""One benchmark workload, run in a process of its own by run.py.

The process imports the package, builds the workload's inputs from the seed
and reports the moment it is ready (the end of set-up).  It then runs whole
rounds of the workload's operations in a closed loop, one after another,
while the next round fits in the time budget (two rounds at least), and only then checks
the outputs of the first round against the benchmark's own computations and
every later round against the first, byte for byte.  One JSON object on
stdout carries the timings, the answers and the check results.

With --setup-only the process stops once it is ready.  With --trace 1 the
first round runs untraced and every later round runs with spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import robinshape  # noqa: E402
from robinshape import cli, sbvgrid  # noqa: E402

import tracing  # noqa: E402

oracles = None  # imported after the timed rounds; see load_oracles

MIN_ROUNDS = 2
SHOOT_REL_TOL = 1e-9      # shooting eigenvalues vs transcendental roots
IDENTITY_REL_TOL = 1e-6   # Robin scaling identity
POINCARE_FLOOR = 0.99
EQUALITY_TOL = 0.02


class OpFailed(Exception):
    pass


def cli_op(argv, sub):
    """An operation that runs one CLI command into <round dir>/<sub>."""
    def op(out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv + ["--out", os.path.join(out, sub)])
        if rc != 0:
            raise OpFailed(f"exit code {rc}")
        return buf.getvalue()
    return op


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def csv_dict(path):
    header, rows = read_csv(path)
    return dict(zip(header, rows[0]))


def stdout_number(text, key):
    m = re.search(rf"{key} = ([-+0-9.eE]+)", text)
    return float(m.group(1)) if m else None


def rel_err(a, b):
    return abs(a - b) / abs(b)


class Checks:
    """Named pass/fail results with a short detail each."""

    def __init__(self):
        self.items = {}

    def add(self, name, ok, detail=""):
        self.items[name] = {"ok": bool(ok), "detail": detail}

    @property
    def ok(self):
        return all(v["ok"] for v in self.items.values())


# ---------------------------------------------------------------------------
# radial-oracles: shooting and Rayleigh oracles, Poincare and scaling suites

class RadialOracles:
    def __init__(self, rng):
        self.poincare_seed = int(rng.integers(0, 2**31))
        self.radii = {d: sorted(float(r) for r in rng.uniform(0.3, 2.0, 3))
                      for d in (1, 2)}
        self.coeffs = {d: sorted(float(b) for b in rng.uniform(0.2, 5.0, 2))
                       for d in (1, 2)}
        # general exponent q = 3 at (R, b) = (1, 2) and (2, 0.5): a pair
        # tied by the scaling identity lam(2B, 0.5) = 2^-3 lam(B, 0.5*2^2)
        self.ops = [
            ("verify-poincare", cli_op(
                ["verify", "--suite", "poincare", "--trials", "1000",
                 "--n", "128", "--seed", str(self.poincare_seed)], "poincare")),
        ]
        for d in (1, 2):
            self.ops.append((f"eig-d{d}", cli_op(
                ["eig", "--d", str(d),
                 "--R", ",".join(repr(r) for r in self.radii[d]),
                 "--b", ",".join(repr(b) for b in self.coeffs[d])],
                f"eig{d}")))
        self.ops += [
            ("eig-rayleigh", cli_op(
                ["eig", "--d", "2", "--R", "1.0,2.0", "--b", "0.5,2.0",
                 "--grad-exp", "3", "--bdry-exp", "3", "--denom-exp", "3",
                 "--mesh-n", "256"], "rayleigh")),
            ("verify-scaling", cli_op(["verify", "--suite", "scaling"],
                                      "scaling")),
        ]

    def check(self, out, stdouts, checks, answers):
        # Poincare battery: floor, equality case, and the cached ball
        # eigenvalues, which a plateau ("rect") field reveals exactly:
        # its ratio is 2b / (lam(m/2) * m)
        _, rows = read_csv(os.path.join(out, "poincare", "verify_poincare.csv"))
        ratios = [float(r[3]) for r in rows if r[0] != "eq"]
        eq = float(rows[-1][3])
        checks.add("poincare.floor", len(ratios) == 1000
                   and min(ratios) >= POINCARE_FLOOR,
                   f"min ratio {min(ratios):.6f} over {len(ratios)} fields")
        checks.add("poincare.equality", abs(eq - 1.0) <= EQUALITY_TOL,
                   f"eigenfunction ratio {eq:.6f}")
        worst, sizes = 0.0, set()
        for r in rows:
            if r[1] == "rect":
                m, ratio = float(r[2]), float(r[3])
                sizes.add(r[2])
                worst = max(worst, rel_err(2.0 / (ratio * m),
                                           oracles.lambda_interval(m / 2, 1.0)))
        checks.add("poincare.cached_eigenvalues", worst <= SHOOT_REL_TOL,
                   f"{len(sizes)} cached radii, worst rel err {worst:.2e}")
        answers["poincare.min_ratio"] = min(ratios)
        answers["poincare.eq_ratio"] = eq

        for d in (1, 2):
            _, rows = read_csv(os.path.join(out, f"eig{d}", "eig.csv"))
            lams = [float(r[7]) for r in rows]
            errs = [rel_err(float(r[7]), oracles.lambda_ball(
                d, float(r[0]), float(r[1]))) for r in rows]
            checks.add(f"eig-d{d}.roots", len(rows) == 6
                       and all(r[8] == "shooting" for r in rows)
                       and max(errs) <= SHOOT_REL_TOL,
                       f"{len(rows)} eigenvalues, worst rel err {max(errs):.2e}")
            answers[f"eig-d{d}.lambda"] = lams

        _, rows = read_csv(os.path.join(out, "rayleigh", "eig.csv"))
        lam = {(float(r[0]), float(r[1])): float(r[7]) for r in rows}
        err = rel_err(lam[(2.0, 0.5)], 2.0**-3 * lam[(1.0, 2.0)])
        checks.add("eig-rayleigh.scaling", len(rows) == 4
                   and all(r[8] == "rayleigh-descent" for r in rows)
                   and err <= IDENTITY_REL_TOL, f"identity rel err {err:.2e}")
        answers["eig-rayleigh.lambda"] = [float(r[7]) for r in rows]

        # scaling suite: recompute each identity error from the printed
        # values; every shooting eigenvalue it prints against the roots
        _, rows = read_csv(os.path.join(out, "scaling", "verify_scaling.csv"))
        id_worst, root_worst, mono = 0.0, 0.0, True
        for r in rows:
            if r[0] == "identity":
                d, q, t = int(r[1]), float(r[2]), float(r[3])
                value, ref = float(r[4]), float(r[5])
                id_worst = max(id_worst, rel_err(value, ref))
                if q == 2.0:
                    root_worst = max(
                        root_worst,
                        rel_err(value, oracles.lambda_ball(d, t, 1.0)),
                        rel_err(ref * t * t, oracles.lambda_ball(d, 1.0, t)))
        for d in (1, 2):
            mrows = [r for r in rows if r[0] == "monotone" and int(r[1]) == d]
            lams = [float(r[4]) for r in mrows]
            mono &= len(lams) > 1 and all(a > b for a, b in zip(lams, lams[1:]))
            for r in mrows:
                root_worst = max(root_worst, rel_err(
                    float(r[4]), oracles.lambda_ball(d, float(r[3]), 1.0)))
        checks.add("scaling.identity", id_worst <= IDENTITY_REL_TOL,
                   f"worst rel err {id_worst:.2e}")
        checks.add("scaling.monotone", mono, "lambda falls strictly with R")
        checks.add("scaling.roots", root_worst <= SHOOT_REL_TOL,
                   f"worst rel err {root_worst:.2e}")
        answers["scaling.identity_worst"] = id_worst


# ---------------------------------------------------------------------------
# anneal: a 2d optimize that roughens then freezes, and the 1d criterion run

ANNEAL_2D = dict(n=96, f=4.0, beta=1.0, c0=0.2, L=1.0, seed=20240802)
ANNEAL_1D = dict(n=128, lo=0.4, hi=0.6, amp=3.0, beta=1.0, c0=0.2, L=1.0)


class Anneal:
    def __init__(self, rng):
        a, b = ANNEAL_2D, ANNEAL_1D
        self.seed_1d = int(rng.integers(0, 2**31))
        self.ops = [
            ("optimize-2d", cli_op(
                ["optimize", "--d", "2", "--n", str(a["n"]),
                 "--f-const", repr(a["f"]), "--beta", repr(a["beta"]),
                 "--c0", repr(a["c0"]), "--init", "disc:0.5:0.5:0.3",
                 "--t0", "3e-05", "--cooling", "0.9", "--sweeps", "60",
                 "--resolve-every", "2", "--seed", str(a["seed"])], "opt2")),
            ("optimize-1d", cli_op(
                ["optimize", "--d", "1", "--n", str(b["n"]),
                 "--f-bump", f"{b['lo']},{b['hi']},{b['amp']}",
                 "--c0", repr(b["c0"]), "--sweeps", "300",
                 "--resolve-every", "2", "--seed", str(self.seed_1d)], "opt1")),
        ]

    def _common(self, tag, path, checks, answers):
        """Checks every optimize result shares; returns the parsed field."""
        n, h, u, cells = oracles.parse_field_file(
            os.path.join(path, "best_field.txt"))
        diag = csv_dict(os.path.join(path, "diagnostics.csv"))
        _, trace = read_csv(os.path.join(path, "trace.csv"))
        J = float(diag["J"])
        J0 = float(trace[0][1])
        checks.add(f"{tag}.best_not_above_start", J <= J0,
                   f"best J {J!r} vs sweep-0 J {J0!r}")
        essinf = float(np.min(u[cells])) if np.any(cells) else 0.0
        P = float(diag["perimeter"])
        bound = oracles.face_total_variation(u, h) / essinf if essinf > 0 else 0.0
        checks.add(f"{tag}.perimeter_bound", essinf > 0 and P <= bound,
                   f"ess inf {essinf:.4g} > 0, P {P:.4f} <= BV/ess inf {bound:.4f}")
        answers[f"{tag}.J"] = J
        answers[f"{tag}.volume"] = float(diag["volume"])
        answers[f"{tag}.perimeter"] = P
        answers[f"{tag}.components"] = int(diag["components"])
        answers[f"{tag}.accepted_flips"] = sum(int(r[6]) for r in trace)
        answers[f"{tag}.final_components"] = int(trace[-1][7])
        return n, h, u, cells, J

    def check(self, out, stdouts, checks, answers):
        a, b = ANNEAL_2D, ANNEAL_1D
        n, h, u, cells, _ = self._common("optimize-2d", os.path.join(out, "opt2"),
                                         checks, answers)
        # the solve on the returned mask, with the Robin weights of the
        # functional's (corrected) boundary faces
        mask = sbvgrid.ShapeMask(sbvgrid.Grid(2, n, h), cells)
        W = np.zeros(cells.shape)
        for (axis, i, j), w in sbvgrid.boundary_faces(mask, "corrected"):
            lo = (i - 1, j) if axis == 0 else (i, j - 1)
            inner = lo if min(lo) >= 0 and cells[lo] else (i, j)
            W[inner] += a["beta"] * w
        ref = oracles.robin_solve_sparse(cells, h, a["f"], a["L"], W)
        err = float(np.max(np.abs(u - ref))) / float(np.max(np.abs(ref)))
        checks.add("optimize-2d.field_vs_direct_solve", err <= 1e-6,
                   f"max rel err {err:.2e} on {int(cells.sum())} cells")

        n, h, u, cells, J = self._common("optimize-1d", os.path.join(out, "opt1"),
                                         checks, answers)
        x = (np.arange(n) + 0.5) * h
        f = np.where((x > b["lo"]) & (x < b["hi"]), b["amp"], 0.0)
        J_ref, best = oracles.best_interval(f, h, b["L"], b["beta"], b["c0"])
        ref_cells = set(range(best[0], best[1] + 1)) if best else set()
        sym = len(set(np.nonzero(cells)[0].tolist()) ^ ref_cells)
        checks.add("optimize-1d.enumeration", abs(J - J_ref) <= 1e-3 and sym <= 3,
                   f"J {J:.7f} vs enumeration {J_ref:.7f}, symdiff {sym} cells")
        answers["optimize-1d.enumeration_J"] = J_ref


# ---------------------------------------------------------------------------
# solve-io: large single solves, the grid eigensolver, and field-file I/O

SOLVE_DISC = dict(n=256, R=0.4, beta=1.0)
SOLVE_P3 = dict(n=48, R=0.4, f=1.0, beta=1.0, L=1.0, p=3.0)
SHIFTED_ORIGIN = (-2.0, 0.5)


class SolveIO:
    def __init__(self, rng):
        s, t = SOLVE_DISC, SOLVE_P3
        self.f_disc = float(rng.uniform(0.5, 2.0))
        # the shifted-origin round trip does not depend on the seed
        grid = sbvgrid.Grid(2, 32, 1.0 / 32, origin=SHIFTED_ORIGIN)
        r2 = np.sum((grid.centers() - np.array([-1.5, 1.0])) ** 2, axis=-1)
        self.shifted = sbvgrid.SbvField.from_values(
            grid, np.where(r2 < 0.16, 1.0 + r2, 0.0))
        self.ops = [
            ("solve-disc", cli_op(
                ["solve", "--d", "2", "--n", str(s["n"]), "--shape", "disc",
                 "--radius", repr(s["R"]), "--f-const", repr(self.f_disc),
                 "--beta", repr(s["beta"])], "disc")),
            ("solve-p3", cli_op(
                ["solve", "--d", "2", "--n", str(t["n"]), "--p", "3", "--q", "3",
                 "--shape", "disc", "--radius", repr(t["R"]),
                 "--f-const", repr(t["f"]), "--beta", repr(t["beta"]),
                 "--weights", "uncorrected"], "p3")),
            ("verify-ball-minimality", cli_op(
                ["verify", "--suite", "ball-minimality"], "ball")),
            ("roundtrip-disc", self._roundtrip("disc")),
            ("roundtrip-p3", self._roundtrip("p3")),
            ("roundtrip-shifted-origin", self._shifted_roundtrip),
        ]

    @staticmethod
    def _roundtrip(sub):
        def op(out):
            field, mask = sbvgrid.read_field_text(os.path.join(out, sub, "field.txt"))
            sbvgrid.write_field_text(os.path.join(out, sub, "field_rt.txt"),
                                     field, mask)
        return op

    def _shifted_roundtrip(self, out):
        path = os.path.join(out, "shifted_origin.txt")
        sbvgrid.write_field_text(path, self.shifted)
        field, _ = sbvgrid.read_field_text(path)
        if tuple(field.grid.origin) != SHIFTED_ORIGIN:
            raise OpFailed(f"origin {SHIFTED_ORIGIN} read back as "
                           f"{tuple(field.grid.origin)}")
        if not np.array_equal(field.values, self.shifted.values):
            raise OpFailed("values changed in the round trip")

    def check(self, out, stdouts, checks, answers):
        s, t = SOLVE_DISC, SOLVE_P3
        n, h, u, cells = oracles.parse_field_file(
            os.path.join(out, "disc", "field.txt"))
        c = (np.arange(n) + 0.5) * h - 0.5
        r = np.hypot(c[:, None], c[None, :])
        exact = np.where(cells, oracles.disc_poisson(r, s["R"], self.f_disc,
                                                     s["beta"]), 0.0)
        err = float(np.max(np.abs(u - exact))) / float(np.max(exact))
        checks.add("solve-disc.closed_form", err <= 0.01,
                   f"max err {err:.2e} of max u")
        text = stdouts["solve-disc"]
        answers["solve-disc.J"] = stdout_number(text, "J")
        answers["solve-disc.cg_iterations"] = int(stdout_number(text, "iterations"))

        n, h, u, cells = oracles.parse_field_file(
            os.path.join(out, "p3", "field.txt"))

        def energy(v):
            return oracles.face_energy(v, cells, h, t["f"], t["L"], t["beta"],
                                       t["p"], t["p"])
        E = energy(u)
        beaten = [sc for sc in (0.9, 0.99, 1.01, 1.1) if energy(sc * u) < E]
        checks.add("solve-p3.scaled_copies", not beaten,
                   f"E(u) {E!r}; beaten by scales {beaten}")
        text = stdouts["solve-p3"]
        answers["solve-p3.J"] = stdout_number(text, "J")
        answers["solve-p3.descent_iterations"] = int(stdout_number(text, "iterations"))

        # disc and square of (almost) unit area on a 1.5 box, as the suite
        # builds them: side k*h with k = round(1/h)
        _, rows = read_csv(os.path.join(out, "ball", "verify_ball-minimality.csv"))
        worst = 0.0
        for row in rows:
            if row[0] == "richardson":
                continue
            gh = 1.5 / int(row[0])
            side = round(1.0 / gh) * gh
            worst = max(worst,
                        rel_err(float(row[1]), oracles.lambda_disc(
                            side / math.sqrt(math.pi), 1.0)),
                        rel_err(float(row[2]),
                                2.0 * oracles.lambda_interval(side / 2, 1.0)))
            answers[f"ball-minimality.n{row[0]}.lambda"] = [float(row[1]),
                                                           float(row[2])]
        checks.add("ball-minimality.roots", len(rows) == 3 and worst <= 0.02,
                   f"worst rel err {worst:.2e} against Bessel/interval roots")

        for sub in ("disc", "p3"):
            with open(os.path.join(out, sub, "field.txt"), "rb") as f1, \
                    open(os.path.join(out, sub, "field_rt.txt"), "rb") as f2:
                same = f1.read() == f2.read()
            checks.add(f"roundtrip-{sub}.bit_exact", same,
                       "rewritten file equals the original")


WORKLOADS = {
    "radial-oracles": RadialOracles,
    "anneal": Anneal,
    "solve-io": SolveIO,
}


# ---------------------------------------------------------------------------

def load_oracles():
    # scipy.optimize and scipy.special are not needed by the program; keep
    # their import out of the set-up time
    global oracles
    import oracles as mod
    oracles = mod


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def run_round(work, out):
    os.makedirs(out)
    stdouts, op_times, errors = {}, {}, {}
    w0, c0 = time.perf_counter(), time.process_time()
    for name, op in work.ops:
        t0 = time.perf_counter()
        try:
            stdouts[name] = op(out) or ""
        except Exception as exc:  # an operation failed: count it, go on
            errors[name] = f"{type(exc).__name__}: {exc}"
        op_times[name] = time.perf_counter() - t0
    return {"wall_s": time.perf_counter() - w0,
            "cpu_s": time.process_time() - c0,
            "op_s": op_times, "errors": errors, "stdouts": stdouts}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", required=True, help="scratch output directory")
    args = ap.parse_args()

    work = WORKLOADS[args.workload](np.random.Generator(np.random.PCG64(args.seed)))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    shutil.rmtree(args.work, ignore_errors=True)
    tracer = tracing.Tracer() if args.trace else None
    rounds, layers = [], []
    t_start = time.perf_counter()
    # no round starts that would, at the mean round length, end past the
    # budget, so a run lasts about --seconds whatever the round length
    while (len(rounds) < MIN_ROUNDS
           or (time.perf_counter() - t_start) * (len(rounds) + 1) / len(rounds)
           <= args.seconds):
        traced = tracer is not None and len(rounds) > 0
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rounds.append(run_round(work, os.path.join(args.work, f"r{len(rounds)}")))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracing.layer_metrics(tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    load_oracles()
    checks, answers = Checks(), {}
    first = os.path.join(args.work, "r0")
    failed_ops = set(rounds[0]["errors"])
    try:
        work.check(first, rounds[0]["stdouts"], checks, answers)
    except Exception as exc:  # a missing or malformed artefact
        checks.add("artefacts.readable", False, f"{type(exc).__name__}: {exc}")
    ref = tree_bytes(first)
    for k, rd in enumerate(rounds[1:], 1):
        # printed output names the round's directory; compare the rest
        printed = {op: text.replace(os.path.join(args.work, f"r{k}"), first)
                   for op, text in rd["stdouts"].items()}
        same = tree_bytes(os.path.join(args.work, f"r{k}")) == ref \
            and printed == rounds[0]["stdouts"] \
            and set(rd["errors"]) == failed_ops
        checks.add(f"round{k}.identical_to_round0", same,
                   "artefacts and printed answers byte-identical")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ready": ready,
        "rounds": len(rounds),
        "attempted": len(rounds) * len(work.ops),
        "failed": sum(len(rd["errors"]) for rd in rounds),
        "errors": rounds[0]["errors"],
        "wall_s": [rd["wall_s"] for rd in rounds],
        "cpu_s": [rd["cpu_s"] for rd in rounds],
        "op_s": {name: statistics.median(rd["op_s"][name] for rd in rounds)
                 for name, _ in work.ops},
        "peak_rss_mb": peak_rss_mb,
        "checks": checks.items,
        "correct": checks.ok,
        "answers": answers,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "robinshape": robinshape.__version__},
    }
    if tracer is not None:
        traced_walls = [rd["wall_s"] for rd in rounds[1:]]
        # counts repeat from round to round; median_low keeps an observed one
        metrics = {name: (statistics.median if tracing.LAYER_UNITS[name] == "s"
                          else statistics.median_low)(lm[name] for lm in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - rounds[0]["wall_s"]
        result["layers"] = metrics
        result["layer_counts_repeat"] = all(
            lm[k] == layers[0][k] for lm in layers for k in lm
            if tracing.LAYER_UNITS.get(k) in ("count", "bytes"))
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        with open(os.path.join(args.work, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
