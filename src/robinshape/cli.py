"""Command-line harness.

Subcommands: eig, radial, solve, optimize, verify, figure1.  Parameters come
from per-command flags, optionally seeded from a plain-text config file of
key=value lines ("#" starts a comment); explicit flags win over the file.
Unknown keys are rejected and every numeric key is range-checked at parse
time.  Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 property-suite failure.

Every CSV starts with the schema comment line "# robin-shape v1 <command>"
followed by a header row; floats are written with repr so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .model import IntegrandModel, exponent_threshold
from .pdesolve import SolverConfig, SolverError, solve_inner
from .radial import (RadialConvergenceError, RadialEigenvalueQuery,
                     ball_energy, robin_eigenvalues_ball, robin_poisson_ball)
from .sbvgrid import Grid, ShapeMask, shape_energy, write_field_text
from .shapeopt import (AnnealSchedule, ShapeOptError, TRACE_COLUMNS,
                       diagnostics, optimize_shape)
from .suites import SUITES


class UsageError(Exception):
    pass


@dataclass
class Key:
    typ: type
    default: object
    lo: float = None
    hi: float = None
    help: str = ""

    def parse(self, raw, name):
        try:
            val = self.typ(raw)
        except (TypeError, ValueError):
            raise UsageError(f"{name}: cannot parse {self.typ.__name__} from {raw!r}")
        if self.typ is float and not math.isfinite(val):
            raise UsageError(f"{name}: value must be finite, got {raw!r}")
        if self.typ in (int, float):
            if self.lo is not None and val < self.lo:
                raise UsageError(f"{name}={val} below minimum {self.lo}")
            if self.hi is not None and val > self.hi:
                raise UsageError(f"{name}={val} above maximum {self.hi}")
        return val


COMMON = {
    "config": Key(str, None, help="key=value config file"),
    "out": Key(str, ".", help="output directory"),
}

SCHEMAS = {
    "eig": {
        **COMMON,
        "d": Key(int, 1, 1, 6, "ambient dimension"),
        "R": Key(str, "1.0", help="comma-separated radii"),
        "b": Key(str, "1.0", help="comma-separated Robin coefficients"),
        "grad_exp": Key(float, 2.0, 1.000001, 16, "gradient exponent"),
        "bdry_exp": Key(float, 2.0, 1.000001, 16, "boundary exponent"),
        "denom_exp": Key(float, 2.0, 1.000001, 16, "denominator exponent"),
        "mesh_n": Key(int, 1024, 64, 1 << 20, "radial mesh nodes"),
    },
    "radial": {
        **COMMON,
        "d": Key(int, 1, 1, 6),
        "R": Key(float, 1.0, 1e-9, None, "ball radius"),
        "f": Key(float, 1.0, None, None, "constant source"),
        "beta": Key(float, 1.0, 1e-12, None, "Robin coefficient"),
        "c0": Key(float, 0.0, 0.0, None, "volume multiplier"),
        "L": Key(float, 1.0, 1e-12, None, "gradient coefficient"),
        "samples": Key(int, 257, 2, 1 << 20, "profile samples"),
        "scan_rmax": Key(float, None, 1e-9, None, "also scan radii up to this"),
        "scan_samples": Key(int, 512, 2, 1 << 20),
    },
    "solve": {
        **COMMON,
        "d": Key(int, 1, 1, 2),
        "n": Key(int, 64, 4, 4096, "cells per axis"),
        "extent": Key(float, 1.0, 1e-9, None, "box side length"),
        "f_const": Key(float, 1.0, None, None),
        "f_bump": Key(str, None, help="lo,hi,amp added to f on a coordinate band"),
        "beta": Key(float, 1.0, 1e-12, None),
        "c0": Key(float, 0.0, 0.0, None),
        "L": Key(float, 1.0, 1e-12, None),
        "p": Key(float, 2.0, 1.000001, 16),
        "q": Key(float, 2.0, 1.000001, 16),
        "shape": Key(str, "full", help="full | interval | disc"),
        "a": Key(float, 0.25, None, None, "interval left end"),
        "b": Key(float, 0.75, None, None, "interval right end"),
        "cx": Key(float, 0.5, None, None, "disc center x"),
        "cy": Key(float, 0.5, None, None, "disc center y"),
        "radius": Key(float, 0.4, 1e-9, None, "disc radius"),
        "weights": Key(str, "auto", help="boundary weights: auto|uncorrected|corrected"),
        "tol": Key(float, 1e-10, 1e-15, 1e-2),
        "max_iter": Key(int, None, 1, None, "solver iteration cap"),
    },
    "optimize": {
        **COMMON,
        "d": Key(int, 1, 1, 2),
        "n": Key(int, 64, 4, 4096),
        "extent": Key(float, 1.0, 1e-9, None),
        "f_const": Key(float, 0.0, None, None),
        "f_bump": Key(str, None, help="lo,hi,amp"),
        "beta": Key(float, 1.0, 1e-12, None),
        "c0": Key(float, 0.2, 0.0, None),
        "L": Key(float, 1.0, 1e-12, None),
        "p": Key(float, 2.0, 1.000001, 16),
        "q": Key(float, 2.0, 1.000001, 16),
        "t0": Key(float, 0.01, 0.0, None, "initial temperature"),
        "cooling": Key(float, 0.95, 1e-9, 0.999999, "cooling factor per sweep"),
        "sweeps": Key(int, 300, 0, 1 << 20),
        "resolve_every": Key(int, 2, 1, 1 << 20),
        "seed": Key(int, 0, 0, 2**128 - 1),
        "teleport_frac": Key(float, 0.01, 0.0, 1.0),
        "init": Key(str, "full", help="full | empty | interval:a:b | disc:cx:cy:r"),
        "weights": Key(str, "auto"),
        "tol": Key(float, 1e-10, 1e-15, 1e-2),
    },
    "verify": {
        **COMMON,
        "suite": Key(str, None, help="poincare | reduction | scaling | ball-minimality"),
        # suite keys: unset keys take the suite's defaults, and a key the
        # suite does not take is a usage error
        "trials": Key(int, None, 1, 1 << 20),
        "n": Key(int, None, 6, 4096),
        "seed": Key(int, None, 0, 2**128 - 1),
        "b": Key(float, None, 1e-12, None),
        "min_ratio": Key(float, None, 0.0, None),
        "eq_tol": Key(float, None, 0.0, None),
        "gap_floor": Key(float, None, None, None),
        "rel_tol": Key(float, None, 0.0, None),
        "ns": Key(str, None, help="comma-separated grid sizes"),
    },
    "figure1": {
        **COMMON,
        "p_min": Key(float, 1.05, 1.000001, None),
        "p_max": Key(float, 5.0, 1.000001, None),
        "count": Key(int, 200, 2, 1 << 20),
        "d": Key(int, 2, 2, 16),
    },
}


# the keys each suite takes, read from the signatures at import, so that a
# wrapper installed later (a profiler, a mock) cannot hide them
SUITE_KEYS = {name: tuple(inspect.signature(run).parameters)
              for name, run in SUITES.items()}


def parse_config_file(path):
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                k, v = line.split("=", 1)
                out[k.strip()] = v.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return out


def resolve_params(command, argv):
    schema = SCHEMAS[command]
    cli = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise UsageError(f"unexpected argument {tok!r}")
        name = tok[2:].replace("-", "_")
        if name not in schema:
            raise UsageError(f"unknown option --{tok[2:]} for {command}")
        if i + 1 >= len(argv):
            raise UsageError(f"missing value for --{tok[2:]}")
        cli[name] = argv[i + 1]
        i += 2
    merged = {}
    if "config" in cli:
        for k, v in parse_config_file(cli["config"]).items():
            if k not in schema:
                raise UsageError(f"unknown config key {k!r} for {command}")
            merged[k] = v
    merged.update(cli)
    params = {}
    for name, key in schema.items():
        if name in merged:
            params[name] = key.parse(merged[name], name)
        else:
            params[name] = key.default
    return params


def write_csv(path, command, rows):
    with open(path, "w") as fh:
        fh.write(f"# robin-shape v1 {command}\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_diagnostics(out_dir, command, diag):
    keys = sorted(diag)
    return write_csv(os.path.join(out_dir, "diagnostics.csv"), command,
                     [tuple(keys), tuple(diag[k] for k in keys)])


def _float_list(raw, name, lo=None):
    try:
        vals = [float(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{name}: expected comma-separated floats, got {raw!r}")
    if not vals:
        raise UsageError(f"{name}: empty list")
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"{name}: values must be finite, got {raw!r}")
    if lo is not None and any(v < lo for v in vals):
        raise UsageError(f"{name}: values must be >= {lo}")
    return vals


def _build_f(params):
    const = params["f_const"]
    bump = params.get("f_bump")
    if bump is None:
        return const
    parts = _float_list(bump, "f_bump")
    if len(parts) != 3:
        raise UsageError("f_bump wants lo,hi,amp")
    lo, hi, amp = parts

    def f(pts):
        x = pts[..., 0]
        return const + np.where((x > lo) & (x < hi), amp, 0.0)
    return f


def _build_model(params):
    return IntegrandModel(p=params["p"], q=params["q"], L=params["L"],
                          c0=params["c0"], f=_build_f(params),
                          beta1=params["beta"], normalization="energy")


def _build_mask(grid, params):
    shape = params["shape"]
    if shape == "full":
        return ShapeMask.full(grid)
    if shape == "interval":
        if grid.d != 1:
            raise UsageError("interval shapes need d=1")
        try:
            return ShapeMask.interval(grid, params["a"], params["b"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if shape == "disc":
        if grid.d != 2:
            raise UsageError("disc shapes need d=2")
        return ShapeMask.disc(grid, (params["cx"], params["cy"]), params["radius"])
    raise UsageError(f"unknown shape {shape!r}")


def _init_mask(grid, init):
    # --init spec: full | empty | interval:a:b | disc:cx:cy:r
    kind, *args = init.split(":")
    try:
        vals = [float(v) for v in args]
    except ValueError:
        vals = None
    if vals is not None and not all(math.isfinite(v) for v in vals):
        raise UsageError(f"init: values must be finite, got {init!r}")
    if vals is None or len(vals) != {"full": 0, "empty": 0, "interval": 2,
                                     "disc": 3}.get(kind):
        raise UsageError(f"init: expected full | empty | interval:a:b | "
                         f"disc:cx:cy:r, got {init!r}")
    if kind == "empty":
        return ShapeMask.empty(grid)
    keys = {"interval": ("a", "b"), "disc": ("cx", "cy", "radius")}.get(kind, ())
    return _build_mask(grid, {"shape": kind, **dict(zip(keys, vals))})


def _solver_config(params, **kwargs):
    try:
        return SolverConfig(tol=params["tol"], weights=params["weights"], **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_eig(params):
    rows = [("R", "b", "d", "grad_exp", "bdry_exp", "denom_exp", "mesh_n",
             "lambda", "method", "residual")]
    queries = [RadialEigenvalueQuery(
        d=params["d"], R=R, b=b, grad_exp=params["grad_exp"],
        bdry_exp=params["bdry_exp"], denom_exp=params["denom_exp"],
        mesh_n=params["mesh_n"])
        for R in _float_list(params["R"], "R", lo=1e-12)
        for b in _float_list(params["b"], "b", lo=1e-12)]
    for q, sol in zip(queries, robin_eigenvalues_ball(queries)):
        rows.append((q.R, q.b, q.d, q.grad_exp, q.bdry_exp, q.denom_exp,
                     q.mesh_n, sol.lam, sol.meta["method"],
                     float(sol.meta["residual"])))
    path = write_csv(os.path.join(params["out"], "eig.csv"), "eig", rows)
    print(f"wrote {path} ({len(rows) - 1} eigenvalues)")
    return 0


def cmd_radial(params):
    d, R = params["d"], params["R"]
    sol = robin_poisson_ball(d, R, params["f"], params["beta"],
                             params["samples"])
    rows = [("r", "u")] + [(float(r), float(u)) for r, u in sol.profile]
    path = write_csv(os.path.join(params["out"], "radial_profile.csv"),
                     "radial", rows)
    print(f"wrote {path}; energy (without volume term) = {sol.lam!r}")
    if params["scan_rmax"] is not None:
        model = IntegrandModel(p=2, q=2, L=params["L"], c0=params["c0"],
                               f=params["f"], beta1=params["beta"],
                               normalization="energy")
        radii = np.linspace(0.0, params["scan_rmax"], params["scan_samples"])
        rows = [(R, ball_energy(model, d, R)) for R in radii.tolist()]
        R_star, J_star = min(rows, key=lambda row: row[1])  # the first minimum
        path = write_csv(os.path.join(params["out"], "radial_scan.csv"),
                         "radial", [("R", "J")] + rows)
        print(f"wrote {path}; R* = {R_star!r}, J* = {J_star!r}")
    return 0


def cmd_solve(params):
    grid = Grid(params["d"], params["n"], params["extent"] / params["n"])
    model = _build_model(params)
    mask = _build_mask(grid, params)
    config = _solver_config(params, max_iter=params["max_iter"])
    field, info = solve_inner(model, mask, config, return_info=True)
    J = shape_energy(model, mask, field, params["weights"])
    out = os.path.join(params["out"], "field.txt")
    write_field_text(out, field, mask)
    # the profile along the first axis, through the middle row in 2d
    at = (slice(None),) + (grid.n // 2,) * (grid.d - 1)
    rows = zip(grid.centers()[at + (0,)].tolist(), field.values[at].tolist())
    csv = write_csv(os.path.join(params["out"], "solve_profile.csv"), "solve",
                    [("x", "u"), *rows])
    diag = diagnostics(model, mask, field, params["weights"])
    write_diagnostics(params["out"], "solve", diag)
    print(f"wrote {out} and {csv}")
    print(f"J = {J!r}; iterations = {info['iterations']}; "
          f"residual = {info['residual']:.3e}")
    for k in ("volume", "perimeter", "ess_inf_support", "sup", "components"):
        print(f"{k} = {diag[k]!r}")
    return 0


def cmd_optimize(params):
    grid = Grid(params["d"], params["n"], params["extent"] / params["n"])
    model = _build_model(params)
    mask0 = _init_mask(grid, params["init"])
    sched = AnnealSchedule(T0=params["t0"], cooling=params["cooling"],
                           sweeps=params["sweeps"],
                           resolve_every=params["resolve_every"],
                           seed=params["seed"],
                           teleport_frac=params["teleport_frac"])
    solver = _solver_config(params)
    mask, field, trace = optimize_shape(model, mask0, sched, solver)
    out_field = os.path.join(params["out"], "best_field.txt")
    write_field_text(out_field, field, mask)
    csv = write_csv(os.path.join(params["out"], "trace.csv"), "optimize",
                    [TRACE_COLUMNS] + trace.rows)
    diag = diagnostics(model, mask, field, params["weights"])
    diag_path = write_diagnostics(params["out"], "optimize", diag)
    print(f"wrote {out_field}, {csv}, {diag_path}")
    print(f"best J = {trace.best_J[-1]!r} volume = {diag['volume']!r} "
          f"components = {diag['components']}")
    return 0


def cmd_verify(params):
    suite = params["suite"]
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    takes = SUITE_KEYS[suite]
    kwargs = {k: v for k, v in params.items()
              if k not in COMMON and k != "suite" and v is not None}
    extra = sorted(set(kwargs) - set(takes))
    if extra:
        raise UsageError(f"suite {suite} takes no {', '.join(extra)}; its keys "
                         f"are {', '.join(takes)}")
    if "ns" in kwargs:
        ns = _float_list(kwargs["ns"], "ns", lo=4)
        if any(v != int(v) for v in ns):
            raise UsageError(f"ns: grid sizes must be whole numbers, "
                             f"got {kwargs['ns']!r}")
        kwargs["ns"] = tuple(int(v) for v in ns)
        if kwargs["ns"][0] == kwargs["ns"][-1]:
            raise UsageError("ns: the Richardson check compares the first and "
                             "last sizes, which must differ")
    result = SUITES[suite](**kwargs)
    path = write_csv(os.path.join(params["out"], f"verify_{result['name']}.csv"),
                     f"verify {result['name']}", result["rows"])
    print(f"wrote {path}")
    print(result["summary"])
    if not result["passed"]:
        failing = result.get("failing")
        if failing is not None:
            replay = os.path.join(params["out"], f"failing_{result['name']}.txt")
            write_field_text(replay, failing)
            print(f"failing instance serialized to {replay}")
        print(f"suite {result['name']}: FAIL")
        return 3
    print(f"suite {result['name']}: PASS")
    return 0


def cmd_figure1(params):
    if params["p_max"] <= params["p_min"]:
        raise UsageError("p_max must exceed p_min")
    rows = [("p", "q_threshold", "p_upper")]
    for p in np.linspace(params["p_min"], params["p_max"], params["count"]):
        rows.append((float(p), exponent_threshold(float(p), params["d"]),
                     float(p)))
    path = write_csv(os.path.join(params["out"], "figure1.csv"), "figure1", rows)
    print(f"wrote {path} ({params['count']} points, d={params['d']})")
    return 0


COMMANDS = {
    "eig": cmd_eig,
    "radial": cmd_radial,
    "solve": cmd_solve,
    "optimize": cmd_optimize,
    "verify": cmd_verify,
    "figure1": cmd_figure1,
}


def _usage():
    lines = ["usage: robin-shape <command> [--key value ...]", "", "commands:"]
    for name in COMMANDS:
        lines.append(f"  {name}")
    lines += ["", "common flags: --config PATH, --out DIR; run a command with",
              "--help to list its keys"]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if not argv or argv[0] in ("-h", "--help"):
            print(_usage())
            return 0
        command = argv[0]
        if command not in COMMANDS:
            raise UsageError(f"unknown command {command!r}\n{_usage()}")
        rest = argv[1:]
        if "--help" in rest or "-h" in rest:
            print(f"keys for {command}:")
            for name, key in SCHEMAS[command].items():
                rng = ""
                if key.lo is not None or key.hi is not None:
                    rng = f" [{key.lo}..{key.hi}]"
                print(f"  --{name.replace('_', '-'):<18} default={key.default!r}{rng} {key.help}")
            return 0
        # accept --foo-bar and --foo_bar alike
        params = resolve_params(command, rest)
        if params.get("out"):
            os.makedirs(params["out"], exist_ok=True)
        if command == "verify" and params["suite"] is None:
            raise UsageError("verify needs --suite")
        return COMMANDS[command](params)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, RadialConvergenceError, ShapeOptError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
