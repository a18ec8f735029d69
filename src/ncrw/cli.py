"""Command-line front end.

Subcommands: ``kernel``, ``density``, ``correlation``, ``simulate``,
``relaxation``, ``selftest``.  Exit codes: 0 success, 1 numerical-convergence
failure, 2 usage error.  All output is deterministic for a fixed argv and seed.

argparse declares every option, once, and writes every help and usage message.
The run settings (``_settings``) resolve as command-line flag > key=value file
named by $NCRW_CONFIG > built-in default: the file is read as ``--key=value``
flags placed before the request's own, so the same parse converts and checks
them.  A request naming a subcommand is read in one pass from its subparser's
tables (``_plan``); anything the plan does not follow gets one full parse.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str

from .correlations import (MultiTimePointSet, correlation_function,
                           density_profile)
from .errors import ConvergenceError
from .kernels import KernelSpec, StationarySpec
from .martingales import FiniteConfiguration, LatticeSpec
from .montecarlo import OccupationProduct, estimate_many
from .relaxation import relaxation_sweep
from .selftest import run_selftest


def _checked(convert, ok, rule: str):
    # an argparse type; argparse reports input convert refuses by its name
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    check.__name__ = convert.__name__
    return check


@lru_cache(maxsize=1)
def _settings() -> argparse.ArgumentParser:
    # the run settings of every subcommand, with their defaults and ranges
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-quad", dest="tol_quad", default=1e-13,
                        type=_checked(float, lambda v: 0.0 < v <= 1e-4,
                                      "in (0, 1e-4]"),
                        help="quadrature tolerance (default %(default)s)")
    common.add_argument("--threads", default=1,
                        type=_checked(int, lambda v: v >= 1, ">= 1"),
                        help="accepted for compatibility (must be >= 1); "
                             "changes no computation")
    common.add_argument("--seed", default=0,
                        type=_checked(int, lambda v: v >= 0, ">= 0"),
                        help="base seed for sampling (default %(default)s)")
    common.add_argument("--output", choices=("csv", "json"), default=None,
                        help="override the subcommand's default encoding")
    common.add_argument("--out", default=None,
                        help="write to this path instead of stdout")
    return common


def _load_config_file() -> list[str]:
    # the key=value lines of the file named by $NCRW_CONFIG as --key=value
    # flags of the settings parser (tol_quad may also be written tol-quad)
    path = os.environ.get("NCRW_CONFIG")
    if not path:
        return []
    flags = _settings()._option_string_actions
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if not sep or flag not in flags:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key=value' with a known key, "
                    f"got {raw.strip()!r}")
            out.append(flag + "=" + value.strip())
    return out


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(v, indent: str) -> str:
    # the bytes of json.dumps(v, indent=2, allow_nan=True), whose indented
    # encoder is pure Python, in one pass with json's own leaf encodings
    if isinstance(v, str):
        return _json_str(v)
    if isinstance(v, float):
        return float.__repr__(v) if math.isfinite(v) else \
            "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner, ends = indent + "  ", "{}" if isinstance(v, dict) else "[]"
    items = [_json_str(k) + ": " + _json(x, inner) for k, x in v.items()] \
        if isinstance(v, dict) else [_json(x, inner) for x in v]
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] \
        if items else ends


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(_json(doc, "\n") + "\n", out)


def _emit_csv(header: list[str], kinds: str, rows, out: str | None) -> None:
    # One %-template for the whole table, from the declared column kinds:
    # "f" columns print as _fmt does ('%.17g' % v is format(v, '.17g')),
    # the others as str(v), so a repeated float can be passed as _fmt(v).
    cells = [v for row in rows for v in row]
    line = ",".join("%.17g" if k == "f" else "%s" for k in kinds) + "\n"
    body = (line * (len(cells) // len(kinds))) % tuple(cells)
    _emit(",".join(header) + "\n" + body, out)


def _parse_point(text: str) -> tuple[float, int]:
    try:
        t_str, x_str = text.split(",")
        return float(t_str), int(x_str)
    except ValueError as exc:
        raise ValueError(f"--point expects 'T,X', got {text!r}") from exc


def _parse_range(text: str) -> range:
    lo_str, sep, hi_str = text.partition(":")
    if not sep:
        raise ValueError(f"expected 'LO:HI', got {text!r}")
    lo, hi = int(lo_str), int(hi_str)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_at_groups(at_args: list[str]) -> MultiTimePointSet:
    groups = []
    for item in at_args:
        t_str, sep, sites_str = item.partition(":")
        if not sep:
            raise ValueError(f"--at expects 'T:X1,X2,...', got {item!r}")
        sites = tuple(sorted(int(v) for v in sites_str.split(",")))
        groups.append((float(t_str), sites))
    groups.sort(key=lambda g: g[0])
    return MultiTimePointSet(tuple(groups))


def _points_doc(pts: MultiTimePointSet) -> list:
    return [[t, list(sites)] for t, sites in pts.groups]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_kernel(args) -> int:
    spec = KernelSpec.parse(args.spec, args.gauge)
    if (args.dt is None) != (args.dx is None):
        raise ValueError("--dt and --dx go together")
    if args.dt is not None and not isinstance(spec.variant, StationarySpec):
        raise ValueError("--dt/--dx need a stationary spec")
    if args.grid:
        if args.output == "json":
            raise ValueError("--grid writes CSV only")
        parts = args.grid.split(",")
        if len(parts) != 4:
            raise ValueError("--grid expects 'S,XLO:XHI,T,YLO:YHI'")
        s, t = float(parts[0]), float(parts[2])
        cells = [(x, y) for x in _parse_range(parts[1])
                 for y in _parse_range(parts[3])]
        values = spec.values([(s, x) for x, _ in cells],
                             [(t, y) for _, y in cells], tol=args.tol_quad)
        s_text, t_text = _fmt(s), _fmt(t)
        _emit_csv(["s", "x", "t", "y", "value"], "ssssf",
                  [[s_text, x, t_text, y, v]
                   for (x, y), v in zip(cells, values.tolist())], args.out)
        return 0
    if args.dt is not None:
        points = [[0.0, 0], [args.dt, args.dx]] if args.dt >= 0 \
            else [[-args.dt, 0], [0.0, args.dx]]
        p, q = points
    else:
        if not args.point or len(args.point) != 2:
            raise ValueError("kernel needs exactly two --point T,X "
                             "(or --dt/--dx with a stationary spec)")
        p, q = (_parse_point(v) for v in args.point)
        points = [list(p), list(q)]
    value = spec.values([p], [q], tol=args.tol_quad).item()
    if args.output == "json":
        _emit_json({"spec": args.spec, "gauge": args.gauge,
                    "points": points, "value": value}, args.out)
    elif args.output == "csv":
        _emit_csv(["s", "x", "t", "y", "value"], "fsfsf",
                  [[float(points[0][0]), int(points[0][1]),
                    float(points[1][0]), int(points[1][1]), value]], args.out)
    else:
        _emit(_fmt(value) + "\n", args.out)
    return 0


def _cmd_density(args) -> int:
    spec = KernelSpec.parse(args.spec)
    window = _parse_range(args.window)
    rho = density_profile(spec, args.t, window, tol=args.tol_quad).tolist()
    if args.output == "json":
        _emit_json({"spec": args.spec, "t": args.t,
                    "rows": [[x, v] for x, v in zip(window, rho)]}, args.out)
    else:
        t_text = _fmt(args.t)
        _emit_csv(["t", "x", "rho"], "ssf",
                  [[t_text, x, v] for x, v in zip(window, rho)], args.out)
    return 0


def _cmd_correlation(args) -> int:
    spec = KernelSpec.parse(args.spec)
    pts = _parse_at_groups(args.at)
    value = correlation_function(spec, pts, tol=args.tol_quad)
    if args.output == "csv":
        _emit_csv(["points", "value"], "sf",
                  [[";".join(f"{t}:" + "|".join(map(str, sites))
                             for t, sites in pts.groups), value]], args.out)
    else:
        _emit_json({"spec": args.spec, "points": _points_doc(pts),
                    "value": value}, args.out)
    return 0


def _cmd_simulate(args) -> int:
    sites = tuple(int(v) for v in args.config.split(","))
    config = FiniteConfiguration(sites)
    pts = _parse_at_groups(args.at)
    # a horizon that is not finite and >= 0 is estimate_many's to refuse
    if args.T >= 0 and pts.max_time > args.T:
        raise ValueError(f"--at time {pts.max_time} beyond --T {args.T}")
    result = estimate_many(config, [OccupationProduct(pts)], args.T,
                           args.samples, args.seed, args.estimator)[0]
    analytic = correlation_function(KernelSpec(config), pts,
                                    tol=args.tol_quad)
    z = (result.mean - analytic) / result.std_error \
        if 0 < result.std_error < math.inf else None
    doc = {
        "config": list(sites),
        "estimator": args.estimator,
        "T": args.T,
        "n_samples": result.n_samples,
        "seed": args.seed,
        "points": _points_doc(pts),
        "estimate": result.mean,
        "std_error": result.std_error,
        "ess": result.effective_samples,
        "analytic_value": analytic,
        "z_score": z,
    }
    if args.output == "csv":
        _emit_csv(["estimate", "std_error", "ess", "analytic_value", "z_score"],
                  "fffff", [[result.mean, result.std_error,
                             result.effective_samples, analytic,
                             float("nan") if z is None else z]], args.out)
    else:
        _emit_json(doc, args.out)
    return 0


def _cmd_relaxation(args) -> int:
    lattice = LatticeSpec(args.a)
    if args.dx_max < 0:
        raise ValueError(f"--dx-max must be >= 0, got {args.dx_max}")
    taus = tuple(float(v) for v in args.tau.split(","))
    dxs = range(0, args.dx_max + 1)
    report = relaxation_sweep(lattice, [(args.dt, dx) for dx in dxs], taus,
                              tol=args.tol_quad)
    lattice = report.lattice_values.ravel().tolist()

    def cells(fmt):
        # one row per (tau, dx); fmt meets each tau and stationary value once
        return zip([v for v in map(fmt, taus) for _ in dxs],
                   [fmt(args.dt)] * len(lattice), list(dxs) * len(taus),
                   lattice, [*map(fmt, report.stationary_values.tolist())]
                   * len(taus), report.gaps.ravel().tolist())

    if args.output == "json":
        keys = ("tau", "dt", "dx", "lattice_value", "stationary_value", "gap")
        _emit_json({"a": args.a, "entries": [
            dict(zip(keys, c)) for c in cells(float)]}, args.out)
    else:
        _emit_csv(["tau", "dt", "dx", "lattice_value", "stationary_value",
                   "gap"], "sssfsf", cells(_fmt), args.out)
    return 0


def _cmd_selftest(args) -> int:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            return run_selftest(fh)
    return run_selftest(sys.stdout)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    # The full parser and each subcommand's plan table, by name.  Building
    # them costs a large share of a small request, and parse_args leaves
    # them unchanged, so one instance serves every call.
    common = _settings()
    parser = argparse.ArgumentParser(
        prog="ncrw",
        description="Noncolliding continuous-time random walks on Z: "
                    "correlation kernels, determinantal correlations, "
                    "Monte Carlo validation, relaxation diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", parents=[common],
                       help="evaluate a correlation kernel at two points")
    k.add_argument("--spec", required=True,
                   help="finite:u1,u2,... | lattice:a | stationary:rho")
    k.add_argument("--gauge", choices=("prob", "paper"), default="prob")
    where = k.add_mutually_exclusive_group()
    where.add_argument("--point", action="append", metavar="T,X",
                       help="space-time point; give twice")
    where.add_argument("--dt", type=float, default=None,
                       help="time lag (stationary spec only; with --dx)")
    where.add_argument("--grid", metavar="S,XLO:XHI,T,YLO:YHI", default=None,
                       help="emit CSV over a product of site ranges")
    k.add_argument("--dx", type=int, default=None,
                   help="displacement (with --dt)")
    k.set_defaults(handler=_cmd_kernel)

    d = sub.add_parser("density", parents=[common],
                       help="one-point correlation over a site window")
    d.add_argument("--spec", required=True)
    d.add_argument("--t", type=float, required=True)
    d.add_argument("--window", required=True, metavar="LO:HI")
    d.set_defaults(handler=_cmd_density)

    c = sub.add_parser("correlation", parents=[common],
                       help="multi-time correlation determinant")
    c.add_argument("--spec", required=True)
    c.add_argument("--at", action="append", required=True,
                   metavar="T:X1,X2,...", help="one time group; repeatable")
    c.set_defaults(handler=_cmd_correlation)

    s = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo estimate vs the analytic kernel")
    s.add_argument("--config", required=True, metavar="U1,U2,...",
                   help="strictly increasing start sites")
    s.add_argument("--T", type=float, required=True, help="sampling horizon")
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--estimator", choices=("h", "dmr"), required=True)
    s.add_argument("--at", action="append", required=True,
                   metavar="T:X1,X2,...")
    s.set_defaults(handler=_cmd_simulate)

    r = sub.add_parser("relaxation", parents=[common],
                       help="gap to the stationary kernel over a tau grid")
    r.add_argument("--a", type=int, required=True, help="lattice spacing >= 2")
    r.add_argument("--dt", type=float, default=0.0)
    r.add_argument("--dx-max", dest="dx_max", type=int, default=5)
    r.add_argument("--tau", required=True, metavar="T1,T2,...")
    r.set_defaults(handler=_cmd_relaxation)

    st = sub.add_parser("selftest", parents=[common],
                        help="run the numerical acceptance checks")
    st.set_defaults(handler=_cmd_selftest)
    return parser, {name: _plan_table(sub.dest, name, p)
                    for name, p in sub.choices.items()}


# options whose values may start with '-' (ranges, point lists, site lists);
# argparse would read such a value as a flag unless it is fused with '='.
_FUSE_VALUE_FLAGS = ("--window", "--grid", "--point", "--at", "--tau",
                     "--config")


def _normalize_argv(argv: list[str]) -> list[str]:
    out = []
    for arg in argv:
        if out and out[-1] in _FUSE_VALUE_FLAGS and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _plan_table(dest: str, name: str, sub: argparse.ArgumentParser):
    # what _plan needs of one subcommand, read from its argparse tables;
    # None where argparse would also convert a string default by its type
    if any(isinstance(a.default, str) and a.type for a in sub._actions):
        return None
    defaults = {a.dest: a.default for a in reversed(sub._actions)
                if a.dest is not argparse.SUPPRESS
                and a.default is not argparse.SUPPRESS}
    options = {s: a for s, a in sub._option_string_actions.items()
               if type(a) in (argparse._StoreAction, argparse._AppendAction)
               and a.nargs is None}
    return (sub, options, {dest: name, **sub._defaults, **defaults},
            [a for a in sub._actions if a.required],
            [(g.required, set(g._group_actions))
             for g in sub._mutually_exclusive_groups], tuple(sub.prefix_chars),
            (lambda text: None) if sub._has_negative_number_optionals
            else sub._negative_number_matcher.match)


def _plan(argv: list[str], tables: dict) -> argparse.Namespace | None:
    """The namespace a full parse of ``argv`` builds, in one pass, or None
    where the full parse has to decide (it alone writes help and errors)."""
    table = tables.get(argv[0]) if argv else None
    if table is None:
        return None
    sub, options, defaults, required, groups, prefix, negative = table
    ns, seen, args = argparse.Namespace(**defaults), set(), iter(argv[1:])
    for arg in args:
        action = options.get(arg)
        if action is not None:
            text = next(args, None)
            if text is None or text.startswith(prefix) and not negative(text):
                return None
        else:
            option, eq, text = arg.partition("=")
            action = options.get(option) if eq else None
            # left to argparse: some versions strip an explicit '--' value
            if action is None or text in ("", "--"):
                return None
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        action(sub, ns, value)
        seen.add(action)
    return None if any(a not in seen for a in required) or any(
        len(seen & group) > 1 or needed and not seen & group
        for needed, group in groups) else ns


def main(argv: list[str] | None = None) -> int:
    argv = _normalize_argv(sys.argv[1:] if argv is None else argv)
    parser, tables = _parser()
    try:
        if argv and argv[0] in tables:  # the file's flags, then the request's
            argv[1:1] = _load_config_file()
        args = _plan(argv, tables) or parser.parse_args(argv)
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"ncrw: numerical convergence failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"ncrw: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
