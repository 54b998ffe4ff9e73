"""Command-line front door.

Structured objects travel as JSON, sampled curves and tables as CSV.  All
numeric output is printed with full round-trip precision, and every
randomized report is a pure function of its seed, so repeated runs are byte
identical.

Exit codes: 0 on success (including an all-pass verify), 1 on domain errors
or any identity defect above tolerance, 2 on usage errors.  No command
writes NaN or an infinity: a result that overflows is a domain error, and
numpy's overflow warnings stay off stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import basis as bss
from . import calculus as calc
from . import serialize as ser
from .distributions import DistributionSpec, embed, pair as pair_distribution
from .errors import InvalidArgumentError, UltracalcError
from .expr import parse_expression
from .grid import Grid
from .projection import DEFAULT_TOL, FunctionHandle, project
from .refinement import Ladder
from .space import Space
from .verify import SUITE_NAMES, format_report, run_suites


def _finite(values):
    """``values`` unchanged; a NaN or infinity among them is refused before anything is written."""
    if not np.isfinite(values).all():
        raise InvalidArgumentError(ser.NOT_FINITE)
    return values


def _fmt(x: float) -> str:
    return repr(float(_finite(x)))


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_space(args) -> Space:
    if getattr(args, "space", None) is not None:
        return ser.space_from_dict(ser.load_json(args.space))
    return Space(Grid.uniform(1.0, 16), 2)


def _make_handle(expr: str, singular: str | None) -> FunctionHandle:
    fn = parse_expression(expr)
    points: tuple[float, ...] = ()
    if singular:
        points = tuple(float(s) for s in singular.split(","))
    return FunctionHandle(fn, points)


def _build_grid(args) -> Grid:
    if args.tags:
        tags = [float(t) for t in args.tags.split(",")]
        h_max = args.hmax if args.hmax is not None else 2.0 * args.beta / args.cells
        return Grid.with_tags(args.beta, tags, h_max)
    if args.hmax is not None:
        return Grid.with_tags(args.beta, [], args.hmax)
    return Grid.uniform(args.beta, args.cells)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


def _cmd_grid(args) -> int:
    grid = _build_grid(args)
    _write_text(ser.dump_json(ser.grid_to_dict(grid)), args.out)
    return 0


def _cmd_space(args) -> int:
    if args.grid is not None:
        grid = ser.grid_from_dict(ser.load_json(args.grid))
    else:
        grid = _build_grid(args)
    space = Space(grid, args.degree)
    _write_text(ser.dump_json(ser.space_to_dict(space)), args.out)
    return 0


def _cmd_project(args) -> int:
    space = _load_space(args)
    handle = _make_handle(args.fn, args.singular)
    u = project(space, handle, tol=args.tol)
    _write_text(ser.dump_json(ser.member_to_dict(u)), args.out)
    return 0


def _cmd_delta(args) -> int:
    space = _load_space(args)
    if args.side is not None:
        j = space.grid.node_index(args.at, "center")
        u = bss.delta_sided(space, j, args.side)
    else:
        u = bss.delta(space, args.at)
    _write_text(ser.dump_json(ser.member_to_dict(u)), args.out)
    return 0


def _cmd_basis(args) -> int:
    space = _load_space(args)
    points = None
    if args.points is not None:
        with open(args.points, encoding="utf-8") as fh:
            points = [float(tok) for tok in fh.read().split()]
    pair = bss.basis_pair(space, points)
    _write_text(ser.dump_json(ser.basis_pair_to_dict(pair)), args.out)
    return 0


def _cmd_derive(args) -> int:
    space = _load_space(args)
    u = ser.member_from_dict(ser.load_json(args.infile), space)
    op = calc.derivative_operator(space, args.kind)
    _write_text(ser.dump_json(ser.member_to_dict(op.apply(u))), args.out)
    return 0


def _cmd_integrate(args) -> int:
    space = _load_space(args)
    u = ser.member_from_dict(ser.load_json(args.infile), space)
    value = calc.integrate(u, args.lower, args.upper)
    _write_text(_fmt(value) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    space = _load_space(args)
    results = run_suites(space, args.suite, args.trials, args.seed)
    _write_text(format_report(results), args.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_embed(args) -> int:
    space = _load_space(args)
    handle = _make_handle(args.fn, args.singular)
    spec = DistributionSpec(args.k, handle)
    u = embed(space, spec, tol=args.tol)
    data = ser.member_to_dict(u)
    data["distribution"] = {
        "k": args.k,
        "fn": args.fn,
        "singular": [float(s) for s in handle.singular],
    }
    _write_text(ser.dump_json(data), args.out)
    return 0


def _cmd_pair(args) -> int:
    space = _load_space(args)
    data = ser.load_json(args.dist)
    phi = _make_handle(args.test, None)
    if args.refine is None:
        t = ser.member_from_dict(data, space)
        value = pair_distribution(space, t, phi, tol=args.tol)
        _write_text(_fmt(value) + "\n", args.out)
        return 0
    if not isinstance(data, dict) or "distribution" not in data:
        raise InvalidArgumentError(
            "refinement needs the distribution presentation; use a file "
            "written by 'ultracalc embed'"
        )
    meta = data["distribution"]
    try:
        k, fn = ser.integral(meta["k"]), meta["fn"]
        singular = tuple(ser.real(s) for s in meta["singular"])
    except (KeyError, TypeError, InvalidArgumentError) as exc:
        raise InvalidArgumentError(f"malformed distribution data: {exc}") from exc
    spec = DistributionSpec(k, FunctionHandle(parse_expression(fn), singular))

    def observable(sp: Space) -> float:
        t = embed(sp, spec, tol=args.tol)
        return pair_distribution(sp, t, phi, tol=args.tol)

    ladder = Ladder.from_base(space, args.refine, "dyadic-split")
    _write_text(_format_table(ladder.observe(observable)), args.out)
    return 0


def _config_field(config: dict, key: str, convert, default=None):
    """``convert`` of the config's ``key``; a missing or malformed value is a domain error."""
    value = config.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"refine config: bad {key!r} value {value!r}") from exc


def _cmd_refine(args) -> int:
    config = ser.load_json(args.config)
    base_cfg = config.get("base") if isinstance(config, dict) else None
    if not isinstance(base_cfg, dict):
        raise InvalidArgumentError("refine config must be a JSON object with a 'base' object")
    base = Space(
        Grid.uniform(
            _config_field(base_cfg, "beta", ser.real),
            _config_field(base_cfg, "cells", ser.integral),
        ),
        _config_field(base_cfg, "degree", ser.integral),
    )
    ladder = Ladder.from_base(
        base,
        _config_field(config, "levels", ser.integral),
        config.get("policy", "dyadic-split"),
        factor=_config_field(config, "factor", ser.real, 2.0),
    )
    target = _config_field(config, "target", lambda t: None if t is None else ser.real(t))
    rows = ladder.observe(_builtin_observable(args.observe), target)
    _write_text(_format_table(rows), args.out)
    return 0


def _format_table(rows) -> str:
    """Convergence table as ``level,value,error,order`` CSV; undefined cells stay empty."""
    lines = ["level,value,error,order"]
    for row in rows:
        err = "" if row.error is None else _fmt(row.error)
        order = "" if row.order is None else _fmt(row.order)
        lines.append(f"{row.stage},{_fmt(row.value)},{err},{order}")
    return "\n".join(lines) + "\n"


def _builtin_observable(label: str):
    from .projection import l2_error

    if label.startswith("proj-error:"):
        fn = parse_expression(label.split(":", 1)[1])

        def observable(space: Space) -> float:
            return l2_error(fn, project(space, fn))

        return observable
    if label.startswith("proj-value:"):
        body = label.split(":", 1)[1]
        expr, _, at = body.rpartition("@")
        fn = parse_expression(expr)
        x0 = float(at)

        def observable(space: Space) -> float:
            return project(space, fn)(x0)

        return observable
    raise UltracalcError(
        f"unknown observable {label!r}; use proj-error:<expr> or proj-value:<expr>@<x>"
    )


def _cmd_export_op(args) -> int:
    space = _load_space(args)
    op = calc.derivative_operator(space, args.kind)
    if args.format == "json":
        data = {
            "kind": op.kind,
            "space": ser.space_hash(space),
            "matrix": op.matrix.tolist(),
        }
        _write_text(ser.dump_json(data), args.out)
        return 0
    lines = [",".join(map(repr, row)) for row in _finite(op.matrix).tolist()]
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sample(args) -> int:
    space = None
    if args.space is not None:
        space = ser.space_from_dict(ser.load_json(args.space))
    u = ser.member_from_dict(ser.load_json(args.member), space)
    beta = u.space.grid.beta
    xs = np.linspace(-beta, beta, args.points)
    lines = ["x,value"]
    values = _finite(u.sample(xs))
    lines.extend(f"{x!r},{v!r}" for x, v in zip(xs.tolist(), values.tolist()))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _add_space_arg(p: argparse.ArgumentParser):
    p.add_argument("--space", help="space JSON file (default: beta=1, 16 cells, degree 2)")


def _add_out_arg(p: argparse.ArgumentParser):
    p.add_argument("--out", help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultracalc",
        description="Piecewise-polynomial generalized-function calculus on a bounded grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="build a grid and emit its JSON")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--cells", type=int, default=1)
    p.add_argument("--tags", help="comma-separated interior nodes")
    p.add_argument("--hmax", type=float, help="upper bound on the cell width")
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser("space", help="build a space and emit its JSON")
    p.add_argument("--grid", help="grid JSON file")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--cells", type=int, default=16)
    p.add_argument("--tags", help="comma-separated interior nodes")
    p.add_argument("--hmax", type=float)
    p.add_argument("--degree", type=int, required=True)
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_space)

    p = sub.add_parser("project", help="project a function onto the space")
    _add_space_arg(p)
    p.add_argument("--fn", required=True, help="expression in x")
    p.add_argument("--singular", help="comma-separated singular points")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("delta", help="emit a delta member")
    _add_space_arg(p)
    p.add_argument("--at", type=float, required=True, help="center point")
    p.add_argument("--side", choices=["plus", "minus"], help="one-sided node delta")
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("basis", help="emit a delta/cardinal basis pair")
    _add_space_arg(p)
    p.add_argument("--points", help="file of whitespace-separated points")
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("derive", help="apply a derivative operator to a member")
    _add_space_arg(p)
    p.add_argument("--in", dest="infile", required=True, help="member JSON file")
    p.add_argument("--kind", choices=["D", "D2"], default="D")
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("integrate", help="definite integral between grid nodes")
    _add_space_arg(p)
    p.add_argument("--in", dest="infile", required=True, help="member JSON file")
    p.add_argument("--from", dest="lower", type=float, required=True)
    p.add_argument("--to", dest="upper", type=float, required=True)
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("verify", help="run randomized identity suites")
    _add_space_arg(p)
    p.add_argument(
        "--suite",
        default="all",
        choices=["all", *SUITE_NAMES],
    )
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("embed", help="embed a distribution given as a k-th derivative")
    _add_space_arg(p)
    p.add_argument("--k", type=int, required=True, help="derivative order")
    p.add_argument("--fn", required=True, help="expression for the C1 antiderivative")
    p.add_argument("--singular", help="comma-separated singular points")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("pair", help="pair an embedded distribution with a test function")
    _add_space_arg(p)
    p.add_argument("--dist", required=True, help="member JSON written by embed")
    p.add_argument("--test", required=True, help="test function expression")
    p.add_argument("--refine", type=int, help="emit a convergence table over this many dyadic levels")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_pair)

    p = sub.add_parser("refine", help="evaluate an observable along a refinement ladder")
    p.add_argument("--config", required=True, help="ladder JSON config")
    p.add_argument("--observe", required=True, help="observable label")
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("export-op", help="export a derivative operator matrix")
    _add_space_arg(p)
    p.add_argument("--kind", choices=["D", "D2"], default="D")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_export_op)

    p = sub.add_parser("sample", help="sample a member on an even x grid as CSV")
    p.add_argument("member", help="member JSON file")
    p.add_argument("--points", type=_positive_int, default=201)
    p.add_argument("--space", help="space JSON file (defaults to the embedded description)")
    _add_out_arg(p)
    p.set_defaults(handler=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a result that overflows is refused where it is written, not warned about
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return args.handler(args)
    except UltracalcError as exc:
        sys.stderr.write(f"ultracalc: error: {exc}\n")
        return 1
    except (ValueError, KeyError, ZeroDivisionError, OverflowError) as exc:
        sys.stderr.write(f"ultracalc: error: {exc!r}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"ultracalc: i/o error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("ultracalc: error: out of memory; ask for fewer cells or points\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
