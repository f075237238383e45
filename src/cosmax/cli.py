"""Command-line front end: point evaluation, grid scans, table emission.

Exit codes: 0 success/pass, 1 scan violations, 2 usage or domain errors
(an unwritable --out included), 3 tolerance unreachable.  Every command
writes through one renderer (_render) in csv, json or plain form.
CSV/JSON output is byte-identical across runs for identical flags;
numbers are rounded to the requested precision and printed in shortest
round-trip form.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from .analytic import f_closed
from .errors import DomainError, ToleranceUnreachable, UnsupportedParameters
from .quadrature import dfdx_quad, f_quad
from .series import AnglePoint, EvalPoint, EvalResult, Tolerance, f_series, fourier_series
from .verify import (
    DEFAULT_INSET,
    SCAN_KINDS,
    ScanGrid,
    _default_fields,
    _walk,
    consistency_scan,
    dispatch_eval,
    identity_scan,
    inequality_scan,
    margins,
    monotonicity_scan,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_TOLERANCE = 3


def _rounded(obj, precision: int):
    """Round all floats in a JSON-ready structure; non-finite becomes null."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(format(obj, f".{precision}g"))
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, precision) for v in obj]
    if isinstance(obj, dict):
        return {k: _rounded(v, precision) for k, v in obj.items()}
    return obj


def _render(
    args: argparse.Namespace, header: list[str], rows: list[tuple], *,
    record: bool = False, payload=None, plain: list[str] | None = None,
) -> None:
    """Write rows under header in args.format to args.out, or to stdout.

    A record (one row) is a JSON object and key = value lines; other rows
    are a JSON list of objects and a header line over space-separated
    lines.  payload replaces the JSON built from the rows, plain the plain
    lines.  Floats are written to args.precision significant digits; each
    column takes one format spec, chosen from the first row.
    """
    pr = args.precision
    if args.format == "json":
        if payload is None:
            payload = [dict(zip(header, row)) for row in rows]
            payload = payload[0] if record else payload
        text = json.dumps(_rounded(payload, pr)) + "\n"
    else:
        specs = [f".{pr}g" if isinstance(v, float) else "" for v in rows[0]]
        cols = [[format(v, spec) for v in col] for col, spec in zip(zip(*rows), specs)]
        cells = zip(*cols)
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(cells)
            text = buf.getvalue()
        else:
            if plain is None:
                plain = ([f"{k} = {v}" for k, v in zip(header, next(cells))] if record
                         else [" ".join(header), *map(" ".join, cells)])
            text = "\n".join(plain) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=["csv", "json", "plain"], default="plain",
                    help="output format (default plain)")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write output to PATH instead of standard output")
    sp.add_argument("--precision", type=int, default=15, metavar="DIGITS",
                    help="significant digits for numeric output, 1..17 (default 15)")


def _add_grid_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--var-min", type=float, default=None, help="grid minimum for x or phi")
    sp.add_argument("--var-max", type=float, default=None, help="grid maximum for x or phi")
    sp.add_argument("--var-count", type=int, default=None, help="number of x/phi grid points")
    sp.add_argument("--r-min", type=float, default=None, help="grid minimum for r")
    sp.add_argument("--r-max", type=float, default=None, help="grid maximum for r")
    sp.add_argument("--r-count", type=int, default=None, help="number of r grid points")
    sp.add_argument("--inset", type=float, default=None,
                    help=f"endpoint inset delta (default {DEFAULT_INSET:g})")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cosmax",
        description="Evaluate and verify the alternating Chebyshev cosine series "
                    "sum (-1)^(k+1) r^k T_k(x)/(k+2) by series, quadrature, and "
                    "closed-form routes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate at a single point")
    where = pe.add_mutually_exclusive_group(required=True)
    where.add_argument("--x", type=float, help="x in (-1, 1]")
    where.add_argument("--phi", type=float, help="angle in [0, pi) radians; x = cos(phi)")
    pe.add_argument("--r", type=float, required=True, help="r in (0, 1]")
    pe.add_argument("--route", choices=["series", "quad", "closed", "auto"], default="auto")
    pe.add_argument("--tol", type=float, default=1e-12, help="absolute tolerance (default 1e-12)")
    pe.add_argument("--degrees", action="store_true", help="interpret --phi in degrees")
    _add_output_flags(pe)

    ps = sub.add_parser("scan", help="run a verification scan over a grid")
    ps.add_argument("--kind", choices=[*SCAN_KINDS, "all"], required=True,
                    help="identity uses its fixed grid and takes no grid flag. all runs "
                         "the four scans in turn, each on its default grid at --inset "
                         "(no other grid flag), and exits 1 if any fails")
    _add_grid_flags(ps)
    ps.add_argument("--tol", type=float, default=1e-10, help="absolute tolerance (default 1e-10)")
    _add_output_flags(ps)

    pt = sub.add_parser("table", help="emit per-point rows over a grid")
    pt.add_argument("--surface", choices=["f", "dfdx", "margin"], required=True)
    _add_grid_flags(pt)
    pt.add_argument("--tol", type=float, default=1e-12, help="absolute tolerance (default 1e-12)")
    _add_output_flags(pt)
    return p


def _grid_flags(args: argparse.Namespace) -> dict:
    """The grid flags given, keyed by the ScanGrid field each one sets."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(ScanGrid)
            if getattr(args, f.name, None) is not None}


def _grid_from_args(args: argparse.Namespace, kind: str) -> ScanGrid:
    """kind's default grid at the given inset, each grid flag given replacing its field."""
    given = _grid_flags(args)
    defaults = _default_fields(kind, given.get("inset", DEFAULT_INSET))
    return ScanGrid(*[given.get(f.name, v) for f, v in zip(dataclasses.fields(ScanGrid), defaults)])


def _eval_result(args: argparse.Namespace) -> EvalResult:
    tol = Tolerance(args.tol)
    if args.phi is not None:
        a = AnglePoint(math.radians(args.phi) if args.degrees else args.phi, args.r)
        if args.route == "series":
            return fourier_series(a, tol)
        p = EvalPoint(math.cos(a.phi), a.r)
    elif args.degrees:
        raise DomainError("--degrees is only meaningful together with --phi")
    else:
        p = EvalPoint(args.x, args.r)
    if args.route == "series":
        return f_series(p, tol)
    if args.route == "quad":
        return f_quad(p, tol)
    if args.route == "closed":
        return f_closed(p)
    return dispatch_eval(p, tol)


def cmd_eval(args: argparse.Namespace) -> int:
    res = _eval_result(args)
    _render(args, ["value", "error_bound", "route", "work"],
            [(res.value, res.error_bound, res.route, res.work)], record=True)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    tol = Tolerance(args.tol)
    kinds = SCAN_KINDS if args.kind == "all" else (args.kind,)
    if args.kind in ("all", "identity"):
        extra = [f"--{name.replace('_', '-')}" for name in _grid_flags(args)
                 if args.kind == "identity" or name != "inset"]
        if extra:
            rule = ("runs each scan on its default grid; only --inset may be given"
                    if args.kind == "all" else "runs on its fixed grid; no grid flag may be given")
            raise DomainError(f"--kind {args.kind} {rule}, got {', '.join(extra)}")
    runner = {
        "consistency": consistency_scan,
        "monotonicity": monotonicity_scan,
        "inequality": inequality_scan,
    }
    reports = [identity_scan(tol) if kind == "identity"
               else runner[kind](_grid_from_args(args, kind), tol) for kind in kinds]
    g = f".{args.precision}g"
    rows, plain = [], []
    for report in reports:
        var, r = report.worst_point
        passed = "true" if report.passed else "false"
        rows.append((report.kind, report.points_checked, len(report.violations),
                     report.min_margin, var, r, passed))
        plain += [
            f"kind = {report.kind}",
            f"points_checked = {report.points_checked}",
            f"violations = {len(report.violations)}",
            f"min_margin = {report.min_margin:{g}}",
            f"worst_point = ({var:{g}}, {r:{g}})",
            f"pass = {passed}",
            f"elapsed_s = {report.elapsed:.3f}",
        ]
        plain += [
            f"violation: var = {v.var:{g}}, r = {v.r:{g}}, "
            f"observed = {v.observed:{g}}, bound = {v.bound:{g}}"
            for v in report.violations
        ]
    payload = [report.as_dict() for report in reports]
    _render(
        args,
        ["kind", "points_checked", "violations", "min_margin", "worst_var", "worst_r", "pass"],
        rows, payload=payload if args.kind == "all" else payload[0], plain=plain,
    )
    return EXIT_OK if all(report.passed for report in reports) else EXIT_VIOLATIONS


def _table_rows(args: argparse.Namespace) -> list[tuple[float, float, float, float, str]]:
    tol = Tolerance(args.tol)
    kind, route = {"f": ("consistency", dispatch_eval), "dfdx": ("monotonicity", dfdx_quad),
                   "margin": ("inequality", dispatch_eval)}[args.surface]
    grid = _grid_from_args(args, kind)
    if args.surface == "margin":
        return [(phi, r, m, bound, res.route)
                for phi, r, m, bound, res in margins(grid, tol, route)]
    return [(var, r, res.value, res.error_bound, res.route)
            for var, r, res in _walk(grid, lambda p: route(p, tol))]


def cmd_table(args: argparse.Namespace) -> int:
    _render(args, ["var", "r", "value", "error_bound", "route"], _table_rows(args))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= args.precision <= 17:
            raise DomainError(f"precision must be an integer in [1, 17], got {args.precision!r}")
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "scan":
            return cmd_scan(args)
        return cmd_table(args)
    except (DomainError, UnsupportedParameters, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ToleranceUnreachable as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TOLERANCE
