"""Command-line interface: spectral counts, heat traces, and Weyl coefficients.

Subcommands
-----------
coeff     Weyl coefficient by one route or all four (reconciled).
count     Eigenvalue counting function N(lambda), optionally the mode list.
heat      Split heat-trace sums, optionally cross-checked against the
          direct double sum.
converge  Counting ratio N(lambda)/lambda^n against its limit for a ladder
          of thresholds.
stanton   Form-degree coefficient, its continuation, the explicit pole
          term, and the residual of their identity, at a point or on a grid.

Output formats: table (human, 10 significant digits), csv (machine,
leading "# schema=1" line, 17 significant digits), json (machine, one
object; floats re-parse bit-for-bit).  All output is deterministic.

Exit codes: 0 success; 1 usage or domain error; 2 reconciliation failure
(coeff --method all disagreement, heat --verify mismatch); 3 resource cap
or non-convergence.

Caps can be overridden by environment variables KOHNSPEC_LINE_CAP,
KOHNSPEC_TERM_CAP, KOHNSPEC_NODE_CAP; their defaults live in kohnspec.errors.
No flag sets an accuracy: each route fixes its own tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import coefficients, continuation, errors, heat_trace, spectrum
from .errors import ConvergenceError, ResourceCapError

__all__ = ["build_parser", "main", "entry"]

_SCHEMA = 1
_METHOD_ALIASES = {"intermediate": "integral-intermediate"}  # the flag's short spelling


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _line_cap() -> int:
    return _env_int("KOHNSPEC_LINE_CAP", errors.DEFAULT_LINE_CAP)


def _term_cap() -> int:
    return _env_int("KOHNSPEC_TERM_CAP", errors.DEFAULT_TERM_CAP)


def _node_cap() -> int:
    return _env_int("KOHNSPEC_NODE_CAP", errors.DEFAULT_NODE_CAP)


# ---------------------------------------------------------------- rendering


def _formatter(kind: type, fmt: str):
    """How one cell of Python type `kind` prints in format `fmt`."""
    if kind is type(None):
        empty = {"table": "-", "csv": "", "json": "null"}[fmt]
        return lambda value: empty
    if kind is bool:
        return {True: "true", False: "false"}.__getitem__
    if fmt == "json":
        return str if kind is int else json.dumps
    if issubclass(kind, float):
        return "{:.10g}".format if fmt == "table" else "{:.17g}".format
    return str


def _format_column(values: tuple, fmt: str) -> list[str]:
    """The column's cells as text: one map when every cell has one type."""
    formatters = {kind: _formatter(kind, fmt) for kind in set(map(type, values))}
    if len(formatters) == 1:
        [only] = formatters.values()
        return list(map(only, values))
    return [formatters[type(value)](value) for value in values]


def _render(
    fmt: str, command: str, params: dict, columns: list[str], rows: list, footer: str | None
) -> str:
    """The whole output of one call; rows are sequences in column order."""
    cells = [_format_column(values, fmt) for values in zip(*rows)] or [[]] * len(columns)
    if fmt == "table":
        widths = [max([len(c), *map(len, col)]) for c, col in zip(columns, cells)]
        line = "  ".join(f"{{:>{w}}}" for w in widths).format
        lines = [line(*columns), "  ".join("-" * w for w in widths), *map(line, *cells)]
        if footer:
            lines.append(footer)
    elif fmt == "csv":
        lines = [f"# schema={_SCHEMA}", ",".join(columns), *map(",".join, zip(*cells))]
    else:
        payload = {"schema": _SCHEMA, "command": command, "params": params, "rows": []}
        head = json.dumps(payload, indent=2)
        if not rows:
            return head + "\n"
        # json.dumps(payload with rows, indent=2), with each row from one template
        fields = ",\n".join("      " + json.dumps(c).replace("%", "%%") + ": %s" for c in columns)
        body = ",\n".join(map(f"    {{\n{fields}\n    }}".__mod__, zip(*cells)))
        return head.removesuffix("[]\n}") + f"[\n{body}\n  ]\n}}\n"
    return "\n".join(lines) + "\n"


def _emit(
    args,
    command: str,
    params: dict,
    columns: list[str],
    rows: list,
    footer: str | None = None,
) -> None:
    text = _render(args.format, command, params, columns, rows, footer)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as err:
            raise ValueError(f"cannot write --out {args.out}: {err.strerror or err}") from err
    else:
        sys.stdout.write(text)


def _records(rows: list[dict]) -> tuple[list[str], list[tuple]]:
    """Columns and rows of dict rows that share their keys, in key order."""
    return list(rows[0]), [tuple(row.values()) for row in rows]


def _finite(value: float, flag: str) -> float:
    """value, or ValueError naming it: a list is checked whole before any work starts."""
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value}")
    return value


def _parse_float_list(raw: str, flag: str) -> list[float]:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ValueError(f"{flag} needs at least one value, got {raw!r}")
    try:
        values = [float(piece) for piece in items]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers") from None
    return [_finite(value, flag) for value in values]


# ----------------------------------------------------------------- handlers


def _cmd_coeff(args) -> int:
    columns = ["kind", "n", "method", "value", "error_bound", "work", "exact_form"]

    def estimate_row(est) -> tuple:
        exact_form = str(est.exact_form) if est.exact_form else None
        return ("estimate", est.n, est.method, est.value, est.error_bound, est.work, exact_form)

    options = dict(term_cap=_term_cap(), node_cap=_node_cap())
    if args.method == "all":
        report = coefficients.reconcile(args.n, **options)
        rows = [estimate_row(est) for est in report.estimates]
        for a, b, diff, combined in report.differences:
            rows.append(("difference", args.n, f"{a}|{b}", diff, combined, None, None))
        verdict = "reconciliation: ok" if report.ok else "reconciliation: FAILED"
        _emit(
            args,
            "coeff",
            {"n": args.n, "method": "all", "reconcile_ok": report.ok},
            columns,
            rows,
            footer=verdict,
        )
        if not report.ok:
            print("error: coefficient routes disagree beyond bounds", file=sys.stderr)
            return 2
        return 0

    method = _METHOD_ALIASES.get(args.method, args.method)
    est = coefficients.estimate(method, args.n, **options)
    _emit(
        args,
        "coeff",
        {"n": args.n, "method": args.method},
        columns,
        [estimate_row(est)],
    )
    return 0


def _cmd_count(args) -> int:
    cap = _line_cap()
    if args.modes:
        lines = spectrum.enumerate_modes(args.n, args.lam, line_cap=cap)
        columns = list(spectrum.SpectralLine._fields)
        _emit(args, "count", {"n": args.n, "lambda": args.lam, "modes": True}, columns, lines)
        return 0
    rows = [_count_row(args.n, args.lam, cap)]
    _emit(args, "count", {"n": args.n, "lambda": args.lam, "modes": False}, *_records(rows))
    return 0


def _count_row(n: int, lam: float, cap: int) -> dict:
    total = spectrum.count(n, lam, line_cap=cap)
    ratio = spectrum.counting_ratio(n, lam, total=total) if lam > 0 else None
    return {"n": n, "lambda": lam, "count": total, "ratio": ratio}


def _cmd_heat(args) -> int:
    ts = _parse_float_list(args.t, "--t")
    cap = _term_cap()
    caps = dict(term_cap=cap, node_cap=_node_cap())
    rows = []
    all_within = True
    for t in ts:
        part_q = heat_trace.trace_split_q(args.n, t, **caps)
        part_w = heat_trace.trace_split_w(args.n, t, **caps)
        row = {
            "n": args.n,
            "t": t,
            "split_q": part_q.value,
            "split_q_bound": part_q.error_bound,
            "split_w": part_w.value,
            "split_w_bound": part_w.error_bound,
            "scaled_trace": heat_trace.scale_by_t_power(args.n, t, part_q.value + part_w.value),
        }
        if args.verify:
            direct = heat_trace.trace_direct(args.n, t, term_cap=cap)
            split_total = part_q.value + part_w.value
            diff = abs(direct.value - split_total)
            budget = direct.error_bound + part_q.error_bound + part_w.error_bound
            within = diff <= budget
            all_within = all_within and within
            row.update(
                direct=direct.value,
                direct_bound=direct.error_bound,
                split_total=split_total,
                abs_diff=diff,
                within_bounds=within,
            )
        rows.append(row)
    _emit(
        args,
        "heat",
        {"n": args.n, "t": ts, "verify": bool(args.verify)},
        *_records(rows),
    )
    if args.verify and not all_within:
        print("error: split sums disagree with the direct trace", file=sys.stderr)
        return 2
    return 0


def _cmd_converge(args) -> int:
    lams = _parse_float_list(args.lambdas, "--lambdas")
    cap = _line_cap()
    limit = coefficients.series_zeta(args.n).value
    rows = [_count_row(args.n, lam, cap) for lam in lams]
    for row in rows:
        row["ratio_minus_limit"] = None if row["ratio"] is None else row["ratio"] - limit
    _emit(args, "converge", {"n": args.n, "limit": limit}, *_records(rows))
    return 0


def _parse_span(raw: str) -> list[float]:
    try:
        start, stop, steps = raw.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise ValueError(f"--grid span must be start:stop:steps, got {raw!r}") from None
    start, stop = _finite(start, "--grid"), _finite(stop, "--grid")
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps}")
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def _stanton_row(n: int, q: complex, node_cap: int, limit: float | None) -> dict:
    point = continuation.StripPoint(n, q)
    g_val = (
        continuation.continued_coefficient(point, node_cap=node_cap)
        if point.in_continued_strip
        else None
    )
    f_val = (
        continuation.stanton_coefficient(point, node_cap=node_cap)
        if point.in_stanton_strip
        else None
    )
    pole = continuation.pole_term(point) if (point.in_continued_strip and q != 0) else None
    residual = (
        abs(f_val - g_val - pole)
        if (f_val is not None and g_val is not None and pole is not None)
        else None
    )
    coeff_check = abs(g_val - limit) if (q == 0 and g_val is not None) else None
    return {
        "n": n,
        "q_re": q.real,
        "q_im": q.imag,
        "f_re": None if f_val is None else f_val.real,
        "f_im": None if f_val is None else f_val.imag,
        "g_re": None if g_val is None else g_val.real,
        "g_im": None if g_val is None else g_val.imag,
        "pole_re": None if pole is None else pole.real,
        "pole_im": None if pole is None else pole.imag,
        "residual": residual,
        "coeff_check": coeff_check,
    }


def _cmd_stanton(args) -> int:
    node_cap = _node_cap()
    if args.grid:
        spans = args.grid.split(",")
        if len(spans) > 2:
            raise ValueError("grid takes at most re and im spans")
        re_axis = _parse_span(spans[0])
        im_axis = _parse_span(spans[1]) if len(spans) == 2 else [0.0]
        points = [complex(re, im) for re in re_axis for im in im_axis]
    else:
        parts = _parse_float_list(args.q, "--q")
        if len(parts) > 2:
            raise ValueError("--q takes re or re,im")
        points = [complex(parts[0], parts[1] if len(parts) == 2 else 0.0)]
    errors.check_n(args.n, "continuation")  # before c(n), which only the row at q = 0 needs
    limit = coefficients.series_zeta(args.n).value if 0 in points else None
    rows = [_stanton_row(args.n, q, node_cap, limit) for q in points]
    if len(rows) == 1 and rows[0]["f_re"] is None and rows[0]["g_re"] is None:
        print(
            f"error: q = {points[0]} is outside both evaluator strips", file=sys.stderr
        )
        return 1
    _emit(
        args,
        "stanton",
        {"n": args.n, "tol": continuation.QUADRATURE_TOL, "points": len(rows)},
        *_records(rows),
    )
    return 0


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 (2 means reconciliation)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub) -> None:
    sub.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default: table)",
    )
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kohnspec",
        description="Kohn Laplacian spectrum on S^(2n-1): counting, heat trace, Weyl coefficient",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    coeff = subs.add_parser(
        "coeff", help="leading Weyl coefficient c(n)", parents=[], add_help=True
    )
    coeff.add_argument("--n", type=int, required=True, help="half-dimension parameter, n >= 2")
    coeff.add_argument(
        "--method",
        choices=(*coefficients.METHODS, *_METHOD_ALIASES, "all"),
        default="series-zeta",
        help="evaluation route (default: series-zeta; intermediate = integral-intermediate); "
        "all = run and reconcile every route",
    )
    _add_common(coeff)
    coeff.set_defaults(handler=_cmd_coeff)

    count = subs.add_parser("count", help="eigenvalue counting function")
    count.add_argument("--n", type=int, required=True)
    count.add_argument(
        "--lambda", dest="lam", type=float, required=True, help="spectral threshold"
    )
    count.add_argument(
        "--modes", action="store_true",
        help="list every spectral line (p, q, eigenvalue, multiplicity) instead of the total",
    )
    _add_common(count)
    count.set_defaults(handler=_cmd_count)

    heat = subs.add_parser("heat", help="heat-trace sums at one or more times")
    heat.add_argument("--n", type=int, required=True)
    heat.add_argument("--t", required=True, help="comma-separated list of times")
    heat.add_argument(
        "--verify", action="store_true",
        help="also evaluate the direct double sum and check the split against it",
    )
    _add_common(heat)
    heat.set_defaults(handler=_cmd_heat)

    converge = subs.add_parser(
        "converge", help="counting ratio against its limit for a threshold ladder"
    )
    converge.add_argument("--n", type=int, required=True)
    converge.add_argument("--lambdas", required=True, help="comma-separated thresholds")
    _add_common(converge)
    converge.set_defaults(handler=_cmd_converge)

    stanton = subs.add_parser(
        "stanton",
        help="form-degree coefficient, its continuation, and the pole-term identity",
    )
    stanton.add_argument("--n", type=int, required=True, help="n >= 3")
    where = stanton.add_mutually_exclusive_group(required=True)
    where.add_argument("--q", help="evaluation point: re or re,im")
    where.add_argument(
        "--grid",
        help="rectangle sweep re0:re1:steps[,im0:im1:steps]; rows ordered re-major",
    )
    _add_common(stanton)
    stanton.set_defaults(handler=_cmd_stanton)

    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """argv with each value that starts with "-" attached to its flag: --q -0.5,0.5 as --q=-0.5,0.5.

    argparse takes such a value (-0.5,0.5, -1:0:3, -1e-3) for an option; -h is its only short one.
    """
    out: list[str] = []
    for token in argv:
        dash_value = token.startswith("-") and not token.startswith("--") and token != "-h"
        if dash_value and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_dash_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    try:
        return args.handler(args)
    except (ResourceCapError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
