"""Parse each CLI output and check it against the independent references.

Every value with a printed error bound must lie within that bound of the
50-digit reference.  Values derived from other printed values (ratios,
differences, residuals) must match their recomputation to a few ulps.
Table output carries 10 significant digits, so half a unit in the tenth
digit is added to every tolerance there.

A check ends in one of three verdicts:
* ok;
* "bound-omits-rounding": outside the printed bound, but by no more than the
  floating-point rounding of the computation (SUMMATION_REL for the heat
  sums, whose naive loops add up to TERM_CAP terms; ROUNDING_REL otherwise);
* wrong: anything else, including an unexpected exit code or output that
  does not parse.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import mpmath as mp

import oracle
from workloads import Call, evaluators, options, stanton_points

U = 2.0**-53
TABLE_REL = 5e-10
ROUNDING_REL = 1e-12
TERM_CAP = 10_000_000  # the CLI's default KOHNSPEC_TERM_CAP
SUMMATION_REL = TERM_CAP * U
DERIVED_ULPS = 8 * U
POLE_REL = 1e-13  # the complex log-gamma behind binom(m, q) is good to ~1e-14
DEFAULT_TOL = 1e-10  # coeff/stanton --tol default
ROUNDING = "bound-omits-rounding"


class Mismatch(Exception):
    """An output that is wrong beyond any known defect."""


class Checker:
    """Collects soft (rounding) findings for one call; raises Mismatch on hard ones."""

    def __init__(self, fmt: str):
        self.table = fmt == "table"
        self.soft: list[str] = []
        self.mismatch = False  # the output itself reports routes that disagree

    def close(self, label, got, ref, bound, soft_rel=0.0, soft_scale=None):
        """|got - ref| <= bound (+ print rounding); soft_rel * soft_scale (default |ref|) more is soft."""
        if got is None:
            raise Mismatch(f"{label}: missing")
        err = abs(mp.mpmathify(got) - ref)
        slack = bound + (TABLE_REL * abs(got) if self.table else 0.0)
        if err <= slack:
            return
        if err <= slack + soft_rel * (abs(ref) if soft_scale is None else soft_scale):
            self.soft.append(f"{label}: |{got!r} - ref| = {float(err):.3g} > bound {float(bound):.3g}")
            return
        raise Mismatch(f"{label}: got {got!r}, reference {mp.nstr(ref, 20)}, bound {float(bound):.3g}")

    def derived(self, label, got, value, scale):
        """A printed value that must equal its recomputation from other printed values.

        scale is the magnitude of the inputs: floating-point evaluation, or in
        table output the 10-digit rounding of those inputs, perturbs the
        result by a small multiple of it.
        """
        rel = TABLE_REL if self.table else DERIVED_ULPS
        self.close(label, got, mp.mpmathify(value), rel * float(scale) + 1e-300)

    def equal(self, label, got, want):
        if got != want:
            raise Mismatch(f"{label}: got {got!r}, want {want!r}")


# ----------------------------------------------------------------- parsing


def _cell(text: str, none_marker: str):
    if text == none_marker:
        return None
    if text in ("true", "false"):
        return text == "true"
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse(fmt: str, stdout: str) -> tuple[list[dict], dict, list[str]]:
    """(rows, params, footer lines) of one output; params only exist in json."""
    if fmt == "json":
        payload = json.loads(stdout)
        return payload["rows"], payload["params"], []
    lines = stdout.splitlines()
    if fmt == "csv":
        if lines[0] != "# schema=1":
            raise ValueError(f"csv schema line is {lines[0]!r}")
        columns = lines[1].split(",")
        rows = []
        for line in lines[2:]:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"csv row has {len(cells)} cells: {line!r}")
            rows.append({c: _cell(v, "") for c, v in zip(columns, cells)})
        return rows, {}, []
    # table: header, dashes, right-aligned cells separated by two spaces
    widths = [len(d) for d in lines[1].split("  ")]
    spans, start = [], 0
    for w in widths:
        spans.append((start, start + w))
        start += w + 2
    columns = [lines[0][a:b].strip() for a, b in spans]
    rows, footer = [], []
    for line in lines[2:]:
        if len(line) != start - 2:
            footer.append(line)
            continue
        rows.append({c: _cell(line[a:b].strip(), "-") for c, (a, b) in zip(columns, spans)})
    return rows, {}, footer


# ------------------------------------------------------------ per-class checks


def _count(ch: Checker, argv, rows, params, footer, refs):
    opts = options(argv)
    n, lam = int(opts["n"]), float(opts["lambda"])
    ch.equal("rows", len(rows), 1)
    row = rows[0]
    ch.equal("n", row["n"], n)
    ch.close("lambda", row["lambda"], mp.mpf(lam), 0.0)
    want = oracle.eigen_count(n, lam)
    ch.equal("count", row["count"], want)
    ratio = mp.mpf(want) / mp.mpf(lam) ** n
    ch.derived("ratio", row["ratio"], ratio, ratio)


def _modes(ch: Checker, argv, rows, params, footer, refs):
    opts = options(argv)
    n, lam = int(opts["n"]), float(opts["lambda"])
    ch.equal("lines", len(rows), oracle.line_count(n, lam))
    expected = sorted(
        (2 * q * (p + n - 1), q, p)
        for q in range(1, int(lam) + 1)
        if 2 * q * (n - 1) <= lam
        for p in range(int(lam) // (2 * q) - (n - 1) + 1)
    )
    total = 0
    for row, (ev, q, p) in zip(rows, expected):
        got = (row["p"], row["q"], row["eigenvalue"])
        if got != (p, q, ev):
            raise Mismatch(f"line (p, q, eigenvalue) = {got}, want {(p, q, ev)}")
        mult = oracle.multiplicity(n, p, q)
        if row["multiplicity"] != mult:
            raise Mismatch(f"multiplicity at (p, q) = {(p, q)}: {row['multiplicity']} != {mult}")
        total += mult
    ch.equal("sum of multiplicities", total, oracle.eigen_count(n, lam))


def _converge(ch: Checker, argv, rows, params, footer, refs):
    opts = options(argv)
    n = int(opts["n"])
    lams = [float(x) for x in opts["lambdas"].split(",")]
    limit = oracle.weyl(n)
    limit_bound = 1e-14 * float(limit)  # series-zeta's stated bound
    if params:
        ch.close("limit", params["limit"], limit, limit_bound, ROUNDING_REL)
    ch.equal("rows", len(rows), len(lams))
    for row, lam in zip(rows, lams):
        ch.equal("n", row["n"], n)
        ch.close("lambda", row["lambda"], mp.mpf(lam), 0.0)
        want = oracle.eigen_count(n, lam)
        ch.equal(f"count at {lam}", row["count"], want)
        ratio = mp.mpf(want) / mp.mpf(lam) ** n
        ch.derived(f"ratio at {lam}", row["ratio"], ratio, ratio)
        ch.close(
            f"ratio_minus_limit at {lam}",
            row["ratio_minus_limit"],
            ratio - limit,
            limit_bound + DERIVED_ULPS * float(ratio),
            ROUNDING_REL,
        )


def _heat(ch: Checker, argv, rows, params, footer, refs):
    opts = options(argv)
    n = int(opts["n"])
    ts = opts["t"].split(",")
    ch.equal("rows", len(rows), len(ts))
    for row, t_text in zip(rows, ts):
        t = float(t_text)
        ch.equal("n", row["n"], n)
        ch.close("t", row["t"], mp.mpf(t), 0.0)
        ref_q, ref_w = refs.heat(n, t_text)
        ch.close(f"split_q at t={t_text}", row["split_q"], ref_q, row["split_q_bound"], SUMMATION_REL)
        ch.close(f"split_w at t={t_text}", row["split_w"], ref_w, row["split_w_bound"], SUMMATION_REL)
        scale = mp.mpf(t) ** n
        ch.close(
            f"scaled_trace at t={t_text}",
            row["scaled_trace"],
            scale * (ref_q + ref_w),
            float(scale) * (row["split_q_bound"] + row["split_w_bound"]) + DERIVED_ULPS * row["scaled_trace"],
            SUMMATION_REL,
        )
        if "verify" not in opts:
            continue
        ch.close(f"direct at t={t_text}", row["direct"], ref_q + ref_w, row["direct_bound"], SUMMATION_REL)
        total = mp.mpf(row["split_q"]) + row["split_w"]
        ch.derived("split_total", row["split_total"], total, total)
        diff = abs(mp.mpf(row["direct"]) - row["split_total"])
        ch.derived("abs_diff", row["abs_diff"], diff, abs(row["direct"]) + abs(row["split_total"]))
        budget = row["direct_bound"] + row["split_q_bound"] + row["split_w_bound"]
        within = row["abs_diff"] <= budget
        ch.equal("within_bounds", row["within_bounds"], within)
        if not within:
            ch.mismatch = True
            scale = abs(row["direct"]) + abs(row["split_total"])
            ch.close(f"split vs direct at t={t_text}", row["abs_diff"], 0, budget, SUMMATION_REL, scale)


_METHOD_NAMES = {"intermediate": "integral-intermediate"}


def _zeta_form_value(text: str) -> mp.mpf:
    """Evaluate the printed exact form "(a/b) * (c1*zeta(k1) + ...)" with mpmath."""
    match = re.fullmatch(r"\((-?\d+(?:/\d+)?)\) \* \((.*)\)", text)
    if not match:
        raise Mismatch(f"exact_form does not parse: {text!r}")
    scale = Fraction(match.group(1))
    total = mp.mpf(0)
    for term in match.group(2).split(" + "):
        coeff, arg = re.fullmatch(r"(-?\d+)\*zeta\((\d+)\)", term).groups()
        total += int(coeff) * mp.zeta(int(arg))
    return total * scale.numerator / scale.denominator


def _estimate(ch: Checker, row, n: int, method: str):
    ch.equal("kind", row["kind"], "estimate")
    ch.equal("n", row["n"], n)
    ch.equal("method", row["method"], method)
    ref = oracle.weyl(n)
    ch.close(f"{method} value", row["value"], ref, row["error_bound"], ROUNDING_REL)
    if not (isinstance(row["work"], int) and row["work"] > 0):
        raise Mismatch(f"{method} work = {row['work']!r}")
    if method == "series-zeta":
        exact = _zeta_form_value(row["exact_form"])
        if abs(exact - ref) > mp.mpf(10) ** (5 - oracle.DPS) * ref:
            raise Mismatch(f"exact_form evaluates to {mp.nstr(exact, 20)}, reference {mp.nstr(ref, 20)}")


def _coeff(ch: Checker, argv, rows, params, footer, refs):
    opts = options(argv)
    n = int(opts["n"])
    method = opts.get("method", "series-zeta")
    if method != "all":
        ch.equal("rows", len(rows), 1)
        _estimate(ch, rows[0], n, _METHOD_NAMES.get(method, method))
        return
    methods = ("series-zeta", "series-direct", "integral", "integral-intermediate")
    ch.equal("rows", len(rows), 4 + 6)
    for row, method in zip(rows, methods):
        _estimate(ch, row, n, method)
    by_method = {row["method"]: row for row in rows[:4]}
    pairs = [(a, b) for i, a in enumerate(methods) for b in methods[i + 1 :]]
    for row, (a, b) in zip(rows[4:], pairs):
        ch.equal("kind", row["kind"], "difference")
        ch.equal("pair", row["method"], f"{a}|{b}")
        va, vb = by_method[a]["value"], by_method[b]["value"]
        ch.derived(f"{a}|{b} difference", row["value"], abs(mp.mpf(va) - vb), abs(va) + abs(vb))
        combined = mp.mpf(by_method[a]["error_bound"]) + by_method[b]["error_bound"]
        ch.derived(f"{a}|{b} combined bound", row["error_bound"], combined, combined)
        if row["value"] > row["error_bound"]:
            ch.mismatch = True
            ch.close(f"{a}|{b} agreement", row["value"], 0, row["error_bound"], ROUNDING_REL, abs(va) + abs(vb))
    if params:
        ch.equal("reconcile_ok", params["reconcile_ok"], not ch.mismatch)
    if ch.table:
        ch.equal("footer", footer, ["reconciliation: FAILED" if ch.mismatch else "reconciliation: ok"])


def _complex(row, prefix):
    re_part, im_part = row[f"{prefix}_re"], row[f"{prefix}_im"]
    if re_part is None and im_part is None:
        return None
    return complex(re_part, im_part)


def _stanton(ch: Checker, argv, rows, params, footer, refs):
    opts = options(argv)
    n = int(opts["n"])
    tol = float(opts.get("tol", DEFAULT_TOL))
    points = stanton_points(argv)
    ch.equal("rows", len(rows), len(points))
    for row, q in zip(rows, points):
        ch.equal("n", row["n"], n)
        ch.close("q_re", row["q_re"], mp.mpf(q.real), 0.0)
        ch.close("q_im", row["q_im"], mp.mpf(q.imag), 0.0)
        which = evaluators(n, q)
        values = {}
        for name in ("f", "g"):
            got = _complex(row, name)
            if (got is not None) != (name in which):
                raise Mismatch(f"{name} at q={q}: present={got is not None}, expected={name in which}")
            if got is None:
                continue
            # tol bounds the quadrature of the integral; the prefactor scales it.
            factor = abs(oracle.stanton_prefactor(n, q)) * (2 if name == "g" else 1)
            ch.close(f"{name} at q={q}", got, refs.stanton(n, q, name), tol * float(factor), ROUNDING_REL)
            values[name] = got
        pole = _complex(row, "pole")
        if (pole is not None) != ("g" in which and q != 0):
            raise Mismatch(f"pole at q={q}: present={pole is not None}")
        if pole is not None:
            ref = oracle.pole(n, q)
            ch.close(f"pole at q={q}", pole, ref, POLE_REL * float(abs(ref)))
        if "f" in values and "g" in values and pole is not None:
            residual = abs(mp.mpmathify(values["f"]) - values["g"] - pole)
            scale = abs(values["f"]) + abs(values["g"]) + abs(pole)
            ch.derived(f"residual at q={q}", row["residual"], residual, scale)
        else:
            ch.equal("residual", row["residual"], None)
        if q == 0 and "g" in values:
            limit = oracle.weyl(n)
            ch.close(
                "coeff_check",
                row["coeff_check"],
                abs(mp.mpmathify(values["g"]) - limit),
                1e-14 * float(limit) + DERIVED_ULPS * float(limit),
                ROUNDING_REL,
            )
        else:
            ch.equal("coeff_check", row["coeff_check"], None)


CHECKS = {
    "count": _count,
    "converge": _converge,
    "modes": _modes,
    "heat": _heat,
    "heat_verify": _heat,
    "coeff": _coeff,
    "coeff_all": _coeff,
    "stanton": _stanton,
}


def verdict(call: Call, exit_code: int, stdout: str, refs: oracle.References) -> tuple[str, str]:
    """("ok" | a KNOWN_DEFECTS id | "wrong", detail) for one finished call.

    Exit 2 (routes disagree) is accepted only with output that reports the
    disagreement, and then only when rounding explains it.
    """
    if call.known is not None and exit_code == call.known_exit:
        return call.known, f"exit {exit_code}"
    if exit_code not in (0, 2):
        return "wrong", f"unexpected exit {exit_code}"
    fmt = options(call.argv).get("format", "table")
    ch = Checker(fmt)
    try:
        rows, params, footer = parse(fmt, stdout)
        CHECKS[call.cls](ch, call.argv, rows, params, footer, refs)
    except Mismatch as exc:
        return "wrong", str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return "wrong", f"unparsable output: {exc!r}"
    if ch.mismatch != (exit_code == 2):
        return "wrong", f"exit {exit_code}, but the output reports mismatch={ch.mismatch}"
    if ch.soft:
        return ROUNDING, ch.soft[0]
    return "ok", ""


def judge(outputs, refs: oracle.References) -> tuple[list[str], list[str]]:
    """Verdict and detail for each (call, exit code, stdout bytes); repeats are checked once."""
    seen: dict[tuple, tuple[str, str]] = {}
    verdicts, details = [], []
    for call, code, stdout in outputs:
        key = (call, code, hashlib.sha256(stdout).digest())
        if key not in seen:
            seen[key] = verdict(call, code, stdout.decode("utf-8", "replace"), refs)
        verdicts.append(seen[key][0])
        details.append(f"{' '.join(call.argv)}: {seen[key][1]}")
    return verdicts, details


def failed_frac(verdicts: list[str]) -> float:
    """Share of calls that did not give a checked answer (known defects included)."""
    return sum(v != "ok" for v in verdicts) / len(verdicts)


def tally(verdicts: list[str], details: list[str]) -> dict[str, dict]:
    """Count of each verdict other than ok, with the first call that got it."""
    out: dict[str, dict] = {}
    for v, d in zip(verdicts, details):
        if v != "ok":
            entry = out.setdefault(v, {"calls": 0, "first": d})
            entry["calls"] += 1
    return out
