import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnspec import cli, heat_trace
from kohnspec.combinatorics import dim_hpq
from kohnspec.coefficients import METHODS, series_zeta
from kohnspec.errors import MAX_N
from kohnspec.heat_trace import supported_t


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_table_default_method(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "2")
    assert code == 0
    assert "0.4112335167" in out
    assert "series-zeta" in out
    assert "method" in out


def test_coeff_json_floats_round_trip(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "coeff"
    row = payload["rows"][0]
    assert row["value"] == series_zeta(3).value
    assert row["exact_form"] == "(1/48) * (2*zeta(2))"


def test_coeff_csv_schema_line(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].startswith("kind,n,method,value")
    value_field = lines[2].split(",")[3]
    assert float(value_field) == series_zeta(2).value


def test_coeff_all_reconciles(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "3", "--method", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["reconcile_ok"] is True
    kinds = {row["kind"] for row in payload["rows"]}
    assert kinds == {"estimate", "difference"}
    assert sum(1 for r in payload["rows"] if r["kind"] == "estimate") == 4


def test_coeff_all_failure_exits_2(capsys, monkeypatch):
    class FakeReport:
        estimates = ()
        differences = ()
        ok = False

    monkeypatch.setattr(cli.coefficients, "reconcile", lambda *a, **k: FakeReport())
    code, _, err = run(capsys, "coeff", "--n", "3", "--method", "all")
    assert code == 2
    assert "disagree" in err


def test_coeff_series_direct_work(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "2", "--method", "series-direct", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["work"] == 64


def test_count_summary(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--lambda", "4", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["count"] == 8
    assert row["ratio"] == pytest.approx(0.5)


def test_count_modes_sorted(capsys):
    code, out, _ = run(
        capsys, "count", "--n", "2", "--lambda", "4", "--modes", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["p"], r["q"], r["eigenvalue"], r["multiplicity"]) for r in rows] == [
        (0, 1, 2, 2),
        (1, 1, 4, 3),
        (0, 2, 4, 3),
    ]


@pytest.mark.parametrize(
    "variable, value, command, named",
    [
        ("KOHNSPEC_LINE_CAP", "10", "count --n 2 --lambda 1e6", "cap"),
        ("KOHNSPEC_TERM_CAP", "10", "heat --n 4 --t 0.01 --verify", "direct sum needed more than 10 terms"),
        # the split sums answer here; the direct sum's (1/t) log(1/t) terms pass the default cap
        ("KOHNSPEC_TERM_CAP", "10000000", "heat --n 2 --t 1e-30 --verify", "more than 10000000 terms"),
        ("KOHNSPEC_NODE_CAP", "100", "coeff --n 4 --method series-direct", "series-direct at n=4: node cap 100"),
    ],
)
def test_env_cap_exits_3_naming_the_work(capsys, monkeypatch, variable, value, command, named):
    monkeypatch.setenv(variable, value)
    code, out, err = run(capsys, *command.split())
    assert code == 3
    assert out == ""
    assert named in err


@pytest.mark.parametrize("command", ["coeff --n 4 --method series-direct", "heat --n 4 --t 0.01"])
def test_term_cap_leaves_calls_without_a_direct_sum_unchanged(capsys, monkeypatch, command):
    # the term cap bounds only heat --verify's direct double sum
    want = run(capsys, *command.split())
    assert want[0] == 0
    monkeypatch.setenv("KOHNSPEC_TERM_CAP", "10")
    assert run(capsys, *command.split()) == want


def test_bad_env_cap_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("KOHNSPEC_LINE_CAP", "not-a-number")
    code, _, err = run(capsys, "count", "--n", "2", "--lambda", "4")
    assert code == 1
    assert "KOHNSPEC_LINE_CAP" in err


def test_heat_verify(capsys):
    code, out, _ = run(
        capsys, "heat", "--n", "2", "--t", "0.1,0.5", "--verify", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    assert all(r["within_bounds"] is True for r in rows)
    assert rows[0]["scaled_trace"] == pytest.approx(
        0.1**2 * (rows[0]["split_q"] + rows[0]["split_w"])
    )


@pytest.mark.parametrize("n, t", [("3", "0.001115"), ("3", "0.002859"), ("5", "0.00202"), ("8", "0.002929")])
def test_heat_verify_fails_when_a_split_value_moves_by_50_bounds(capsys, monkeypatch, n, t):
    # at the bench's --verify inputs the check's budget is the three printed
    # bounds; it was 736 to 3 736 times the split bounds while the direct sum
    # bounded one rounding per term, so this move exited 0
    exact = heat_trace.trace_split_q

    def moved(*args, **kwargs):
        got = exact(*args, **kwargs)
        return dataclasses.replace(got, value=got.value + 50 * got.error_bound)

    monkeypatch.setattr(heat_trace, "trace_split_q", moved)
    code, out, err = run(capsys, "heat", "--n", n, "--t", t, "--verify", "--format", "json")
    assert code == 2
    assert json.loads(out)["rows"][0]["within_bounds"] is False
    assert err == "error: split sums disagree with the direct trace\n"


def test_heat_rejects_bad_time_list(capsys):
    code, _, err = run(capsys, "heat", "--n", "2", "--t", ",")
    assert code == 1
    assert "--t" in err


@pytest.mark.parametrize(
    "t, reason",
    [("0", "t must be positive"), ("-0.001", "t must be positive"), ("5e-154", "the denominator")],
)
def test_heat_below_its_lowest_t_names_the_interval_not_a_flag(capsys, t, reason):
    code, out, err = run(capsys, "heat", "--n", "2", "--t", t)
    assert (code, out) == (1, "")
    low, high = supported_t(2)
    assert f"t = {float(t)}: {reason}" in err
    assert f"heat supports t >= about {low:.3g} and t <= about {high:.3g}" in err
    # nothing lowers the lowest t, so the message must not suggest a flag or an argument
    assert "--" not in err and "min_t" not in err and "Traceback" not in err


@pytest.mark.parametrize("n, t", [("2", "400"), ("53", "10")])
def test_heat_below_float_range_names_the_largest_t(capsys, n, t):
    # the trace is about e^(-2t(n-1)), below the float range: no row of zeros
    code, out, err = run(capsys, "heat", "--n", n, "--t", t, "--verify")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "below the float range" in err and "t <= about" in err


@pytest.mark.parametrize("n", ["203", "259"])
def test_heat_answers_past_the_float_form_of_the_tail(capsys, n):
    code, out, err = run(capsys, "heat", "--n", n, "--t", "0.3", "--format", "json")
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    for part in ("split_q", "split_w"):
        assert 0.0 < row[part + "_bound"] <= 1e-11 * row[part]


def test_count_ratio_finite_where_lambda_power_overflows(capsys):
    # 1e9**40 is beyond the float range; the ratio is formed exactly
    code, out, err = run(capsys, "count", "--n", "40", "--lambda", "1e9", "--format", "json")
    assert code == 0, err
    ratio = json.loads(out)["rows"][0]["ratio"]
    assert math.isfinite(ratio) and 0.0 < ratio < 1e-58


@pytest.mark.parametrize("n", [45, 60])
def test_heat_large_n_small_t_answers_or_names_range(capsys, n):
    # at n = 60 the trace itself (~e^791) leaves the float range
    code, out, err = run(capsys, "heat", "--n", str(n), "--t", "1e-6", "--format", "json")
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 0:
        row = json.loads(out)["rows"][0]
        assert math.isfinite(row["split_q"]) and math.isfinite(row["split_w"])
    else:
        assert err.startswith("error:")
        assert "float range" in err and "t >= about" in err


@pytest.mark.parametrize(
    "n, t",
    [
        (1000, "0.3"), (1200, "0.29"), (1400, "0.25"), (1400, "0.26"), (2, "1e300"),
        (930, "0.35"), (1000, "0.345"), (800, "0.33"), (500, "0.13"), (500, "0.8"),
    ],
)
def test_heat_outside_its_range_exits_1_naming_it(capsys, n, t):
    # these ended in a ZeroDivisionError traceback, or printed a NaN bound,
    # a negative split_w or a scaled trace of 0
    code, out, err = run(capsys, "heat", "--n", str(n), "--t", t)
    assert (code, out) == (1, "")
    assert "Traceback" not in err and "nan" not in err and "inf" not in err
    largest = MAX_N["heat"][0]
    if n > largest:
        assert f"heat supports n <= {largest}" in err
    else:
        low, high = supported_t(n)
        assert f"heat supports t >= about {low:.3g} and t <= about {high:.3g}" in err


def test_converge_rows(capsys):
    code, out, _ = run(
        capsys, "converge", "--n", "2", "--lambdas", "100,1000", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert [r["count"] for r in rows] == [4160, 411766]
    assert abs(rows[1]["ratio_minus_limit"]) < abs(rows[0]["ratio_minus_limit"])
    assert payload["params"]["limit"] == pytest.approx(math.pi**2 / 24)


def test_stanton_point(capsys):
    code, out, _ = run(capsys, "stanton", "--n", "3", "--q", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["residual"] < 1e-8
    assert row["f_re"] == pytest.approx(math.pi**2 / 72, rel=1e-9)
    assert row["pole_re"] == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_stanton_origin_reports_coefficient_check(capsys):
    code, out, _ = run(capsys, "stanton", "--n", "3", "--q", "0", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["f_re"] is None
    assert row["pole_re"] is None
    assert row["coeff_check"] < 1e-8


def test_stanton_near_pole_skips_f_only(capsys):
    code, out, _ = run(capsys, "stanton", "--n", "3", "--q", "0.01", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["f_re"] is None
    assert row["g_re"] is not None


def test_stanton_rejects_n2(capsys):
    code, _, err = run(capsys, "stanton", "--n", "2", "--q", "1")
    assert code == 1
    assert "n >= 3" in err


def test_stanton_outside_strips(capsys):
    code, _, err = run(capsys, "stanton", "--n", "3", "--q", "5")
    assert code == 1
    assert "strip" in err


def test_stanton_grid(capsys):
    code, out, _ = run(
        capsys, "stanton", "--n", "4", "--grid", "0.5:1.5:3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["q_re"] for r in rows] == [0.5, 1.0, 1.5]
    assert all(r["residual"] < 1e-8 for r in rows)


def test_stanton_requires_exactly_one_location(capsys):
    code, _, _ = run(capsys, "stanton", "--n", "3")
    assert code == 1
    code, _, _ = run(capsys, "stanton", "--n", "3", "--q", "1", "--grid", "0:1:2")
    assert code == 1


def test_usage_errors_exit_1(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "unknown-subcommand")[0] == 1
    assert run(capsys, "coeff")[0] == 1
    assert run(capsys, "coeff", "--n", "2", "--method", "nope")[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "coeff", "--help")[0] == 0


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, "coeff", "--n", "4", "--method", "all", "--format", "csv")
    _, second, _ = run(capsys, "coeff", "--n", "4", "--method", "all", "--format", "csv")
    assert first == second


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "count", "--n", "2", "--lambda", "10", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["rows"][0]["count"] == 42


@pytest.mark.parametrize(
    "where, reason", [("missing/dir/x.txt", "No such file or directory"), (".", "Is a directory")]
)
def test_out_that_cannot_be_written_exits_1_naming_it(capsys, tmp_path, where, reason):
    target = tmp_path / where
    code, out, err = run(capsys, "coeff", "--n", "4", "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write --out {target}: {reason}\n"


# sha256 of stdout as the per-cell renderer printed it before the column-wise
# one: integer cells (--modes), None cells (stanton outside a strip), string
# cells and a footer (coeff --method all), bool cells (heat --verify).  The
# stanton csv/json and coeff entries were re-pinned when the integrands moved
# to folded_power/folded_excess: bounds and one continued value moved in their
# last digits, the c(n) values did not.  The coeff entries were re-pinned again
# when the integral routes' tolerance became 1e-14 of a lower bound of their
# integrals: only those two estimate rows and the differences built from them
# moved.  The heat entries were re-pinned when the direct sum took exact line
# sums in hyperbola order: only direct, direct_bound and abs_diff moved.
# They were re-pinned again when the tail integrals came to book their own
# rounding from the terms' stated rounding: only split_q_bound and
# split_w_bound moved, both down (6.7683426e-13 to 6.7683378e-13 at t = 0.1).
# The stanton entries were re-pinned when binom(m, q) came to be formed by
# Euler's reflection formula: f, g and pole moved in their last digits (the
# pole at q = 1 is now 1/24 to the last bit, and at q = -0.5 its zero imaginary
# part lost its sign), and the residual and coeff_check built from them.
# The coeff and heat entries were re-pinned when an Abel-Plana tail replaced
# the Euler-Maclaurin one: series-direct's bound fell (4.770e-17 to 4.235e-17
# at n = 3) and the differences built from it; at t = 0.1 split_q and split_w
# moved by 1 ulp, their bounds from 6.7683e-13 to 6.8075e-13, and the scaled
# trace and abs_diff built from them; the direct sum did not move.
# The stanton, coeff and heat entries were re-pinned when one extended-range
# kernel came to keep every product in range: f, g and pole moved by 1-4 ulp
# (the pole's zero imaginary part at q = -0.5 still prints 0, not -0), and
# residual and coeff_check with them; series-zeta's c(3) moved by 1 ulp, its
# bound with it, and its differences from the other routes fell from
# 1.39e-17 to 0; direct_bound fell from 1.529e-12 to 1.189e-12 at t = 0.1
# and from 4.198e-14 to 3.064e-14 at t = 0.5, as each chunk now books
# (y + 7) U.
_PINNED_STDOUT = {
    ("count --n 2 --lambda 30 --modes", "table"): "4668eb09ca029bc9831c05082d204f9bb883fb887e50f4fdada9666bbc573c11",
    ("count --n 2 --lambda 30 --modes", "csv"): "2a0f85bf31c828b40b8fba7fb840ef552639453df90a74105d7a57d27b7b6139",
    ("count --n 2 --lambda 30 --modes", "json"): "3de400241d70fc266542d9716ddad09f02ce5842ef2e0c5a9bdb0476e6ba458a",
    ("stanton --n 3 --grid=-0.5:1.5:5", "table"): "8833a2971538a791da532608ec03f9389db3b724047ad220ff61483626d2a3c7",
    ("stanton --n 3 --grid=-0.5:1.5:5", "csv"): "b5cead1bdd11715c90f8f67a5dd7c21015dd740474a1a7abf14edeaf7e18042f",
    ("stanton --n 3 --grid=-0.5:1.5:5", "json"): "129b60ee3ec6f307ba0bfe30e2683e0ff5835971b2bb7b40b5cb1f8f623425fd",
    ("coeff --n 3 --method all", "table"): "45f540693494c45e08ec75a8916802e7945fa6b627a053c2420f5d1c240389a4",
    ("coeff --n 3 --method all", "csv"): "f8a6ac936910beacc6f1a4550f27a95d40c1e380b7d75219d1b6857fa36382e3",
    ("coeff --n 3 --method all", "json"): "262453c70b3f9a1dbde1ca3b6366bed7075f78581c3d07990042e1d89ad84c8b",
    ("heat --n 2 --t 0.1,0.5 --verify", "table"): "6cfdcf856c05452e810b94641a03a1f6f8afd85b4aeaeef1113d865724ffaac1",
    ("heat --n 2 --t 0.1,0.5 --verify", "csv"): "d66cb02c328a371740cf4261855e72179e59fd510a72d71f4d6a98a3152403f1",
    ("heat --n 2 --t 0.1,0.5 --verify", "json"): "a696c2ed5b261ade081cb5e80f3ef3da7923cf9c40ab798c75c8838b7ec0ef1a",
}


@pytest.mark.parametrize("call, fmt", _PINNED_STDOUT, ids=" ".join)
def test_stdout_bytes_are_pinned(capsys, call, fmt):
    code, out, err = run(capsys, *call.split(), "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _PINNED_STDOUT[call, fmt]
    if fmt == "json":
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_modes_without_lines_print_the_header_only(capsys):
    argv = ("count", "--n", "3", "--lambda", "1", "--modes", "--format")
    assert run(capsys, *argv, "table")[1] == (
        "p  q  eigenvalue  multiplicity\n"
        "-  -  ----------  ------------\n"
    )
    assert run(capsys, *argv, "csv")[1] == "# schema=1\np,q,eigenvalue,multiplicity\n"
    assert run(capsys, *argv, "json")[1] == (
        '{\n  "schema": 1,\n  "command": "count",\n'
        '  "params": {\n    "n": 3,\n    "lambda": 1.0,\n    "modes": true\n  },\n'
        '  "rows": []\n}\n'
    )


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("call", ["count --n 2 --lambda 30 --modes", "coeff --n 3 --method all"])
def test_out_writes_the_bytes_stdout_gets(capsys, tmp_path, call, fmt):
    argv = [*call.split(), "--format", fmt]
    _, printed, _ = run(capsys, *argv)
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 0, err
    assert out == ""
    assert target.read_bytes() == printed.encode("utf-8")


def _modes_oracle(n: int, lam: float) -> list[tuple[int, int, int, int]]:
    """(p, q, eigenvalue, multiplicity) of every line up to lam, by dim_hpq, in print order."""
    lines = [
        (p, q, 2 * q * (p + n - 1), dim_hpq(n, p, q))
        for q in range(1, int(lam) // (2 * (n - 1)) + 1)
        for p in range(int(lam) // (2 * q) - (n - 1) + 1)
    ]
    return sorted(lines, key=lambda line: (line[2], line[1], line[0]))


def _render_modes(fmt: str, n: int, lam: float, lines: list) -> str:
    """count --modes output from json.dumps, the csv module and right-justified columns."""
    columns = ["p", "q", "eigenvalue", "multiplicity"]
    if fmt == "json":
        params = {"n": n, "lambda": lam, "modes": True}
        rows = [dict(zip(columns, line)) for line in lines]
        payload = {"schema": 1, "command": "count", "params": params, "rows": rows}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([columns, *lines])
        return "# schema=1\n" + text.getvalue()
    cells = [columns, *([str(v) for v in line] for line in lines)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
    cells.insert(1, ["-" * w for w in widths])
    return "".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n" for row in cells)


@st.composite
def _modes_call(draw) -> tuple[int, float]:
    """n up to 120 and lambda below the first eigenvalue, on an eigenvalue or between two."""
    n = draw(st.integers(2, 120))
    first = 2 * (n - 1)
    where = draw(st.sampled_from(["below", "on", "between"]))
    if where == "below":
        return n, draw(st.floats(0.0, first, exclude_max=True))
    # p up to 250 makes multiplicities of hundreds of digits at large n
    e = 2 * draw(st.integers(1, 3)) * (draw(st.integers(0, 250)) + n - 1)
    return n, float(e if where == "on" else e + 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_modes_call(), st.sampled_from(["table", "csv", "json"]))
def test_modes_output_matches_an_independent_renderer(call, fmt):
    n, lam = call
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["count", "--n", str(n), "--lambda", repr(lam), "--modes", "--format", fmt])
    assert code == 0
    assert out.getvalue() == _render_modes(fmt, n, lam, _modes_oracle(n, lam))


def test_failed_call_writes_no_out_file(capsys, tmp_path):
    target = tmp_path / "modes.json"
    code, out, err = run(
        capsys, "count", "--n", "2", "--lambda", "1e9", "--modes", "--format", "json",
        "--out", str(target),
    )
    assert code == 3
    assert out == ""
    assert "cap" in err
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_coeff_accepts_the_method_name_it_prints(capsys, fmt):
    outputs = []
    for spelling in ("intermediate", "integral-intermediate"):
        code, out, err = run(capsys, "coeff", "--n", "5", "--method", spelling, "--format", fmt)
        assert code == 0, err
        assert "integral-intermediate" in out
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_coeff_single_method_rows_match_the_all_rows(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "5", "--method", "all", "--format", "json")
    assert code == 0
    by_method = {row["method"]: row for row in json.loads(out)["rows"] if row["kind"] == "estimate"}
    assert tuple(by_method) == METHODS
    for method in METHODS:
        code, out, _ = run(capsys, "coeff", "--n", "5", "--method", method, "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == [by_method[method]]


@pytest.mark.parametrize(
    "method, n, last",
    [
        ("series-direct", 160, 144),
        ("series-direct", 174, 144),
        ("intermediate", MAX_N["integral-intermediate"][0] + 1, MAX_N["integral-intermediate"][0]),
        ("integral", MAX_N["integral"][0] + 1, MAX_N["integral"][0]),
        ("integral", 174, MAX_N["integral"][0]),
    ],
)
def test_coeff_past_a_route_range_names_it(capsys, method, n, last):
    # no silent 0 and no bare float-range message
    code, out, err = run(capsys, "coeff", "--n", str(n), "--method", method)
    assert code == 1
    assert out == ""
    assert f"n <= {last}" in err


def test_coeff_intermediate_where_its_bracket_overflows(capsys):
    code, out, err = run(capsys, "coeff", "--n", "102", "--method", "intermediate", "--format", "json")
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    assert 0.0 < row["error_bound"] <= 1e-13 * row["value"]


def test_coeff_all_leaks_no_overflow_warning(capsys):
    # q**56 overflowed inside the old series-direct; the suite turns RuntimeWarning into an error
    code, _, err = run(capsys, "coeff", "--n", "56", "--method", "all", "--format", "csv")
    assert code == 0, err
    assert err == ""


def test_heat_scaled_trace_where_t_to_the_n_is_subnormal(capsys):
    # 1e-6**53 is about 1e-318, a subnormal float with only a few digits
    code, out, err = run(capsys, "heat", "--n", "53", "--t", "1e-6", "--format", "json")
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    with mp.workdps(40):
        want = mp.mpf(row["t"]) ** 53 * (mp.mpf(row["split_q"]) + mp.mpf(row["split_w"]))
        assert abs(row["scaled_trace"] - want) <= 1e-15 * want


_SRC = Path(__file__).resolve().parents[1] / "src"


def _numpy_loaded_after(code):
    """Run code in a fresh interpreter on ./src; return whether numpy ended up in sys.modules."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    probe = f"import sys\n{code}\nprint('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1] == "True"


def test_import_leaves_numpy_unloaded():
    assert not _numpy_loaded_after("import kohnspec")


def test_package_exports_only_its_submodules():
    # The API lives in the submodules; the bench's tracer reaches each one as
    # an attribute of the package after a bare `import kohnspec`.
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    probe = "import kohnspec\nprint(*sorted(n for n in vars(kohnspec) if not n.startswith('_')))"
    res = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [
        "coefficients",
        "combinatorics",
        "continuation",
        "errors",
        "heat_trace",
        "special_functions",
        "spectrum",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "3", "--lambda", "100"],
        ["count", "--n", "2", "--lambda", "20", "--modes"],
        ["converge", "--n", "2", "--lambdas", "100,1000"],
        ["heat", "--n", "2", "--t", "0.1,0.5", "--verify"],
        ["coeff", "--n", "4", "--method", "series-zeta"],
        ["coeff", "--n", "4", "--method", "integral"],
        ["coeff", "--n", "4", "--method", "intermediate"],
        ["coeff", "--n", "4", "--method", "series-direct"],
        ["coeff", "--n", "10", "--method", "all"],
        ["stanton", "--n", "3", "--q", "1"],
    ],
    ids=" ".join,
)
def test_subcommands_leave_numpy_unloaded(argv):
    assert not _numpy_loaded_after(f"from kohnspec import cli\nassert cli.main({argv!r}) == 0")


# ------------------------------------------------------------ range of n

_RAW_FLOAT_MESSAGES = ("math range error", "out of range", "too large to convert")


def _answers_or_names_its_range(capsys, *argv):
    """Exit 0, or exit 1 naming the route's largest n; never a raw float-range message."""
    code, out, err = run(capsys, *argv)
    assert not any(raw in err for raw in _RAW_FLOAT_MESSAGES), (argv, err)
    if code == 0:
        return out
    assert code == 1, (argv, code, err)
    assert "supports n <= " in err, (argv, err)
    return None


def test_coeff_all_past_the_old_zeta_cap(capsys):
    code, out, err = run(capsys, "coeff", "--n", "70", "--method", "all")
    assert code == 0, err
    assert "reconciliation: ok" in out


def test_converge_and_stanton_name_their_range(capsys):
    largest = MAX_N["series-zeta"][0]
    assert _answers_or_names_its_range(capsys, "converge", "--n", str(largest), "--lambdas", "1e3")
    code, _, err = run(capsys, "converge", "--n", str(largest + 1), "--lambdas", "1e3")
    assert code == 1
    assert f"series-zeta supports n <= {largest}" in err
    largest = MAX_N["continuation"][0]
    assert _answers_or_names_its_range(capsys, "stanton", "--n", str(largest), "--q", "0")
    code, _, err = run(capsys, "stanton", "--n", str(largest + 1), "--q", "1")
    assert code == 1
    assert f"continuation supports n <= {largest}" in err


def _json_rows(out):
    return [] if out is None else json.loads(out)["rows"]


def test_n_sweep_answers_or_names_the_range(capsys):
    # each table entry, one past it, and a stride to n = 400; no answer is a silent 0
    entries = {largest for largest, _ in MAX_N.values()}
    ns = sorted({*range(2, 401, 37), *entries, *(n + 1 for n in entries)})
    for n in map(str, ns):
        out = _answers_or_names_its_range(capsys, "coeff", "--n", n, "--method", "all", "--format", "json")
        assert out is None or json.loads(out)["params"]["reconcile_ok"], n
        for row in _json_rows(out):
            assert row["kind"] == "difference" or (row["value"] > 0 and row["error_bound"] > 0), (n, row)
        out = _answers_or_names_its_range(capsys, "converge", "--n", n, "--lambdas", "1e3", "--format", "json")
        assert out is None or json.loads(out)["params"]["limit"] > 0, n
        if n != "2":
            grid = ("--grid", "0:2:3,0:1:2", "--format", "json")
            for row in _json_rows(_answers_or_names_its_range(capsys, "stanton", "--n", n, *grid)):
                assert row["pole_re"] is None or abs(complex(row["pole_re"], row["pole_im"])) > 0, (n, row)


# ------------------------------------------------- non-finite and negative input


@pytest.mark.parametrize(
    "command, named",
    [
        ("heat --n 3 --t 0.1,nan", "--t must be finite, got nan"),
        ("converge --n 2 --lambdas 100,inf", "--lambdas must be finite, got inf"),
        ("stanton --n 3 --q 0.5,nan", "--q must be finite, got nan"),
        ("stanton --n 3 --grid=nan:1:3", "--grid must be finite, got nan"),
        ("stanton --n 3 --grid=0:1:3,0:inf:2", "--grid must be finite, got inf"),
        ("stanton --n 3 --grid=0:1:x", "--grid span must be start:stop:steps, got '0:1:x'"),
        ("stanton --n 3 --grid=0:x:2", "--grid span must be start:stop:steps, got '0:x:2'"),
        ("stanton --n 3 --grid=", "--grid span must be start:stop:steps, got ''"),
    ],
)
def test_non_finite_or_negative_input_exits_1_naming_it(capsys, command, named):
    # these used to exit 3 after grinding to a cap, or exit 0 with empty or loose rows
    code, out, err = run(capsys, *command.split())
    assert code == 1
    assert out == ""
    assert named in err


@pytest.mark.parametrize(
    "flag, value",
    [("--q", "-0.5,0.5"), ("--q", "-1e-3"), ("--grid", "-1:0:3"), ("--grid", "-0.5:0.5:2,-1:1:3")],
)
def test_a_value_starting_with_a_dash_parses_as_its_flag_form(capsys, flag, value):
    # argparse alone reads these as options ("expected one argument")
    code, out, err = run(capsys, "stanton", "--n", "3", flag, value, "--format", "csv")
    assert code == 0, err
    assert (code, out, err) == run(capsys, "stanton", "--n", "3", f"{flag}={value}", "--format", "csv")


@pytest.mark.parametrize(
    "command",
    [
        "heat --n 3 --t 0.1 --tol 1e-15",
        "coeff --n 4 --tol 1e-12",
        "coeff --n 4 --method series-direct --terms 10",
        "stanton --n 3 --q 1 --tol 1e-12",
    ],
)
def test_no_accuracy_flag_is_accepted(capsys, command):
    # each route fixes its own tolerance (heat's sums stop relative to their
    # own partial sums); no accuracy is settable
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {' '.join(command.split()[-2:])}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, about",
    [
        ("count --n 2 --lambda 1e300", "about 1.41e+150 hyperbola blocks"),
        ("count --n 2 --lambda 1e300 --modes", "at least about 5e+299 spectral lines"),
    ],
)
def test_cap_message_rounds_a_huge_count(capsys, command, about):
    # above 1e15 the count prints as 3 digits, not 150 to 300
    code, _, err = run(capsys, *command.split())
    assert code == 3
    assert about in err
    assert len(err) < 120
