"""Self-tests of the benchmark harness: its arithmetic, its oracle and its checks."""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp
import pytest

import checks
import oracle
import run
import tracing
import workloads
from workloads import Call


def _result(wall: float, rss: float = 10.0, code: int = 0) -> run.Result:
    return run.Result(wall=wall, cpu=wall / 2, rss_mb=rss, code=code, stdout=b"", stderr=b"")


def test_summary_takes_medians_over_passes():
    calls = [Call(("count",), "count"), Call(("heat",), "heat")]
    passes = [
        [_result(1.0, rss=30.0), _result(3.0)],
        [_result(2.0), _result(2.0, rss=50.0)],
        [_result(9.0), _result(1.0)],
    ]
    verdicts = ["ok", "wrong", "ok", "ok", "zeta-even-cap", "ok"]
    m = run.summarize(calls, passes, verdicts, setup_s=0.25)
    assert m["wall_s"] == 4.0  # pass sums 4, 4, 10
    assert m["cpu_s"] == 2.0
    assert m["count_s"] == 2.0  # 1, 2, 9
    assert m["heat_s"] == 2.0  # 3, 2, 1
    assert m["modes_s"] == 0.0
    assert m["call_p50_s"] == 2.0  # median of 1, 3, 2, 2, 9, 1
    assert m["peak_rss_mb"] == 50.0
    assert m["setup_s"] == 0.25
    assert m["failed_frac"] == pytest.approx(2 / 6)


def test_failed_frac_counts_every_call_without_a_checked_answer():
    assert checks.failed_frac(["ok", "ok", "ok", "ok"]) == 0.0
    assert checks.failed_frac(["ok", "wrong", "heat-floor-term-cap", "bound-omits-rounding"]) == 0.75


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span("cli.main", -1, 0, start=0.0, end=10.0),
        tracing.Span("spectrum.count", 0, 0, start=1.0, end=3.0),
        tracing.Span("coefficients.series_zeta", 0, 0, start=2.0, end=4.0),  # overlaps the first child
        tracing.Span("special_functions.zeta_even", 2, 0, start=2.5, end=3.0),
        tracing.Span("heat_trace.trace_split_q", 0, 0, start=8.0, end=12.0),  # runs past its parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(0.5)


def test_layer_metrics_rates_and_counts():
    spans = [
        tracing.Span("cli.main", -1, 0, start=0.0, end=4.0),
        tracing.Span("spectrum.count", 0, 0, start=0.0, end=2.0, counts={"n": 2, "lam": 20.0}),
        tracing.Span("heat_trace.trace_split_q", 0, 0, start=2.0, end=3.0, counts={"terms": 500}),
    ]
    m = tracing.layer_metrics(spans, stanton_points_total=0)
    assert m["cli.main.self_s"] == pytest.approx(1.0)
    assert m["spectrum.count.lines_per_s"] == pytest.approx(oracle.line_count(2, 20.0) / 2.0)
    assert m["heat_trace.trace_split_q.terms_per_s"] == pytest.approx(500.0)
    assert set(m) | {"import.interpreter_s", "import.numpy_s", "import.kohnspec_self_s",
                     "cli.stdout_bytes", "trace.overhead_frac"} == {name for name, _ in tracing.PER_LAYER}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, run.UNITS[n]) for n in run.GATED]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("n, lam", [(2, 7.0), (2, 100.0), (3, 250.5), (5, 400.0), (8, 1000.0)])
def test_oracle_counts_agree_with_brute_force(n, lam):
    lines = [
        (p, q)
        for q in range(1, int(lam) + 1)
        for p in range(int(lam) + 1)
        if 2 * q * (p + n - 1) <= lam
    ]
    assert oracle.line_count(n, lam) == len(lines)
    assert oracle.eigen_count(n, lam) == sum(oracle.multiplicity(n, p, q) for p, q in lines)


def _count_csv(n: int, lam: float, count: int) -> str:
    return f"# schema=1\nn,lambda,count,ratio\n{n},{lam!r},{count},{count / lam**n!r}\n"


def _coeff_csv(n: int, value: float, bound: float) -> str:
    return (
        "# schema=1\nkind,n,method,value,error_bound,work,exact_form\n"
        f"estimate,{n},integral,{value!r},{bound!r},392,\n"
    )


def _tamper(text: str, digit_index: int) -> str:
    """Change the digit_index-th digit of the last line (counting digits only)."""
    head, _, last = text.rstrip("\n").rpartition("\n")
    positions = [i for i, ch in enumerate(last) if ch.isdigit()]
    i = positions[digit_index]
    last = last[:i] + str((int(last[i]) + 1) % 10) + last[i + 1 :]
    return f"{head}\n{last}\n"


def test_count_output_checked_exactly():
    refs = oracle.References(None)
    call = Call(("count", "--n", "2", "--lambda", "1000", "--format", "csv"), "count")
    good = _count_csv(2, 1000.0, oracle.eigen_count(2, 1000.0))
    assert checks.verdict(call, 0, good, refs)[0] == "ok"
    # digits of "2,1000.0,<count>,..." : skip n and lambda, change the count's last digit
    count_digits = len(str(oracle.eigen_count(2, 1000.0)))
    tampered = _tamper(good, 1 + 5 + count_digits - 1)
    assert tampered != good
    assert checks.verdict(call, 0, tampered, refs)[0] == "wrong"


def test_tampered_coefficient_is_a_failure():
    refs = oracle.References(None)
    call = Call(("coeff", "--n", "4", "--method", "integral", "--format", "csv"), "coeff")
    value = float(oracle.weyl(4))
    good = _coeff_csv(4, value, 1e-16)
    assert checks.verdict(call, 0, good, refs)[0] == "ok"
    tampered = _tamper(good, 1 + 6)  # a digit of the value's mantissa
    assert checks.verdict(call, 0, tampered, refs)[0] == "wrong"


def test_bound_exceeded_by_rounding_only_is_the_known_defect():
    refs = oracle.References(None)
    call = Call(("coeff", "--n", "4", "--method", "integral", "--format", "csv"), "coeff")
    value = float(oracle.weyl(4)) * (1 + 1e-14)
    verdict, detail = checks.verdict(call, 0, _coeff_csv(4, value, 1e-20), refs)
    assert verdict == "bound-omits-rounding", detail


def test_exit_codes_against_known_defects():
    refs = oracle.References(None)
    known = Call(workloads.HEAT_FLOOR, "heat", known="heat-floor-term-cap", known_exit=3)
    assert checks.verdict(known, 3, "", refs)[0] == "heat-floor-term-cap"
    assert checks.verdict(known, 1, "", refs)[0] == "wrong"
    plain = Call(("coeff", "--n", "4"), "coeff")
    assert checks.verdict(plain, 3, "", refs)[0] == "wrong"
    assert checks.verdict(plain, 0, "not a table", refs)[0] == "wrong"


def test_table_parse_keeps_cells_with_spaces():
    columns = ["kind", "n", "method", "value", "error_bound", "work", "exact_form"]
    cells = ["estimate", "2", "series-zeta", "0.4112335", "4.11e-15", "1", "(1/48) * (1*zeta(2) + 2*zeta(2))"]
    widths = [max(len(a), len(b)) for a, b in zip(columns, cells)]
    text = "\n".join(
        [
            "  ".join(c.rjust(w) for c, w in zip(columns, widths)),
            "  ".join("-" * w for w in widths),
            "  ".join(c.rjust(w) for c, w in zip(cells, widths)),
            "reconciliation: ok",
        ]
    )
    rows, params, footer = checks.parse("table", text + "\n")
    assert rows[0]["exact_form"] == "(1/48) * (1*zeta(2) + 2*zeta(2))"
    assert rows[0]["n"] == 2 and rows[0]["value"] == 0.4112335
    assert footer == ["reconciliation: ok"]


def test_workloads_are_seeded_and_keep_the_known_failures():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate("heat-trace", 1) != workloads.generate("heat-trace", 2)
    heat = workloads.generate("heat-trace", 5)
    assert Call(workloads.HEAT_FLOOR, "heat", known="heat-floor-term-cap", known_exit=3) in heat
    weyl = workloads.generate("weyl-coefficients", 5)
    past = [c for c in weyl if c.known == "zeta-even-cap"]
    assert len(past) == 1 and int(past[0].argv[2]) > 64


def test_reference_table_covers_every_input_and_matches_mpmath():
    refs = oracle.References()
    for n, t in workloads.heat_reference_inputs():
        assert oracle.heat_key(n, t) in refs.heat_table
    for n, q, which in workloads.stanton_reference_inputs():
        assert which in refs.stanton_table[oracle.stanton_key(n, q)]
    n, q, which = workloads.stanton_reference_inputs()[0]
    assert abs(refs.stanton(n, q, which) - oracle.stanton_f(n, q)) < mp.mpf(10) ** -40
