import json
import math

import pytest

from kohnspec import cli
from kohnspec.coefficients import series_zeta


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
    code, out, _ = run(
        capsys, "coeff", "--n", "2", "--method", "series-direct",
        "--terms", "1000", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["work"] == 1000


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


def test_count_env_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("KOHNSPEC_LINE_CAP", "10")
    code, _, err = run(capsys, "count", "--n", "2", "--lambda", "1e6")
    assert code == 3
    assert "cap" in err


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


def test_heat_rejects_bad_time_list(capsys):
    code, _, err = run(capsys, "heat", "--n", "2", "--t", ",")
    assert code == 1
    assert "--t" in err


def test_heat_below_floor_names_floor_not_a_flag(capsys):
    code, _, err = run(capsys, "heat", "--n", "2", "--t", "5e-7")
    assert code == 1
    assert "1e-06" in err
    assert "min_t" in err
    # the CLI has no option to lower the floor, so the message must not suggest one
    assert "--" not in err
    assert "pass min_t explicitly" not in err


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
