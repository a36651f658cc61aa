"""Property test of cli.main over drawn argv for every subcommand.

Every call must exit 0-3 with no traceback and no warning, and a
non-finite value in any numeric flag must exit 1.  The resource caps are
set low through the environment, so that no drawn call grinds.
"""

import contextlib
import io
import os
import warnings
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from kohnspec import cli
from kohnspec.coefficients import METHODS

_CAPS = {"KOHNSPEC_LINE_CAP": "20000", "KOHNSPEC_TERM_CAP": "200000", "KOHNSPEC_NODE_CAP": "20000"}
_NON_FINITE = ("nan", "inf", "-inf")


def _number(lo: float, hi: float):
    """A flag value: a finite float in [lo, hi] (3 draws in 4), or zero, negative, huge or non-finite."""
    finite = st.floats(lo, hi).map(repr)
    return st.one_of(finite, finite, finite, st.sampled_from(["0", "-0.0", "-1", "1e300", *_NON_FINITE]))


def _number_list(lo: float, hi: float):
    """One or two numbers, comma-separated, or (1 draw in 8) the empty value."""
    numbers = st.lists(_number(lo, hi), min_size=1, max_size=2).map(",".join)
    return st.one_of(*[numbers] * 7, st.just(""))


def _span(lo: float, hi: float):
    """start:stop:steps, or (1 draw in 8) the empty value."""
    steps = st.integers(1, 2).map(str)
    span = st.tuples(_number(lo, hi), _number(lo, hi), steps).map(":".join)
    return st.one_of(*[span] * 7, st.just(""))


_N = st.integers(0, 12).map(str)
_FORMAT = st.sampled_from(["table", "csv", "json"])


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(["coeff", "count", "heat", "converge", "stanton"]))
    argv = [command, "--n", draw(_N), "--format", draw(_FORMAT)]
    if command == "coeff":
        argv += ["--method", draw(st.sampled_from([*METHODS, "intermediate", "all"]))]
    elif command == "count":
        argv += ["--lambda", draw(_number(0.0, 1e4))]
        if draw(st.booleans()):
            argv.append("--modes")
    elif command == "heat":
        argv += ["--t", draw(_number_list(0.02, 3.0))]
        if draw(st.booleans()):
            argv.append("--verify")
    elif command == "converge":
        argv += ["--lambdas", draw(_number_list(0.0, 1e6))]
    else:
        if draw(st.booleans()):
            argv += ["--q", draw(_number_list(-1.5, 12.0))]
        else:
            spans = draw(st.lists(_span(-1.5, 12.0), min_size=1, max_size=2))
            argv.append("--grid=" + ",".join(spans))
    return argv


def _has_non_finite(argv: list[str]) -> bool:
    return any(v in _NON_FINITE for arg in argv for v in arg.replace(":", ",").split(","))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_main_exits_0_to_3_without_traceback_or_warning(argv):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, _CAPS),
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err.getvalue(), argv
    if code:
        assert err.getvalue(), argv
    if _has_non_finite(argv):
        assert code == 1, (argv, code, err.getvalue())
