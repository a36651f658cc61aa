import re

import pytest

from kohnspec import coefficients, combinatorics, continuation, heat_trace, spectrum

# Every public function that validates n, as a call taking n alone.  Each
# reaches errors.check_n before any work, so a float n is named there rather
# than failing deep inside as a TypeError.
_TAKES_N = {
    "dim_hpq": lambda n: combinatorics.dim_hpq(n, 1, 1),
    "split_terms": lambda n: combinatorics.split_terms(n, 1, 1),
    "eigenvalue": lambda n: spectrum.eigenvalue(n, 0, 1),
    "enumerate_modes": lambda n: spectrum.enumerate_modes(n, 100),
    "count": lambda n: spectrum.count(n, 100),
    "counting_ratio": lambda n: spectrum.counting_ratio(n, 100),
    "supported_t": heat_trace.supported_t,
    "trace_split_q": lambda n: heat_trace.trace_split_q(n, 0.1),
    "trace_split_w": lambda n: heat_trace.trace_split_w(n, 0.1),
    "trace_direct": lambda n: heat_trace.trace_direct(n, 0.1),
    "scaled_trace": lambda n: heat_trace.scaled_trace(n, 0.1),
    "series_zeta": coefficients.series_zeta,
    "series_direct": coefficients.series_direct,
    "integral_coefficient": coefficients.integral_coefficient,
    "integral_intermediate": coefficients.integral_intermediate,
    "estimate": lambda n: coefficients.estimate("series-zeta", n),
    "reconcile": coefficients.reconcile,
    "StripPoint": lambda n: continuation.StripPoint(n, 0.1),
}


@pytest.mark.parametrize("n", [3.0, 2.5, "3"])
@pytest.mark.parametrize("name", _TAKES_N)
def test_an_n_that_is_not_an_int_is_named(name, n):
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got n = {n!r}")):
        _TAKES_N[name](n)
