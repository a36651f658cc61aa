"""Exception types, resource-cap defaults and the supported range of n, shared across the package.

Both errors mean "the computation was cut off", not "the answer is wrong":
callers that see them should raise a cap, loosen a tolerance, or shrink the
request.  Each cap has its one default here, which the CLI's environment
variables KOHNSPEC_{LINE,TERM,NODE}_CAP override.  MAX_N holds every fixed
largest n, and check_n enforces it; check_tol is the one tolerance check,
and count_text prints a count in a cap message.
"""

from __future__ import annotations

import math

__all__ = [
    "DEFAULT_LINE_CAP", "DEFAULT_TERM_CAP", "DEFAULT_NODE_CAP",
    "MAX_N", "ResourceCapError", "ConvergenceError", "check_n", "check_tol", "count_text",
]

DEFAULT_LINE_CAP = 100_000_000  # spectral lines (enumerate_modes) or blocks (count)
DEFAULT_TERM_CAP = 10_000_000  # series terms and heat-trace term evaluations
DEFAULT_NODE_CAP = 200_000  # quadrature nodes per integral

# The largest n each route answers within its bound, with the reason it stops
# there.  Every route takes n >= 2; one not named here has no fixed largest n.
MAX_N: dict[str, tuple[int, str]] = {
    "series-zeta": (145, "from n = 146 its error bound is a subnormal float"),
    "series-direct": (144, "from n = 145 its error bound is a subnormal float"),
    "integral": (105, "beyond it the node count grows erratically toward the node cap"),
    "integral-intermediate": (121, "beyond it the node count grows erratically toward the node cap"),
    "continuation": (82, "from n = 83 the pole term near re q = n - 1 is a subnormal float"),
}


class ResourceCapError(RuntimeError):
    """A computation would exceed a configured resource cap (lines, terms, nodes)."""


class ConvergenceError(RuntimeError):
    """An iterative approximation failed to reach its tolerance within its budget."""


def check_n(n: int, route: str | None = None) -> None:
    """Raise ValueError unless n >= 2 and, for a route named in MAX_N, n <= its entry."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if route is not None and n > MAX_N[route][0]:
        largest, reason = MAX_N[route]
        raise ValueError(f"{route} supports n <= {largest}, got n = {n}: {reason}")


def check_tol(tol: float, name: str = "tol", *, zero_ok: bool = False) -> None:
    """Raise ValueError unless tol is finite and positive (or zero, with zero_ok)."""
    if not (math.isfinite(tol) and (tol >= 0.0 if zero_ok else tol > 0.0)):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {tol}")


def count_text(k: int) -> str:
    """k in digits, or as "about" its 3 leading digits above 1e15, for messages."""
    return str(k) if k <= 10**15 else f"about {float(k):.3g}"
