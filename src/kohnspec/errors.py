"""Exception types, resource-cap defaults and the supported range of n, shared across the package.

Both errors mean "the computation was cut off", not "the answer is wrong":
callers that see them should raise a cap or shrink the request.  Each cap
bounds one kind of work whose size the input does not fix, and has its one
default here; the CLI's environment variables KOHNSPEC_{LINE,TERM,NODE}_CAP
override them.  No tolerance is settable: each route fixes its own.  MAX_N
holds every fixed largest n, and check_n enforces it; count_text prints a
count in a cap message.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_LINE_CAP", "DEFAULT_TERM_CAP", "DEFAULT_NODE_CAP",
    "MAX_N", "ResourceCapError", "ConvergenceError", "check_n", "count_text",
]

DEFAULT_LINE_CAP = 100_000_000  # spectral lines (enumerate_modes) or blocks (count)
DEFAULT_TERM_CAP = 10_000_000  # terms of the direct heat double sum (trace_direct)
DEFAULT_NODE_CAP = 200_000  # quadrature nodes per integral, tail integrals included

# The largest n each route answers within its bound, with the reason it stops
# there.  Every route takes n >= 2; one not named here has no fixed largest n.
MAX_N: dict[str, tuple[int, str]] = {
    "series-zeta": (145, "from n = 146 its error bound is a subnormal float"),
    "series-direct": (144, "from n = 145 its error bound is a subnormal float"),
    "integral": (145, "from n = 146 its error bound is a subnormal float"),
    "integral-intermediate": (145, "from n = 146 its error bound is a subnormal float"),
    "continuation": (82, "from n = 83 the pole term near re q = n - 1 is a subnormal float"),
    "heat": (748, "from n = 749 no t keeps both t^n G(t) and (1 - e^(-2t))^n above the smallest normal float"),
}


class ResourceCapError(RuntimeError):
    """A computation would exceed a configured resource cap (lines, terms, nodes)."""


class ConvergenceError(RuntimeError):
    """An iterative approximation failed to reach its tolerance within its budget."""


def check_n(n: int, route: str | None = None) -> None:
    """Raise ValueError unless n is an int >= 2 and, for a route named in MAX_N, n <= its entry."""
    if not isinstance(n, int):
        raise ValueError(f"n must be an integer, got n = {n!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if route is not None and n > MAX_N[route][0]:
        largest, reason = MAX_N[route]
        raise ValueError(f"{route} supports n <= {largest}, got n = {n}: {reason}")


def count_text(k: int) -> str:
    """k in digits, or as "about" its 3 leading digits above 1e15, for messages."""
    return str(k) if k <= 10**15 else f"about {float(k):.3g}"
