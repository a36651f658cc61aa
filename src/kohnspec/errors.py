"""Exception types, resource-cap defaults and the n-range check shared across the package.

Both errors mean "the computation was cut off", not "the answer is wrong":
callers that see them should raise a cap, loosen a tolerance, or shrink the
request.  Each cap has its one default here, which the CLI's environment
variables KOHNSPEC_{LINE,TERM,NODE}_CAP override.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_LINE_CAP", "DEFAULT_TERM_CAP", "DEFAULT_NODE_CAP",
    "ResourceCapError", "ConvergenceError", "check_n",
]

DEFAULT_LINE_CAP = 100_000_000  # spectral lines (enumerate_modes) or blocks (count)
DEFAULT_TERM_CAP = 10_000_000  # series terms and heat-trace term evaluations
DEFAULT_NODE_CAP = 200_000  # quadrature nodes per integral


class ResourceCapError(RuntimeError):
    """A computation would exceed a configured resource cap (lines, terms, nodes)."""


class ConvergenceError(RuntimeError):
    """An iterative approximation failed to reach its tolerance within its budget."""


def check_n(n: int) -> None:
    """Raise ValueError unless n >= 2, the range every route supports."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
