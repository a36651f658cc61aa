"""Spectral asymptotics of the Kohn Laplacian on odd spheres.

The package enumerates the positive spectrum of the Kohn Laplacian acting
on functions on S^(2n-1), evaluates the associated heat-trace sums, and
computes the leading coefficient of the eigenvalue counting function by
four independent routes (an exact zeta-value form, a truncated series,
and two integral representations), plus an analytic continuation of the
coefficient in the form degree with its explicit pole term.
"""

from __future__ import annotations

from .coefficients import (
    METHODS,
    CoefficientEstimate,
    ReconcileReport,
    ZetaCombination,
    integral_coefficient,
    integral_intermediate,
    reconcile,
    series_direct,
    series_zeta,
)
from .combinatorics import binom, dim_hpq
from .continuation import (
    NEAR_POLE_RADIUS,
    StripPoint,
    continuation_residual,
    continued_coefficient,
    pole_term,
    stanton_coefficient,
)
from .errors import ConvergenceError, ResourceCapError
from .heat_trace import (
    HeatTraceSample,
    scaled_trace,
    trace_direct,
    trace_split_q,
    trace_split_w,
)
from .special_functions import (
    PiMultiple,
    QuadratureResult,
    bernoulli,
    integrate_decaying,
    log_gamma,
    zeta_even,
)
from .spectrum import (
    SpectralLine,
    count,
    counting_ratio,
    eigenvalue,
    enumerate_modes,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConvergenceError",
    "ResourceCapError",
    "binom",
    "dim_hpq",
    "PiMultiple",
    "bernoulli",
    "zeta_even",
    "log_gamma",
    "QuadratureResult",
    "integrate_decaying",
    "SpectralLine",
    "eigenvalue",
    "enumerate_modes",
    "count",
    "counting_ratio",
    "HeatTraceSample",
    "trace_split_q",
    "trace_split_w",
    "trace_direct",
    "scaled_trace",
    "METHODS",
    "ZetaCombination",
    "CoefficientEstimate",
    "ReconcileReport",
    "series_zeta",
    "series_direct",
    "integral_coefficient",
    "integral_intermediate",
    "reconcile",
    "NEAR_POLE_RADIUS",
    "StripPoint",
    "stanton_coefficient",
    "continued_coefficient",
    "pole_term",
    "continuation_residual",
]
