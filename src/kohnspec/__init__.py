"""Spectral asymptotics of the Kohn Laplacian on odd spheres.

The package enumerates the positive spectrum of the Kohn Laplacian acting
on functions on S^(2n-1), evaluates the associated heat-trace sums, and
computes the leading coefficient of the eigenvalue counting function by
four independent routes (an exact zeta-value form, a truncated series,
and two integral representations), plus an analytic continuation of the
coefficient in the form degree with its explicit pole term.

The API lives in the submodules, each of which states its names in its own
__all__: spectrum, heat_trace, coefficients, continuation,
special_functions, combinatorics and errors.  Import from them, for example
`from kohnspec.spectrum import count`; the package itself exports only
__version__.  `import kohnspec` loads all seven, so each is reachable as an
attribute (kohnspec.heat_trace and so on).
"""

from . import coefficients, combinatorics, continuation, errors, heat_trace, special_functions, spectrum

__version__ = "0.1.0"

__all__ = ["__version__"]
