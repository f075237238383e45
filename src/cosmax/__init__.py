"""Three-route evaluation and verification of the alternating Chebyshev
cosine series f(x, r) = sum_{k>=1} (-1)^{k+1} r^k T_k(x) / (k+2).

The three routes (truncated series with a rigorous tail bound plus a
first-order rounding estimate that is not a proof, adaptive Simpson
quadrature of an integral representation, explicit closed form) are
mathematically identical; their mutual agreement, plus grid scans of
monotonicity in x and of the inequality f(1, r) > f(cos phi, r) for phi in
(0, pi), is the package's correctness evidence.
"""

from .analytic import f_at_one, f_at_one_error_bound, f_closed
from .errors import DomainError, ToleranceUnreachable, UnsupportedParameters
from .quadrature import dfdx_quad, f_quad, integrand_dfdx, integrand_f, integrate
from .series import (
    AnglePoint,
    EvalPoint,
    EvalResult,
    Tolerance,
    f_series,
    fourier_series,
    generating_lhs,
    generating_partial_sum,
)
from .verify import (
    Report,
    ScanGrid,
    Violation,
    consistency_scan,
    default_grid,
    dispatch_eval,
    identity_scan,
    inequality_scan,
    margins,
    monotonicity_scan,
)

__version__ = "0.1.0"

__all__ = [
    "AnglePoint",
    "DomainError",
    "EvalPoint",
    "EvalResult",
    "Report",
    "ScanGrid",
    "Tolerance",
    "ToleranceUnreachable",
    "UnsupportedParameters",
    "Violation",
    "consistency_scan",
    "default_grid",
    "dfdx_quad",
    "dispatch_eval",
    "f_at_one",
    "f_at_one_error_bound",
    "f_closed",
    "f_quad",
    "f_series",
    "fourier_series",
    "generating_lhs",
    "generating_partial_sum",
    "identity_scan",
    "inequality_scan",
    "integrand_dfdx",
    "integrand_f",
    "integrate",
    "margins",
    "monotonicity_scan",
    "__version__",
]
