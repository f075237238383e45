"""Closed-form evaluation routes.

Integrating the representation of f termwise gives

    f(x, r) = (1/r^2) [ r^2/2 - xr + (x^2 - 1/2) log(r^2 + 2xr + 1)
                        + 2xw * arctan(wr / (1 + xr)) ],   w = sqrt(1 - x^2),

and at x = 1 this collapses to f(1, r) = (log(1+r) - r + r^2/2) / r^2.
The bracket shrinks to O(r^3) while its pieces stay O(r), so small r is
catastrophically cancellative: below r = 1e-3, f_closed delegates to the
series route at every x, and f_at_one sums a short alternating series
(the margin f(1, r) - f(x, r) is cosmax.verify.margins).  The log is
log1p(r(r + 2x)) wherever D = r^2 + 2xr + 1 >= 0.5, which keeps the
absolute error near 1e-12 at r ~ 1e-3 where the naive form would lose
~1e-10 (enough to swamp the smallest scan margins); below 0.5, near
x = -1 and r = 1, it is log D with D = (r + x)^2 + (1 - x)(1 + x), free
of cancellation.  The arctangent is atan2(wr, (1 - r) + r(1 + x)), so
1 + xr is not formed from cancelling terms either.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .series import _EPS, TOL_MIN, EvalPoint, EvalResult, Tolerance, f_series

SMALL_R = 1e-3


def _check_r(r: float) -> None:
    if not (0.0 < r <= 1.0):
        raise DomainError(f"r must lie in (0, 1], got {r!r}")


def f_at_one(r: float) -> float:
    """f(1, r) = (log(1+r) - r + r^2/2) / r^2.

    Below r = 1e-3 the alternating series r/3 - r^2/4 + r^3/5 - r^4/6 +
    r^5/7 is used instead (remainder < r^6/8), since the direct form
    cancels to O(r) out of O(1) pieces.
    """
    _check_r(r)
    if r < SMALL_R:
        return r * (1.0 / 3.0 + r * (-0.25 + r * (0.2 + r * (-1.0 / 6.0 + r / 7.0))))
    return (math.log1p(r) - r + 0.5 * r * r) / (r * r)


def f_at_one_error_bound(r: float) -> float:
    """Heuristic absolute rounding budget for f_at_one; not rigorous."""
    _check_r(r)
    if r < SMALL_R:
        # truncation remainder plus a few ulps on the leading term
        return r**6 / 8.0 + 4.0 * _EPS * (r / 3.0)
    return 10.0 * _EPS * (math.log1p(r) + r + 0.5 * r * r) / (r * r)


def _closed(x: float, r: float) -> tuple[float, float]:
    """The closed form at (x, r) and its heuristic rounding budget.

    w^2 is (1-x)(1+x), since 1 - x^2 cancels near x = -1; the log and
    arctangent take the forms of the module docstring.  The budget is
    flagged non-rigorous: the scale of the bracket pieces over r^2
    measures the cancellation amplification.
    """
    w2 = (1.0 - x) * (1.0 + x)
    w = math.sqrt(w2)
    den = (r + x) ** 2 + w2
    log_den = math.log(den) if den < 0.5 else math.log1p(r * (r + 2.0 * x))
    poly = 0.5 * r * r - x * r
    log_part = (x * x - 0.5) * log_den
    atan_part = 2.0 * x * w * math.atan2(w * r, (1.0 - r) + r * (1.0 + x))
    r2 = r * r
    scale = abs(poly) + abs(log_part) + abs(atan_part)
    return (poly + log_part + atan_part) / r2, 10.0 * _EPS * scale / r2


def f_closed(p: EvalPoint) -> EvalResult:
    """Evaluate f by the explicit antiderivative.

    r < 1e-3, x = 1 included, delegates to the series route at tolerance
    1e-15 and honestly reports route "series"; otherwise x = 1 goes to
    f_at_one (w = 0 kills the arctan term).  The closed-form error_bound
    is the heuristic budget from the bracket scale; the series and
    quadrature routes report their own bounds.
    """
    if p.r < SMALL_R:
        return f_series(p, Tolerance(TOL_MIN))
    value, bound = _closed(p.x, p.r)
    if p.x == 1.0:
        value = f_at_one(p.r)
    return EvalResult(value, bound, "closed_form", 0)
