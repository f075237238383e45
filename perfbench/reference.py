"""High-precision oracle for f(x, r) and df/dx, independent of cosmax.

Both come from the antiderivative of the integral representation
f(x, r) = (1/r^2) int_0^r t^2 (t+x) / (t^2 + 2xt + 1) dt, evaluated in
mpmath.  With D = r^2 + 2xr + 1, w = sqrt(1 - x^2) and
A = arctan(wr / (1 + xr)):

    r^2 f     = r^2/2 - xr + (x^2 - 1/2) log D + 2xw A
    r^2 df/dx = -r + 2x log D - (r + 2xr^2) / D + 2(1 - 2x^2) A / w

where A / w -> r / (1 + xr) as w -> 0 (x = 1).  Both brackets cancel
from O(r) pieces down to O(r^3), so the working precision carries two
guard digits per decade of 1/r on top of REF_DIGITS.  Nothing here calls
a cosmax route: a reference built from the code under test would share
its defects.
"""

from __future__ import annotations

import math

import mpmath

REF_DIGITS = 40


def _dps(r: float) -> int:
    return REF_DIGITS + 5 + 2 * max(0, math.ceil(-math.log10(r)))


def f_ref(x: float, r: float) -> mpmath.mpf:
    """f(x, r) to REF_DIGITS significant digits."""
    with mpmath.workdps(_dps(r)):
        x_, r_ = mpmath.mpf(x), mpmath.mpf(r)
        w = mpmath.sqrt(1 - x_ * x_)
        d = r_ * r_ + 2 * x_ * r_ + 1
        bracket = (
            r_ * r_ / 2 - x_ * r_ + (x_ * x_ - mpmath.mpf(1) / 2) * mpmath.log(d)
            + 2 * x_ * w * mpmath.atan(w * r_ / (1 + x_ * r_))
        )
        return +(bracket / (r_ * r_))


def dfdx_ref(x: float, r: float) -> mpmath.mpf:
    """df/dx at (x, r) to REF_DIGITS significant digits."""
    with mpmath.workdps(_dps(r)):
        x_, r_ = mpmath.mpf(x), mpmath.mpf(r)
        w = mpmath.sqrt(1 - x_ * x_)
        d = r_ * r_ + 2 * x_ * r_ + 1
        a_over_w = mpmath.atan(w * r_ / (1 + x_ * r_)) / w if w else r_ / (1 + x_ * r_)
        bracket = (
            -r_ + 2 * x_ * mpmath.log(d) - (r_ + 2 * x_ * r_ * r_) / d
            + 2 * (1 - 2 * x_ * x_) * a_over_w
        )
        return +(bracket / (r_ * r_))


def abs_error(value: float, ref: mpmath.mpf) -> mpmath.mpf:
    """|value - ref|, computed exactly enough to compare against a float bound."""
    with mpmath.workdps(REF_DIGITS + 10):
        return abs(mpmath.mpf(value) - ref)
