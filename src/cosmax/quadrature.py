"""Adaptive Simpson evaluation of the integral representation.

f(x, r) = (1/r^2) * int_0^r t^2 (t+x) / (t^2 + 2xt + 1) dt, valid for
x in (-1, 1] including r = 1, and

df/dx (x, r) = (1/r^2) * int_0^r t^2 (1-t^2) / (t^2 + 2xt + 1)^2 dt,

whose integrand is strictly positive on t in (0, 1).  The shared
denominator equals (t+x)^2 + 1 - x^2 and stays positive away from
(t, x) = (1, -1).
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError, ToleranceUnreachable, UnsupportedParameters
from .series import EvalPoint, EvalResult, Tolerance

MAX_DEPTH = 60
MAX_PANELS = 10**6


def _check_tx(t: float, x: float) -> None:
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t!r}")
    if not (-1.0 < x <= 1.0):
        raise DomainError(f"x must lie in (-1, 1], got {x!r}")


def _denominator(t: float, x: float) -> float:
    # t^2 + 2xt + 1 rewritten as (t+x)^2 + (1-x)(1+x): a sum of nonnegative
    # terms, so there is no cancellation near t = -x where the expanded
    # quadratic loses ~3 digits and the evaluation noise (amplified by the
    # ~1/(1-x^2) peak) would stall the adaptive bisection
    u = t + x
    return u * u + (1.0 - x) * (1.0 + x)


def integrand_f(t: float, x: float) -> float:
    """t^2 (t+x) / (t^2 + 2xt + 1)."""
    _check_tx(t, x)
    return t * t * (t + x) / _denominator(t, x)


def integrand_dfdx(t: float, x: float) -> float:
    """t^2 (1-t^2) / (t^2 + 2xt + 1)^2; nonnegative, positive on t in (0, 1)."""
    _check_tx(t, x)
    den = _denominator(t, x)
    return t * t * (1.0 - t * t) / (den * den)


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h * (fa + 4.0 * fm + fb) / 6.0


def integrate(g: Callable[[float], float], a: float, b: float, tol: Tolerance) -> EvalResult:
    """Adaptive Simpson quadrature of g over [a, b].

    Bisects until the coarse/fine Simpson difference satisfies
    |S2 - S1| <= local tol (tol halves per split), then returns the
    Richardson-extrapolated panel sum as an EvalResult routed
    "quadrature", with work the number of accepted panels; its
    error_bound is the summed |S2 - S1| of those panels, so it is at
    most tol.  tol.abs is used as given, not clipped by effective():
    _quad passes a target already scaled by r^2, which may lie below
    TOL_MIN.
    The estimate tracks the rule's truncation error only: summing the
    panel tree in doubles adds rounding of order |integral| * eps *
    depth, which matters only when that floor exceeds tol (large
    integrands at tolerances near 1e-12).  Deterministic for fixed
    inputs.  Raises ToleranceUnreachable past depth 60 or 10^6 panels.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    if a > b:
        raise DomainError(f"integration bounds must satisfy a <= b, got a = {a!r}, b = {b!r}")
    if a == b:
        return EvalResult(0.0, 0.0, "quadrature", 1)

    def ev(t: float) -> float:
        v = g(t)
        if not math.isfinite(v):
            raise DomainError(f"integrand returned a non-finite value at t = {t!r}")
        return v

    panels = 0

    def split(
        lo: float, hi: float, flo: float, fmid: float, fhi: float,
        whole: float, tol_local: float, depth: int,
    ) -> tuple[float, float]:
        nonlocal panels
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = ev(lm)
        frm = ev(rm)
        left = _simpson(flo, flm, fmid, mid - lo)
        right = _simpson(fmid, frm, fhi, hi - mid)
        delta = (left + right) - whole
        # report |delta|, not the asymptotic |delta|/15: in the h^4 regime
        # |delta| is about 15x S2's error, which the extrapolated value
        # improves on.  It is an estimate, not a proof (a few wide panels
        # can exceed it); each |delta| is within its halved share of tol,
        # so the sum is at most tol
        if abs(delta) <= tol_local:
            panels += 1
            if panels > MAX_PANELS:
                raise ToleranceUnreachable(
                    f"quadrature exceeded {MAX_PANELS} panels before reaching the tolerance"
                )
            return (left + right) + delta / 15.0, abs(delta)
        if depth >= MAX_DEPTH:
            raise ToleranceUnreachable(
                f"quadrature exceeded recursion depth {MAX_DEPTH} before reaching the tolerance"
            )
        lv, le = split(lo, mid, flo, flm, fmid, left, 0.5 * tol_local, depth + 1)
        rv, re = split(mid, hi, fmid, frm, fhi, right, 0.5 * tol_local, depth + 1)
        return lv + rv, le + re

    fa = ev(a)
    fb = ev(b)
    mid0 = 0.5 * (a + b)
    fm = ev(mid0)
    whole = _simpson(fa, fm, fb, b - a)
    value, err = split(a, b, fa, fm, fb, whole, tol.abs, 0)
    return EvalResult(value, err, "quadrature", panels)


def _scaled_tol(tol: Tolerance, r2: float) -> Tolerance:
    if r2 == 0.0:
        # the 1/r^2 rescaling is meaningless once r^2 underflows
        raise UnsupportedParameters("r is too small for the quadrature route (r^2 underflows)")
    # keep the target positive even when the r^2 scaling underflows the product
    return Tolerance(max(tol.effective() * r2, 5e-324))


def _quad(integrand: Callable[[float, float], float], p: EvalPoint, tol: Tolerance) -> EvalResult:
    # the integrate() target is pre-scaled by r^2 so the rescaled value
    # meets the user tolerance after the 1/r^2 division
    r2 = p.r * p.r
    q = integrate(lambda t: integrand(t, p.x), 0.0, p.r, _scaled_tol(tol, r2))
    return EvalResult(q.value / r2, q.error_bound / r2, "quadrature", q.work)


def f_quad(p: EvalPoint, tol: Tolerance = Tolerance()) -> EvalResult:
    """Evaluate f through the integral representation."""
    return _quad(integrand_f, p, tol)


def dfdx_quad(p: EvalPoint, tol: Tolerance = Tolerance()) -> EvalResult:
    """Evaluate df/dx through its integral representation; value > 0."""
    return _quad(integrand_dfdx, p, tol)
