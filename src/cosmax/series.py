"""Truncated summation of f(x, r) = sum_{k>=1} (-1)^{k+1} r^k T_k(x) / (k+2).

Since |T_k(x)| <= 1 on [-1, 1], the tail after N terms obeys

    |R_N| <= sum_{k>N} r^k / (k+2) <= r^{N+1} / ((N+3)(1-r)).

error_bound adds eps * (sum of |partial sums| + 4N|total|), a first-order
rounding estimate, not a proof (Higham, 2002, ch. 3).  The tail bound
diverges as r -> 1, so the series route refuses r above 1 - 1e-9; r = 1
is served by quadrature and the closed form.  The same rules drive the
cosine-side sum S(phi, r) = sum (-1)^{k+1} r^k cos(k phi) / (k+2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ToleranceUnreachable, UnsupportedParameters

TOL_MIN = 1e-15  # below double-precision resolution the bound would be fictitious
TOL_MAX = 1e-2
SERIES_R_MAX = 1.0 - 1e-9
N_CAP = 10**7
_EPS = 2.220446049250313e-16  # 2**-52

ROUTES = ("series", "quadrature", "closed_form")


@dataclass(frozen=True)
class Tolerance:
    """Requested absolute accuracy.

    Any positive finite value is accepted; evaluation routes clip it into
    [TOL_MIN, TOL_MAX] via effective().
    """

    abs: float = 1e-12

    def __post_init__(self) -> None:
        if not (isinstance(self.abs, (int, float)) and not isinstance(self.abs, bool)):
            raise DomainError(f"tolerance must be a number, got {self.abs!r}")
        if not (0.0 < self.abs and math.isfinite(self.abs)):
            raise DomainError(f"tolerance must be finite and > 0, got {self.abs!r}")

    def effective(self) -> float:
        return min(max(self.abs, TOL_MIN), TOL_MAX)


@dataclass(frozen=True)
class EvalPoint:
    """A validated (x, r) pair with x in (-1, 1] and r in (0, 1].

    x = -1 is excluded at every r: it is the one spot where the shared
    denominator t^2 + 2xt + 1 = (t+x)^2 + 1 - x^2 can vanish, and the
    angle domain phi in [0, pi) never reaches it.
    """

    x: float
    r: float

    def __post_init__(self) -> None:
        if not (-1.0 < self.x <= 1.0):
            raise DomainError(f"x must lie in (-1, 1], got {self.x!r}")
        if not (0.0 < self.r <= 1.0):
            raise DomainError(f"r must lie in (0, 1], got {self.r!r}")


@dataclass(frozen=True)
class AnglePoint:
    """A validated (phi, r) pair with phi in [0, pi) radians, r in (0, 1]."""

    phi: float
    r: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.phi < math.pi):
            raise DomainError(f"phi must lie in [0, pi), got {self.phi!r}")
        if not (0.0 < self.r <= 1.0):
            raise DomainError(f"r must lie in (0, 1], got {self.r!r}")


@dataclass(frozen=True)
class EvalResult:
    """Evaluation outcome: value, reported error bound, route tag, work count.

    Series: rigorous tail bound plus a first-order rounding estimate (not
    a proof); quadrature: summed Simpson difference |S2 - S1| of the
    accepted panels (an estimate, not a proof); closed form: heuristic
    rounding budget.  work counts terms summed or panels used.
    """

    value: float
    error_bound: float
    route: str
    work: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise DomainError(f"value must be finite, got {self.value!r}")
        if not (math.isfinite(self.error_bound) and self.error_bound >= 0.0):
            raise DomainError(f"error_bound must be finite and >= 0, got {self.error_bound!r}")
        if self.route not in ROUTES:
            raise DomainError(f"route must be one of {ROUTES}, got {self.route!r}")
        if not (isinstance(self.work, int) and not isinstance(self.work, bool) and self.work >= 0):
            raise DomainError(f"work must be a nonnegative integer, got {self.work!r}")


def _terms_needed(r: float, tol: Tolerance) -> int:
    """Smallest N in [0, N_CAP] with r^{N+1}/((N+3)(1-r)) <= tol.effective().

    The tail bound is compared in log space at N = 0, 1, 3, 7, ... (capped
    at N_CAP), then bisected between the last miss and the first fit.
    Raises UnsupportedParameters for r > SERIES_R_MAX, where the bound
    diverges, and ToleranceUnreachable if N_CAP terms do not fit.
    """
    if r > SERIES_R_MAX:
        raise UnsupportedParameters(
            f"series route requires r <= {SERIES_R_MAX!r} (tail bound diverges at r = 1), "
            f"got r = {r!r}"
        )
    tol_abs = tol.effective()
    log_r = math.log(r)
    log_1mr = math.log1p(-r)
    log_tol = math.log(tol_abs)

    def fits(n: int) -> bool:
        return (n + 1) * log_r - math.log(n + 3) - log_1mr <= log_tol

    lo, hi = -1, 0  # after the doubling: bound(lo) > tol >= bound(hi), lo = -1 if hi = 0
    while not fits(hi):
        if hi == N_CAP:
            raise ToleranceUnreachable(
                f"series would need more than {N_CAP} terms for tol {tol_abs:g} at r = {r:g}"
            )
        lo, hi = hi, min(2 * hi + 1, N_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def _bound(r: float, n: int, total: float, partials: float) -> float:
    return r ** (n + 1) / ((n + 3) * (1.0 - r)) + _EPS * (partials + 4 * n * abs(total))


def f_series(p: EvalPoint, tol: Tolerance = Tolerance()) -> EvalResult:
    """Sum the series at (x, r) to the certified tail bound.

    Ascending k with T_k updated by the three-term recurrence and
    (-1)^{k+1} r^k by a running product (negation is exact, so the sign
    costs no rounding).  error_bound adds the rounding estimate (not a
    proof) to the tail bound at the chosen N; raises UnsupportedParameters
    for r > 1 - 1e-9 and ToleranceUnreachable if N would exceed 10^7.
    """
    n = _terms_needed(p.r, tol)
    x, r = p.x, p.r
    total = partials = 0.0
    prev, cur = 1.0, x  # T_0, T_1
    rk = r
    for k in range(1, n + 1):
        total += rk * cur / (k + 2)
        partials += abs(total)
        prev, cur = cur, 2.0 * x * cur - prev
        rk *= -r
    return EvalResult(total, _bound(r, n, total, partials), "series", n)


def fourier_series(a: AnglePoint, tol: Tolerance = Tolerance()) -> EvalResult:
    """Sum the cosine form at (phi, r); same truncation rule as f_series.

    Equals f_series at x = cos(phi) within the two error bounds combined,
    since T_k(cos phi) = cos(k phi).
    """
    n = _terms_needed(a.r, tol)
    total = partials = 0.0
    rk = a.r
    for k in range(1, n + 1):
        total += rk * math.cos(k * a.phi) / (k + 2)
        partials += abs(total)
        rk *= -a.r
    return EvalResult(total, _bound(a.r, n, total, partials), "series", n)


def generating_lhs(p: EvalPoint) -> float:
    """Closed form r(r+x)/(r^2 + 2xr + 1) of sum_{k>=1} (-1)^{k+1} T_k(x) r^k."""
    return p.r * (p.r + p.x) / (p.r * p.r + 2.0 * p.x * p.r + 1.0)


def generating_partial_sum(p: EvalPoint, n: int) -> float:
    """Partial sum sum_{k=1}^{n} (-1)^{k+1} T_k(x) r^k.

    Residual against generating_lhs is at most r^{n+1}/(1-r) for r < 1.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < 0 or n > N_CAP:
        raise DomainError(f"n must lie in [0, {N_CAP}], got {n}")
    x, r = p.x, p.r
    total = 0.0
    prev, cur = 1.0, x
    rk = r
    for _ in range(n):
        total += rk * cur
        prev, cur = cur, 2.0 * x * cur - prev
        rk *= -r
    return total
