"""Cross-route consistency engine and grid scanners.

Four scanners, each returning a Report:

- consistency_scan: every admissible route pair must agree within the sum
  of its two reported bounds.
- monotonicity_scan: forward differences of f in x, between points at
  least MIN_DIFF_SPACING apart, must be positive, and the derivative
  route must be positive at every grid point.
- inequality_scan: f(1, r) - f(cos phi, r) must exceed the combined
  evaluation error bounds, so a pass is meaningful in floating point.
  The margins come from margins(), which the CLI's margin table and
  scripts/margin_profile.py use too.
- identity_scan: partial sums of sum (-1)^{k+1} T_k(x) r^k must approach
  their closed form within r^{N+1}/(1-r), and the generating function at
  z = -r must equal 1 minus that closed form.

Every check goes through one accumulator (_Tally.check), which takes the
check's allowance as part of its bound and never carries it from one
check to the next.  A check is either observed <= bound, with margin
bound - observed (consistency, identity), or observed > bound, with the
raw observed value as margin (forward differences, inequality).

Every grid is walked by one generator (_walk), so every scan, margins()
and the CLI's f and dfdx tables run var-major then r by construction,
and every route or domain error they raise names its grid point.  _walk
yields each point itself, so no callback can report a wrong point.
min_margin ties break to first occurrence, so reports are deterministic
for identical inputs.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from .analytic import f_at_one, f_at_one_error_bound, f_closed
from .errors import DomainError, ToleranceUnreachable, UnsupportedParameters
from .quadrature import dfdx_quad, f_quad
from .series import (
    SERIES_R_MAX,
    EvalPoint,
    EvalResult,
    Tolerance,
    f_series,
    generating_lhs,
    generating_partial_sum,
)

DEFAULT_INSET = 1e-3
MIN_DIFF_SPACING = 1e-2
IDENTITY_PARTIAL_ORDERS = (5, 20, 80)

SCAN_KINDS = ("consistency", "monotonicity", "inequality", "identity")

_T = TypeVar("_T")


@dataclass(frozen=True)
class ScanGrid:
    """Uniform (var, r) grid kept strictly inside the open parts of the domain.

    var_kind "x_grid" requires var values in [-1+inset, 1]; "phi_grid"
    requires [inset, pi-inset]; r always lies in [inset, 1].
    """

    var_kind: str
    var_min: float
    var_max: float
    var_count: int
    r_min: float
    r_max: float
    r_count: int
    inset: float = DEFAULT_INSET

    def __post_init__(self) -> None:
        if self.var_kind not in ("x_grid", "phi_grid"):
            raise DomainError(f"var_kind must be x_grid or phi_grid, got {self.var_kind!r}")
        for name in ("var_min", "var_max", "r_min", "r_max", "inset"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)):
                raise DomainError(f"{name} must be a finite number, got {v!r}")
        for name in ("var_count", "r_count"):
            v = getattr(self, name)
            if not (isinstance(v, int) and not isinstance(v, bool) and v >= 1):
                raise DomainError(f"{name} must be a positive integer, got {v!r}")
        if not (0.0 < self.inset < 1.0):
            raise DomainError(f"inset must lie in (0, 1), got {self.inset!r}")
        if self.var_min > self.var_max:
            raise DomainError(f"var_min {self.var_min!r} exceeds var_max {self.var_max!r}")
        if self.r_min > self.r_max:
            raise DomainError(f"r_min {self.r_min!r} exceeds r_max {self.r_max!r}")
        if self.var_count == 1 and self.var_min != self.var_max:
            raise DomainError(
                f"var_count 1 needs var_min == var_max, got [{self.var_min!r}, {self.var_max!r}]"
            )
        if self.r_count == 1 and self.r_min != self.r_max:
            raise DomainError(
                f"r_count 1 needs r_min == r_max, got [{self.r_min!r}, {self.r_max!r}]"
            )
        if self.var_kind == "x_grid":
            if self.var_min < -1.0 + self.inset or self.var_min <= -1.0 or self.var_max > 1.0:
                raise DomainError(
                    f"x grid must lie in [{-1.0 + self.inset!r}, 1] above -1, "
                    f"got [{self.var_min!r}, {self.var_max!r}]"
                )
        else:
            if self.var_min < self.inset or self.var_max > math.pi - self.inset:
                raise DomainError(
                    f"phi grid must lie in [{self.inset!r}, {math.pi - self.inset!r}] "
                    f"(phi grid must be positive), got [{self.var_min!r}, {self.var_max!r}]"
                )
        if self.r_min < self.inset or self.r_max > 1.0:
            raise DomainError(
                f"r grid must lie in [{self.inset!r}, 1], got [{self.r_min!r}, {self.r_max!r}]"
            )

    def var_values(self) -> list[float]:
        return _linspace(self.var_min, self.var_max, self.var_count)

    def r_values(self) -> list[float]:
        return _linspace(self.r_min, self.r_max, self.r_count)


def _linspace(a: float, b: float, n: int) -> list[float]:
    if n == 1:
        return [a]
    step = (b - a) / (n - 1)
    vals = [a + i * step for i in range(n)]
    vals[-1] = b  # exact endpoint regardless of rounding
    return vals


@dataclass(frozen=True)
class Violation:
    """One failed check: grid point, the observed quantity, the bound it broke."""

    var: float
    r: float
    observed: float
    bound: float


@dataclass(frozen=True)
class Report:
    """Scan outcome.

    min_margin is the smallest margin observed anywhere (negative margins
    mean violations); worst_point is where it occurred, first occurrence
    winning ties.  elapsed is wall-clock seconds and is excluded from
    machine-readable serializations so identical inputs serialize to
    identical bytes.
    """

    kind: str
    points_checked: int
    violations: tuple[Violation, ...]
    min_margin: float
    worst_point: tuple[float, float]
    elapsed: float

    def __post_init__(self) -> None:
        if self.kind not in SCAN_KINDS:
            raise DomainError(f"kind must be one of {SCAN_KINDS}, got {self.kind!r}")

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        """Serializable form (elapsed deliberately omitted)."""
        return {
            "kind": self.kind,
            "points_checked": self.points_checked,
            "violations": [
                {"point": [v.var, v.r], "observed": v.observed, "bound": v.bound}
                for v in self.violations
            ],
            "min_margin": self.min_margin,
            "worst_point": [self.worst_point[0], self.worst_point[1]],
            "pass": self.passed,
        }


def _default_fields(kind: str, inset: float) -> tuple:
    """ScanGrid's fields, in order, for kind's default grid; not validated."""
    if kind == "consistency":
        return "x_grid", -1.0 + inset, 1.0, 40, max(0.01, inset), 1.0, 20, inset
    if kind == "monotonicity":
        return "x_grid", max(-0.99, -1.0 + inset), 1.0, 30, max(0.05, inset), 1.0, 10, inset
    if kind == "inequality":
        return "phi_grid", inset, math.pi - inset, 100, inset, 1.0, 100, inset
    if kind == "identity":
        return "x_grid", -0.9, 1.0, 15, 0.05, 0.95, 10, inset
    raise DomainError(f"unknown scan kind {kind!r}")


def default_grid(kind: str, inset: float = DEFAULT_INSET) -> ScanGrid:
    """Default grid for each scan kind, with ranges tracking the inset."""
    return ScanGrid(*_default_fields(kind, inset))


def dispatch_eval(p: EvalPoint, tol: Tolerance = Tolerance()) -> EvalResult:
    """f_closed (which takes the series route itself at small r), with
    quadrature at tol as the fallback when it refuses the point or gives
    up on the tolerance."""
    try:
        return f_closed(p)
    except (DomainError, UnsupportedParameters, ToleranceUnreachable):
        return f_quad(p, tol)


def _located(err: Exception, var: float, r: float) -> Exception:
    return type(err)(f"{err} [at grid point var = {var!r}, r = {r!r}]")


def _walk(g: ScanGrid, fn: Callable[[EvalPoint], _T]) -> Iterator[tuple[float, float, _T]]:
    """Walk g var-major and yield (var, r, fn(EvalPoint(x, r))), where x is
    var on an x grid and cos(var) on a phi grid.  A route or domain error
    is re-raised with the grid point it occurred at."""
    rs = g.r_values()
    on_phi = g.var_kind == "phi_grid"
    for var in g.var_values():
        x = math.cos(var) if on_phi else var
        for r in rs:
            try:
                out = fn(EvalPoint(x, r))
            except (DomainError, UnsupportedParameters, ToleranceUnreachable) as err:
                raise _located(err, var, r) from err
            yield var, r, out


def _require_kind(g: ScanGrid, kind: str, op: str) -> None:
    if g.var_kind != kind:
        raise DomainError(f"{op} requires var_kind = {kind!r}, got {g.var_kind!r}")


class _Tally:
    """One scan's bookkeeping: points, violations, min_margin and the first
    point where it occurred.  Every check of every scanner goes through
    check(), with its allowance folded into the bound it is handed."""

    def __init__(self, kind: str, g: ScanGrid) -> None:
        self.kind = kind
        self.t0 = time.perf_counter()
        self.points = 0
        self.violations: list[Violation] = []
        self.min_margin = math.inf
        self.worst = (g.var_min, g.r_min)

    def check(
        self, var: float, r: float, observed: float, bound: float,
        above: bool = False, tracked: bool = True,
    ) -> None:
        """Record one check at (var, r).

        By default the check is observed <= bound, with margin
        bound - observed.  With above it is observed > bound, with the raw
        observed value as margin.  An untracked check leaves min_margin alone.
        """
        if above:
            margin, failed = observed, observed <= bound
        else:
            margin, failed = bound - observed, observed > bound
        if tracked and margin < self.min_margin:
            self.min_margin = margin
            self.worst = (var, r)
        if failed:
            self.violations.append(Violation(var, r, observed, bound))

    def report(self) -> Report:
        return Report(
            self.kind, self.points, tuple(self.violations), self.min_margin, self.worst,
            time.perf_counter() - self.t0,
        )


def margins(
    g: ScanGrid, tol: Tolerance, eval_fn: Callable[[EvalPoint, Tolerance], EvalResult],
) -> Iterator[tuple[float, float, float, float, EvalResult]]:
    """Walk a phi grid phi-major and yield (phi, r, margin, bound, result).

    margin is f(1, r) - f(cos phi, r), bound the combined error bound of
    its two sides, and result what eval_fn gave for f(cos phi, r).  f(1, r)
    and its bound are computed once per r column.  A route or domain error
    is re-raised with the grid point it occurred at.
    """
    _require_kind(g, "phi_grid", "margins")
    column = {r: (f_at_one(r), f_at_one_error_bound(r)) for r in g.r_values()}

    # a generator of its own, so a wrong grid kind is refused at the call
    def rows() -> Iterator[tuple[float, float, float, float, EvalResult]]:
        for phi, r, res in _walk(g, lambda p: eval_fn(p, tol)):
            f1, b1 = column[r]
            yield phi, r, f1 - res.value, res.error_bound + b1, res

    return rows()


def consistency_scan(
    g: ScanGrid,
    tol: Tolerance = Tolerance(1e-10),
    *,
    series_eval: Callable[[EvalPoint, Tolerance], EvalResult] = f_series,
    quad_eval: Callable[[EvalPoint, Tolerance], EvalResult] = f_quad,
    closed_eval: Callable[[EvalPoint], EvalResult] = f_closed,
) -> Report:
    """Compare every admissible route pair at each grid point.

    A pair violates if |v_i - v_j| > bound_i + bound_j.  The series
    route is skipped where it refuses r (above 1 - 1e-9).  The eval
    keyword hooks exist for mutation-sensitivity fixtures.
    """
    _require_kind(g, "x_grid", "consistency_scan")
    tally = _Tally("consistency", g)

    def routes(p: EvalPoint) -> list[EvalResult]:
        series = [series_eval(p, tol)] if p.r <= SERIES_R_MAX else []
        return [*series, quad_eval(p, tol), closed_eval(p)]

    for x, r, results in _walk(g, routes):
        tally.points += 1
        for a, b in itertools.combinations(results, 2):
            tally.check(x, r, abs(a.value - b.value), a.error_bound + b.error_bound)
    return tally.report()


def monotonicity_scan(
    g: ScanGrid,
    tol: Tolerance = Tolerance(1e-10),
    *,
    eval_fn: Callable[[EvalPoint, Tolerance], EvalResult] = dispatch_eval,
    dfdx_fn: Callable[[EvalPoint, Tolerance], EvalResult] = dfdx_quad,
) -> Report:
    """Check that f increases in x.

    For each r, each x is paired with the first grid x at least
    MIN_DIFF_SPACING (1e-2) further on, so fine grids keep their checks;
    the forward difference of each pair must exceed the two evaluation
    bounds combined.  The derivative route must be positive beyond its own
    bound at every grid point.  min_margin is the smallest forward
    difference found, inf when the x range is shorter than the spacing.
    """
    _require_kind(g, "x_grid", "monotonicity_scan")
    if g.var_count < 3:
        raise DomainError(f"monotonicity_scan requires var_count >= 3, got {g.var_count}")
    tally = _Tally("monotonicity", g)
    xs = g.var_values()
    # var-major: the value at (xs[k], r of entry n) is table[k * r_count + n % r_count]
    table = list(_walk(g, lambda p: eval_fn(p, tol)))
    k = 0
    for n, (x, r, lo) in enumerate(table):
        while k < len(xs) and xs[k] - x < MIN_DIFF_SPACING:
            k += 1
        if k == len(xs):
            break
        hi = table[k * g.r_count + n % g.r_count][2]
        tally.check(x, r, hi.value - lo.value, lo.error_bound + hi.error_bound, above=True)
    for x, r, d in _walk(g, lambda p: dfdx_fn(p, tol)):
        tally.points += 1
        tally.check(x, r, d.value, d.error_bound, above=True, tracked=False)
    return tally.report()


def inequality_scan(
    g: ScanGrid,
    tol: Tolerance = Tolerance(1e-10),
    *,
    eval_fn: Callable[[EvalPoint, Tolerance], EvalResult] = dispatch_eval,
) -> Report:
    """Check f(1, r) - f(cos phi, r) > 0 across the phi grid.

    The margin must exceed the combined evaluation error bounds of the
    two sides, so a pass is meaningful in floating point.  min_margin is
    the smallest raw margin; it is expected near the small-phi edge.
    """
    tally = _Tally("inequality", g)
    for phi, r, m, bound, _ in margins(g, tol, eval_fn):
        tally.points += 1
        tally.check(phi, r, m, bound, above=True)
    return tally.report()


def identity_scan(
    tol: Tolerance = Tolerance(1e-10),
    *,
    lhs_fn: Callable[[EvalPoint], float] = generating_lhs,
) -> Report:
    """Verify the generating-function identities on a fixed 15x10 grid.

    (i) partial sums of sum (-1)^{k+1} T_k(x) r^k for N in {5, 20, 80}
    must sit within r^{N+1}/(1-r) of the closed form; (ii) the generating
    function (1-xz)/(1-2xz+z^2) at z = -r must equal 1 minus that closed
    form, which is the constant-term rearrangement the series route rests
    on.  The x grid is [-0.9, 1] (15 points), r is [0.05, 0.95] (10).
    """
    g = default_grid("identity")
    tally = _Tally("identity", g)
    algebra_tol = max(tol.effective(), 1e-13)

    def sums(p: EvalPoint) -> tuple[float, list[float]]:
        return lhs_fn(p), [generating_partial_sum(p, n) for n in IDENTITY_PARTIAL_ORDERS]

    for x, r, (lhs, partials) in _walk(g, sums):
        tally.points += 1
        for n, partial in zip(IDENTITY_PARTIAL_ORDERS, partials):
            tally.check(x, r, abs(lhs - partial), r ** (n + 1) / (1.0 - r) + 1e-12)
        z = -r
        gen = (1.0 - x * z) / (1.0 - 2.0 * x * z + z * z)
        tally.check(x, r, abs(gen - (1.0 - lhs)), algebra_tol)
    return tally.report()
