import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosmax.analytic import SMALL_R, f_at_one, f_at_one_error_bound, f_closed
from cosmax.errors import DomainError
from cosmax.quadrature import f_quad
from cosmax.series import EvalPoint, Tolerance, f_series
from cosmax.verify import ScanGrid, dispatch_eval, margins

F_AT_ONE_HALF = 0.12186043243265753
F_AT_ONE_ONE = 0.19314718055994531  # log 2 - 1/2
F_ZERO_ONE = 0.15342640972002736


# ---------------------------------------------------------------------------
# f(1, r)


def test_f_at_one_anchors():
    assert f_at_one(1.0) == pytest.approx(math.log(2.0) - 0.5, abs=1e-15)
    assert f_at_one(0.5) == pytest.approx(F_AT_ONE_HALF, abs=1e-14)
    assert f_at_one(1e-6) == pytest.approx(3.3333308333353335e-07, abs=1e-19)


def test_f_at_one_validation():
    for bad in (0.0, -0.5, 1.0 + 1e-12, math.nan, math.inf):
        with pytest.raises(DomainError):
            f_at_one(bad)
        with pytest.raises(DomainError):
            f_at_one_error_bound(bad)


def test_f_at_one_branch_crossover():
    # the polynomial branch and the log1p branch must agree through the
    # switch at r = 1e-3; both are ~1e-12 accurate there
    for r in (1e-4, 5e-4, 9.99e-4, 1e-3, 2e-3):
        poly = r * (1.0 / 3.0 + r * (-0.25 + r * (0.2 + r * (-1.0 / 6.0 + r / 7.0))))
        direct = (math.log1p(r) - r + 0.5 * r * r) / (r * r)
        assert abs(poly - direct) <= 1e-11
        assert abs(f_at_one(r) - poly) <= 1e-11


def test_f_at_one_error_bound_covers_reference_values():
    cases = [(0.5, F_AT_ONE_HALF), (1.0, F_AT_ONE_ONE), (1e-6, 3.3333308333353335e-07)]
    for r, ref in cases:
        b = f_at_one_error_bound(r)
        assert b > 0.0
        assert abs(f_at_one(r) - ref) <= b


def test_f_at_one_monotone_in_r():
    # every series term r^k/(k+2) grows with r, and the sign pattern keeps
    # the sum increasing; spot-check on a coarse ladder
    vals = [f_at_one(r) for r in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    assert vals == sorted(vals)
    assert vals[0] > 0.0


# ---------------------------------------------------------------------------
# closed form across the (x, r) rectangle


def test_f_closed_x_zero_reduction():
    # f(0, r) = 1/2 - log(1 + r^2) / (2 r^2)
    for r in (0.1, 0.5, 1.0):
        ref = 0.5 - math.log1p(r * r) / (2.0 * r * r)
        res = f_closed(EvalPoint(0.0, r))
        assert abs(res.value - ref) <= 1e-14
    assert f_closed(EvalPoint(0.0, 1.0)).value == pytest.approx(F_ZERO_ONE, abs=1e-15)


def test_f_closed_at_x_one_uses_dedicated_form():
    res = f_closed(EvalPoint(1.0, 0.7))
    assert res.value == f_at_one(0.7)
    assert res.route == "closed_form"
    assert res.work == 0


def test_f_closed_small_r_delegates_to_series():
    res = f_closed(EvalPoint(0.5, 1e-4))
    assert res.route == "series"
    assert res.work >= 1
    # leading term is r x / 3
    assert abs(res.value - 1e-4 * 0.5 / 3.0) <= 1e-8
    # the delegation boundary itself stays on the closed form
    assert f_closed(EvalPoint(0.5, SMALL_R)).route == "closed_form"
    # x = 1 takes the series too below the boundary
    assert f_closed(EvalPoint(1.0, 1e-4)).route == "series"


def test_f_closed_branch_continuity_near_x_one():
    for r in (0.2, 0.6, 1.0):
        gap = abs(f_closed(EvalPoint(1.0 - 1e-9, r)).value - f_at_one(r))
        assert gap <= 1e-8


def test_f_closed_matches_quadrature_on_grid():
    for i in range(10):
        x = min(1.0, -0.95 + (1.0 + 0.95) * i / 9.0)
        for r in (0.05, 0.3, 0.8, 1.0):
            c = f_closed(EvalPoint(x, r))
            q = f_quad(EvalPoint(x, r), Tolerance(1e-12))
            assert abs(c.value - q.value) <= c.error_bound + q.error_bound + 1e-11, (x, r)


# f(x, r) to 40 digits: perfbench/reference.f_ref (mpmath 1.3.0), frozen
CLOSED_ORACLE = [
    ((-0.9999999, 0.99999), "-6.213755351016340761375506648173839170183"),
    ((-0.99999, 0.999), "-3.907636794034763355343558078880404069927"),
]


def test_f_closed_bound_covers_error_near_x_minus_one_r_one():
    # 1 - x^2, log1p(r(r+2x)) and 1 + xr all cancel here; written naively
    # they put the error at 2.0e4 and 112 times the bound
    for (x, r), ref in CLOSED_ORACLE:
        res = f_closed(EvalPoint(x, r))
        assert res.route == "closed_form"
        assert abs(Decimal(res.value) - Decimal(ref)) <= Decimal(res.error_bound), (x, r)


@given(
    x=st.floats(min_value=-1.0 + 1e-9, max_value=1.0, allow_nan=False),
    r=st.floats(min_value=1e-3, max_value=0.999, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_f_closed_matches_series_property(x, r):
    c = f_closed(EvalPoint(x, r))
    s = f_series(EvalPoint(x, r), Tolerance(1e-12))
    assert abs(c.value - s.value) <= c.error_bound + s.error_bound + 1e-12


# ---------------------------------------------------------------------------
# the inequality margin


def one_point(phi, r, inset=1e-12):
    return ScanGrid("phi_grid", phi, phi, 1, r, r, 1, inset)


def margin(phi, r):
    """f(1, r) - f(cos phi, r) from margins on the one-point grid (phi, r)."""
    [(_, _, m, _, _)] = margins(one_point(phi, r), Tolerance(1e-12), dispatch_eval)
    return m


def test_margin_anchor_at_right_angle():
    m = margin(math.pi / 2.0, 1.0)
    assert m == pytest.approx(F_AT_ONE_ONE - F_ZERO_ONE, abs=1e-13)


def test_margin_agrees_with_series_difference():
    m = margin(2.0, 0.8)
    assert m > 0.0
    s = f_series(EvalPoint(math.cos(2.0), 0.8), Tolerance(1e-13))
    ref = f_at_one(0.8) - s.value
    assert abs(m - ref) <= s.error_bound + f_at_one_error_bound(0.8) + 1e-12


def test_margin_positive_on_grid():
    for i in range(25):
        phi = 0.05 + (math.pi - 0.1) * i / 24.0
        for r in (0.1, 0.5, 1.0):
            assert margin(phi, r) > 0.0, (phi, r)


def test_margins_walk_phi_major_and_add_both_bounds():
    g = ScanGrid("phi_grid", 0.05, math.pi - 0.05, 5, 0.1, 1.0, 3)
    rows = list(margins(g, Tolerance(1e-12), dispatch_eval))
    assert [(phi, r) for phi, r, *_ in rows] == [
        (phi, r) for phi in g.var_values() for r in g.r_values()
    ]
    for phi, r, m, bound, res in rows:
        assert res == dispatch_eval(EvalPoint(math.cos(phi), r), Tolerance(1e-12))
        assert m == f_at_one(r) - res.value
        assert bound == res.error_bound + f_at_one_error_bound(r)


def test_margin_quadratic_in_phi_near_zero():
    # f(1, r) - f(cos phi, r) ~ C(r) * (1 - cos phi) ~ C(r) phi^2 / 2
    m4 = margin(1e-4, 0.5)
    m3 = margin(1e-3, 0.5)
    assert 0.0 < m4 < 1e-8
    assert 99.0 <= m3 / m4 <= 101.0


def test_margin_rejects_phi_zero():
    with pytest.raises(DomainError, match="phi grid must be positive"):
        one_point(0.0, 0.5)


def test_margin_rejects_cosine_collapse_near_pi():
    # within ~1.5e-8 of pi, cos(phi) rounds to exactly -1, which EvalPoint
    # refuses; the error names the grid point
    g = one_point(math.pi - 1e-12, 0.5)
    with pytest.raises(DomainError, match=r"got -1\.0 \[at grid point var = "):
        list(margins(g, Tolerance(1e-12), dispatch_eval))
