import math
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cosmax.analytic import f_at_one
from cosmax.errors import DomainError, ToleranceUnreachable, UnsupportedParameters
from cosmax.series import (
    SERIES_R_MAX,
    TOL_MAX,
    TOL_MIN,
    AnglePoint,
    EvalPoint,
    EvalResult,
    Tolerance,
    _terms_needed,
    f_series,
    fourier_series,
    generating_lhs,
    generating_partial_sum,
)
from cosmax.verify import dispatch_eval

# high-precision reference values (50-digit arithmetic), frozen
F_1_HALF = 0.12186043243265753   # f(1, 0.5) = (log 1.5 - 0.5 + 0.125)/0.25
F_0_HALF = 0.05371289737158049   # f(0, 0.5) = 1/2 - log(1.25)/0.5
F_03_07 = 0.11901218002141456    # f(0.3, 0.7)


def test_point_validation_messages():
    with pytest.raises(DomainError, match=r"\(-1, 1\]"):
        EvalPoint(-1.0, 0.5)
    with pytest.raises(DomainError, match=r"\(0, 1\]"):
        EvalPoint(0.5, 0.0)
    with pytest.raises(DomainError):
        EvalPoint(1.0000001, 0.5)
    with pytest.raises(DomainError):
        EvalPoint(0.5, 1.0000001)
    with pytest.raises(DomainError):
        EvalPoint(math.nan, 0.5)
    # boundary points that are valid
    EvalPoint(1.0, 1.0)
    EvalPoint(-0.999999999, 1e-300)


def test_angle_validation():
    AnglePoint(0.0, 1.0)  # phi = 0 admitted
    with pytest.raises(DomainError, match=r"\[0, pi\)"):
        AnglePoint(math.pi, 0.5)
    with pytest.raises(DomainError):
        AnglePoint(-0.1, 0.5)
    with pytest.raises(DomainError):
        AnglePoint(1.0, 0.0)


def test_tolerance_validation_and_clipping():
    with pytest.raises(DomainError):
        Tolerance(0.0)
    with pytest.raises(DomainError):
        Tolerance(-1e-9)
    with pytest.raises(DomainError):
        Tolerance(math.inf)
    assert Tolerance(1e-20).effective() == TOL_MIN
    assert Tolerance(0.5).effective() == TOL_MAX
    assert Tolerance(1e-9).effective() == 1e-9


def test_result_validation():
    with pytest.raises(DomainError):
        EvalResult(math.inf, 0.0, "series", 1)
    with pytest.raises(DomainError):
        EvalResult(0.0, -1e-18, "series", 1)
    with pytest.raises(DomainError):
        EvalResult(0.0, 0.0, "magic", 1)
    with pytest.raises(DomainError):
        EvalResult(0.0, 0.0, "series", -1)


def test_value_at_x_one_r_half():
    res = f_series(EvalPoint(1.0, 0.5), Tolerance(1e-12))
    assert res.route == "series"
    assert abs(res.value - F_1_HALF) <= 1e-12
    assert res.error_bound <= 1e-12
    assert res.work > 0


def test_value_at_x_zero_r_half():
    res = f_series(EvalPoint(0.0, 0.5), Tolerance(1e-12))
    assert abs(res.value - F_0_HALF) <= 1e-12


def test_tiny_r_leading_term():
    # at r = 1e-8 with tol clipped to 1e-15 a single term survives
    for x in (-0.5, 0.2, 1.0):
        res = f_series(EvalPoint(x, 1e-8), Tolerance(1e-20))
        assert abs(res.value - 1e-8 * x / 3.0) <= (1e-8) ** 2 / 4.0
        assert res.work == 1


def test_error_bound_is_tail_bound():
    # tail bound plus eps * (sum of |partial sums| + 4 n |total|)
    res = f_series(EvalPoint(0.3, 0.7), Tolerance(1e-10))
    n = res.work
    theta = math.acos(0.3)
    partials = [
        sum((-1) ** (k + 1) * 0.7**k * math.cos(k * theta) / (k + 2) for k in range(1, m + 1))
        for m in range(1, n + 1)
    ]
    tail = 0.7 ** (n + 1) / ((n + 3) * 0.3)
    rounding = 2.0**-52 * (sum(map(abs, partials)) + 4 * n * abs(res.value))
    assert res.error_bound == pytest.approx(tail + rounding, rel=1e-12, abs=0)
    assert res.error_bound <= 1e-10
    # N is minimal: one fewer term would miss the tolerance
    assert 0.7**n / ((n + 2) * 0.3) > 1e-10


def test_refuses_r_at_one():
    with pytest.raises(UnsupportedParameters):
        f_series(EvalPoint(0.5, 1.0), Tolerance(1e-8))
    with pytest.raises(UnsupportedParameters):
        fourier_series(AnglePoint(1.0, 1.0), Tolerance(1e-8))
    # just inside the cutoff the r-gate admits the point; what fails there
    # is the term budget, which is a different, retryable condition
    with pytest.raises(ToleranceUnreachable):
        f_series(EvalPoint(0.5, SERIES_R_MAX), Tolerance(1e-2))
    # a workload the budget can actually carry
    res = f_series(EvalPoint(0.5, 0.999), Tolerance(1e-6))
    assert res.error_bound <= 1e-6


def test_term_cap_unreachable():
    with pytest.raises(ToleranceUnreachable):
        f_series(EvalPoint(0.5, 0.999999), Tolerance(1e-15))


def test_tail_bound_soundness_grid():
    # Cauchy self-check: the coarse result sits within its own bound of a
    # much finer truncation, plus the closed-form anchor at x = 1
    xs = [-0.95 + 1.95 * i / 19 for i in range(20)]
    rs = [0.05 + 0.94 * j / 19 for j in range(20)]
    tol = Tolerance(1e-8)
    fine = Tolerance(1e-8 / 1e3)
    for x in xs:
        for r in rs:
            p = EvalPoint(x, r)
            coarse = f_series(p, tol)
            ref = f_series(p, fine)
            assert abs(coarse.value - ref.value) <= coarse.error_bound
    for r in (0.1, 0.5, 0.9):
        res = f_series(EvalPoint(1.0, r), Tolerance(1e-12))
        assert abs(res.value - f_at_one(r)) <= res.error_bound + 1e-13


def test_fourier_matches_chebyshev_side_on_grid():
    phis = [0.01 + (math.pi - 0.02) * i / 49 for i in range(50)]
    rs = [0.05 + 0.94 * j / 19 for j in range(20)]
    tol = Tolerance(1e-10)
    for phi in phis:
        for r in rs:
            a = fourier_series(AnglePoint(phi, r), tol)
            b = f_series(EvalPoint(math.cos(phi), r), tol)
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-15


def test_fourier_at_zero_angle_equals_x_one():
    tol = Tolerance(1e-12)
    a = fourier_series(AnglePoint(0.0, 0.5), tol)
    b = f_series(EvalPoint(1.0, 0.5), tol)
    assert abs(a.value - b.value) <= 2e-12


def test_fourier_at_right_angle_equals_x_zero():
    tol = Tolerance(1e-12)
    a = fourier_series(AnglePoint(math.pi / 2, 0.5), tol)
    b = f_series(EvalPoint(0.0, 0.5), tol)
    assert abs(a.value - b.value) <= 2e-12


def test_fourier_generic_angle():
    tol = Tolerance(1e-12)
    a = fourier_series(AnglePoint(1.0, 0.9), tol)
    b = f_series(EvalPoint(math.cos(1.0), 0.9), tol)
    assert abs(a.value - b.value) <= 2e-12


@given(
    phi=st.floats(min_value=0.0, max_value=math.pi - 1e-9, allow_nan=False),
    r=st.floats(min_value=1e-6, max_value=0.99, allow_nan=False),
)
@settings(max_examples=100)
def test_fourier_chebyshev_equivalence_property(phi, r):
    # within ~1.5e-8 of pi the cosine rounds to exactly -1, which the
    # x-domain deliberately excludes
    assume(math.cos(phi) > -1.0)
    tol = Tolerance(1e-10)
    a = fourier_series(AnglePoint(phi, r), tol)
    b = f_series(EvalPoint(math.cos(phi), r), tol)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-14


def test_generating_lhs_anchors():
    assert generating_lhs(EvalPoint(1.0, 0.5)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert generating_lhs(EvalPoint(1e-12, 1.0)) == pytest.approx(0.5, abs=1e-11)
    assert generating_lhs(EvalPoint(0.3, 0.7)) == pytest.approx(0.36649214659685864, abs=1e-15)


def test_generating_partial_sum_converges():
    p = EvalPoint(0.3, 0.7)
    lhs = generating_lhs(p)
    for n in (5, 20, 40, 80):
        resid = abs(lhs - generating_partial_sum(p, n))
        assert resid <= 0.7 ** (n + 1) / 0.3 + 1e-15


def test_generating_partial_sum_validation():
    p = EvalPoint(0.3, 0.7)
    with pytest.raises(DomainError):
        generating_partial_sum(p, -1)
    with pytest.raises(DomainError):
        generating_partial_sum(p, 2.0)
    assert generating_partial_sum(p, 0) == 0.0


@given(
    x=st.floats(min_value=-0.999, max_value=1.0, allow_nan=False),
    r=st.floats(min_value=1e-3, max_value=0.95, allow_nan=False),
    n=st.integers(min_value=0, max_value=120),
)
@settings(max_examples=150)
def test_generating_identity_property(x, r, n):
    p = EvalPoint(x, r)
    resid = abs(generating_lhs(p) - generating_partial_sum(p, n))
    assert resid <= r ** (n + 1) / (1.0 - r) + 1e-14


def test_alternating_partial_sums_bracket_limit_at_x_one():
    # terms r^k/(k+2) decrease strictly, so consecutive partial sums straddle
    # f(1, r); the strict sign test applies while the true remainder dwarfs
    # the ~1e-16 rounding of the reference value
    for r in (0.1, 0.3, 0.7, 0.95):
        limit = f_at_one(r)
        partial = 0.0
        rk = r
        sign = 1.0
        checked = 0
        prev_gap = None
        for k in range(1, 60):
            partial += sign * rk / (k + 2)
            rk *= r
            sign = -sign
            gap = partial - limit
            if prev_gap is not None and abs(prev_gap) > 1e-12 and abs(gap) > 1e-12:
                assert prev_gap * gap < 0.0
                checked += 1
            prev_gap = gap
        assert checked >= 5


@pytest.mark.parametrize(
    "r, tol, n",
    [
        (1e-6, 1e-6, 0),
        (1e-3, 1e-6, 1),
        (2e-3, 1e-6, 2),
        (2e-2, 1e-6, 3),
        (5e-2, 1e-6, 4),
        (0.2, 1e-6, 7),
        (0.25, 1e-6, 8),
        (0.5, 1e-6, 16),
        (0.99, 1e-6, 1132),
        (1 - 2.5e-6, 1e-12, 9773989),
    ],
)
def test_work_counts_terms(r, tol, n):
    # N is the smallest truncation whose tail bound meets the tolerance, on
    # both sides of the search's doubling steps N = 1, 3, 7; near N_CAP the
    # search alone is checked, so 10^7 terms are not summed
    if n < 10**4:
        assert f_series(EvalPoint(0.5, r), Tolerance(tol)).work == n
    assert _terms_needed(r, Tolerance(tol)) == n
    log_tail = lambda m: (m + 1) * math.log(r) - math.log(m + 3) - math.log1p(-r)
    assert log_tail(n) <= math.log(tol)
    assert n == 0 or log_tail(n - 1) > math.log(tol)


def test_route_tag_and_bound_nonnegative():
    res = fourier_series(AnglePoint(2.0, 0.8), Tolerance(1e-9))
    assert res.route == "series"
    assert res.error_bound >= 0.0
    assert math.isfinite(res.value)


# f(x, r) to 40 digits: the closed form in mpmath 1.3.0 at raised precision, frozen
SERIES_ORACLE = [
    ((1.0, 2.6987531657630434e-06), "8.995825677744498528138520858842497051988e-7"),
    ((-0.9999998491761947, 7.53325416589302e-06), "-2.511098530789512221256327738980823380599e-6"),
    ((-0.9999996403471823, 0.9982956054924639), "-4.784574813627806323768119563438887886978"),
]


def test_series_bound_covers_rounding_against_oracle():
    # at the first two points the rounding of the sum, not its tail,
    # dominates the error; a truncation-only bound misses all three
    tol = Tolerance(1e-12)
    for i, ((x, r), ref) in enumerate(SERIES_ORACLE):
        p = EvalPoint(x, r)
        routes = [f_series, dispatch_eval] if i < 2 else [f_series]
        for route in routes:
            res = route(p, tol)
            err = abs(Decimal(res.value) - Decimal(ref))
            assert err <= Decimal(res.error_bound), (x, r, route)
