import math

import pytest

from cosmax.errors import DomainError, ToleranceUnreachable, UnsupportedParameters
from cosmax.quadrature import (
    MAX_DEPTH,
    dfdx_quad,
    f_quad,
    integrand_dfdx,
    integrand_f,
    integrate,
)
from cosmax.series import EvalPoint, EvalResult, Tolerance, f_series


# ---------------------------------------------------------------------------
# integrands


def test_integrand_f_anchors():
    # t^2 (t + x) / (t^2 + 2 x t + 1)
    assert integrand_f(0.0, 0.5) == 0.0
    assert integrand_f(1.0, 0.0) == pytest.approx(0.5, abs=1e-16)
    # t = x = 1/2: (1/4)(1) / (7/4) = 1/7
    assert integrand_f(0.5, 0.5) == pytest.approx(1.0 / 7.0, abs=1e-16)


def test_integrand_dfdx_anchors():
    # t^2 (1 - t^2) / (t^2 + 2 x t + 1)^2
    assert integrand_dfdx(0.0, 0.3) == 0.0
    assert integrand_dfdx(1.0, 0.3) == 0.0
    assert integrand_dfdx(0.5, 0.0) == pytest.approx(0.25 * 0.75 / 1.5625, abs=1e-16)
    assert integrand_dfdx(0.5, 0.5) == pytest.approx(3.0 / 49.0, abs=1e-16)


def test_integrand_dfdx_nonnegative_on_unit_square():
    for i in range(51):
        t = i / 50.0
        for j in range(21):
            x = -1.0 + 2.0 * j / 20.0 + 1e-9
            if x > 1.0:
                x = 1.0
            assert integrand_dfdx(t, x) >= 0.0


def test_integrand_validation():
    for bad_t in (-0.1, 1.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            integrand_f(bad_t, 0.5)
    for bad_x in (-1.5, 1.0 + 1e-9, math.nan):
        with pytest.raises(DomainError):
            integrand_dfdx(0.5, bad_x)


# ---------------------------------------------------------------------------
# the integrator itself


def test_integrate_constant_is_exact():
    res = integrate(lambda t: 1.0, 0.0, 1.0, Tolerance(1e-10))
    assert res.value == 1.0
    assert res.error_bound == 0.0
    assert res.work >= 1


def test_integrate_quadratic_is_exact():
    # Simpson integrates cubics exactly: t^2 on [0, 1/2] -> 1/24
    res = integrate(lambda t: t * t, 0.0, 0.5, Tolerance(1e-12))
    assert abs(res.value - 1.0 / 24.0) <= 1e-16


def test_integrate_rational_anchor():
    # int_0^1 t^3/(t^2+1) dt = (1 - log 2)/2
    res = integrate(lambda t: t**3 / (t * t + 1.0), 0.0, 1.0, Tolerance(1e-12))
    assert res.value == pytest.approx(0.15342640972002736, abs=1e-12)
    assert res.error_bound <= 1e-12


def test_integrate_oscillatory():
    res = integrate(math.cos, 0.0, 20.0, Tolerance(1e-10))
    assert res.value == pytest.approx(math.sin(20.0), abs=1e-9)


def test_integrate_empty_interval():
    res = integrate(math.exp, 0.3, 0.3, Tolerance(1e-10))
    assert res == EvalResult(0.0, 0.0, "quadrature", 1)


def test_integrate_reversed_interval_rejected():
    with pytest.raises(DomainError):
        integrate(math.exp, 1.0, 0.0, Tolerance(1e-10))


def test_integrate_nonfinite_integrand_rejected():
    with pytest.raises(DomainError):
        integrate(lambda t: 1.0 / t if t > 0.0 else math.inf, 0.0, 1.0, Tolerance(1e-8))
    with pytest.raises(DomainError):
        integrate(lambda t: math.nan, 0.0, 1.0, Tolerance(1e-8))


def test_integrate_depth_cap():
    # sin(1/t) oscillates infinitely fast near 0; bisection alone cannot
    # resolve it, so the recursion depth guard must fire
    g = lambda t: math.sin(1.0 / t) if t > 0.0 else 0.0
    with pytest.raises(ToleranceUnreachable, match=str(MAX_DEPTH)):
        integrate(g, 0.0, 1.0, Tolerance(1e-12))


def test_integrate_panel_cap(monkeypatch):
    # resolving 3e5 radians per unit length to 1e-14 wants more panels than
    # the budget allows; integrate reads the cap at call time, so a small
    # cap reaches the same refusal in milliseconds
    monkeypatch.setattr("cosmax.quadrature.MAX_PANELS", 1000)
    with pytest.raises(ToleranceUnreachable, match="exceeded 1000 panels"):
        integrate(lambda t: math.cos(3e5 * t), 0.0, 1.0, Tolerance(1e-14))


def test_integrate_error_estimate_is_honest():
    # check the reported estimate against the true error on a few integrals
    cases = [
        (math.exp, 0.0, 1.0, math.e - 1.0),
        (math.sin, 0.0, math.pi, 2.0),
        (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
    ]
    for g, a, b, exact in cases:
        res = integrate(g, a, b, Tolerance(1e-10))
        assert abs(res.value - exact) <= max(res.error_bound, 1e-14) * 10.0


def test_integrate_deterministic():
    r1 = integrate(lambda t: math.exp(-t * t), 0.0, 1.0, Tolerance(1e-11))
    r2 = integrate(lambda t: math.exp(-t * t), 0.0, 1.0, Tolerance(1e-11))
    assert r1 == r2


# ---------------------------------------------------------------------------
# f and df/dx through the integral representation


def test_f_quad_anchors():
    res = f_quad(EvalPoint(0.0, 1.0), Tolerance(1e-12))
    assert res.value == pytest.approx(0.15342640972002736, abs=5e-12)
    assert res.route == "quadrature"
    assert res.work >= 1

    res = f_quad(EvalPoint(1.0, 1.0), Tolerance(1e-12))
    assert res.value == pytest.approx(math.log(2.0) - 0.5, abs=5e-12)


def test_f_quad_matches_series():
    for x, r in [(0.3, 0.7), (-0.8, 0.5), (0.99, 0.2), (-0.5, 0.9)]:
        qs = f_quad(EvalPoint(x, r), Tolerance(1e-12))
        ss = f_series(EvalPoint(x, r), Tolerance(1e-12))
        assert abs(qs.value - ss.value) <= qs.error_bound + ss.error_bound + 1e-12


def test_f_quad_error_bound_scales_with_r():
    # the requested tolerance applies to f itself, not the raw integral,
    # so the reported bound must respect it even after the 1/r^2 division
    res = f_quad(EvalPoint(0.5, 0.01), Tolerance(1e-10))
    assert res.error_bound <= 1e-10 + 1e-24


@pytest.mark.parametrize("quad", [f_quad, dfdx_quad], ids=["f", "dfdx"])
def test_quad_at_the_tolerance_clip(quad):
    # tolerances outside [1e-15, 1e-2] act as the clip edge they round to,
    # and the reported bound meets the clipped tolerance
    for x, r in [(0.3, 0.01), (-0.5, 1e-3), (0.9, 0.5)]:
        p = EvalPoint(x, r)
        for asked, edge in [(1e-30, 1e-15), (1.0, 1e-2)]:
            res = quad(p, Tolerance(asked))
            assert res == quad(p, Tolerance(edge)), (x, r, asked)
            assert res.error_bound <= Tolerance(asked).effective(), (x, r, asked)


def test_dfdx_quad_anchor():
    # d/dx f(x, 1) at x = 0: integral of t^2(1-t^2)/(t^2+1)^2 = pi/2 - 3/2
    res = dfdx_quad(EvalPoint(0.0, 1.0), Tolerance(1e-12))
    assert res.value == pytest.approx(math.pi / 2.0 - 1.5, abs=5e-12)
    assert res.route == "quadrature"


def test_dfdx_quad_positive_on_grid():
    for i in range(40):
        x = -0.99 + (0.999 + 0.99) * i / 39.0
        for j in range(20):
            r = 0.01 + 0.99 * j / 19.0
            res = dfdx_quad(EvalPoint(x, r), Tolerance(1e-12))
            assert res.value > 0.0, (x, r)


def test_dfdx_quad_small_r_leading_order():
    # df/dx = r/3 + O(r^2): the integrand is ~ t^2 for small t
    r = 1e-3
    res = dfdx_quad(EvalPoint(0.2, r), Tolerance(1e-15))
    assert abs(res.value - r / 3.0) <= r * r


def test_quad_refuses_r_squared_underflow():
    tiny = 1e-170
    assert tiny * tiny == 0.0  # precondition for the refusal
    with pytest.raises(UnsupportedParameters, match="underflow"):
        f_quad(EvalPoint(0.5, tiny), Tolerance(1e-10))
    with pytest.raises(UnsupportedParameters):
        dfdx_quad(EvalPoint(0.5, tiny), Tolerance(1e-10))


def test_quad_validation_flows_through():
    with pytest.raises(DomainError):
        f_quad(EvalPoint(-1.0, 0.5), Tolerance(1e-10))
    with pytest.raises(DomainError):
        dfdx_quad(EvalPoint(0.5, 1.5), Tolerance(1e-10))
