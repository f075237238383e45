"""Exact checks of the algebra every route rests on.

Each identity below is a rational function identity in (t, x) or (r, x).
Cleared of its denominators, the difference of its two sides is a
polynomial of degree at most d_t (or d_r) in the first variable and d_x
in x.  A polynomial with those degrees that vanishes on a product grid of
d_t + 1 by d_x + 1 points is zero (Alon, "Combinatorial Nullstellensatz",
Combin. Probab. Comput. 8, 1999, Lemma 2.1; Schwartz, J. ACM 27(4), 1980).
The grids avoid the zeros of the denominators, so evaluating both sides
with fractions.Fraction at every grid point proves the identity; it is not
a sample.  The degree bound is worked out next to each check.

Not checked here: integrating the series termwise, its convergence at
r = 1, and the derivative rules for log and atan themselves
(d/dr log D = D'/D and d/dr atan u = u'/(1 + u^2)); only the algebra
after those rules is.

The margin identity is a statement about the generating function alone,
so it holds under any weight: with f_a = sum (-1)^(k+1) r^k T_k(x)/(k+a),
r^a (f_a(1, r) - f_a(x, r)) = (1-x) int_0^r t^a (1-t)/((1+t) D(t)) dt.
The integral converges for a > -1 and is positive for x < 1, so the
paper's inequality (a = 2) extends to sum (-1)^(k+1) r^k cos(k phi)/(k+a)
for every a > -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# Grids of distinct points; every denominator below is positive on them
# (t and r in [0, 1], x in (-1, 1], so t^2 + 2xt + 1 = (t+x)^2 + 1 - x^2 > 0).
TS = [Fraction(k, 6) for k in range(7)]  # 7 points: degree <= 6 in t or r
XS = [Fraction(k - 4, 5) for k in range(9)]  # 9 points in [-4/5, 4/5]: degree <= 8 in x


def _holds(identity, deg_first: int, deg_x: int, firsts=TS, xs=XS) -> None:
    """Assert identity(first, x) on a product grid with more points than
    each stated degree, so the identity holds as rational functions."""
    assert len(set(firsts)) > deg_first and len(set(xs)) > deg_x
    for a in firsts:
        for x in xs:
            assert identity(a, x), (a, x)


def _D(t, x):
    return t * t + 2 * x * t + 1


def chebyshev(k: int, x: Fraction) -> Fraction:
    """T_k(x) from de Moivre, cos(k phi) = Re (cos phi + i sin phi)^k, with
    x = cos phi and (i sin phi)^2 = x^2 - 1; no recurrence is used."""
    return sum(comb(k, 2 * j) * x ** (k - 2 * j) * (x * x - 1) ** j for j in range(k // 2 + 1))


def test_generating_function_through_z_to_the_n():
    # (1 - 2xz + z^2) sum_{k=0}^{N} T_k z^k - (1 - xz)
    #   = (T_{N-1} - 2x T_N) z^{N+1} + T_N z^{N+2},
    # i.e. sum T_k z^k = (1 - xz)/(1 - 2xz + z^2) through z^N.  Degree
    # N + 2 in z and N + 1 in x, so N + 3 z points and N + 2 x points.
    n = 20
    zs = [Fraction(k, n + 2) - Fraction(1, 2) for k in range(n + 3)]
    xs = [Fraction(2 * k, n + 1) - 1 for k in range(1, n + 3)]
    ts = {x: [chebyshev(k, x) for k in range(n + 1)] for x in xs}

    def identity(z, x):
        t = ts[x]
        lhs = (1 - 2 * x * z + z * z) * sum(tk * z**k for k, tk in enumerate(t)) - (1 - x * z)
        return lhs == (t[n - 1] - 2 * x * t[n]) * z ** (n + 1) + t[n] * z ** (n + 2)

    _holds(identity, n + 2, n + 1, zs, xs)


def test_f_integrand_is_one_minus_generating_function_at_minus_t():
    # sum_{k>=1} (-1)^(k+1) T_k t^k = 1 - G(-t) with G(z) = (1 - xz)/(1 - 2xz + z^2),
    # and 1 - G(-t) = t(t + x)/(t^2 + 2xt + 1), the integrand of f (times t)
    # and generating_lhs.  Times D: D - (1 + xt) - t(t + x), degree 2 in t, 1 in x.
    _holds(lambda t, x: 1 - (1 + x * t) / (1 + 2 * x * t + t * t) == t * (t + x) / _D(t, x), 2, 1)


def test_closed_form_f_bracket_has_the_f_integrand_as_r_derivative():
    # B = r^2/2 - xr + (x^2 - 1/2) log D + 2xw atan(wr/(1 + xr)), D = r^2 + 2xr + 1,
    # w^2 = 1 - x^2.  d/dr atan(wr/(1 + xr)) = w/D needs (1 + xr)^2 + w^2 r^2 = D:
    # degree 2 in r, 2 in x.
    _holds(lambda r, x: (1 + x * r) ** 2 + (1 - x * x) * r * r == _D(r, x), 2, 2)
    # then dB/dr = r - x + (x^2 - 1/2)(2r + 2x)/D + 2x w^2/D = r^2 (r + x)/D.
    # Times D: degree 3 in r, 3 in x.
    _holds(
        lambda r, x: r - x + (x * x - Fraction(1, 2)) * (2 * r + 2 * x) / _D(r, x)
        + 2 * x * (1 - x * x) / _D(r, x) == r * r * (r + x) / _D(r, x),
        3, 3,
    )
    # B vanishes at r = 0 (log 1 = atan 0 = 0), so r^2 f = B.  _closed's
    # forms: log1p(r(r + 2x)), log((r + x)^2 + (1 - x)(1 + x)) and
    # atan2(wr, (1 - r) + r(1 + x)) take D and 1 + xr.  Degree 2 in r, 2 in x.
    _holds(lambda r, x: 1 + r * (r + 2 * x) == (r + x) ** 2 + (1 - x) * (1 + x) == _D(r, x), 2, 2)
    _holds(lambda r, x: (1 - r) + r * (1 + x) == 1 + x * r, 1, 1)


def test_closed_form_dfdx_bracket_has_the_dfdx_integrand_as_r_derivative():
    # d/dx [t(t + x)/D] = (tD - t(t + x) 2t)/D^2 = t(1 - t^2)/D^2, the
    # df/dx integrand (times t).  Times D^2: degree 3 in t, 1 in x.
    _holds(lambda t, x: (t * _D(t, x) - t * (t + x) * 2 * t) / _D(t, x) ** 2
           == t * (1 - t * t) / _D(t, x) ** 2, 3, 1)
    # G = -r + 2x log D - (r + 2xr^2)/D + 2(1 - 2x^2) atan(wr/(1 + xr))/w
    # (perfbench/reference.py), with d/dr atan(...)/w = 1/D as above:
    # dG/dr = -1 + 2x(2r + 2x)/D - ((1 + 4xr)D - (r + 2xr^2)(2r + 2x))/D^2
    #         + 2(1 - 2x^2)/D = r^2 (1 - r^2)/D^2.
    # Times D^2: degree 4 in r, 3 in x.  G vanishes at r = 0.
    def identity(r, x):
        d = _D(r, x)
        dg = (-1 + 2 * x * (2 * r + 2 * x) / d
              - ((1 + 4 * x * r) * d - (r + 2 * x * r * r) * (2 * r + 2 * x)) / d**2
              + 2 * (1 - 2 * x * x) / d)
        return dg == r * r * (1 - r * r) / d**2

    _holds(identity, 4, 3)


def test_margin_integrand():
    # t/(1 + t) - t(t + x)/D = (1 - x) t (1 - t)/((1 + t) D): the f integrand
    # at x = 1 minus at x.  Its sign on (0, 1) is the inequality.  Times
    # (1 + t) D: degree 3 in t, 1 in x.
    _holds(lambda t, x: t / (1 + t) - t * (t + x) / _D(t, x)
           == (1 - x) * t * (1 - t) / ((1 + t) * _D(t, x)), 3, 1)


def test_denominator_is_a_sum_of_squares():
    # t^2 + 2xt + 1 = (t + x)^2 + (1 - x)(1 + x), as quadrature._denominator
    # evaluates it.  Degree 2 in t, 2 in x.
    _holds(lambda t, x: _D(t, x) == (t + x) ** 2 + (1 - x) * (1 + x), 2, 2)


def test_derivative_floor():
    # (1 + t)^2 - (t^2 + 2xt + 1) = 2t(1 - x) >= 0 for x <= 1 and t >= 0,
    # so the df/dx integrand is at least its value at x = 1.  Degree 2 in
    # t, 1 in x.
    _holds(lambda t, x: (1 + t) ** 2 - _D(t, x) == 2 * t * (1 - x), 2, 1)
    # at x = 1 the df/dx integrand t^2 (1 - t^2)/D^2 is t^2 (1 - t)/(1 + t)^3.
    # Times (1 + t)^4: degree 4 in t.
    _holds(lambda t, x: t * t * (1 - t * t) / _D(t, 1) ** 2 == t * t * (1 - t) / (1 + t) ** 3,
           4, 0, xs=[Fraction(1)])
