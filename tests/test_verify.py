import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosmax import verify
from cosmax.analytic import f_at_one, f_closed
from cosmax.errors import DomainError, ToleranceUnreachable, UnsupportedParameters
from cosmax.quadrature import f_quad
from cosmax.series import EvalPoint, EvalResult, Tolerance, generating_lhs
from cosmax.verify import (
    SCAN_KINDS,
    Report,
    ScanGrid,
    Violation,
    consistency_scan,
    default_grid,
    dispatch_eval,
    identity_scan,
    inequality_scan,
    monotonicity_scan,
)


def small_x_grid(var_count=5, r_count=4):
    return ScanGrid("x_grid", -0.9, 1.0, var_count, 0.1, 1.0, r_count)


def small_phi_grid():
    return ScanGrid("phi_grid", 0.1, math.pi - 0.1, 6, 0.1, 1.0, 5)


# ---------------------------------------------------------------------------
# grids


def test_scan_grid_validation():
    with pytest.raises(DomainError, match="var_kind"):
        ScanGrid("angle", 0.0, 1.0, 5, 0.1, 1.0, 5)
    with pytest.raises(DomainError, match="var_count"):
        ScanGrid("x_grid", 0.0, 1.0, 0, 0.1, 1.0, 5)
    with pytest.raises(DomainError, match="r_count"):
        ScanGrid("x_grid", 0.0, 1.0, 5, 0.1, 1.0, True)
    with pytest.raises(DomainError, match="var_min"):
        ScanGrid("x_grid", math.nan, 1.0, 5, 0.1, 1.0, 5)
    with pytest.raises(DomainError, match="inset"):
        ScanGrid("x_grid", 0.0, 1.0, 5, 0.1, 1.0, 5, inset=0.0)
    # a non-finite inset is named, not the var_min derived from it
    with pytest.raises(DomainError, match="^inset must"):
        default_grid("consistency", math.inf)
    with pytest.raises(DomainError, match="exceeds"):
        ScanGrid("x_grid", 0.5, 0.2, 5, 0.1, 1.0, 5)
    # domain edges must respect the inset
    with pytest.raises(DomainError, match="x grid"):
        ScanGrid("x_grid", -1.0, 1.0, 5, 0.1, 1.0, 5)
    with pytest.raises(DomainError, match="x grid"):
        ScanGrid("x_grid", 0.0, 1.0 + 1e-9, 5, 0.1, 1.0, 5)
    # an inset too small to move -1 + inset off -1
    with pytest.raises(DomainError, match="x grid"):
        ScanGrid("x_grid", -1.0, 1.0, 2, 0.01, 1.0, 2, 1e-17)
    with pytest.raises(DomainError, match="phi grid"):
        ScanGrid("phi_grid", 0.0, 1.0, 5, 0.1, 1.0, 5)
    with pytest.raises(DomainError, match="phi grid"):
        ScanGrid("phi_grid", 0.1, math.pi, 5, 0.1, 1.0, 5)
    with pytest.raises(DomainError, match="r grid"):
        ScanGrid("x_grid", 0.0, 1.0, 5, 0.0, 1.0, 5)
    with pytest.raises(DomainError, match="r grid"):
        ScanGrid("x_grid", 0.0, 1.0, 5, 0.1, 1.1, 5)
    # a one-point axis would keep its minimum and silently drop its maximum
    with pytest.raises(DomainError, match="var_count 1 needs var_min == var_max"):
        ScanGrid("x_grid", 0.0, 1.0, 1, 0.1, 1.0, 5)
    with pytest.raises(DomainError, match="r_count 1 needs r_min == r_max"):
        ScanGrid("phi_grid", 0.1, 1.0, 5, 0.1, 1.0, 1)


def test_grid_values_hit_endpoints_exactly():
    g = ScanGrid("x_grid", -0.7, 1.0, 7, 0.3, 1.0, 3)
    xs = g.var_values()
    rs = g.r_values()
    assert len(xs) == 7 and len(rs) == 3
    assert xs[0] == -0.7 and xs[-1] == 1.0
    assert rs[0] == 0.3 and rs[-1] == 1.0
    assert xs == sorted(xs)
    single = ScanGrid("x_grid", 0.5, 0.5, 1, 0.5, 0.5, 1)
    assert single.var_values() == [0.5]
    assert single.r_values() == [0.5]


def test_default_grids():
    g = default_grid("consistency")
    assert (g.var_count, g.r_count) == (40, 20)
    assert g.var_min == -1.0 + 1e-3 and g.r_min == 0.01
    g = default_grid("monotonicity")
    assert (g.var_count, g.r_count) == (30, 10)
    g = default_grid("inequality")
    assert (g.var_count, g.r_count) == (100, 100)
    assert g.var_kind == "phi_grid"
    g = default_grid("identity")
    assert (g.var_count, g.r_count) == (15, 10)
    with pytest.raises(DomainError, match="unknown scan kind"):
        default_grid("positivity")


def test_default_inequality_grid_tracks_inset():
    g = default_grid("inequality", inset=1e-2)
    assert g.var_min == 1e-2
    assert g.var_max == math.pi - 1e-2
    assert g.r_min == 1e-2
    assert g.inset == 1e-2


# ---------------------------------------------------------------------------
# dispatch


def test_dispatch_routes_by_r():
    assert dispatch_eval(EvalPoint(0.5, 1e-5)).route == "series"
    assert dispatch_eval(EvalPoint(0.5, 1.0)).route == "closed_form"
    assert dispatch_eval(EvalPoint(0.5, 1e-3)).route == "closed_form"


def test_dispatch_falls_back_to_quadrature(monkeypatch):
    def refuse(p):
        raise UnsupportedParameters("route declined")

    monkeypatch.setattr("cosmax.verify.f_closed", refuse)
    res = dispatch_eval(EvalPoint(0.5, 0.5))
    assert res.route == "quadrature"

    def give_up(p, tol):
        raise ToleranceUnreachable("route gave up")

    # the series route f_closed takes at small r gives up
    monkeypatch.undo()
    monkeypatch.setattr("cosmax.analytic.f_series", give_up)
    res = dispatch_eval(EvalPoint(0.5, 1e-5), Tolerance(1e-10))
    assert res.route == "quadrature"


@given(
    x=st.floats(min_value=-0.999, max_value=1.0, allow_nan=False),
    r=st.floats(min_value=1e-6, max_value=0.999, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_dispatch_agrees_with_quadrature_property(x, r):
    p = EvalPoint(x, r)
    d = dispatch_eval(p, Tolerance(1e-10))
    q = f_quad(p, Tolerance(1e-12))
    assert abs(d.value - q.value) <= d.error_bound + q.error_bound + 1e-12


# ---------------------------------------------------------------------------
# reports


def test_report_validation_and_accessors():
    rep = Report("identity", 3, (), 0.5, (0.1, 0.2), 0.01)
    assert rep.passed
    assert rep.kind in SCAN_KINDS
    with pytest.raises(DomainError, match="kind"):
        Report("positivity", 3, (), 0.5, (0.1, 0.2), 0.01)


def test_report_as_dict_shape():
    v = Violation(0.25, 0.75, 2.0, 1.0)
    rep = Report("consistency", 7, (v,), -1.0, (0.25, 0.75), 0.3)
    d = rep.as_dict()
    assert list(d) == ["kind", "points_checked", "violations", "min_margin", "worst_point", "pass"]
    assert "elapsed" not in d
    assert d["violations"] == [{"point": [0.25, 0.75], "observed": 2.0, "bound": 1.0}]
    assert d["worst_point"] == [0.25, 0.75]
    assert d["pass"] is False
    assert not rep.passed


# ---------------------------------------------------------------------------
# the four scanners on healthy inputs


def test_consistency_scan_small_grid_passes():
    rep = consistency_scan(small_x_grid(), Tolerance(1e-10))
    assert rep.kind == "consistency"
    assert rep.points_checked == 20
    assert rep.passed
    assert rep.min_margin > 0.0
    assert rep.elapsed > 0.0


def test_consistency_scan_requires_x_grid():
    with pytest.raises(DomainError, match="requires var_kind"):
        consistency_scan(small_phi_grid())


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-13, 1e-14])
def test_consistency_scan_default_grid_across_tolerances(tol):
    # no allowance beyond the two reported bounds: every route's bound must
    # cover its error on the whole default grid, from the coarse regime
    # down to the 1e-15 clip
    rep = consistency_scan(default_grid("consistency"), Tolerance(tol))
    assert rep.passed
    assert rep.min_margin > 0.0


def test_consistency_scan_deterministic():
    a = consistency_scan(small_x_grid(), Tolerance(1e-10))
    b = consistency_scan(small_x_grid(), Tolerance(1e-10))
    assert a.as_dict() == b.as_dict()


def test_monotonicity_scan_small_grid_passes():
    rep = monotonicity_scan(small_x_grid(r_count=3), Tolerance(1e-10))
    assert rep.kind == "monotonicity"
    assert rep.points_checked == 15
    assert rep.passed
    assert rep.min_margin > 0.0


def test_monotonicity_scan_validation():
    with pytest.raises(DomainError, match="var_count >= 3"):
        monotonicity_scan(ScanGrid("x_grid", -0.5, 0.5, 2, 0.1, 1.0, 3))
    with pytest.raises(DomainError, match="requires var_kind"):
        monotonicity_scan(small_phi_grid())


def test_inequality_scan_small_grid_passes():
    rep = inequality_scan(small_phi_grid(), Tolerance(1e-10))
    assert rep.kind == "inequality"
    assert rep.points_checked == 30
    assert rep.passed
    assert rep.min_margin > 0.0


def test_inequality_scan_requires_phi_grid():
    with pytest.raises(DomainError, match="requires var_kind"):
        inequality_scan(small_x_grid())


def test_inequality_scan_computes_f_at_one_once_per_r(monkeypatch):
    # 100 phi by 100 r: one f(1, r) and one bound per r column, not per point
    calls = {"f_at_one": 0, "f_at_one_error_bound": 0}

    def counted(name):
        fn = getattr(verify, name)

        def wrapper(r):
            calls[name] += 1
            return fn(r)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    rep = inequality_scan(default_grid("inequality"), Tolerance(1e-10))
    assert rep.points_checked == 10_000
    assert calls == {"f_at_one": 100, "f_at_one_error_bound": 100}


def test_identity_scan_passes():
    rep = identity_scan(Tolerance(1e-10))
    assert rep.kind == "identity"
    assert rep.points_checked == 150
    assert rep.passed
    assert rep.min_margin > 0.0


# ---------------------------------------------------------------------------
# the scanners must actually catch defects


def test_consistency_scan_flags_sign_flipped_arctan():
    def broken_closed(p):
        # the arctan piece 2xw atan2(wr, 1 + xr) / r^2 with its sign flipped
        res = f_closed(p)
        w = math.sqrt(max(0.0, 1.0 - p.x * p.x))
        atan_piece = 2.0 * p.x * w * math.atan2(w * p.r, 1.0 + p.x * p.r) / (p.r * p.r)
        return EvalResult(res.value - 2.0 * atan_piece, res.error_bound, "closed_form", 0)

    g = ScanGrid("x_grid", 0.3, 0.9, 4, 0.3, 0.9, 3)
    rep = consistency_scan(g, Tolerance(1e-10), closed_eval=broken_closed)
    assert not rep.passed
    assert rep.min_margin < 0.0
    assert len(rep.violations) >= g.var_count * g.r_count


def closed_offset(delta, at=None):
    """f_closed shifted by delta at the point at = (x, r), or everywhere."""

    def closed(p):
        res = f_closed(p)
        if at is None or (p.x, p.r) == at:
            return EvalResult(res.value + delta, res.error_bound, res.route, res.work)
        return res

    return closed


@pytest.mark.parametrize("delta, tol", [(1e-6, 1e-8), (1e-4, 1e-6)])
def test_consistency_scan_flags_offset_at_last_point(delta, tol):
    # the allowance must not grow as the grid is walked: an offset at the
    # last point breaks exactly its two pairs with the closed form
    g = ScanGrid("x_grid", -0.5, 0.5, 20, 0.2, 0.9, 20)
    rep = consistency_scan(g, Tolerance(tol), closed_eval=closed_offset(delta, at=(0.5, 0.9)))
    assert [(v.var, v.r) for v in rep.violations] == [(0.5, 0.9)] * 2


def test_consistency_scan_uniform_offset_spares_series_quad_pair():
    # nor may it shrink after a violation: two closed-form pairs per point fail
    g = ScanGrid("x_grid", -0.5, 0.5, 10, 0.2, 0.9, 10)
    rep = consistency_scan(g, Tolerance(1e-12), closed_eval=closed_offset(5e-11))
    assert len(rep.violations) == 200


def closed_bound_shrunk_by_r4(p):
    res = f_closed(p)
    return EvalResult(res.value, res.error_bound * p.r**4, res.route, res.work)


def test_consistency_scan_flags_closed_bound_shrunk_by_r4():
    # a closed-form bound too small by r^4 no longer covers its rounding
    # error at tol 1e-12, and with no allowance the scan must say so
    rep = consistency_scan(
        default_grid("consistency"), Tolerance(1e-12), closed_eval=closed_bound_shrunk_by_r4,
    )
    assert not rep.passed
    assert rep.min_margin < 0.0


def negated(p, tol):
    res = dispatch_eval(p, tol)
    return EvalResult(-res.value, res.error_bound, res.route, res.work)


def test_monotonicity_scan_flags_decreasing_surface():
    rep = monotonicity_scan(small_x_grid(r_count=3), Tolerance(1e-10), eval_fn=negated)
    assert not rep.passed
    assert rep.min_margin < 0.0


def test_monotonicity_scan_flags_decreasing_surface_on_fine_grid():
    # x steps of 1/119 are below MIN_DIFF_SPACING: each x is paired with the
    # x two steps on, so all but the last two x of each r are checked
    g = ScanGrid("x_grid", -0.5, 0.5, 120, 0.2, 0.9, 3)
    rep = monotonicity_scan(g, Tolerance(1e-10), eval_fn=negated)
    assert len(rep.violations) == 118 * 3
    assert rep.min_margin < 0.0


def test_monotonicity_scan_fine_grid_keeps_forward_differences():
    rep = monotonicity_scan(ScanGrid("x_grid", -0.99, 1.0, 300, 0.05, 1.0, 10), Tolerance(1e-10))
    assert rep.passed
    assert rep.min_margin == pytest.approx(1.9153528100154804e-4, rel=1e-9)


def test_inequality_scan_flags_surface_above_f_at_one():
    def overshooting(p, tol):
        return EvalResult(f_at_one(p.r) + 0.1, 0.0, "closed_form", 0)

    rep = inequality_scan(small_phi_grid(), Tolerance(1e-10), eval_fn=overshooting)
    assert not rep.passed
    assert len(rep.violations) == rep.points_checked
    assert rep.min_margin == pytest.approx(-0.1, abs=1e-12)


def test_identity_scan_flags_sign_flipped_lhs():
    rep = identity_scan(Tolerance(1e-10), lhs_fn=lambda p: -generating_lhs(p))
    assert not rep.passed
    assert rep.min_margin < 0.0
    assert len(rep.violations) >= rep.points_checked


def test_min_margin_tie_breaks_to_first_point():
    # a surface constant in phi makes every row tie; the first grid point
    # must win so reports are reproducible
    def flat(p, tol):
        return EvalResult(-0.25, 0.0, "closed_form", 0)

    g = small_phi_grid()
    rep = inequality_scan(g, Tolerance(1e-10), eval_fn=flat)
    assert rep.passed
    assert rep.worst_point == (g.var_min, g.r_min)
    assert rep.min_margin == f_at_one(g.r_min) + 0.25


def test_scan_error_is_annotated_with_grid_point():
    def boom(p, tol):
        raise ToleranceUnreachable("term budget exhausted")

    with pytest.raises(ToleranceUnreachable, match=r"\[at grid point"):
        consistency_scan(small_x_grid(), Tolerance(1e-10), series_eval=boom)

    def boom_plain(p, tol):
        raise UnsupportedParameters("cannot evaluate here")

    with pytest.raises(UnsupportedParameters, match=r"\[at grid point var = -0\.9, r = 0\.1\]$"):
        monotonicity_scan(small_x_grid(r_count=3), Tolerance(1e-10), eval_fn=boom_plain)


def test_identity_scan_error_is_annotated_with_grid_point():
    def boom(p):
        raise DomainError("cannot evaluate here")

    with pytest.raises(DomainError) as info:
        identity_scan(Tolerance(1e-10), lhs_fn=boom)
    assert str(info.value) == "cannot evaluate here [at grid point var = -0.9, r = 0.05]"
