"""Acceptance gate: the eight headline checks, one printed line each.

Run with -s (or read captured output) to see the `criterion N PASS/FAIL`
lines alongside the pytest verdicts.
"""

import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import cosmax
from cosmax.analytic import f_at_one, f_closed
from cosmax.quadrature import dfdx_quad, f_quad
from cosmax.series import EvalPoint, EvalResult, Tolerance, f_series
from cosmax.verify import (
    IDENTITY_PARTIAL_ORDERS,
    ScanGrid,
    consistency_scan,
    default_grid,
    dispatch_eval,
    identity_scan,
    inequality_scan,
    margins,
    monotonicity_scan,
)


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n} FAIL: {label}")
        raise
    print(f"criterion {n} PASS: {label}")


def test_criterion_1_anchor_values():
    with criterion(1, "anchor values reproduced to 1e-12 in under 1 s"):
        t0 = time.perf_counter()
        f11 = f_closed(EvalPoint(1.0, 1.0)).value
        assert abs(f11 - 0.193147180559945) <= 1e-12
        assert abs(f11 - (math.log(2.0) - 0.5)) <= 1e-15
        f01 = f_closed(EvalPoint(0.0, 1.0)).value
        assert abs(f01 - 0.153426409720027) <= 1e-12
        assert abs(f01 - (0.5 - 0.5 * math.log(2.0))) <= 1e-15
        right_angle = ScanGrid("phi_grid", math.pi / 2.0, math.pi / 2.0, 1, 1.0, 1.0, 1)
        [(_, _, m, _, _)] = margins(right_angle, Tolerance(1e-12), dispatch_eval)
        assert abs(m - 0.039720770839918) <= 1e-12
        assert abs(m - (1.5 * math.log(2.0) - 1.0)) <= 1e-13
        # the same anchors through quadrature (the series route refuses
        # r = 1, where its tail bound diverges) plus one series cross-check
        assert abs(f_quad(EvalPoint(1.0, 1.0), Tolerance(1e-13)).value - f11) <= 1e-12
        assert abs(f_quad(EvalPoint(0.0, 1.0), Tolerance(1e-13)).value - f01) <= 1e-12
        s = f_series(EvalPoint(1.0, 0.999), Tolerance(1e-13))
        assert abs(s.value - f_at_one(0.999)) <= s.error_bound + 1e-13
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_triple_route_agreement():
    with criterion(2, "triple-route agreement on the 40x20 grid, zero violations"):
        g = default_grid("consistency")
        assert (g.var_count, g.r_count) == (40, 20)
        assert abs(g.var_min - (-0.999)) <= 1e-12
        assert g.var_max == 1.0
        assert g.r_min == 0.01 and g.r_max == 1.0
        rep = consistency_scan(g, Tolerance(1e-12))
        assert rep.points_checked == 800
        assert rep.violations == ()
        assert rep.passed
        assert rep.elapsed < 30.0


def test_criterion_3_inequality_scan_and_inset_profile():
    with criterion(3, "max-at-zero-angle scan clean; margin shrinks with the inset"):
        t0 = time.perf_counter()
        reports = {
            d: inequality_scan(default_grid("inequality", d), Tolerance(1e-10))
            for d in (1e-1, 1e-2, 1e-3)
        }
        base = reports[1e-3]
        assert base.points_checked == 100 * 100
        assert base.violations == ()
        assert base.min_margin > 0.0
        assert (
            reports[1e-1].min_margin
            > reports[1e-2].min_margin
            > reports[1e-3].min_margin
            > 0.0
        )
        # the worst margin sits at (phi, r) = (inset, inset) and scales like
        # inset^3/6: one power from r, two from 1 - cos(phi)
        assert 900.0 <= reports[1e-2].min_margin / reports[1e-3].min_margin <= 1100.0
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_monotonicity_and_derivative_positivity():
    with criterion(4, "forward differences and derivative route positive everywhere"):
        rep = monotonicity_scan(default_grid("monotonicity"), Tolerance(1e-10))
        assert rep.passed
        assert rep.min_margin > 0.0
        # near (x, r) = (-0.999, 1) the derivative integrand spikes to ~500
        # on a ~0.04-wide shoulder; 1e-10 resolves the whole grid in under
        # 4k panels per point, and the values clear their bounds by seven
        # orders of magnitude
        g = ScanGrid("x_grid", -0.999, 1.0, 40, 0.01, 1.0, 20)
        points = 0
        for x in g.var_values():
            for r in g.r_values():
                d = dfdx_quad(EvalPoint(x, r), Tolerance(1e-10))
                assert d.value > d.error_bound >= 0.0, (x, r)
                points += 1
        assert points == 800
        d0 = dfdx_quad(EvalPoint(0.0, 1.0), Tolerance(1e-12)).value
        h = 1e-5
        fd = (f_closed(EvalPoint(h, 1.0)).value - f_closed(EvalPoint(-h, 1.0)).value) / (2.0 * h)
        assert abs(d0 - fd) <= 1e-8


def test_criterion_5_tail_bound_soundness():
    with criterion(5, "coarse/fine series difference inside the reported bound, 400/400"):
        rng = random.Random(20260817)
        checked = 0
        for _ in range(400):
            x = rng.uniform(-0.999, 1.0)
            r = rng.uniform(1e-3, 0.99)
            p = EvalPoint(x, r)
            coarse = f_series(p, Tolerance(1e-8))
            fine = f_series(p, Tolerance(1e-11))
            assert abs(coarse.value - fine.value) <= coarse.error_bound, (x, r)
            checked += 1
        assert checked == 400


def test_criterion_6_generating_identity():
    with criterion(6, "generating-function identity holds at orders 5, 20, 80"):
        assert IDENTITY_PARTIAL_ORDERS == (5, 20, 80)
        rep = identity_scan(Tolerance(1e-10))
        assert rep.points_checked == 150
        assert rep.violations == ()
        assert rep.passed


def test_criterion_7_mutation_sensitivity():
    with criterion(7, "sign-flip fixtures are caught by both scanners"):
        def flipped_arctan(p):
            # the arctan piece 2xw atan2(wr, 1 + xr) / r^2 with its sign flipped
            res = f_closed(p)
            w = math.sqrt(max(0.0, 1.0 - p.x * p.x))
            atan_piece = 2.0 * p.x * w * math.atan2(w * p.r, 1.0 + p.x * p.r) / (p.r * p.r)
            return EvalResult(res.value - 2.0 * atan_piece, res.error_bound, "closed_form", 0)

        rep = consistency_scan(
            ScanGrid("x_grid", 0.3, 0.9, 4, 0.3, 0.9, 3),
            Tolerance(1e-10),
            closed_eval=flipped_arctan,
        )
        assert not rep.passed
        assert len(rep.violations) >= 1

        # a defect at the last grid point only: the check must not have
        # loosened by the time the scan gets there
        def off_at_last_point(p):
            res = f_closed(p)
            if (p.x, p.r) == (0.9, 0.9):
                return EvalResult(res.value + 5e-8, res.error_bound, res.route, res.work)
            return res

        rep = consistency_scan(
            ScanGrid("x_grid", 0.3, 0.9, 4, 0.3, 0.9, 3),
            Tolerance(1e-8),
            closed_eval=off_at_last_point,
        )
        assert [(v.var, v.r) for v in rep.violations] == [(0.9, 0.9)] * 2

        def flipped_value(p, tol):
            res = dispatch_eval(p, tol)
            return EvalResult(-res.value, res.error_bound, res.route, res.work)

        rep = inequality_scan(
            ScanGrid("phi_grid", 2.5, math.pi - 1e-3, 5, 0.9, 1.0, 3),
            Tolerance(1e-10),
            eval_fn=flipped_value,
        )
        assert not rep.passed
        assert len(rep.violations) >= 1

        def over_at_last_point(p, tol):
            res = dispatch_eval(p, tol)
            if p.r == 1.0 and p.x == math.cos(math.pi - 1e-3):
                return EvalResult(f_at_one(p.r) + 1e-9, res.error_bound, res.route, res.work)
            return res

        rep = inequality_scan(
            ScanGrid("phi_grid", 2.5, math.pi - 1e-3, 5, 0.9, 1.0, 3),
            Tolerance(1e-10),
            eval_fn=over_at_last_point,
        )
        assert [(v.var, v.r) for v in rep.violations] == [(math.pi - 1e-3, 1.0)]


def test_criterion_8_cli_byte_determinism():
    with criterion(8, "repeated CLI runs emit byte-identical CSV/JSON"):
        # the child must import the cosmax under test, installed or not
        src = str(Path(cosmax.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "cosmax", *argv],
                capture_output=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": path},
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout
            return proc.stdout

        for argv in (
            ["scan", "--kind", "identity", "--format", "csv"],
            ["eval", "--x", "0.3", "--r", "0.7", "--format", "json"],
            ["table", "--surface", "f", "--var-min", "0", "--var-max", "1",
             "--var-count", "5", "--r-min", "0.5", "--r-max", "1", "--r-count", "3",
             "--format", "csv"],
        ):
            assert run(argv) == run(argv)
