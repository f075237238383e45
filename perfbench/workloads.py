"""The four benchmark workloads: seeded inputs, one pass, and its output checks.

Each workload is a closed loop with a single caller in one thread: a call
starts when the previous one has returned.  A pass is a fixed amount of
work determined by the seed; run.py repeats passes for the measured
window and checks every pass outside the timed region, including that it
reproduces the outputs of the run's first pass.  run() times a
pass; run_calls() times a pass and each of its calls.  The two differ
only for the scans, whose calls are made inside cosmax, through timing
wrappers that a pass run() times does not have.

- scan-quad: consistency_scan (40x20) then monotonicity_scan (30x10) at
  tol 1e-12.  Quadrature does ~95% of the work.
- scan-closed: inequality_scan (100x100 phi-by-r) then identity_scan at
  tol 1e-12.  Every point goes through dispatch_eval -> f_closed and
  f_at_one; quadrature is never called.
- eval-mix: single-point calls of every admissible route at seeded
  points, including the edge regions the scan grids skip.
- cli-table: in-process cosmax.cli.main calls writing tables, a scan
  report and a point evaluation to files.

The seed shifts both ends of every scan and table grid inward by less
than half a grid step each, keeping the grid sizes, and draws the
eval-mix points.  cosmax sees only the generated inputs.
"""

from __future__ import annotations

import os
import random
import signal
import time
from collections import Counter
from dataclasses import dataclass, field

from tracer import HOOKS

SCAN_TOL = 1e-12
EVAL_TOLS = (1e-8, 1e-10, 1e-12)
SERIES_R_MAX = 1.0 - 1e-9  # the series route refuses r above this
# Known defect, probed by the traced run: at tol 1e-12 dfdx_quad works
# through 10^6 panels (6-10 s) and then refuses at x = -1 + 1e-4, r = 1,
# and also at some points with 1 + x in [1e-3, 1e-2] and r in (0.9, 1).
# One such call would outweigh a whole eval-mix pass, so eval-mix calls
# dfdx_quad only for x >= -0.99, where it stays under ~25 ms.
DFDX_X_MIN = -0.99
# an error this large (relative to max(1, |ref|)) marks the value itself
# wrong, beyond any tolerance the routes accept (the loosest is 1e-8)
GROSS_ERROR = 1e-7
EVAL_MIX_SIDE = 9  # each eval-mix cell is a 9x9 jittered grid in (u_x, u_r)

# eval-mix regimes, each a map from u in [0, 1) to a coordinate
R_REGIMES = (
    lambda u: 10.0 ** (-6.0 + 3.0 * u),         # r < 1e-3 (series delegation)
    lambda u: 0.05 + 0.85 * u,                  # r in [0.05, 0.9]
    lambda u: 1.0 - 10.0 ** (-3.0 + 2.0 * u),   # 1 - r in [1e-3, 1e-1]
    lambda u: 1.0,                              # r = 1
)
X_REGIMES = (
    lambda u: -0.99 + 1.98 * u,                 # interior
    lambda u: -1.0 + 10.0 ** (-7.0 + 5.0 * u),  # 1 + x in [1e-7, 1e-2]
    lambda u: 1.0,                              # x = 1
)


@dataclass
class Pass:
    """One pass: its wall time and per-call times, both scaled to reference
    speed segment by segment, its unscaled wall time, and its raw outputs."""

    seconds: float
    call_seconds: list[float]
    raw_seconds: float
    outputs: list


def unscaled() -> float:
    return 1.0


class PassClock:
    """Times a pass and its calls, scaled to reference speed segment by segment.

    A segment closes after the first call that ends SEGMENT_S or more after
    the segment began; scale() then returns the segment's speed factor
    (run.py passes a speed.SpeedGauge, whose kernel sample is left out of
    the pass time).  Untimed passes use unscaled().  A pass whose calls
    are not timed sets by_timer, and an interval timer closes a segment
    every SEGMENT_S instead: its SIGALRM handler runs between two bytecodes
    of whatever cosmax is doing, so cosmax is called unwrapped.
    """

    SEGMENT_S = 0.05

    def __init__(self, scale=unscaled, by_timer: bool = False) -> None:
        self.scale = scale
        self.seconds = self.raw_seconds = 0.0
        self.calls: list[float] = []
        self._open: list[float] = []
        self._saved_handler = None
        if by_timer and scale is not unscaled:
            self._saved_handler = signal.signal(signal.SIGALRM, lambda *_: self.close_segment())
            signal.setitimer(signal.ITIMER_REAL, self.SEGMENT_S, self.SEGMENT_S)
        self._start = time.perf_counter()

    def timed(self, fn):
        """fn, with each call timed as one call of the pass."""
        clock = time.perf_counter

        def call(*args):
            t0 = clock()
            res = fn(*args)
            t1 = clock()
            self._open.append(t1 - t0)
            if t1 - self._start >= self.SEGMENT_S:
                self.close_segment()
            return res

        return call

    def close_segment(self) -> None:
        raw = time.perf_counter() - self._start
        factor = self.scale()
        self.raw_seconds += raw
        self.seconds += raw * factor
        self.calls += [t * factor for t in self._open]
        self._open = []
        self._start = time.perf_counter()

    def finish(self, outputs: list) -> "Pass":
        if self._saved_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved_handler)
        self.close_segment()
        return Pass(self.seconds, self.calls, self.raw_seconds, outputs)


@dataclass
class Outcome:
    """Checked result of one pass.

    An operation is identified by its index in the pass; failed_ops holds
    the failed ones.  wrong holds the failures that make the run's outputs
    incorrect (everything except an eval-mix value that is accurate but
    outside its own reported error_bound).
    """

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    wrong: list[str] = field(default_factory=list)
    misses: Counter = field(default_factory=Counter)       # bound misses by route called
    miss_layers: Counter = field(default_factory=Counter)  # ... by route tag of the result
    worst_ratio: dict = field(default_factory=dict)        # route called -> max error / bound

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op: int, problem: str | None = None) -> None:
        self.failed_ops.add(op)
        if problem is not None:
            self.wrong.append(problem)


def seeded_grid(api, kind: str, rng: random.Random):
    """The default grid of `kind` with both ends of each axis moved inward
    by a quarter to half a grid step each; the point counts stay.

    The quarter-step floor keeps r_max from landing just below 1, where
    the series route would need ~30/(1 - r) terms per point and one seed
    could cost many times another (eval-mix covers that region).
    """
    g = api.default_grid(kind)

    def shrink(lo: float, hi: float, n: int) -> tuple[float, float]:
        step = (hi - lo) / (n - 1)
        return (lo + (0.25 + 0.25 * rng.random()) * step,
                hi - (0.25 + 0.25 * rng.random()) * step)

    var_min, var_max = shrink(g.var_min, g.var_max, g.var_count)
    r_min, r_max = shrink(g.r_min, g.r_max, g.r_count)
    return api.ScanGrid(g.var_kind, var_min, var_max, g.var_count, r_min, r_max, g.r_count, g.inset)


def _jittered(rng: random.Random, side: int) -> list[tuple[float, float, int]]:
    """side^2 points (u, v, i + j), one drawn in each square of a side x side grid on [0, 1)^2."""
    return [((i + rng.random()) / side, (j + rng.random()) / side, i + j)
            for i in range(side) for j in range(side)]


class ScanWorkload:
    """Scanner calls at tol 1e-12 on seeded grids; identity_scan has a fixed grid.

    run() calls the scanners with their default routes.  The calls of a
    run_calls() pass are the route calls the scanners make through their
    keyword hooks, which it gives timing wrappers of the same routes they
    default to (two clock reads per call).
    """

    name = ""
    scans: tuple[tuple[str, str | None], ...] = ()  # (scanner, grid kind or None)

    def __init__(self, seed: int, api, workdir: str) -> None:
        rng = random.Random(seed)
        self.tol = api.Tolerance(SCAN_TOL)
        self.jobs = []
        for scanner, kind in self.scans:
            grid = seeded_grid(api, kind, rng) if kind else None
            sized = grid or api.default_grid("identity")
            self.jobs.append((scanner, grid, sized.var_count * sized.r_count))
        self.first: list | None = None

    def run(self, api, scale=unscaled, time_calls: bool = False) -> Pass:
        clock = PassClock(scale, by_timer=not time_calls)
        outputs = []
        for scanner, grid, _ in self.jobs:
            fn = getattr(api, scanner)
            hooks = ({kw: clock.timed(getattr(api, route)) for kw, route in HOOKS[scanner].items()}
                     if time_calls else {})
            try:
                outputs.append(fn(self.tol, **hooks) if grid is None else fn(grid, self.tol, **hooks))
            except Exception as err:  # counted as a failed operation by check()
                outputs.append(err)
        return clock.finish(outputs)

    def run_calls(self, api, scale=unscaled) -> Pass:
        return self.run(api, scale, time_calls=True)

    def check(self, outputs: list) -> Outcome:
        out = Outcome()
        dicts = [None if isinstance(rep, Exception) else rep.as_dict() for rep in outputs]
        if self.first is None:
            self.first = dicts
        for k, ((scanner, _, expected), rep, d, first) in enumerate(
                zip(self.jobs, outputs, dicts, self.first)):
            out.attempted += 1
            if isinstance(rep, Exception):
                out.fail(k, f"{scanner} raised {rep!r}")
            elif not rep.passed:
                out.fail(k, f"{scanner} reported {len(rep.violations)} violations")
            elif rep.points_checked != expected:
                out.fail(k, f"{scanner} checked {rep.points_checked} points, grid has {expected}")
            elif d != first:
                out.fail(k, f"{scanner} report differs from the first pass")
        return out


class ScanQuad(ScanWorkload):
    name = "scan-quad"
    scans = (("consistency_scan", "consistency"), ("monotonicity_scan", "monotonicity"))


class ScanClosed(ScanWorkload):
    name = "scan-closed"
    scans = (("inequality_scan", "inequality"), ("identity_scan", None))


class EvalMix:
    """Every admissible route at seeded single points.

    r comes from four regimes and x from three (R_REGIMES, X_REGIMES).
    Each of the 12 cells gets one point in every square of a jittered
    EVAL_MIX_SIDE x EVAL_MIX_SIDE grid, with the tolerances balanced along its rows and
    columns, so every seed has the same mix of regions and of costs
    (quadrature cost depends jointly on 1 + x and 1 - r).  Each point
    calls f_series (r <= 1 - 1e-9), f_quad, f_closed, dispatch_eval and
    dfdx_quad (x >= -0.99).  Results are compared with a 40-digit
    mpmath reference computed here, before any timing.
    """

    name = "eval-mix"

    def __init__(self, seed: int, api, workdir: str) -> None:
        import reference  # needs mpmath: without it eval-mix refuses to run

        rng = random.Random(seed)
        points = [(x_of(u), r_of(v), EVAL_TOLS[k % len(EVAL_TOLS)])
                  for r_of in R_REGIMES for x_of in X_REGIMES
                  for u, v, k in _jittered(rng, EVAL_MIX_SIDE)]
        rng.shuffle(points)
        self.plan = []  # (route, point, tolerance, reference)
        for x, r, tol in points:
            p, t = api.EvalPoint(x, r), api.Tolerance(tol)
            f = reference.f_ref(x, r)
            routes = (["f_series"] if r <= SERIES_R_MAX else []) + ["f_quad", "f_closed", "dispatch_eval"]
            self.plan += [(route, p, t, f) for route in routes]
            if x >= DFDX_X_MIN:
                self.plan.append(("dfdx_quad", p, t, reference.dfdx_ref(x, r)))
        self._abs_error = reference.abs_error
        self._verdicts: dict = {}  # call index -> (value, bound, miss, gross, ratio) of its first result

    def run(self, api, scale=unscaled) -> Pass:
        clock = PassClock(scale)
        routes = {name: clock.timed(getattr(api, name))
                  for name in ("f_series", "f_quad", "f_closed", "dispatch_eval", "dfdx_quad")}
        outputs = []
        for route, p, tol, _ in self.plan:
            try:
                outputs.append(routes[route](p) if route == "f_closed" else routes[route](p, tol))
            except Exception as err:  # counted as a failed operation by check()
                outputs.append(err)
        return clock.finish(outputs)

    run_calls = run  # the calls are this workload's own

    def _verdict(self, k: int, res, ref) -> tuple:
        first = self._verdicts.get(k)
        if first is not None and first[:2] == (res.value, res.error_bound):
            return first
        err = self._abs_error(res.value, ref)
        miss = err > res.error_bound
        gross = err > GROSS_ERROR * max(1, abs(ref))
        ratio = float(err / res.error_bound) if res.error_bound else (float("inf") if err else 0.0)
        verdict = (res.value, res.error_bound, miss, gross, ratio)
        self._verdicts.setdefault(k, verdict)
        return verdict

    def check(self, outputs: list) -> Outcome:
        out = Outcome()
        for k, ((route, p, tol, ref), res) in enumerate(zip(self.plan, outputs)):
            out.attempted += 1
            if isinstance(res, Exception):
                out.fail(k, f"{route}(x={p.x!r}, r={p.r!r}, tol={tol.abs!r}) raised {res!r}")
                continue
            _, _, miss, gross, ratio = self._verdict(k, res, ref)
            out.worst_ratio[route] = max(out.worst_ratio.get(route, 0.0), ratio)
            if self._verdicts[k][:2] != (res.value, res.error_bound):
                out.fail(k, f"{route}(x={p.x!r}, r={p.r!r}) returned another result than in the first pass")
            if gross:
                out.fail(k, f"{route}(x={p.x!r}, r={p.r!r}) is off by more than {GROSS_ERROR:g}")
            elif miss:
                out.fail(k)
            if miss:
                out.misses[route] += 1
                out.miss_layers[res.route] += 1
        return out


class CliTable:
    """In-process cosmax.cli.main calls writing to files in the work directory.

    Each of the four invocations is one call of the pass.
    """

    name = "cli-table"

    def __init__(self, seed: int, api, workdir: str) -> None:
        rng = random.Random(seed)
        margin = seeded_grid(api, "inequality", rng)
        surface = seeded_grid(api, "consistency", rng)
        x, r = rng.uniform(-0.9, 0.9), rng.uniform(0.1, 0.9)

        def grid_flags(g) -> list[str]:
            return [f"--var-min={g.var_min!r}", f"--var-max={g.var_max!r}",
                    f"--r-min={g.r_min!r}", f"--r-max={g.r_max!r}"]

        def out(name: str) -> list[str]:
            return ["--out", os.path.join(workdir, name)]

        self.calls = [
            ["table", "--surface", "margin", "--format", "csv", *grid_flags(margin), *out("margin.csv")],
            ["table", "--surface", "f", "--format", "json", *grid_flags(surface), *out("f.json")],
            ["scan", "--kind", "identity", "--tol", "1e-12", "--format", "json", *out("identity.json")],
            ["eval", f"--x={x!r}", f"--r={r!r}", "--format", "json", *out("eval.json")],
        ]
        self.first: list | None = None

    def run(self, api, scale=unscaled) -> Pass:
        paths = [argv[-1] for argv in self.calls]
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        clock = PassClock(scale)
        main = clock.timed(api.cli_main)
        codes = []
        for argv in self.calls:
            try:
                codes.append(main(argv))
            except Exception as err:  # counted as a failed operation by check()
                codes.append(err)
        p = clock.finish([])
        for code, path in zip(codes, paths):
            data = None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
            p.outputs.append((code, data))
        return p

    run_calls = run  # the calls are this workload's own

    def check(self, outputs: list) -> Outcome:
        out = Outcome()
        if self.first is None:
            self.first = [data for _, data in outputs]
        for k, (argv, (code, data), first) in enumerate(zip(self.calls, outputs, self.first)):
            out.attempted += 1
            if code != 0:
                out.fail(k, f"cosmax {argv[0]} {argv[1:3]} exited with {code!r}")
            elif not data:
                out.fail(k, f"cosmax {argv[0]} {argv[1:3]} wrote nothing")
            elif data != first:
                out.fail(k, f"cosmax {argv[0]} {argv[1:3]} wrote other bytes than the first pass")
        return out


WORKLOADS = {w.name: w for w in (ScanQuad, ScanClosed, EvalMix, CliTable)}
