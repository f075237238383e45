"""Plain and traced views of cosmax's public functions.

The workloads call cosmax only through an "api" namespace.  plain_api()
hands them the functions themselves.  Tracer.api holds wrappers
that time each call as a span of its layer and count the work the call
reports; Tracer.installed() also patches the module attributes cosmax
resolves at call time, so calls made inside cosmax are seen too:

- the scanners bind their eval hooks as keyword defaults when they are
  defined, so patching cosmax.quadrature.f_quad never reaches
  consistency_scan; the traced scanners pass traced hooks instead;
- cosmax.verify, cosmax.analytic and cosmax.cli look up the routes they
  call in their own module globals, which are patched;
- the integrands get count-only wrappers (no span: they are called about
  a million times per scan-quad pass), unless installed() is told not
  to count them, as it is on the passes whose self times are reported.

A layer's self time is the span's duration minus the time covered by its
child spans.  A child covers its whole wrapper, bookkeeping included, plus
the cost of entering and leaving a wrapper (outer_cost); the cost of the
wrapper's clock reads inside the span (inner_cost) is taken off the span
itself.  Both are measured once per Tracer on wrapped f_closed calls, in
seconds at the reference speed of speed.py, and taken off per span when
self_seconds() scales a pass's self times to that speed.  So the
tracer's own time is charged to no layer, and the layer self times of a
pass add up to about its untraced time.  Spans of one top-level call
share its id as request id.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import Counter
from types import SimpleNamespace

import cosmax
import cosmax.analytic
import cosmax.cli
import cosmax.quadrature
import cosmax.verify
from speed import CAL_REF_S, kernel_seconds

LAYERS = ("series", "quadrature", "analytic", "verify", "cli")

# (layer, public name) for every function a workload, a scanner or the CLI calls
_TRACED = (
    ("series", "f_series"),
    ("series", "fourier_series"),
    ("series", "generating_lhs"),
    ("series", "generating_partial_sum"),
    ("quadrature", "f_quad"),
    ("quadrature", "dfdx_quad"),
    ("analytic", "f_closed"),
    ("analytic", "f_at_one"),
    ("analytic", "f_at_one_error_bound"),
    ("verify", "dispatch_eval"),
    ("verify", "consistency_scan"),
    ("verify", "monotonicity_scan"),
    ("verify", "inequality_scan"),
    ("verify", "identity_scan"),
)

# module globals that cosmax resolves at call time
_PATCHED_MODULES = (cosmax.verify, cosmax.analytic, cosmax.cli)

# each scanner's keyword hooks and the route each defaults to; the traced
# scanners fill them with traced routes unless the caller sets them
HOOKS = {
    "consistency_scan": {"series_eval": "f_series", "quad_eval": "f_quad", "closed_eval": "f_closed"},
    "monotonicity_scan": {"eval_fn": "dispatch_eval", "dfdx_fn": "dfdx_quad"},
    "inequality_scan": {"eval_fn": "dispatch_eval"},
    "identity_scan": {"lhs_fn": "generating_lhs"},
}

COUNTERS = (
    "series.calls", "series.terms",
    "quadrature.calls", "quadrature.panels", "quadrature.integrand_evals",
    "analytic.calls", "analytic.series_delegations",
    "verify.scan_calls", "verify.points", "verify.dispatch_calls", "verify.dispatch_fallbacks",
    "cli.calls", "cli.bytes_out",
)


def plain_api() -> SimpleNamespace:
    """The untraced public functions, plus the input types the workloads build."""
    return SimpleNamespace(
        EvalPoint=cosmax.EvalPoint,
        Tolerance=cosmax.Tolerance,
        ScanGrid=cosmax.ScanGrid,
        default_grid=cosmax.default_grid,
        cli_main=cosmax.cli.main,
        **{name: getattr(cosmax, name) for _, name in _TRACED},
    )


def _out_path(argv) -> str | None:
    argv = list(argv)
    return argv[argv.index("--out") + 1] if "--out" in argv else None


class Tracer:
    """Spans and work counters for the calls made through self.api."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.spans: list | None = None  # (id, request, parent, name, start, end) while recording
        self.children: Counter = Counter()  # layer -> child spans of its spans
        self._stack: list[list] = []  # [span id, request id, time covered by children, layer]
        self._next_id = 0
        self.outer_cost, self.inner_cost = self._measure_wrapper_costs()
        self.api = self._build_api()

    def reset(self) -> None:
        self.counts = Counter()
        self.self_s = Counter()
        self.children = Counter()

    def self_seconds(self, factor: float) -> dict[str, float]:
        """Self time by layer, with the raw clock scaled by factor to
        reference speed, and the wrapper costs taken off."""
        return {layer: v * factor - self.children[layer] * self.outer_cost
                - self.counts[f"{layer}.calls"] * self.inner_cost
                for layer, v in self.self_s.items()}

    def _count_result(self, name: str, args: tuple, res) -> None:
        c = self.counts
        if name in ("f_series", "fourier_series"):
            c["series.terms"] += res.work
        elif name == "generating_partial_sum":
            c["series.terms"] += args[1]
        elif name in ("f_quad", "dfdx_quad"):
            c["quadrature.panels"] += res.work
        elif name == "f_closed" and res.route == "series":
            c["analytic.series_delegations"] += 1
        elif name == "dispatch_eval":
            c["verify.dispatch_calls"] += 1
            if res.route == "quadrature":
                c["verify.dispatch_fallbacks"] += 1
        elif name.endswith("_scan"):
            c["verify.scan_calls"] += 1
            c["verify.points"] += res.points_checked
        elif name == "cli_main":
            path = _out_path(args[0])
            if path is not None and os.path.exists(path):
                c["cli.bytes_out"] += os.path.getsize(path)

    def _wrap(self, layer: str, name: str, fn):
        calls_key = f"{layer}.calls"
        stack = self._stack
        hooks = HOOKS.get(name, {})
        clock = time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            for kw, route in hooks.items():
                kwargs.setdefault(kw, getattr(self.api, route))
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            request = parent[1] if parent else span_id
            frame = [span_id, request, 0.0, layer]
            self.counts[calls_key] += 1
            stack.append(frame)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.self_s[layer] += end - start - frame[2]
                if self.spans is not None:
                    self.spans.append(
                        (span_id, request, parent[0] if parent else None, name, start, end)
                    )
            self._count_result(name, args, res)
            if parent:
                parent[2] += clock() - enter
                self.children[parent[3]] += 1
            return res

        traced.__name__ = name
        return traced

    def _measure_wrapper_costs(self) -> tuple[float, float]:
        """Seconds per wrapped call that the wrapper adds to its caller's
        self time outside the interval the caller is charged for (the call
        into the wrapper and the return from it), and to the span's own
        self time (its clock reads), at reference speed.  Measured on a
        wrapped loop of n wrapped calls of a short cosmax route, against
        the same loop calling the route directly and the loop alone,
        between two speed kernel samples.  A wrapped no-op would leave out
        what the wrapper costs when the real work runs between its halves
        (about 0.25 us per call more)."""
        n, repeats = 1000, 9
        route = cosmax.f_closed
        point = cosmax.EvalPoint(0.5, 0.5)
        child = self._wrap("calibration", "f_closed", route)

        def traced_calls() -> None:
            for _ in range(n):
                child(point)

        def plain_calls() -> None:
            for _ in range(n):
                route(point)

        def empty() -> None:
            for _ in range(n):
                pass

        def seconds(fn) -> float:
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        parent = self._wrap("calibration_loop", "loop", traced_calls)
        outer, inner = [], []
        before = kernel_seconds()
        for _ in range(repeats):
            self.self_s.clear()
            parent()
            loop, call = seconds(empty), seconds(plain_calls)
            outer.append((self.self_s["calibration_loop"] - loop) / n)
            inner.append((self.self_s["calibration"] - (call - loop)) / n)
        factor = CAL_REF_S / (0.5 * (before + kernel_seconds()))
        self.reset()
        return (max(0.0, statistics.median(outer)) * factor,
                max(0.0, statistics.median(inner)) * factor)

    def _count_only(self, fn):
        def counted(t, x):
            self.counts["quadrature.integrand_evals"] += 1
            return fn(t, x)

        return counted

    def _build_api(self) -> SimpleNamespace:
        api = plain_api()
        for layer, name in _TRACED:
            setattr(api, name, self._wrap(layer, name, getattr(cosmax, name)))
        api.cli_main = self._wrap("cli", "cli_main", cosmax.cli.main)
        return api

    @contextlib.contextmanager
    def installed(self, count_integrands: bool = True):
        """Patch cosmax's module globals with the traced functions, restoring
        them on exit; with count_integrands, also count integrand calls."""
        saved = []
        traced = {name: getattr(self.api, name) for _, name in _TRACED}
        for mod in _PATCHED_MODULES:
            for name, fn in traced.items():
                if name in vars(mod):
                    saved.append((mod, name, vars(mod)[name]))
                    setattr(mod, name, fn)
        quad = cosmax.quadrature
        for name in ("integrand_f", "integrand_dfdx") if count_integrands else ():
            saved.append((quad, name, getattr(quad, name)))
            setattr(quad, name, self._count_only(getattr(quad, name)))
        try:
            yield self.api
        finally:
            for mod, name, fn in reversed(saved):
                setattr(mod, name, fn)
