"""Run one cosmax benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs one untimed warm-up pass
and then passes for S seconds, and checks every pass's outputs outside
the timed region.  With --trace 0 it reports the end-to-end metrics,
measured untraced.  With --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics, the tracing overhead and the
dfdx_quad edge probe; the spans of one traced pass are written to
.perfbench_out/ in the checkout.

Every time is scaled to a reference machine speed (see speed.py); the
unscaled pass median and the speed factor are printed beside it.  The
units of the metrics are those BENCHMARK.json gives.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
program under test is imported from src/ next to this directory; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import CAL_REF_S, SpeedGauge, kernel_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_RUNS = 15
MIN_PASSES = 3
EDGE_PROBE = (-1.0 + 1e-4, 1.0, 1e-12)  # (x, r, tol) where dfdx_quad refuses after 10^6 panels

MISS_LAYERS = {"series": "series", "quadrature": "quadrature", "closed_form": "analytic"}


def with_units(metrics: dict, section: str) -> dict:
    """The metrics with their units from one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unit = {m["name"]: m["unit"] for m in spec[section]}
    return {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure_setup(workload: str, workdir: Path) -> float:
    """Median over SETUP_RUNS fresh interpreters of import plus warm-up time,
    each scaled by a kernel sample taken here just before the interpreter
    starts and one it takes right after its timed region."""
    samples = []
    for _ in range(SETUP_RUNS):
        before = kernel_seconds()
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(SRC), workload, str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, after = map(float, proc.stdout.split()[-2:])
        samples.append(elapsed * CAL_REF_S / (0.5 * (before + after)))
    return statistics.median(samples)


class Tally:
    """Checked passes of one run: operation counts and problems.

    Every pass makes the same seeded operations, so attempted counts the
    operations of one pass and failed those that failed in any pass.  Both
    depend only on the seed and the program, not on how many passes fit
    in the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: set = set()
        self.passes = 0
        self.wrong: list[str] = []
        self.last = None

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def add(self, wl, p):
        outcome = wl.check(p.outputs)
        if self.passes and outcome.attempted != self.attempted:
            self.wrong.append(f"a pass made {outcome.attempted} operations, the first {self.attempted}")
        self.attempted = max(self.attempted, outcome.attempted)
        self.failed_ops |= outcome.failed_ops
        self.passes += 1
        self.wrong += outcome.wrong
        self.last = outcome
        return outcome


class Timings:
    """Timed passes of one run, scaled to reference speed.

    Call latency percentiles are taken within each pass, where the speed
    scaling is most accurate, and reported as their median over passes;
    this also keeps memory flat however many calls a run makes.
    """

    def __init__(self) -> None:
        self.pass_seconds: list[float] = []
        self.raw_seconds: list[float] = []
        self.factors: list[float] = []
        self.call_p50: list[float] = []
        self.call_p99: list[float] = []
        self.calls_per_pass = 0

    def add_pass(self, p) -> None:
        self.raw_seconds.append(p.raw_seconds)
        self.factors.append(p.seconds / p.raw_seconds)
        self.pass_seconds.append(p.seconds)

    def add_calls(self, p) -> None:
        self.call_p50.append(statistics.median(p.call_seconds))
        self.call_p99.append(percentile(p.call_seconds, 99))
        self.calls_per_pass = len(p.call_seconds)

    def note(self) -> str:
        return (f"unscaled pass median {statistics.median(self.raw_seconds):.6g} s, "
                f"speed factor median {statistics.median(self.factors):.4g}")


def _print_outcome(wl, tally: Tally) -> None:
    o = tally.last
    print(f"fail_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of the {tally.attempted} operations a pass makes failed in "
          f"{tally.passes} checked passes; {o.failed} in the last)")
    if wl.name == "eval-mix":
        print("bound misses per pass by route: "
              + (", ".join(f"{k} {v}" for k, v in sorted(o.misses.items())) or "none"))
        print("worst error/bound by route: "
              + ", ".join(f"{k} {v:.3g}" for k, v in sorted(o.worst_ratio.items())))
    for problem in dict.fromkeys(tally.wrong):
        print(f"wrong: {problem}")


def end_to_end(wl, api, seconds: float, workdir: Path) -> tuple[Tally, dict]:
    """Pass times from run() passes; call times from run_calls() passes,
    which are the same passes unless the calls are made inside cosmax,
    and then alternate with them."""
    setup_s = measure_setup(wl.name, workdir)
    tally, timed = Tally(), Timings()
    tally.add(wl, wl.run(api))  # warm-up; later passes must match its outputs
    separate = type(wl).run_calls is not type(wl).run
    gauge = SpeedGauge()
    deadline = time.perf_counter() + seconds
    while len(timed.pass_seconds) < MIN_PASSES or time.perf_counter() < deadline:
        p = wl.run(api, gauge.factor)
        timed.add_pass(p)
        tally.add(wl, p)
        if separate:
            p = wl.run_calls(api, gauge.factor)
            tally.add(wl, p)
        timed.add_calls(p)
    per_pass = timed.calls_per_pass
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "pass_p50_s": statistics.median(timed.pass_seconds),
        "calls_per_s": per_pass / statistics.median(timed.pass_seconds),
        "call_p50_us": statistics.median(timed.call_p50) * 1e6,
        "call_p99_us": statistics.median(timed.call_p99) * 1e6,
    }
    print(f"passes = {len(timed.pass_seconds)}" + (" plain + as many with timed calls" if separate else "")
          + f", {per_pass} calls per pass, {per_pass - math.ceil(0.99 * per_pass)} of them beyond p99; "
          + timed.note())
    _print_outcome(wl, tally)
    return tally, with_units(metrics, "end_to_end")


def _edge_probe(tracer) -> dict:
    """One traced dfdx_quad call where it is known to refuse (see EDGE_PROBE)."""
    import cosmax

    x, r, tol = EDGE_PROBE
    api = tracer.api
    tracer.reset()
    with tracer.installed():
        gauge = SpeedGauge()
        t0 = time.perf_counter()
        try:
            api.dfdx_quad(api.EvalPoint(x, r), api.Tolerance(tol))
            outcome = "returned"
        except cosmax.ToleranceUnreachable:
            outcome = "refused"
        raw = time.perf_counter() - t0
        refusal_s = raw * gauge.factor()
    evals = tracer.counts["quadrature.integrand_evals"]
    print(f"edge probe dfdx_quad(x={x!r}, r={r!r}, tol={tol:g}): {outcome} after "
          f"{raw:.3f} s unscaled and {evals} integrand evaluations")
    return {"quadrature.refusal_s": refusal_s, "quadrature.refusal_integrand_evals": evals}


def per_layer(wl, api, seconds: float, seed: int) -> tuple[Tally, dict]:
    """Counters from a traced pass that also counts integrand calls (its
    spans are written out) and must match a second one at the end; self
    times from traced passes without the integrand counters, alternated
    with untraced ones for trace.overhead_frac."""
    from tracer import COUNTERS, LAYERS, Tracer
    from workloads import unscaled

    tracer = Tracer()
    tally, plain, traced = Tally(), Timings(), Timings()
    tally.add(wl, wl.run(api))  # warm-up
    metrics = _edge_probe(tracer)

    def traced_pass(scale=unscaled, count_integrands=False):
        tracer.reset()
        with tracer.installed(count_integrands):
            return wl.run(tracer.api, scale)

    def counters(p, keys=COUNTERS) -> dict:
        outcome = tally.add(wl, p)
        counts = {k: tracer.counts[k] for k in keys}
        for tag, layer in MISS_LAYERS.items():
            counts[f"{layer}.bound_misses"] = outcome.miss_layers[tag]
        return counts

    def compare(counts: dict) -> None:
        for k, v in counts.items():
            if v != reference_counts[k]:
                tally.wrong.append(f"counter {k} read {v} in one traced pass, "
                                   f"{reference_counts[k]} in another")

    tracer.spans = []
    reference_counts = counters(traced_pass(count_integrands=True))  # not timed
    spans, tracer.spans = tracer.spans, None
    timed_keys = [k for k in COUNTERS if k != "quadrature.integrand_evals"]
    self_times = []
    gauge = SpeedGauge()
    deadline = time.perf_counter() + seconds
    while len(traced.pass_seconds) < MIN_PASSES - 1 or time.perf_counter() < deadline:
        p = wl.run(api, gauge.factor)
        plain.add_pass(p)
        tally.add(wl, p)
        p = traced_pass(gauge.factor)
        traced.add_pass(p)
        self_times.append(tracer.self_seconds(p.seconds / p.raw_seconds))
        compare(counters(p, timed_keys))
    compare(counters(traced_pass(count_integrands=True)))
    metrics.update(reference_counts)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(s.get(layer, 0.0) for s in self_times)
    plain_p50 = statistics.median(plain.pass_seconds)
    metrics["trace.overhead_frac"] = statistics.median(traced.pass_seconds) / plain_p50 - 1.0
    print(f"passes = {len(plain.pass_seconds)} untraced + {len(traced.pass_seconds)} traced; "
          f"tracing overhead {metrics['trace.overhead_frac']:.3f}; " + plain.note())
    print(f"layer self times add up to {sum(metrics[f'{layer}.self_s'] for layer in LAYERS):.6g} s; "
          f"untraced pass median {plain_p50:.6g} s (both scaled); "
          f"wrapper costs taken off {tracer.outer_cost * 1e6:.3g} + {tracer.inner_cost * 1e6:.3g} us "
          "per span (scaled)")
    _print_outcome(wl, tally)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed,
                   "columns": ["id", "request", "parent", "name", "start_s", "end_s"],
                   "spans": spans}, fh)
    print(f"spans of one traced pass ({len(spans)}) written to {path.relative_to(ROOT)}")
    return tally, with_units(metrics, "per_layer")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cosmax" / "__init__.py").is_file():
        return _fail(f"no cosmax sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cosmax

    if not Path(cosmax.__file__).resolve().is_relative_to(SRC.resolve()):
        return _fail(f"imported cosmax from {cosmax.__file__}, not from {SRC}")
    from tracer import plain_api
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    print(f"workload = {args.workload}, seed = {args.seed}, seconds = {args.seconds:g}, "
          f"trace = {args.trace}")

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        api = plain_api()
        try:
            wl = WORKLOADS[args.workload](args.seed, api, str(workdir))
        except ImportError as err:
            return _fail(f"{args.workload} needs {err.name} for its reference values: {err}")
        if args.trace:
            tally, metrics = per_layer(wl, api, args.seconds, args.seed)
        else:
            tally, metrics = end_to_end(wl, api, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
