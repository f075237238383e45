"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    result = _result(proc)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"]
    for m in SPEC["end_to_end"]:
        assert f"{m['name']} = " in proc.stdout
    assert "fail_frac = " in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "scan-closed", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    result = _result(proc)
    _assert_metrics(result, SPEC["per_layer"])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["verify.dispatch_calls"] == 10000
    assert metrics["quadrature.calls"] == 0
    assert metrics["quadrature.refusal_integrand_evals"] > 0
    assert (ROOT / ".perfbench_out" / "spans-scan-closed-seed3.json").is_file()


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "scan-closed", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _offset(fn, delta):
    def shifted(*args):
        res = fn(*args)
        return dataclasses.replace(res, value=res.value + delta)
    return shifted


def test_planted_offset_counts_as_failed():
    api = tracer.plain_api()
    wl = workloads.EvalMix(5, api, "")
    clean = wl.check(wl.run(api).outputs)
    bad_api = SimpleNamespace(**{**vars(api), "dispatch_eval": _offset(api.dispatch_eval, 1e-6)})
    bad = wl.check(wl.run(bad_api).outputs)
    dispatched = sum(route == "dispatch_eval" for route, *_ in wl.plan)
    assert bad.misses["dispatch_eval"] == dispatched
    assert bad.failed >= clean.failed - clean.misses["dispatch_eval"] + dispatched
    assert bad.wrong  # 1e-6 is beyond every tolerance the routes accept


def test_failed_counts_operations_not_passes():
    import run

    api = tracer.plain_api()
    wl = workloads.EvalMix(5, api, "")
    p = wl.run(api)
    once, thrice = run.Tally(), run.Tally()
    once.add(wl, p)
    for _ in range(3):
        thrice.add(wl, p)
    assert (thrice.attempted, thrice.failed) == (once.attempted, once.failed) == (len(wl.plan), once.last.failed)
    assert once.failed > 0 and not thrice.wrong


def test_defect_at_last_grid_point_counts_as_failed():
    api = tracer.plain_api()
    wl = workloads.ScanClosed(5, api, "")
    assert wl.check(wl.run(api).outputs).failed == 0
    grid = wl.jobs[0][1]
    last_x = math.cos(grid.var_values()[-1])

    def bad_scan(g, tol, eval_fn=api.dispatch_eval):
        def bad_eval(p, t):
            res = eval_fn(p, t)
            if p.x == last_x and p.r == grid.r_max:  # f(cos phi, r) just above f(1, r)
                return dataclasses.replace(res, value=api.f_at_one(p.r) + 1e-9)
            return res
        return api.inequality_scan(g, tol, eval_fn=bad_eval)

    bad_api = SimpleNamespace(**{**vars(api), "inequality_scan": bad_scan})
    out = wl.check(wl.run(bad_api).outputs)
    assert out.failed == 1 and "violations" in out.wrong[0]


def test_plain_scan_pass_calls_scanners_with_their_defaults():
    api = tracer.plain_api()
    wl = workloads.ScanClosed(5, api, "")
    seen = []

    def recording(scanner):
        def scan(*args, **kwargs):
            seen.append((scanner, sorted(kwargs)))
            return getattr(api, scanner)(*args, **kwargs)
        return scan

    spy = SimpleNamespace(**{**vars(api), **{name: recording(name) for name, _ in wl.scans}})
    wl.run(spy)
    assert seen == [("inequality_scan", []), ("identity_scan", [])]
    seen.clear()
    wl.run_calls(spy)
    assert seen == [("inequality_scan", ["eval_fn"]), ("identity_scan", ["lhs_fn"])]


def test_wrapper_time_is_charged_to_no_layer():
    t = tracer.Tracer()
    child = t._wrap("child", "noop", lambda: None)
    n = 2000

    def loop():
        for _ in range(n):
            child()

    parent = t._wrap("parent", "loop", loop)
    shares = []
    for _ in range(5):
        t.reset()
        gauge = speed.SpeedGauge()
        start = time.perf_counter()
        parent()
        seconds = time.perf_counter() - start
        factor = gauge.factor()
        self_s = t.self_seconds(factor)
        shares.append((self_s["parent"] + self_s["child"]) / (seconds * factor))
    # the wrappers are nearly all of the time here: charged to no layer,
    # the self times add up to ~0 of it; without the measured wrapper
    # costs taken off they add up to ~0.28, and with only the span itself
    # subtracted from its parent, to more
    assert statistics.median(shares) < 0.15


def test_counters_repeat_across_traced_passes():
    api = tracer.plain_api()
    wl = workloads.EvalMix(2, api, "")
    t = tracer.Tracer()
    seen = []
    for _ in range(2):
        t.reset()
        with t.installed():
            wl.run(t.api)
        seen.append({k: t.counts[k] for k in tracer.COUNTERS})
    assert seen[0] == seen[1]
    assert seen[0]["quadrature.integrand_evals"] > 0 and seen[0]["series.terms"] > 0


def test_reference_derivative_matches_quadrature_of_its_integrand():
    import mpmath
    import reference

    for x, r in ((0.3, 0.5), (-0.99, 1.0), (1.0, 1.0)):
        nodes = [0, -x, r] if 0 < -x < r else [0, r]  # split at the near pole's real part
        with mpmath.workdps(45):
            integral = mpmath.quad(lambda t: t * t * (1 - t * t) / (t * t + 2 * x * t + 1) ** 2,
                                   nodes) / r**2
            assert abs(reference.dfdx_ref(x, r) - integral) < mpmath.mpf(10) ** -35
