"""Machine-speed gauge that scales measured times to a fixed reference speed.

On a shared virtual machine the CPU speed a process gets drifts by up to
~2x within seconds as other tenants load the host; unscaled per-run
medians of one workload then differ by 30-40% from run to run.  So a
fixed pure-Python kernel (float recurrences, frozen-dataclass
construction with validation, math calls: the operations cosmax spends
its time on) is timed next to every measurement, and the measurement is
multiplied by CAL_REF_S / (kernel time).  A scaled time reads as seconds
at the speed where the kernel takes CAL_REF_S, about the speed of an
uncontended core of the 2-vCPU Xeon VM the baseline was measured on.
The kernel is the benchmark's own code, so no change to cosmax moves it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

CAL_REF_S = 1.5e-3
CAL_POINTS = 400


@dataclass(frozen=True)
class _Point:
    x: float
    r: float

    def __post_init__(self) -> None:
        if not (-1.0 < self.x <= 1.0 and 0.0 < self.r <= 1.0):
            raise ValueError(f"bad point {self.x!r}, {self.r!r}")


def _kernel(p: _Point) -> float:
    x, r = p.x, p.r
    prev, cur = 1.0, x
    acc, rk = 0.0, r
    for k in range(1, 12):
        acc += rk * cur / (k + 2)
        prev, cur = cur, 2.0 * x * cur - prev
        rk *= r
    return acc + math.log1p(r * (r + 2.0 * x)) + math.atan2(r, 1.0 + x * r)


def kernel_seconds() -> float:
    """Wall time of one calibration sample."""
    t0 = time.perf_counter()
    for j in range(CAL_POINTS):
        _kernel(_Point(-0.9 + 1.8 * j / CAL_POINTS, 0.5))
    return time.perf_counter() - t0


class SpeedGauge:
    """Scale factors for consecutive measurements, from kernel samples taken
    before and after each one."""

    def __init__(self) -> None:
        self._last = kernel_seconds()

    def factor(self) -> float:
        """Call right after a measurement: its factor to reference speed."""
        now = kernel_seconds()
        f = CAL_REF_S / (0.5 * (self._last + now))
        self._last = now
        return f
