"""CPU steal correction of the benchmark's timings.

On a virtual machine whose host is shared, a virtual CPU that is ready to
run is often not run: the hypervisor gives its time to another guest, and
the guest kernel counts that time as steal in /proc/stat. On the 4-vCPU
guest this benchmark was written on, steal took 5-60% of the busy time of
a run, and it changed from minute to minute with the other guests' load,
so it moved every wall-clock timing of a run together by that much.

``StealClock`` samples each CPU's busy and steal ticks from a background
thread. ``corrected(a, b)`` returns the duration of ``[a, b]`` (in
``time.perf_counter`` seconds) less the share of it that was stolen. The
share is each CPU's ``steal / (busy + steal)`` over the interval, averaged
with the CPUs' busy ticks as weights: a CPU that woke only for a moment
(and waited for the hypervisor to run it) says little about the CPUs
doing the work. The interval is widened backwards to at least
``MIN_WINDOW_S`` because the kernel counts in 10 ms ticks. On a host that
reports no steal the correction is nil.
"""

from __future__ import annotations

import bisect
import threading
import time

import numpy as np

PERIOD_S = 0.1
MIN_WINDOW_S = 0.25


def cpu_ticks() -> np.ndarray:
    """Per-CPU ``[busy, steal]`` clock ticks from /proc/stat: time the CPU
    ran anything, and time it was ready to run but its hypervisor ran
    something else."""
    rows = []
    with open("/proc/stat") as f:
        for line in f:
            if not line.startswith("cpu"):
                break
            if line.startswith("cpu "):
                continue
            user, nice, system, _idle, _iowait, irq, softirq, steal = (
                int(x) for x in line.split()[1:9])
            rows.append((user + nice + system + irq + softirq, steal))
    return np.array(rows, dtype=np.float64)


class StealClock:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._t: list[float] = []
        self._ticks: list[np.ndarray] = []
        self._sample()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        ticks = cpu_ticks()
        with self._lock:
            self._t.append(time.perf_counter())
            self._ticks.append(ticks)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _at(self, t: float) -> np.ndarray:
        """Per-CPU ticks at time ``t``, interpolated between the samples
        around it."""
        i = bisect.bisect_left(self._t, t)
        if i == 0:
            return self._ticks[0]
        if i == len(self._t):
            return self._ticks[-1]
        t0, t1 = self._t[i - 1], self._t[i]
        w = (t - t0) / (t1 - t0) if t1 > t0 else 1.0
        return self._ticks[i - 1] + w * (self._ticks[i] - self._ticks[i - 1])

    def steal_share(self, a: float, b: float) -> float:
        """Busy-weighted share of the CPUs' time that was stolen over
        ``[a, b]`` (widened backwards to ``MIN_WINDOW_S``)."""
        self._sample()
        with self._lock:
            d = self._at(b) - self._at(min(a, b - MIN_WINDOW_S))
        busy, steal = d[:, 0], d[:, 1]
        if busy.sum() <= 0:
            return 0.0
        share = np.divide(steal, busy + steal, out=np.zeros_like(busy),
                          where=busy + steal > 0)
        return float((share * busy).sum() / busy.sum())

    def corrected(self, a: float, b: float) -> float:
        return (b - a) * (1.0 - self.steal_share(a, b))
