"""Host-speed calibration for the timed passes.

The benchmark runs on shared machines whose speed drifts by tens of
percent from one minute to the next, and within a pass: the same pass of
the same input has taken 0.9 s and 1.3 s a few seconds apart, with no
steal time and no scheduling wait to show for it. A time in host seconds
is then mostly a reading of the neighbours.

So every timed pass is calibrated while it runs. A wall-clock interval
timer interrupts the pass every ``PERIOD_S`` and runs a fixed pure-Python
kernel (max-min progressive filling on a fixed synthetic network, the kind
of work the simulator does most) in the same thread, and records how long
the kernel took. The pass's own time is its wall time less the kernel
calls. Its reference time is that own time scaled by
``REFERENCE_KERNEL_S`` over the mean kernel time: the seconds the pass
would take on a host where one kernel call takes exactly
``REFERENCE_KERNEL_S``. A change to the simulator moves the pass and not
the kernel, so it moves the reference time; a change of host speed moves
both, and cancels out.

The kernel is part of the benchmark and must not change between two
commits that are compared.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import time
from dataclasses import dataclass

PERIOD_S = 0.03
REFERENCE_KERNEL_S = 1e-3
WARM_UP_CALLS = 20
# Kernel calls just before and just after each interval, outside its wall
# time, so that a short interval has a speed reading too.
EDGE_CALLS = 3
OUTLIER_CAP = 3.0


def _network(seed: int = 11, flows: int = 240, links: int = 64,
             hops: int = 4):
    rng = random.Random(seed)
    names = [("link", k // 8, k % 8) for k in range(links)]
    paths = [tuple(rng.sample(names, hops)) for _ in range(flows)]
    capacities = {name: 100.0 + 10 * (k % 7)
                  for k, name in enumerate(names)}
    return paths, capacities


_PATHS, _CAPACITIES = _network()


def kernel(paths=_PATHS, capacities=_CAPACITIES) -> list[float]:
    """Max-min fair rates of the fixed network, by progressive filling."""
    rates = [math.inf] * len(paths)
    order: list = []
    crossing: dict = {}
    for i, path in enumerate(paths):
        for link in path:
            if link not in crossing:
                crossing[link] = set()
                order.append(link)
            crossing[link].add(i)
    residual = {link: capacities[link] for link in order}
    unfrozen = set(range(len(paths)))
    while unfrozen:
        tightest, share = None, math.inf
        for link in order:
            active = crossing[link]
            if active and residual[link] / len(active) < share:
                tightest, share = link, residual[link] / len(active)
        if tightest is None:
            break
        for i in list(crossing[tightest]):
            rates[i] = share
            unfrozen.discard(i)
            for link in paths[i]:
                crossing[link].discard(i)
                residual[link] -= share
        residual[tightest] = 0.0
    return rates


@dataclass
class Reading:
    """One calibrated interval."""
    wall_s: float
    kernel_s: list[float]

    @property
    def host_s(self) -> float:
        """Wall seconds less the kernel calls made inside the interval."""
        inside = self.kernel_s[EDGE_CALLS:len(self.kernel_s) - EDGE_CALLS]
        return self.wall_s - sum(inside)

    @property
    def kernel_mean_s(self) -> float:
        """Mean kernel time, each call capped at ``OUTLIER_CAP`` times the
        median: a call that lost the processor for milliseconds would
        otherwise set the speed of a short interval alone."""
        cap = OUTLIER_CAP * statistics.median(self.kernel_s)
        return statistics.fmean(min(k, cap) for k in self.kernel_s)

    @property
    def ref_s(self) -> float:
        """Host seconds scaled to the reference kernel speed."""
        return self.host_s * REFERENCE_KERNEL_S / self.kernel_mean_s


def _timed_kernel(samples: list[float]) -> None:
    # A garbage collection that the interrupted program's allocations set
    # off would otherwise land inside the kernel call and be counted as
    # slowness of the host.
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    samples.append(time.perf_counter() - t0)
    if collecting:
        gc.enable()


def warm_up() -> None:
    for _ in range(WARM_UP_CALLS):
        kernel()


def timed(fn, *args):
    """Call ``fn(*args)`` under the interval timer; return its result and
    the Reading."""
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM,
                             lambda _signum, _frame: _timed_kernel(samples))
    try:
        for _ in range(EDGE_CALLS):
            _timed_kernel(samples)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        for _ in range(EDGE_CALLS):
            _timed_kernel(samples)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return result, Reading(wall, samples)
