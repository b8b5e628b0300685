"""Machine-speed probe, so that timings do not follow the machine's drift.

On a small shared virtual machine the same verdict can take 1.8 times as
long from one minute to the next, with no change in the program.  The
probe measures that drift inside the timed process: every ``INTERVAL_S`` a
timer signal runs ``kernel``, a fixed piece of interpreter work that does
not touch ``wienerseq``, and records how long it took.  A timing is then
reported in reference seconds: the wall time minus the probe's own time,
scaled by ``REFERENCE_S`` over the probe's mean time in the same interval.
A slower program takes more reference seconds; a slower machine does not.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# Probe time that counts as one reference second per second: about the
# kernel's time inside a busy workload process on an idle machine.
REFERENCE_S = 0.001
# Fewest probe samples inside an interval for its own speed estimate;
# shorter intervals use every sample of the process.
MIN_SAMPLES = 5


def kernel() -> list:
    """Fixed work, about 1 ms: bitmask BFS over 12 circulant graphs."""
    total: dict[int, int] = {}
    for n in range(9, 33, 2):
        bits = [0] * n
        for v in range(n):
            for u in ((v + 1) % n, (3 * v + 1) % n):
                if u != v:
                    bits[v] |= 1 << u
                    bits[u] |= 1 << v
        for src in range(n):
            seen = frontier = 1 << src
            level = 0
            while frontier:
                spread = 0
                m = frontier
                while m:
                    low = m & -m
                    spread |= bits[low.bit_length() - 1]
                    m ^= low
                frontier = spread & ~seen
                seen |= frontier
                level += 1
                total[level] = total.get(level, 0) + 1
    return sorted(total.items())


class Probe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.monotonic()
        kernel()
        self.samples.append((start, time.monotonic() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the monotonic interval [start, end)."""
        inside = [d for s, d in self.samples if start <= s < end]
        speed = inside if len(inside) >= MIN_SAMPLES else [d for _, d in self.samples]
        return (end - start - sum(inside)) * REFERENCE_S / statistics.mean(speed)
