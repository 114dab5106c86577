"""Machine-speed reference: CPU figures that hold still on a shared host.

The benchmark runs on a few cores of a shared machine.  Whether another
tenant keeps the sibling hyper-thread and the caches busy changes how much
CPU time the same work takes, by up to 1.8x within seconds, so a raw CPU
total mostly measures the neighbours.  A *reference sample* is a fixed
piece of pure-Python work in the style of the program (a heap-ordered
event loop dispatching to small objects) that never changes and never
touches the program.  :class:`ReferenceMeter` times the program in short
blocks with a reference sample before and after each block, and divides
each block's time by the mean of the two samples: the ratio tracks the
program's own cost, while the host's speed at that moment cancels out.

Normalized figures are scaled back to seconds of a machine on which one
reference sample takes :data:`REFERENCE_S` seconds, so they read like
ordinary CPU or wall times.  The reference runs with the cyclic garbage
collector off, so the program's heap and gc settings do not reach it.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable

#: Seconds one reference sample is scaled to.
REFERENCE_S = 0.004
#: Events one reference sample dispatches.
REFERENCE_STEPS = 4000


class _Peer:
    __slots__ = ("key", "seen", "last")

    def __init__(self, key: int) -> None:
        self.key = key
        self.seen: dict = {}
        self.last = 0.0

    def on_message(self, src: int, when: float) -> int:
        self.seen[src] = self.seen.get(src, 0) + 1
        self.last = when
        return len(self.seen)


def _dispatch(steps: int) -> int:
    peers = [_Peer(i) for i in range(64)]
    queue = [(float(i), i, i) for i in range(64)]
    heapq.heapify(queue)
    seq, x, total = 64, 12345, 0
    for _ in range(steps):
        when, _seq, src = heapq.heappop(queue)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        dst = peers[x & 63]
        total += dst.on_message(src, when)
        seq += 1
        heapq.heappush(queue, (when + (x & 255) / 256.0, seq, dst.key))
    return total


def reference_sample() -> float:
    """CPU seconds of one reference sample, taken now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        _dispatch(REFERENCE_STEPS)
        return time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


class ReferenceMeter:
    """Accumulates the time of measured blocks, raw and normalized.

    ``clock`` is ``time.process_time`` for CPU figures and
    ``time.perf_counter`` for wall figures.  Blocks should be short (tens
    to hundreds of milliseconds) so that the host's speed is about the same
    at both reference samples around a block.
    """

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        self.raw_s = 0.0
        self.normalized_s = 0.0
        self._before = reference_sample()

    def begin(self) -> None:
        """Take a fresh reference sample for a block that starts now (after
        a pause that was not measured)."""
        self._before = reference_sample()

    def measure(self, work: Callable, *args):
        """Run ``work(*args)`` as one measured block; return its result."""
        t0 = self.clock()
        result = work(*args)
        spent = self.clock() - t0
        self.add(spent)
        return result

    def add(self, spent: float) -> None:
        """Account ``spent`` seconds of a block that has just ended."""
        after = reference_sample()
        self.raw_s += spent
        self.normalized_s += spent * REFERENCE_S / ((self._before + after) / 2.0)
        self._before = after
