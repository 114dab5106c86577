"""Order statistics shared by every workload.

Timings are reported as a median plus a *tail*: the highest percentile
from :data:`TAIL_PERCENTILES` that still has at least :data:`TAIL_MIN_BEYOND`
samples beyond it, so a tail is never one unlucky sample.  Failed
operations enter as ``inf``: they miss every latency limit.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Tail candidates, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile must have at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of ``pct`` among ``n`` (rounded first, so that
    99.9% of 10 000 is exactly rank 9 990)."""
    return math.ceil(round(pct * n / 100.0, 9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, _rank(pct, len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with >= TAIL_MIN_BEYOND samples
    beyond it among ``n`` samples, or None when ``n`` is too small."""
    for pct in TAIL_PERCENTILES:
        beyond = n - _rank(pct, n)
        if beyond >= TAIL_MIN_BEYOND:
            return pct
    return None


def median_and_tail(
    values: Sequence[float], finite_tail: bool = False
) -> Tuple[float, float, float, int]:
    """``(p50, tail value, tail percentile, n)``.

    Below ``2 * TAIL_MIN_BEYOND`` samples no percentile qualifies and the
    tail falls back to the median (percentile reported as 50).  With
    ``finite_tail``, a tail that lands on a failed (``inf``) sample steps
    down to the highest lower candidate with a finite value, so the figure
    stays a number while the failures are counted elsewhere.
    """
    n = len(values)
    pct = tail_percentile(n)
    if pct is None:
        pct = 50.0
    tail = percentile(values, pct)
    if finite_tail and math.isinf(tail):
        for lower in TAIL_PERCENTILES[TAIL_PERCENTILES.index(pct) + 1 :]:
            tail = percentile(values, lower)
            if not math.isinf(tail):
                pct = lower
                break
    return percentile(values, 50.0), tail, pct, n
