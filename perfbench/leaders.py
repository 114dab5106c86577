"""Leadership folds shared by the simulated and the live workloads.

Both worlds answer the same three questions the same way: which leader do
a group's live members agree on, which node is the kill target (the one
leading the most groups), and what the paper's QoS figures of a run are
(``analyze_leadership`` per group, pooled, with failure accounting).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.metrics.leadership import analyze_leadership

from perfbench.stats import median_and_tail


def agreed_leader(views: Iterable[Optional[int]], is_up: Callable[[int], bool]) -> Optional[int]:
    """The leader every view names, if there is one and it is up; else None."""
    distinct = set(views)
    leader = distinct.pop() if len(distinct) == 1 else None
    if leader is not None and not is_up(leader):
        return None
    return leader


def busiest_leader(leaders: Dict[int, Optional[int]]) -> Optional[int]:
    """The node leading the most groups (lowest id on a tie), or None."""
    counts: Dict[int, int] = {}
    for leader in leaders.values():
        if leader is not None:
            counts[leader] = counts.get(leader, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda node: (-counts[node], node))


def leadership_figures(
    events,
    groups: Iterable[int],
    measure_from: float,
    end: float,
    bound: float,
    problems: List[str],
) -> Dict[str, object]:
    """The paper's QoS figures over ``[measure_from, end]``, pooled over
    ``groups``.

    A failover is *attempted* when it completed or is still open at
    ``end`` (censored); it *failed* when still open or longer than
    ``bound`` seconds.  A run without a single failover is a problem.
    """
    groups = tuple(groups)
    failovers: List[float] = []
    censored = unjustified = disruptions = 0
    availability = 0.0
    for group in groups:
        qos = analyze_leadership(events, group, end_time=end, measure_from=measure_from)
        failovers.extend(sample.duration for sample in qos.recovery_samples)
        censored += qos.censored_recoveries
        unjustified += qos.unjustified_demotions
        disruptions += qos.disruptions
        availability += qos.availability
    if not failovers:
        problems.append("no failover was measured")
    late = sum(1 for duration in failovers if duration > bound)
    p50, tail, tail_pct, n = median_and_tail(failovers or [float("nan")])
    group_hours = len(groups) * (end - measure_from) / 3600.0
    return {
        "failover_p50_ms": 1000.0 * p50,
        "failover_tail_ms": 1000.0 * tail,
        "failover_tail_pct": tail_pct,
        "failover_n": n,
        "failovers_late": late,
        "failovers_censored": censored,
        "unjustified_demotions": unjustified,
        "disruptions": disruptions,
        "mistakes_per_hour": unjustified / group_hours,
        "leader_availability": availability / len(groups),
        "attempted": len(failovers) + censored,
        "failed": late + censored,
    }
