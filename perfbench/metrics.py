"""Metric definitions (mirrored in BENCHMARK.json) and their computation.

End-to-end metrics are what a user of the service sees; every workload
reports every one of them (untraced runs).  Per-layer metrics come from a
traced run: calls into and self time of each layer's entry points, useful-
work ratios measured at those entry points, and the workload's
virtual-time figures that are not end-to-end gates (lease latencies,
mistake rate).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.stats import median_and_tail

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("cpu_ms_per_node_s", "ms/node/s", "lower", 0.25),
    ("failover_p50_ms", "ms", "lower", 0.25),
    ("failover_tail_ms", "ms", "lower", 0.25),
    ("wire_kb_per_node_s", "kB/node/s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_CALLS_AND_SELF = (
    "net.send",
    "net.send_batch",
    "net.deliver",
    "runtime.encode",
    "runtime.decode",
    "fd.observe_frame",
    "fd.monitor.on_alive",
    "fd.estimator.observe",
    "fd.configure",
    "fd.swim.on_ping",
    "fd.swim.on_ping_req",
    "fd.swim.on_ack",
    "fd.swim.apply_updates",
    "core.group.merge_record",
    "core.group.delta_since",
    "core.election.on_alive",
    "core.election.on_suspect",
    "core.election.on_trust",
    "core.election.on_accusation",
    "core.service.handle_message",
    "core.service.handle_cell",
    "core.service.handle_hello",
    "core.service.emit_cells",
    "lease.manager.handle",
    "lease.ledger.merge_record",
    "metrics.usage.on_send",
    "metrics.usage.on_receive",
)

#: Layers whose total self time is reported.
SELF_TIME_LAYERS = (
    "sim",
    "net",
    "runtime",
    "fd",
    "fd.swim",
    "core.group",
    "core.election",
    "core.service",
    "lease",
    "metrics",
    "experiments",
)

#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        ("sim.events", "count", "lower"),
        ("sim.run_until.self_s", "s", "lower"),
        ("sim.timer.calls", "count", "lower"),
    ]
    + [
        item
        for entry in _CALLS_AND_SELF
        for item in ((f"{entry}.calls", "count", "lower"), (f"{entry}.self_s", "s", "lower"))
    ]
    + [
        ("runtime.timer.calls", "count", "lower"),
        ("runtime.udp.frames_sent", "count", "lower"),
        ("runtime.udp.frames_received", "count", "lower"),
        ("runtime.udp.frames_rejected", "count", "lower"),
        ("runtime.timer_lag_p50_ms", "ms", "lower"),
        ("runtime.timer_lag_tail_ms", "ms", "lower"),
        ("fd.configure.miss_ratio", "ratio", "lower"),
        ("fd.suspect.calls", "count", "lower"),
        ("fd.suspect.accurate_ratio", "ratio", "higher"),
        ("core.group.merge_record.changed_ratio", "ratio", "higher"),
        ("core.group.delta_since.records", "count", "lower"),
        ("lease.manager.handle.granted_ratio", "ratio", "higher"),
        ("lease.ledger.merge_record.changed_ratio", "ratio", "higher"),
        ("lease.client.submits_per_op", "ratio", "lower"),
        ("lease.grant_p50_ms", "ms", "lower"),
        ("lease.grant_tail_ms", "ms", "lower"),
        ("lease.sessions_failed", "count", "lower"),
        ("lease.grants_per_s", "1/s", "higher"),
        ("lease.outage_ms", "ms", "lower"),
        ("metrics.trace.record.calls", "count", "lower"),
        ("experiments.build_system.self_s", "s", "lower"),
        ("qos.leader_availability", "ratio", "higher"),
        ("qos.mistakes_per_hour", "1/h", "lower"),
        ("qos.unjustified_demotions", "count", "lower"),
        ("qos.disruptions", "count", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in SELF_TIME_LAYERS]
    + [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_values(
    summary: Dict[str, Tuple[int, float]],
    counts: Dict[str, int],
    timer_lag: List[float],
    figures: Dict[str, object],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every PER_LAYER metric from a traced run.

    ``summary`` is :meth:`Tracer.summary`, ``counts`` its counters,
    ``figures`` the workload's virtual-time (or live) figures and ``extra``
    what only the runner knows (events, frames, overhead ratio, ...).
    """

    def calls(name: str) -> int:
        return summary.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return summary.get(name, (0, 0.0))[1]

    out: Dict[str, float] = {}
    for entry in _CALLS_AND_SELF:
        out[f"{entry}.calls"] = calls(entry)
        out[f"{entry}.self_s"] = self_s(entry)
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_s(f"{layer}.self_s")
    lag_ms = [1000.0 * lag for lag in timer_lag]
    lag_p50, lag_tail, _, _ = median_and_tail(lag_ms) if lag_ms else (0.0, 0.0, 0.0, 0)
    out.update(
        {
            "sim.run_until.self_s": self_s("sim.run_until"),
            "sim.timer.calls": counts.get("sim.timer.calls", 0),
            "runtime.timer.calls": counts.get("runtime.timer.calls", 0),
            "runtime.timer_lag_p50_ms": lag_p50,
            "runtime.timer_lag_tail_ms": lag_tail,
            "fd.configure.miss_ratio": _ratio(
                counts.get("fd.configure.misses", 0), calls("fd.configure")
            ),
            "fd.suspect.calls": counts.get("fd.suspect.calls", 0),
            "fd.suspect.accurate_ratio": _ratio(
                counts.get("fd.suspect.accurate", 0), counts.get("fd.suspect.calls", 0)
            ),
            "core.group.merge_record.changed_ratio": _ratio(
                counts.get("core.group.merge_record.changed", 0),
                calls("core.group.merge_record"),
            ),
            "core.group.delta_since.records": counts.get("core.group.delta_since.records", 0),
            "lease.manager.handle.granted_ratio": _ratio(
                counts.get("lease.manager.handle.granted", 0), calls("lease.manager.handle")
            ),
            "lease.ledger.merge_record.changed_ratio": _ratio(
                counts.get("lease.ledger.merge_record.changed", 0),
                calls("lease.ledger.merge_record"),
            ),
            "lease.client.submits_per_op": _ratio(
                calls("lease.client.submit"), calls("lease.client.op")
            ),
            "lease.grant_p50_ms": figures.get("lease_grant_p50_ms", 0.0),
            "lease.grant_tail_ms": figures.get("lease_grant_tail_ms", 0.0),
            "lease.sessions_failed": figures.get("lease_late", 0),
            "lease.grants_per_s": figures.get("lease_grants_per_s", 0.0),
            "lease.outage_ms": figures.get("lease_outage_ms", 0.0),
            "metrics.trace.record.calls": calls("metrics.trace.record"),
            "experiments.build_system.self_s": self_s("experiments.build_system"),
            "qos.leader_availability": figures["leader_availability"],
            "qos.mistakes_per_hour": figures["mistakes_per_hour"],
            "qos.unjustified_demotions": figures["unjustified_demotions"],
            "qos.disruptions": figures["disruptions"],
        }
    )
    out.update(extra)
    missing = {name for name, _, _ in PER_LAYER} - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name, _, _ in PER_LAYER}
