"""The simulated workloads: leader failover, membership churn, lease load.

Each workload builds the paper's deployment through
``repro.experiments.runner.build_system``, warms it up, then drives it with
a fault (and, for ``lease_failover``, a request) schedule generated here
from the benchmark seed.  The program only ever sees the generated inputs:
crashes and recoveries through ``Node.crash``/``recover``, leaves and
rejoins through ``Application.leave``/``join``, and lease sessions through
benchmark-owned ``LeaseClient`` + ``HostLeaseChannel`` pairs.

Every time below is virtual (seconds of simulated time); wall and CPU time
are measured in blocks of a few virtual seconds, each normalized to the
reference machine (perfbench/reference.py).  One :func:`run_rep` is one complete build,
warm-up and measured window; repeating it on the same seed must reproduce
every virtual-time figure, the trace digest and the event count.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.experiments.runner as runner
from repro.chaos.invariants import check_no_double_grant
from repro.experiments.scenario import ExperimentConfig
from repro.lease.client import HostLeaseChannel, LeaseClient
from repro.metrics.trace import trace_digest

from perfbench.leaders import agreed_leader, busiest_leader, leadership_figures
from perfbench.reference import ReferenceMeter
from perfbench.stats import median_and_tail

#: A failover that takes longer than this many detection times (plus the
#: fixed slack below) counts as failed: no agreed leader within the bound.
FAILOVER_BOUND_TD = 5.0
FAILOVER_BOUND_SLACK_S = 2.0


@dataclass(frozen=True)
class KillPlan:
    """Kill the node leading the most groups every ``period`` ± ``jitter``
    virtual seconds; recover it ``downtime`` later (both ranges uniform)."""

    first: float
    period: float
    jitter: float
    downtime: Tuple[float, float]


@dataclass(frozen=True)
class ChurnPlan:
    """Background churn: one event every ``gap`` (uniform range) virtual
    seconds, alternately crashing a random node and making a random
    process leave its group, each for ``downtime`` (uniform range)."""

    gap: Tuple[float, float]
    downtime: Tuple[float, float]


@dataclass(frozen=True)
class LeasePlan:
    """Open-loop lease sessions: Poisson arrivals at ``rate`` per virtual
    second, each acquire -> hold -> release on one of ``locks`` names drawn
    Zipf(``skew``), from a fresh client on a uniformly drawn node.

    A fresh client per session sends one acquire, its retries (at most one
    per holder expiry) and one release: far below the manager's 2 requests
    per second per client, so the throttle never decides a session."""

    rate: float
    locks: int
    skew: float
    hold: Tuple[float, float]
    ttl: float
    #: A session with no grant this long after it was due has failed.
    deadline: float


@dataclass(frozen=True)
class SimWorkload:
    name: str
    n_nodes: int
    n_groups: int
    fd_plane: str
    link_delay_mean: float
    link_loss_prob: float
    warmup: float
    window: float
    #: Fault-free tail after the window, so every failover completes.
    settle: float
    #: Virtual seconds per measured block (about 0.1 s of CPU each), see
    #: perfbench/reference.py.
    chunk: float
    kills: KillPlan
    churn: Optional[ChurnPlan] = None
    leases: Optional[LeasePlan] = None

    @property
    def end(self) -> float:
        return self.warmup + self.window + self.settle

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            name=f"perfbench-{self.name}",
            algorithm="omega_lc",
            n_nodes=self.n_nodes,
            n_groups=self.n_groups,
            fd_plane=self.fd_plane,
            link_delay_mean=self.link_delay_mean,
            link_loss_prob=self.link_loss_prob,
            node_churn=False,
            duration=self.end,
            warmup=self.warmup,
            seed=seed,
        )


WORKLOADS: Dict[str, SimWorkload] = {
    "failover_lossy": SimWorkload(
        name="failover_lossy",
        n_nodes=12,
        n_groups=8,
        fd_plane="all_pairs",
        link_delay_mean=0.010,
        link_loss_prob=0.01,
        warmup=20.0,
        window=120.0,
        settle=8.0,
        chunk=2.0,
        kills=KillPlan(first=2.0, period=6.0, jitter=1.0, downtime=(2.0, 3.5)),
    ),
    "churn_swim": SimWorkload(
        name="churn_swim",
        n_nodes=50,
        n_groups=1,
        fd_plane="swim",
        link_delay_mean=0.025e-3,
        link_loss_prob=0.0,
        warmup=4.0,
        window=60.0,
        settle=4.0,
        chunk=0.5,
        kills=KillPlan(first=1.0, period=3.0, jitter=0.2, downtime=(1.5, 2.5)),
        churn=ChurnPlan(gap=(0.4, 0.6), downtime=(1.5, 2.5)),
    ),
    "lease_failover": SimWorkload(
        name="lease_failover",
        n_nodes=12,
        n_groups=1,
        fd_plane="all_pairs",
        link_delay_mean=0.025e-3,
        link_loss_prob=0.0,
        warmup=20.0,
        window=300.0,
        settle=20.0,
        chunk=2.0,
        kills=KillPlan(first=15.0, period=30.0, jitter=4.0, downtime=(3.0, 5.0)),
        # The recorded lease_load cell (1000 clients on 250 locks) grants
        # about 1300 leases per 30 virtual s, about 43/s: the same lock
        # count and about the same grant rate, but open loop and skewed.
        # Holds are short enough that even the hottest lock (about 4.8 %
        # of sessions, 1.9/s) is busy only about 40 % of its time.
        leases=LeasePlan(
            rate=40.0,
            locks=250,
            skew=0.6,
            hold=(0.1, 0.3),
            ttl=1.0,
            deadline=25.0,
        ),
    ),
}


# ----------------------------------------------------------------------
# Schedule generation (benchmark seed -> inputs)
# ----------------------------------------------------------------------
def _generator(seed: int, purpose: str) -> np.random.Generator:
    """An independent stream per schedule, derived from the seed."""
    tag = sum(ord(ch) << (8 * (i % 4)) for i, ch in enumerate(purpose))
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def kill_schedule(plan: KillPlan, start: float, stop: float, seed: int) -> List[Tuple[float, float]]:
    """``(kill time, downtime)`` pairs in ``[start, stop)``."""
    rng = _generator(seed, "kills")
    out = []
    t = start + plan.first
    while t < stop:
        out.append((t, float(rng.uniform(*plan.downtime))))
        t += plan.period + float(rng.uniform(-plan.jitter, plan.jitter))
    return out


def churn_schedule(
    plan: ChurnPlan, n_nodes: int, start: float, stop: float, seed: int
) -> List[Tuple[float, str, int, float]]:
    """``(time, "crash"|"leave", node, downtime)`` events in ``[start, stop)``."""
    rng = _generator(seed, "churn")
    out = []
    t = start + float(rng.uniform(*plan.gap))
    while t < stop:
        kind = "leave" if len(out) % 2 else "crash"
        out.append((t, kind, int(rng.integers(n_nodes)), float(rng.uniform(*plan.downtime))))
        t += float(rng.uniform(*plan.gap))
    return out


@dataclass(frozen=True)
class Session:
    due: float
    lock: int
    hold: float
    node: int


def lease_schedule(
    plan: LeasePlan, n_nodes: int, start: float, stop: float, seed: int
) -> List[Session]:
    """Sessions due in ``[start, stop)``, in due order."""
    rng = _generator(seed, "leases")
    expected = plan.rate * (stop - start)
    gaps = rng.exponential(1.0 / plan.rate, size=int(expected + 10.0 * expected**0.5 + 10))
    due = start + np.cumsum(gaps)
    if due[-1] < stop:
        raise ValueError("lease schedule: too few arrivals drawn")
    due = due[due < stop]
    weights = 1.0 / np.arange(1, plan.locks + 1) ** plan.skew
    locks = rng.choice(plan.locks, size=len(due), p=weights / weights.sum())
    holds = rng.uniform(*plan.hold, size=len(due))
    nodes = rng.integers(n_nodes, size=len(due))
    return [
        Session(due=float(t), lock=int(lock), hold=float(hold), node=int(node))
        for t, lock, hold, node in zip(due, locks, holds, nodes)
    ]


@dataclass(frozen=True)
class Inputs:
    """Everything a repetition feeds the program, generated from the seed."""

    kills: List[Tuple[float, float]]
    churn: List[Tuple[float, str, int, float]]
    sessions: List[Session]


def generate_inputs(workload: SimWorkload, seed: int) -> Inputs:
    start, stop = workload.warmup, workload.warmup + workload.window
    churn = workload.churn
    leases = workload.leases
    return Inputs(
        kills=kill_schedule(workload.kills, start, stop, seed),
        churn=churn_schedule(churn, workload.n_nodes, start, stop, seed) if churn else [],
        sessions=lease_schedule(leases, workload.n_nodes, start, stop, seed) if leases else [],
    )


# ----------------------------------------------------------------------
# Drivers (run inside the simulation, on the simulator's clock)
# ----------------------------------------------------------------------
def common_leaders(system) -> Dict[int, Optional[int]]:
    """Per hosted group: the leader every live member agrees on, or None."""
    nodes = system.network.nodes

    def is_up(node: int) -> bool:
        return nodes[node].up

    return {
        group: agreed_leader(
            (
                app.leader(group)
                for app in system.apps
                if is_up(app.pid) and app.bound and app.group(group) is not None
            ),
            is_up,
        )
        for group in system.config.groups
    }


class FaultDriver:
    """Applies the kill (and churn) schedule to a built system."""

    def __init__(self, system, inputs: Inputs) -> None:
        self.system = system
        #: Nodes currently crashed ("down") or whose process has left
        #: ("left"); neither is picked again until it is back.
        self.out: Dict[int, str] = {}
        self.kill_times: List[float] = []
        self.skipped = 0
        sim = system.sim
        for when, downtime in inputs.kills:
            sim.schedule_at(when, self._kill_leader, downtime)
        for when, kind, node, downtime in inputs.churn:
            sim.schedule_at(when, self._churn, kind, node, downtime)

    def _kill_leader(self, downtime: float) -> None:
        target = busiest_leader(common_leaders(self.system))
        if target is None or target in self.out:
            self.skipped += 1
            return
        self.kill_times.append(self.system.sim.now)
        self._crash(target, downtime)

    def _churn(self, kind: str, node: int, downtime: float) -> None:
        if node in self.out:
            self.skipped += 1
            return
        if kind == "crash":
            self._crash(node, downtime)
            return
        app = self.system.apps[node]
        group = self.system.config.group
        self.out[node] = "left"
        app.leave(group)
        self.system.sim.schedule(downtime, self._rejoin, node)

    def _crash(self, node: int, downtime: float) -> None:
        self.out[node] = "down"
        self.system.network.node(node).crash()
        self.system.sim.schedule(downtime, self._recover, node)

    def _recover(self, node: int) -> None:
        del self.out[node]
        self.system.network.node(node).recover()

    def _rejoin(self, node: int) -> None:
        del self.out[node]
        config = self.system.config
        self.system.apps[node].join(config.group, candidate=True, qos=config.qos)


class LeaseDriver:
    """Open-loop lease sessions from benchmark-owned clients.

    Only the next arrival is ever scheduled (each session schedules its
    successor), so the pending-event queue holds live work, not the whole
    schedule."""

    CLIENT_BASE = 50_000

    def __init__(self, system, plan: LeasePlan, inputs: Inputs) -> None:
        self.plan = plan
        self.system = system
        self.sessions = inputs.sessions
        #: Per session: grant latency (s), inf while/if never granted.
        self.latency = [float("inf")] * len(self.sessions)
        self.late = 0
        if self.sessions:
            system.sim.schedule_at(self.sessions[0].due, self._start, 0)

    def _start(self, index: int) -> None:
        session = self.sessions[index]
        if index + 1 < len(self.sessions):
            self.system.sim.schedule_at(self.sessions[index + 1].due, self._start, index + 1)
        host = self.system.hosts[session.node]
        client_id = self.CLIENT_BASE + index
        client = LeaseClient(
            HostLeaseChannel(host, self.system.config.group),
            host.scheduler,
            host.rng.stream(f"perfbench.lease.{client_id}"),
            group=self.system.config.group,
            client_id=client_id,
        )
        name = f"lock-{session.lock}"
        deadline = self.system.sim.schedule(self.plan.deadline, self._expire, index, client)

        def granted(reply) -> None:
            if reply.status != "granted":
                return
            sim = self.system.sim
            sim.cancel(deadline)
            self.latency[index] = sim.now - session.due
            sim.schedule(session.hold, self._release, client, name)

        client.acquire(name, self.plan.ttl, granted)

    def _expire(self, index: int, client: LeaseClient) -> None:
        self.late += 1
        client.close()

    def _release(self, client: LeaseClient, name: str) -> None:
        if not client.release(name, lambda reply: client.close()):
            client.close()  # the grant lapsed mid-hold (leader change)


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
@dataclass
class RepResult:
    #: Set-up wall seconds and measured-window CPU seconds, normalized to
    #: the reference machine (perfbench/reference.py), and as measured.
    setup_s: float
    window_cpu_s: float
    setup_raw_s: float
    window_raw_cpu_s: float
    digest: str
    events: int
    wall_s: float = 0.0
    #: Every virtual-time figure (deterministic for a seed).
    virtual: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def run_rep(
    workload: SimWorkload,
    seed: int,
    *,
    on_built: Optional[Callable[[object], None]] = None,
    on_finished: Optional[Callable[[], None]] = None,
) -> RepResult:
    """Build, warm up and run one repetition; fold it into figures.

    ``on_built(system)`` runs right after the build (the tracer uses it for
    ground truth); ``on_finished()`` right after the measured window, before
    any analysis.
    """
    system, faults, leases, setup = _set_up(workload, seed, on_built)
    sim = system.sim
    window = ReferenceMeter(time.process_time)
    for stop in _stops(workload.warmup, workload.end, workload.chunk):
        window.measure(sim.run_until, stop)
    if on_finished is not None:
        on_finished()

    result = RepResult(
        setup_s=setup.normalized_s,
        window_cpu_s=window.normalized_s,
        setup_raw_s=setup.raw_s,
        window_raw_cpu_s=window.raw_s,
        digest=trace_digest(system.trace.events),
        events=sim.events_executed,
    )
    result.virtual = _virtual_figures(system, workload, faults, leases, result.problems)
    return result


def run_setup(workload: SimWorkload, seed: int) -> Tuple[float, float]:
    """Wall seconds to build and warm up once (no measured window),
    ``(normalized, as measured)``."""
    setup = _set_up(workload, seed, None)[3]
    return setup.normalized_s, setup.raw_s


def _stops(start: float, end: float, chunk: float) -> List[float]:
    """Ends of the measured blocks that cover ``(start, end]``."""
    count = max(1, round((end - start) / chunk))
    return [start + (end - start) * i / count for i in range(1, count + 1)]


def _set_up(workload: SimWorkload, seed: int, on_built):
    """Build, attach the drivers, warm up and zero the meters; returns the
    set-up's wall-time ReferenceMeter last.  Only the program's part is
    timed: the inputs are generated before the clock starts."""
    inputs = generate_inputs(workload, seed)

    def build():
        system = runner.build_system(workload.config(seed))
        if on_built is not None:
            on_built(system)
        faults = FaultDriver(system, inputs)
        leases = LeaseDriver(system, workload.leases, inputs) if workload.leases else None
        return system, faults, leases

    setup = ReferenceMeter(time.perf_counter)
    system, faults, leases = setup.measure(build)
    for stop in _stops(system.sim.now, workload.warmup, workload.chunk):
        setup.measure(system.sim.run_until, stop)
    for node in system.network.nodes.values():
        node.meter.reset_counters()
    return system, faults, leases, setup


def _virtual_figures(system, workload: SimWorkload, faults, leases, problems) -> Dict[str, object]:
    measured = workload.end - workload.warmup
    bound = FAILOVER_BOUND_TD * system.config.qos.detection_time + FAILOVER_BOUND_SLACK_S
    for group, leader in common_leaders(system).items():
        if leader is None:
            problems.append(f"group {group} ends without one agreed live leader")
    figures = leadership_figures(
        system.trace.events, system.config.groups, workload.warmup, workload.end, bound, problems
    )
    wire_bytes = sum(node.meter.bytes_sent for node in system.network.nodes.values())
    figures.update(
        {
            "leader_kills": len(faults.kill_times),
            "faults_skipped": faults.skipped,
            "wire_kb_per_node_s": wire_bytes / 1000.0 / workload.n_nodes / measured,
        }
    )
    if leases is not None:
        figures.update(_lease_figures(system, workload, faults, leases, problems))
        figures["attempted"] += len(leases.sessions)
        figures["failed"] += leases.late
    return figures


def _lease_figures(system, workload: SimWorkload, faults, leases, problems) -> Dict[str, object]:
    group = system.config.group
    violations = check_no_double_grant(system.trace.events, group=group)
    for violation in violations[:5]:
        problems.append(f"lease safety: {violation.detail}")
    grant_times = sorted(
        e.time
        for e in system.trace.events
        if e.kind == "lease" and e.group == group and (e.label or "").startswith("grant")
    )
    outages = []
    for kill in faults.kill_times:
        after = next((t for t in grant_times if t > kill), None)
        if after is None:
            problems.append(f"no lease granted after the kill at t={kill:.3f}")
        else:
            outages.append(after - kill)
    granted = [lat for lat in leases.latency if lat != float("inf")]
    p50, tail, tail_pct, n = median_and_tail(leases.latency, finite_tail=True)
    window_grants = sum(1 for t in grant_times if workload.warmup <= t < workload.end)
    return {
        "lease_sessions": len(leases.sessions),
        "lease_granted": len(granted),
        "lease_late": leases.late,
        "lease_grant_p50_ms": 1000.0 * p50,
        "lease_grant_tail_ms": 1000.0 * tail,
        "lease_grant_tail_pct": tail_pct,
        "lease_grant_n": n,
        "lease_grants_per_s": window_grants / (workload.end - workload.warmup),
        "lease_outage_ms": 1000.0 * statistics.median(outages) if outages else float("nan"),
        "lease_safety_violations": len(violations),
    }
