"""The live workload: in-process UDP daemons on loopback, leaders killed.

Eight daemons, each hosting the same sixteen groups, share one asyncio
loop in this process: per daemon one ``RealtimeScheduler``, one default
(unbatched) ``UdpTransport`` on its own loopback port, one
``LeaderElectionService`` and one ``Application`` joined to every group.
Every daemon records into one shared ``TraceRecorder``, so the paper's
metrics come from the same ``analyze_leadership`` fold as in simulation,
on wall-clock (epoch) timestamps.

A run boots the cluster :data:`SETUPS` times (``setup_s`` is the median
time until every group agrees on a leader), then repeats a kill cycle until
its time is up: a quiet window (CPU and wire bytes are measured here), a
kill of the node leading the most groups (``node.crash()`` +
``service.shutdown()`` + ``transport.close()``), the wait for every group
to agree on a new leader, and a fresh restart of the killed node on its
port (``node.recover()`` bumps its boot counter, as a reboot would).
The quiet-window lengths come from the seed.
"""

from __future__ import annotations

import asyncio
import socket
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import Application
from repro.core.commands import CommandHandler
from repro.core.service import LeaderElectionService, ServiceConfig
from repro.fd.qos import FDQoS
from repro.metrics.trace import TraceRecorder
from repro.net.node import Node
from repro.runtime.realtime import RealtimeScheduler, UdpTransport
from repro.sim.rng import RngRegistry

from perfbench.leaders import agreed_leader, busiest_leader, leadership_figures
from perfbench.reference import ReferenceMeter

N_NODES = 8
GROUPS = tuple(range(1, 17))
DETECTION_TIME = 0.4
HOST = "127.0.0.1"
SETUPS = 9
#: Quiet window before each kill (uniform range, seconds).
QUIET = (0.5, 0.9)
#: After a restart, every group must agree for this long before the next
#: quiet window opens (the recovered node's rejoin settles first).
STABLE_HOLD = 0.3
POLL = 0.01
#: No agreed leader this long after a kill: the failover failed.
FAILOVER_BOUND = 5.0 * DETECTION_TIME + 2.0
BOOT_TIMEOUT = 20.0


class Daemon:
    """One live node: survives kills, reboots fresh on the same port."""

    def __init__(self, node_id: int, ports: List[int], trace: TraceRecorder, seed: int) -> None:
        self.node_id = node_id
        self.ports = ports
        self.trace = trace
        self.seed = seed
        self.scheduler = RealtimeScheduler()
        self.node = Node(self.scheduler, node_id)
        self.app = Application(pid=node_id)
        for group in GROUPS:
            self.app.join(group, candidate=True, qos=FDQoS(detection_time=DETECTION_TIME))
        self.transport: Optional[UdpTransport] = None
        self.service: Optional[LeaderElectionService] = None
        #: Every transport this daemon ever opened (failure counters).
        self.transports: List[UdpTransport] = []

    async def boot(self) -> None:
        addresses = {i: (HOST, port) for i, port in enumerate(self.ports)}
        transport = UdpTransport(self.node_id, addresses, self.node.deliver)
        await transport.open()
        self.transport = transport
        self.transports.append(transport)
        self.service = LeaderElectionService(
            scheduler=self.scheduler,
            transport=transport,
            node=self.node,
            peer_nodes=tuple(range(len(self.ports))),
            config=ServiceConfig(
                algorithm="omega_lc", default_qos=FDQoS(detection_time=DETECTION_TIME)
            ),
            rng=RngRegistry(seed=self.seed * 1000 + self.node_id * 16 + self.node.incarnation),
            trace=self.trace,
        )
        self.app.bind(CommandHandler(self.service))

    def kill(self) -> None:
        self.trace.record_crash(self.scheduler.now, self.node_id)
        self.node.crash()
        self.app.unbind()
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        if self.transport is not None:
            self.transport.close()
            self.transport = None

    async def restart(self) -> None:
        self.node.recover()
        self.trace.record_recover(self.scheduler.now, self.node_id)
        await self.boot()


def agreed_leaders(daemons: List[Daemon]) -> Dict[int, Optional[int]]:
    """Per group: the leader every live daemon agrees on, or None."""
    up = [d for d in daemons if d.node.up and d.service is not None]

    def is_up(node: int) -> bool:
        return daemons[node].node.up

    return {group: agreed_leader((d.app.leader(group) for d in up), is_up) for group in GROUPS}


async def wait_agreement(daemons: List[Daemon], timeout: float, hold: float = 0.0) -> bool:
    """Wait until every group has an agreed live leader for ``hold`` s."""
    deadline = time.perf_counter() + timeout
    since: Optional[float] = None
    while time.perf_counter() < deadline:
        if all(leader is not None for leader in agreed_leaders(daemons).values()):
            now = time.perf_counter()
            since = now if since is None else since
            if now - since >= hold:
                return True
        else:
            since = None
        await asyncio.sleep(POLL)
    return False


def reserve_ports(count: int) -> List[int]:
    """Free loopback UDP ports (bound, read and released)."""
    sockets = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind((HOST, 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@dataclass
class LiveResult:
    setup_s: List[float] = field(default_factory=list)
    #: Totals over every quiet window: wall seconds, process CPU seconds
    #: (normalized to the reference machine, perfbench/reference.py, and as
    #: measured), bytes sent by all daemons.
    quiet_s: float = 0.0
    quiet_cpu_s: float = 0.0
    quiet_raw_cpu_s: float = 0.0
    quiet_bytes: int = 0
    quiet_windows: int = 0
    figures: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Every daemon of every boot (their transports hold the frame counters).
    daemons: List[Daemon] = field(default_factory=list)
    trace: Optional[TraceRecorder] = None
    measured: Tuple[float, float] = (0.0, 0.0)
    kills: int = 0


async def _boot_cluster(ports: List[int], trace: TraceRecorder, seed: int) -> List[Daemon]:
    daemons = [Daemon(i, ports, trace, seed) for i in range(N_NODES)]
    for daemon in daemons:
        await daemon.boot()
    return daemons


def _teardown(daemons: List[Daemon]) -> None:
    for daemon in daemons:
        if daemon.node.up:
            daemon.kill()


async def _run(seed: int, seconds: float, on_built, result: LiveResult) -> None:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x11FE]))
    ports = reserve_ports(N_NODES)
    daemons: List[Daemon] = []
    try:
        for attempt in range(SETUPS):
            if daemons:
                _teardown(daemons)
                await asyncio.sleep(POLL)  # let the loop finish closing sockets
            result.trace = TraceRecorder()
            t0 = time.perf_counter()
            daemons = await _boot_cluster(ports, result.trace, seed * SETUPS + attempt)
            result.daemons.extend(daemons)
            if on_built is not None:
                on_built(daemons)
            if not await wait_agreement(daemons, BOOT_TIMEOUT):
                result.problems.append("the cluster never agreed on every group's leader")
                return
            result.setup_s.append(time.perf_counter() - t0)
        await _cycles(daemons, rng, seconds, result)
    finally:
        _teardown(daemons)


async def _cycles(daemons: List[Daemon], rng, seconds: float, result: LiveResult) -> None:
    start_wall = time.perf_counter()
    measure_from = daemons[0].scheduler.now
    # The reference samples around each quiet window block the loop for a
    # few milliseconds, outside the window and before the kill.
    cpu = ReferenceMeter(time.process_time)
    while True:
        quiet = float(rng.uniform(*QUIET))
        cpu.begin()
        cpu0, bytes0, t0 = time.process_time(), _bytes_sent(daemons), time.perf_counter()
        await asyncio.sleep(quiet)
        result.quiet_s += time.perf_counter() - t0
        cpu.add(time.process_time() - cpu0)
        result.quiet_cpu_s, result.quiet_raw_cpu_s = cpu.normalized_s, cpu.raw_s
        result.quiet_bytes += _bytes_sent(daemons) - bytes0
        result.quiet_windows += 1
        if time.perf_counter() - start_wall >= seconds and result.kills >= 2:
            break
        target = busiest_leader(agreed_leaders(daemons))
        daemons[target].kill()
        result.kills += 1
        # A failover past the bound is counted from the trace afterwards.
        await wait_agreement(daemons, FAILOVER_BOUND)
        await daemons[target].restart()
        if not await wait_agreement(daemons, BOOT_TIMEOUT, hold=STABLE_HOLD):
            result.problems.append(f"no agreement after restarting node {target}")
            return
    result.measured = (measure_from, daemons[0].scheduler.now)
    for group, leader in agreed_leaders(daemons).items():
        if leader is None:
            result.problems.append(f"group {group} ends without one agreed live leader")


def _bytes_sent(daemons: List[Daemon]) -> int:
    return sum(d.transport.stats.bytes_sent for d in daemons if d.transport is not None)


def _figures(result: LiveResult) -> Dict[str, object]:
    measure_from, end = result.measured
    figures = leadership_figures(
        result.trace.events, GROUPS, measure_from, end, FAILOVER_BOUND, result.problems
    )
    stats = [t.stats for d in result.daemons for t in d.transports]
    rejected = sum(s.frames_rejected for s in stats)
    unroutable = sum(s.unroutable for s in stats)
    sent = sum(s.frames_sent for s in stats)
    received = sum(s.frames_received for s in stats)
    if rejected or unroutable:
        result.problems.append(f"{rejected} frames rejected, {unroutable} unroutable")
    figures.update(
        {
            "setup_s": statistics.median(result.setup_s),
            "cpu_ms_per_node_s": 1000.0 * result.quiet_cpu_s / N_NODES / result.quiet_s,
            "raw_cpu_ms_per_node_s": 1000.0 * result.quiet_raw_cpu_s / N_NODES / result.quiet_s,
            "wire_kb_per_node_s": result.quiet_bytes / 1000.0 / N_NODES / result.quiet_s,
            "quiet_windows": result.quiet_windows,
            "leader_kills": result.kills,
            "frames_sent": sent,
            "frames_received": received,
            "frames_rejected": rejected,
            "unroutable": unroutable,
        }
    )
    figures["attempted"] += sent + received
    figures["failed"] += rejected + unroutable
    return figures


def run_live(seed: int, seconds: float, on_built=None) -> LiveResult:
    """One live run of about ``seconds`` of kill cycles (plus the boots)."""
    result = LiveResult()
    asyncio.run(_run(seed, seconds, on_built, result))
    if not result.problems:
        result.figures = _figures(result)
    return result
