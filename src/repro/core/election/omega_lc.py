"""Ω_lc — accusation times with leader forwarding; service S2 (paper §6.3).

From the paper: "Each process p keeps track of the last time it was suspected
of having crashed, called p's accusation time, and p selects its leader among
a set of processes that is constructed in two stages.  In the first stage, p
selects its local leader as the process with the earliest accusation time
among the processes that p believes to be alive.  In the second stage, p
selects its (global) leader as the local leader with the earliest accusation
time among the local leaders of the processes that p believes to be alive.
This (local) leader forwarding mechanism makes the algorithm robust in the
face of link failures."  (The underlying algorithm is Aguilera et al. [4],
which tolerates links that crash in addition to lossy links.)

Implementation notes:

* Accusation times order candidates lexicographically by
  ``(accusation_time, pid)``; a process's initial accusation time is its join
  time, so recovering processes rank behind an established leader — this is
  the stability mechanism (no demotion when a lower-id process rejoins).
* When the failure detector reports a trust→suspect transition for q, p
  sends ACCUSE(q, phase); q bumps its accusation time to "now" iff the phase
  is current.  With the paper's FD QoS (one mistake per 100 days) this
  essentially never happens over lossy links — hence λu = 0 in Figure 4 —
  but it does happen when links *crash* for longer than the detection bound,
  producing Figure 7's demotions.
* The forwarding stage lets p adopt a leader whose link to p is crashed, as
  long as some process p still hears forwards it.  It also slightly delays
  the demotion of a *really* crashed leader (forwards keep naming it for up
  to one heartbeat period after the forwarders suspect it), which is the
  paper's explanation for S2's marginally larger Tr versus S1.
* Accusation times are **monotonic** per process (they start at the join
  time and only ever move forward to "now"), so any two reports about the
  same process can be reconciled by taking the larger value.  The
  implementation exploits this everywhere a forwarded accusation time could
  be stale: a forwarded (leader, acc) pair is evaluated with the *freshest*
  accusation time known for that leader, and forwarded pairs themselves are
  ingested as evidence.  Without this, every process would keep following a
  freshly-demoted leader until the *last* of its forwarders refreshed
  (≈ one heartbeat period), turning each of Figure 7's frequent demotions
  into a group-wide leaderless window and dragging availability far below
  the paper's 98.78%.
* Every candidate keeps sending ALIVEs forever — the quadratic message load
  that Figure 6 contrasts against Ω_l's linear load.
* The choice is maintained incrementally, so an event costs work in
  proportion to what it changed rather than to the group size.  The present
  candidates are kept in a list sorted by ``(acc_time, pid)``: an
  accusation-time change repositions one entry and a membership change
  rebuilds the list.  Both stages then read the same short prefix of it.
  The local leader is the first trusted entry.  Because every forwarded
  accusation time is also ingested as evidence, a forward of ``q`` ranks
  exactly at ``q``'s own entry.  So the leader is the first entry that is
  trusted or forwarded by a trusted present candidate, and forwards are
  indexed only by the pid they name.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Set, Tuple

from repro.core.election.base import ElectionAlgorithm, GroupContext
from repro.net.message import AccEntry, AliveCell, HelloMessage

__all__ = ["OmegaLc"]

#: A ranking key: ``(accusation_time, pid)``.
Key = Tuple[float, int]


class OmegaLc(ElectionAlgorithm):
    """Two-stage accusation-time election with local-leader forwarding."""

    name = "omega_lc"
    monitor_policy = "all_candidates"

    def __init__(self, ctx: GroupContext) -> None:
        super().__init__(ctx)
        #: Local accusation state.
        self.acc_time = 0.0
        self.phase = 0
        #: Last (acc_time, phase) heard directly from each process.
        self._info: Dict[int, Tuple[float, int]] = {}
        #: Last local leader forwarded by each process, and the forwarders
        #: currently naming each pid (a pid nobody names has no entry).  The
        #: forwarded accusation time is not kept: it is ingested as evidence.
        self._forwards: Dict[int, int] = {}
        self._forwarders: Dict[int, Set[int]] = {}
        #: Present candidates sorted by _rank_key; rebuilt whenever the
        #: membership version moves.
        self._ranked: List[int] = []
        self._ranked_version = -1
        self.accusations_received = 0
        self._last_broadcast_local: Optional[Key] = None
        # Cached (stage-1, stage-2) choice.  Every input mutation bumps
        # _mutations, trust flips arrive through on_trust/on_suspect (which
        # bump too), and membership moves rebuild the ranking, so the cache
        # is valid while _mutations stands.
        self._mutations = 0
        self._choice_at = -1  # _mutations value the choice was computed at
        self._local: Optional[Key] = None
        self._leader: Optional[Key] = None
        #: Ω_lc's wants_to_send is constant (is_candidate), so the sender
        #: needs syncing exactly once per start, not once per refresh.
        self._sender_synced = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.acc_time = self.ctx.join_time
        self._mutations += 1
        self._rerank(self.ctx.local_pid)
        self._sender_synced = False
        super().start()

    def stop(self) -> None:
        self._sender_synced = False
        super().stop()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_alive(self, message: AliveCell) -> None:
        pid = message.pid
        mutations = self._mutations
        self._observe(pid, message.acc_time, message.phase)
        local_leader = message.local_leader
        local_leader_acc = message.local_leader_acc
        if local_leader is not None and local_leader_acc is not None:
            old = self._forwards.get(pid)
            if old != local_leader:
                if old is not None:
                    named = self._forwarders[old]
                    named.discard(pid)
                    if not named:
                        del self._forwarders[old]
                self._forwarders.setdefault(local_leader, set()).add(pid)
                self._forwards[pid] = local_leader
                self._mutations += 1
            # A forwarded accusation time is evidence about the forwarded
            # process too (accusation times are monotonic, max = freshest).
            self._observe_floor(local_leader, local_leader_acc)
        if self._mutations != mutations or not self._sender_synced:
            # An identical re-observation (the steady-state refresh cell)
            # mutated nothing; with unchanged inputs _refresh is a provable
            # no-op (cache hit, same leader, same broadcast state) — skip it.
            self._refresh()

    def on_trust(self, pid: int) -> None:
        self._mutations += 1
        self._refresh()

    def on_suspect(self, pid: int) -> None:
        self._mutations += 1
        _, phase = self._info.get(pid, (0.0, 0))
        self.ctx.send_accuse(pid, phase)
        self._refresh()

    def on_accusation(self, accused_phase: int) -> bool:
        if accused_phase != self.phase:
            return False  # stale accusation: refers to an older phase
        self.accusations_received += 1
        self.acc_time = self.ctx.now
        self._mutations += 1
        self._rerank(self.ctx.local_pid)
        self._refresh()
        # Tell the group immediately: until our bumped accusation time is
        # out, everyone else still follows us while we already stepped down.
        self.ctx.request_flush()
        return True

    def on_hello_seed(self, hello: HelloMessage) -> None:
        for entry in hello.acc_table:
            self._observe(entry.pid, entry.acc_time, entry.phase)
        if hello.leader_hint is not None:
            hint = hello.leader_hint
            self._observe(hint.pid, hint.acc_time, hint.phase)
        self._refresh()

    def _observe(self, pid: int, acc_time: float, phase: int) -> None:
        """Merge one (acc_time, phase) observation; accusation times only
        move forward within and across incarnations (time is monotonic)."""
        if pid == self.ctx.local_pid:
            return
        current = self._info.get(pid)
        if current is None or acc_time >= current[0]:
            observation = (acc_time, phase)
            if observation != current:  # identical re-observation: no-op
                self._info[pid] = observation
                self._mutations += 1
                self._rerank(pid)

    def _observe_floor(self, pid: int, acc_time: float) -> None:
        """Raise the known accusation time of ``pid`` from secondhand
        evidence (a forward); keeps the phase we last heard firsthand."""
        if pid == self.ctx.local_pid:
            return
        current = self._info.get(pid)
        if current is None or acc_time > current[0]:
            self._info[pid] = (acc_time, 0 if current is None else current[1])
            self._mutations += 1
            self._rerank(pid)

    def _rerank(self, pid: int) -> None:
        """Re-sort ``pid`` after its accusation time changed."""
        ranked = self._ranked
        if pid in ranked:
            ranked.remove(pid)
            insort(ranked, pid, key=self._rank_key)

    # ------------------------------------------------------------------
    # Leader computation
    # ------------------------------------------------------------------
    def _acc_of(self, pid: int) -> float:
        """Freshest known accusation time of ``pid`` (join time until heard)."""
        if pid == self.ctx.local_pid:
            return self.acc_time
        info = self._info.get(pid)
        if info is not None:
            return info[0]
        joined = self.ctx.member_joined_at(pid)
        return joined if joined is not None else 0.0

    def _rank_key(self, pid: int) -> Key:
        return (self._acc_of(pid), pid)

    def _current(self) -> Tuple[Optional[Key], Optional[Key]]:
        """The cached (stage-1, stage-2) choice pair (see the module notes)."""
        ctx = self.ctx
        version = ctx.membership_version
        if version != self._ranked_version:
            local_pid = ctx.local_pid
            self._ranked = sorted(
                (m.pid for m in ctx.candidate_members() if m.pid != local_pid or ctx.is_candidate),
                key=self._rank_key,
            )
            self._ranked_version = version
            self._choice_at = -1
        if self._choice_at != self._mutations:
            trusted = ctx.trust_checker()
            forwarders = self._forwarders
            local = leader = None
            for pid in self._ranked:
                if trusted(pid):
                    local = self._rank_key(pid)
                    break
                # Stage 2 may still pick an untrusted candidate that a trusted
                # present candidate forwards (a process that left has no say).
                if leader is None and any(
                    ctx.is_present_candidate(f) and trusted(f) for f in forwarders.get(pid, ())
                ):
                    leader = self._rank_key(pid)
            self._local = local
            self._leader = local if leader is None else leader
            self._choice_at = self._mutations
        return self._local, self._leader

    def local_leader(self) -> Optional[Key]:
        """Stage 1: earliest (acc, pid) among trusted candidates ∪ self."""
        return self._current()[0]

    def leader(self) -> Optional[int]:
        """Stage 2: earliest among own local leader and the forwards of
        trusted present candidates.

        Each forwarded pid is ranked by the freshest accusation time we know
        for it (monotonicity: the forwarded value was ingested too), so one
        up-to-date report immediately supersedes any number of stale
        forwards of a demoted leader.
        """
        best = self._current()[1]
        return best[1] if best is not None else None

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """One cache lookup serves both the stage-2 view-change check and
        the stage-1 broadcast check."""
        if not self._started:
            return
        self._pre_refresh()
        if not self._sender_synced:
            self.ctx.sync_sender()
            self._sender_synced = True
        local, best = self._current()
        leader = best[1] if best is not None else None
        if leader != self._last_leader:
            self._last_leader = leader
            self.ctx.on_leader_view(leader)
        # Broadcast stage-1 changes immediately: our forwards are inputs to
        # everyone else's stage 2, and a stale forward holds the whole group
        # on a demoted leader.
        if local != self._last_broadcast_local:
            self._last_broadcast_local = local
            self.ctx.request_flush()

    def wants_to_send(self) -> bool:
        # All alive candidates stay "active" (paper §4 / [4]).
        return self.ctx.is_candidate

    def emit_stamp(self) -> int:
        # Every input of the fill_alive payload (acc_time, phase, stage-1
        # choice) bumps _mutations when it changes; membership moves are
        # covered by the emitter's own view-version guard.
        return self._mutations

    def fill_alive(self, message: AliveCell) -> None:
        message.acc_time = self.acc_time
        message.phase = self.phase
        local = self.local_leader()
        if local is not None:
            message.local_leader = local[1]
            message.local_leader_acc = local[0]

    def acc_entries(self) -> Tuple[AccEntry, ...]:
        entries = [AccEntry(self.ctx.local_pid, self.acc_time, self.phase)]
        entries.extend(
            AccEntry(pid, acc, phase) for pid, (acc, phase) in self._info.items()
        )
        return tuple(entries)

    def leader_hint(self) -> Optional[AccEntry]:
        leader = self.leader()
        if leader is None:
            return None
        if leader == self.ctx.local_pid:
            return AccEntry(leader, self.acc_time, self.phase)
        acc, phase = self._info.get(leader, (self._acc_of(leader), 0))
        return AccEntry(leader, acc, phase)
