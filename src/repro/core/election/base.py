"""The contract between the service runtime and an election algorithm.

An election algorithm is a passive state machine: the group runtime feeds it
events (received ALIVEs and accusations, failure-detector trust/suspect
transitions, membership changes, join-time state seeds) and the algorithm
exposes its current leader choice, the election fields to stamp on outgoing
ALIVEs, and whether the local process should currently be *sending* ALIVEs
at all (the knob Ω_l uses for communication efficiency).

Algorithms never touch the network or any engine directly; everything flows
through the narrow :class:`GroupContext` interface, which keeps them
independently testable with a fake context.  Like the rest of the stack,
the context is engine-agnostic (time is an opaque ``now``; messaging is
delegated to the runtime's :class:`~repro.runtime.base.Transport`), so the
same algorithm instances run unmodified inside the discrete-event simulator
and inside a live asyncio/UDP daemon.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from repro.net.message import AccEntry, AliveCell, HelloMessage, MemberInfo

__all__ = ["GroupContext", "ElectionAlgorithm"]


class GroupContext:
    """What an election algorithm may see and do; implemented by the runtime.

    (Defined as a plain base class rather than a Protocol so test fakes can
    inherit the trivial bits.)
    """

    # --- identity -----------------------------------------------------
    @property
    def now(self) -> float:
        raise NotImplementedError

    @property
    def local_pid(self) -> int:
        raise NotImplementedError

    @property
    def is_candidate(self) -> bool:
        """Whether the local process competes for leadership."""
        raise NotImplementedError

    @property
    def join_time(self) -> float:
        """When the local process joined the group."""
        raise NotImplementedError

    # --- group state ----------------------------------------------------
    def trusted(self, pid: int) -> bool:
        """FD output for ``pid`` (the local process always trusts itself)."""
        raise NotImplementedError

    def trust_checker(self) -> "Callable[[int], bool]":
        """A ``pid -> trusted`` callable valid for one synchronous readout.

        Semantically identical to calling :meth:`trusted` per pid — this
        default simply returns the bound method.  Runtimes may override it
        with a fused closure that hoists the per-call attribute chain out
        of the election's O(members) recompute loop (the hot path on wide
        cells).  The checker must not be cached across events: it snapshots
        state references that stay valid only until the next callback.
        """
        return self.trusted

    def candidate_members(self) -> Iterable[MemberInfo]:
        """Present candidate members of the group."""
        raise NotImplementedError

    def is_present_candidate(self, pid: int) -> bool:
        raise NotImplementedError

    def member_joined_at(self, pid: int) -> Optional[float]:
        raise NotImplementedError

    @property
    def membership_version(self) -> int:
        """Monotonic counter, bumped on every effective membership change.

        Lets algorithms keep derived state (Ω_lc's ordered candidate index)
        behind a cheap validity stamp instead of re-deriving it per event.
        Required: every context must implement it.
        """
        raise NotImplementedError

    # --- actions ----------------------------------------------------------
    def send_accuse(self, accused: int, accused_phase: int) -> None:
        """Send an accusation to the (node of the) suspected process."""
        raise NotImplementedError

    def ensure_monitor(self, pid: int) -> None:
        """Make sure an FD monitor exists for ``pid`` (Ω_l leader hints)."""
        raise NotImplementedError

    def on_leader_view(self, leader: Optional[int]) -> None:
        """Notify that this process's leader view changed."""
        raise NotImplementedError

    def sync_sender(self) -> None:
        """Re-read :meth:`ElectionAlgorithm.wants_to_send` and apply it."""
        raise NotImplementedError

    def request_flush(self) -> None:
        """Ask for an immediate out-of-schedule ALIVE round (state change)."""
        raise NotImplementedError


class ElectionAlgorithm:
    """Base class for election algorithms; see the module docstring."""

    #: Registry name; subclasses override.
    name = "abstract"
    #: Which remote processes the runtime should monitor: every present
    #: candidate ("all_candidates") or only processes actually heard from
    #: ("senders_only", Ω_l's communication-efficient mode).
    monitor_policy = "all_candidates"

    def __init__(self, ctx: GroupContext) -> None:
        self.ctx = ctx
        self._last_leader: Optional[int] = None
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called once when the local process joins the group."""
        self._started = True
        self._refresh()

    def stop(self) -> None:
        """Called when the local process leaves (or the node crashes)."""
        self._started = False

    # ------------------------------------------------------------------
    # Events (all default to a recompute; subclasses extend)
    # ------------------------------------------------------------------
    def on_alive(self, message: AliveCell) -> None:
        self._refresh()

    def on_suspect(self, pid: int) -> None:
        self._refresh()

    def on_trust(self, pid: int) -> None:
        self._refresh()

    def on_accusation(self, accused_phase: int) -> bool:
        """An accusation addressed to the local process arrived.

        Returns True when the accusation was *applied* (the local accusation
        time was bumped); the runtime records applied accusations in the
        experiment trace.
        """
        return False

    def on_membership_changed(self) -> None:
        self._refresh()

    def on_hello_seed(self, hello: HelloMessage) -> None:
        """State carried by a HELLO reply (leader hint, accusation table)."""
        self._refresh()

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def leader(self) -> Optional[int]:
        """The process this algorithm currently considers the leader."""
        raise NotImplementedError

    def wants_to_send(self) -> bool:
        """Should the local process currently emit ALIVEs for this group?"""
        raise NotImplementedError

    def fill_alive(self, message: AliveCell) -> None:
        """Stamp algorithm-specific fields onto an outgoing ALIVE."""

    def emit_stamp(self) -> Optional[int]:
        """Cheap validity stamp of the :meth:`fill_alive` payload.

        Contract: equal stamps under an unchanged membership version
        guarantee :meth:`fill_alive` would write an identical payload.
        The emitter uses this to prove a whole emission round would be
        suppressed without building the cell (the steady-state fast path).
        ``None`` (the default) means "no such proof available" — the
        emitter then runs the full per-destination round every time.
        """
        return None

    def acc_entries(self) -> Tuple[AccEntry, ...]:
        """Accusation-time table for HELLO replies (empty if unused)."""
        return ()

    def leader_hint(self) -> Optional[AccEntry]:
        """Current leader as an (pid, acc, phase) entry for HELLO replies."""
        return None

    # ------------------------------------------------------------------
    # Shared recompute-and-notify plumbing
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Recompute the leader; propagate sending state and view changes."""
        if not self._started:
            return
        self._pre_refresh()
        self.ctx.sync_sender()
        leader = self.leader()
        if leader != self._last_leader:
            self._last_leader = leader
            self.ctx.on_leader_view(leader)

    def _pre_refresh(self) -> None:
        """Hook for state transitions that must precede the leader readout
        (Ω_l uses it to manage competition and phase bumps)."""
