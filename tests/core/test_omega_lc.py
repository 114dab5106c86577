"""Unit tests for Ω_lc (service S2): accusation times + forwarding."""

from repro.core.election.omega_lc import OmegaLc
from repro.net.message import AccEntry, HelloMessage

from .helpers import FakeContext, alive, member


def make(ctx):
    return ctx.attach(OmegaLc(ctx))


def reply(leader_hint=None, acc_table=(), trusted=()):
    return HelloMessage(
        sender_node=0,
        dest_node=0,
        group=1,
        kind="reply",
        leader_hint=leader_hint,
        acc_table=tuple(acc_table),
        trusted=tuple(trusted),
    )


class TestStage1:
    def test_earliest_accusation_time_wins(self):
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 2, 3):
            ctx.add_member(member(pid))
        ctx.trust(1, 2)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(1, acc_time=5.0))
        algo.on_alive(alive(2, acc_time=2.0))
        assert algo.local_leader() == (2.0, 2)
        assert algo.leader() == 2

    def test_stability_rejoiner_ranks_last(self):
        """A recovering process has a *fresh* accusation time (its new join
        time), so it does not demote the incumbent — the core stability
        property that distinguishes S2 from S1."""
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (2, 3):
            ctx.add_member(member(pid))
        ctx.trust(2)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(2, acc_time=2.0))
        assert algo.leader() == 2
        # Process 1 (smaller id!) rejoins with a recent accusation time.
        ctx.add_member(member(1, joined=100.0))
        ctx.trust(1)
        algo.on_alive(alive(1, acc_time=100.0))
        assert algo.leader() == 2  # incumbent survives

    def test_id_breaks_accusation_ties(self):
        ctx = FakeContext(local_pid=3, join_time=0.0)
        for pid in (3, 5):
            ctx.add_member(member(pid))
        ctx.trust(5)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(5, acc_time=0.0))
        assert algo.leader() == 3

    def test_untrusted_excluded_from_stage1(self):
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 3):
            ctx.add_member(member(pid))
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(1, acc_time=0.0))
        ctx.distrust(1)
        algo.on_suspect(1)
        assert algo.local_leader() == (10.0, 3)

    def test_unknown_acc_falls_back_to_join_time(self):
        ctx = FakeContext(local_pid=3, join_time=10.0)
        ctx.add_member(member(1, joined=4.0))
        ctx.add_member(member(3))
        ctx.trust(1)
        algo = make(ctx)
        algo.start()
        assert algo.leader() == 1  # joined_at 4.0 beats our 10.0


class TestAccusations:
    def test_suspicion_sends_accusation(self):
        ctx = FakeContext(local_pid=3)
        ctx.add_member(member(1))
        ctx.trust(1)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(1, acc_time=1.0, phase=4))
        ctx.distrust(1)
        algo.on_suspect(1)
        assert ctx.accusations == [(1, 4)]

    def test_valid_accusation_bumps_acc_time(self):
        ctx = FakeContext(local_pid=3, join_time=1.0)
        ctx.add_member(member(3))
        algo = make(ctx)
        algo.start()
        ctx.set_time(50.0)
        algo.on_accusation(accused_phase=0)
        assert algo.acc_time == 50.0
        assert algo.accusations_received == 1

    def test_stale_phase_accusation_ignored(self):
        ctx = FakeContext(local_pid=3, join_time=1.0)
        ctx.add_member(member(3))
        algo = make(ctx)
        algo.start()
        algo.phase = 2
        ctx.set_time(50.0)
        algo.on_accusation(accused_phase=1)
        assert algo.acc_time == 1.0

    def test_accusation_demotes_self(self):
        ctx = FakeContext(local_pid=3, join_time=1.0)
        for pid in (3, 5):
            ctx.add_member(member(pid))
        ctx.trust(5)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(5, acc_time=2.0))
        assert algo.leader() == 3
        ctx.set_time(50.0)
        algo.on_accusation(accused_phase=0)
        assert algo.leader() == 5


class TestForwarding:
    def test_adopts_forwarded_leader_it_cannot_hear(self):
        """The robustness mechanism: p suspects ℓ (crashed input link) but
        keeps following it because a trusted peer forwards it."""
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 2, 3):
            ctx.add_member(member(pid))
        ctx.trust(2)  # we cannot hear 1 directly
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(2, acc_time=5.0, local_leader=1, local_leader_acc=0.5))
        assert algo.local_leader() == (5.0, 2)  # stage 1 can't see 1
        assert algo.leader() == 1  # stage 2 follows the forward

    def test_earliest_of_several_forwarded_leaders_wins(self):
        """Stage 2 takes the minimum over all forwards, not the first or
        the last one found."""
        ctx = FakeContext(local_pid=5, join_time=10.0)
        for pid in (1, 2, 3, 4, 5):
            ctx.add_member(member(pid, joined=float(pid)))
        ctx.trust(3, 4)  # we hear neither 1 nor 2 directly
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(3, acc_time=3.0, local_leader=2, local_leader_acc=2.0))
        algo.on_alive(alive(4, acc_time=4.0, local_leader=1, local_leader_acc=1.0))
        assert algo.local_leader() == (3.0, 3)
        assert algo.leader() == 1

    def test_switched_forward_withdraws_support(self):
        """Once a peer forwards someone else, its old forward stops
        counting."""
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 2, 3):
            ctx.add_member(member(pid))
        ctx.trust(2)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(2, acc_time=5.0, local_leader=1, local_leader_acc=0.5))
        assert algo.leader() == 1
        algo.on_alive(alive(2, acc_time=5.0, local_leader=2, local_leader_acc=5.0))
        assert algo.leader() == 2

    def test_forward_index_keeps_only_named_pids(self):
        """A switched forward leaves no empty entry for the pid it stopped
        naming, and a stale forwarded accusation time alone changes no
        input."""
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 2, 3):
            ctx.add_member(member(pid))
        ctx.trust(2)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(2, acc_time=5.0, local_leader=1, local_leader_acc=0.5))
        algo.on_alive(alive(2, acc_time=5.0, local_leader=2, local_leader_acc=5.0))
        assert algo._forwarders == {2: {2}}
        stamp = algo.emit_stamp()
        algo.on_alive(alive(2, acc_time=5.0, local_leader=2, local_leader_acc=4.0))
        assert algo.emit_stamp() == stamp

    def test_forward_from_untrusted_peer_ignored(self):
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 2, 3):
            ctx.add_member(member(pid))
        ctx.trust(2)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(2, acc_time=5.0, local_leader=1, local_leader_acc=0.5))
        ctx.distrust(2)
        algo.on_suspect(2)
        assert algo.leader() == 3  # the forward died with our trust in 2

    def test_forward_of_departed_member_ignored(self):
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (2, 3):
            ctx.add_member(member(pid))
        ctx.add_member(member(1, present=False))
        ctx.trust(2)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(2, acc_time=5.0, local_leader=1, local_leader_acc=0.5))
        assert algo.leader() == 2

    def test_forward_from_departed_forwarder_ignored(self):
        """A process that left the group has no say: its last forward stops
        counting although its node stays up (so it still reads trusted)."""
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 2, 3):
            ctx.add_member(member(pid))
        ctx.trust(2)  # we cannot hear 1 directly
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(2, acc_time=5.0, local_leader=1, local_leader_acc=0.5))
        assert algo.leader() == 1
        ctx.add_member(member(2, present=False))  # 2 leaves the group
        algo.on_membership_changed()
        assert ctx.trusted(2)
        assert algo.leader() == 3

    def test_fresh_accusation_supersedes_stale_forward(self):
        """Monotonicity: once we know ℓ's accusation time was bumped, stale
        forwards of ℓ must not keep it in power."""
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 2, 3):
            ctx.add_member(member(pid))
        ctx.trust(1, 2)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(2, acc_time=5.0, local_leader=1, local_leader_acc=0.5))
        algo.on_alive(alive(1, acc_time=0.5))
        assert algo.leader() == 1
        # 1 is accused and bumps its accusation time; 2's forward is stale.
        algo.on_alive(alive(1, acc_time=99.0))
        assert algo.leader() == 2

    def test_forwarded_acc_is_evidence(self):
        """A forward carrying a *newer* accusation time than we have heard
        directly raises our knowledge about the forwarded process."""
        ctx = FakeContext(local_pid=3, join_time=10.0)
        ctx.add_member(member(1, joined=0.5))
        ctx.add_member(member(2, joined=5.0))
        ctx.add_member(member(3, joined=10.0))
        ctx.trust(1, 2)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(1, acc_time=0.5))
        assert algo.leader() == 1
        algo.on_alive(alive(2, acc_time=5.0, local_leader=1, local_leader_acc=42.0))
        assert algo._acc_of(1) == 42.0
        assert algo.leader() == 2

    def test_stale_forward_of_self_ignored(self):
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (2, 3):
            ctx.add_member(member(pid))
        ctx.trust(2)
        algo = make(ctx)
        algo.start()
        ctx.set_time(20.0)
        algo.acc_time = 20.0  # we were accused (or rebooted)
        algo.on_alive(alive(2, acc_time=5.0, local_leader=3, local_leader_acc=1.0))
        # The forward names us with a pre-bump accusation time: not leader.
        assert algo.leader() == 2


class TestSeeding:
    def test_seed_adopts_established_leader(self):
        ctx = FakeContext(local_pid=9, join_time=100.0)
        for pid in (1, 2, 9):
            ctx.add_member(member(pid))
        ctx.trust(1, 2)
        algo = make(ctx)
        algo.start()
        algo.on_hello_seed(
            reply(
                leader_hint=AccEntry(1, 0.5, 0),
                acc_table=(AccEntry(1, 0.5, 0), AccEntry(2, 3.0, 0)),
            )
        )
        assert algo.leader() == 1

    def test_seed_ignores_own_entry(self):
        ctx = FakeContext(local_pid=9, join_time=100.0)
        ctx.add_member(member(9))
        algo = make(ctx)
        algo.start()
        algo.on_hello_seed(reply(acc_table=(AccEntry(9, 0.1, 0),)))
        assert algo.acc_time == 100.0  # our own acc time is authoritative


class TestOutputs:
    def test_fill_alive_carries_state(self):
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 3):
            ctx.add_member(member(pid))
        ctx.trust(1)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(1, acc_time=0.5))
        msg = alive(3)
        algo.fill_alive(msg)
        assert msg.acc_time == 10.0
        assert msg.local_leader == 1
        assert msg.local_leader_acc == 0.5

    def test_acc_entries_include_self_and_heard(self):
        ctx = FakeContext(local_pid=3, join_time=10.0)
        ctx.add_member(member(3))
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(1, acc_time=0.5, phase=2))
        entries = {e.pid: e for e in algo.acc_entries()}
        assert entries[3].acc_time == 10.0
        assert entries[1].acc_time == 0.5
        assert entries[1].phase == 2

    def test_leader_hint_names_current_leader(self):
        ctx = FakeContext(local_pid=3, join_time=10.0)
        for pid in (1, 3):
            ctx.add_member(member(pid))
        ctx.trust(1)
        algo = make(ctx)
        algo.start()
        algo.on_alive(alive(1, acc_time=0.5))
        hint = algo.leader_hint()
        assert hint.pid == 1
        assert hint.acc_time == 0.5

    def test_all_candidates_always_send(self):
        ctx = FakeContext(local_pid=3)
        ctx.add_member(member(3))
        algo = make(ctx)
        algo.start()
        assert ctx.sending is True
        assert algo.monitor_policy == "all_candidates"
