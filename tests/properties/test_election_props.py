"""Incremental-vs-scan equivalence of Ω_lc's leader choice.

:class:`~repro.core.election.omega_lc.OmegaLc` keeps its candidates in an
ordered index that each event updates in place, and reads both stages of
its choice from a prefix of it.  The reference below is the plain
two-stage scan over every candidate and every forward, computed from a
model of the inputs that this test keeps itself.  After every step of an
arbitrary interleaving of ALIVEs (with forwards, including forwards of the
local process and of departed processes), notified trust/suspect flips,
accusations, HELLO seeds and member joins/leaves, both stages must agree
with it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.election.omega_lc import OmegaLc
from repro.net.message import AccEntry, HelloMessage
from tests.core.helpers import FakeContext, alive, member

LOCAL = 0
#: Few pids and few accusation times, so that ties and collisions are common.
PIDS = range(1, 5)
#: Forwarded leaders may also name the local process and pids that never
#: joined or already left.
NAMED = range(0, 6)
ACCS = st.sampled_from([0.0, 1.0, 1.5, 2.0])

_alive = st.tuples(
    st.just("alive"),
    st.sampled_from(PIDS),
    ACCS,
    st.one_of(st.none(), st.tuples(st.sampled_from(NAMED), ACCS)),
)
_flip = st.tuples(st.just("flip"), st.sampled_from(PIDS))
_accuse = st.tuples(st.just("accuse"))
_hello = st.tuples(
    st.just("hello"),
    st.lists(st.tuples(st.sampled_from(NAMED), ACCS), max_size=3),
    st.one_of(st.none(), st.tuples(st.sampled_from(NAMED), ACCS)),
)
_join = st.tuples(st.just("join"), st.sampled_from(PIDS), ACCS, st.booleans())
_leave = st.tuples(st.just("leave"), st.sampled_from(PIDS))
_ops = st.lists(
    st.one_of(_alive, _alive, _flip, _flip, _accuse, _hello, _join, _leave),
    min_size=10,
    max_size=60,
)


class Reference:
    """The inputs of the choice, and the two-stage scan over them."""

    def __init__(self, ctx, join_time):
        self.ctx = ctx
        self.own_acc = join_time
        #: Freshest accusation time heard for each other process.
        self.known = {}
        #: forwarder -> (forwarded pid, forwarded acc)
        self.forwards = {}

    def observe(self, pid, acc):
        if pid != LOCAL:
            self.known[pid] = max(acc, self.known.get(pid, acc))

    def acc_of(self, pid):
        if pid == LOCAL:
            return self.own_acc
        if pid in self.known:
            return self.known[pid]
        joined = self.ctx.member_joined_at(pid)
        return joined if joined is not None else 0.0

    def local_leader(self):
        ctx = self.ctx
        best = None
        for record in ctx.candidate_members():
            pid = record.pid
            if pid == LOCAL and not ctx.is_candidate:
                continue
            if not ctx.trusted(pid):
                continue
            key = (self.acc_of(pid), pid)
            if best is None or key < best:
                best = key
        return best

    def leader(self):
        ctx = self.ctx
        best = self.local_leader()
        for forwarder, (pid, acc) in self.forwards.items():
            if not ctx.trusted(forwarder) or not ctx.is_present_candidate(forwarder):
                continue  # only present candidates forward
            if not ctx.is_present_candidate(pid):
                continue
            key = (max(acc, self.acc_of(pid)), pid)
            if best is None or key < best:
                best = key
        return None if best is None else best[1]


def _hello_reply(entries, hint):
    return HelloMessage(
        sender_node=1,
        dest_node=LOCAL,
        group=1,
        kind="reply",
        leader_hint=None if hint is None else AccEntry(hint[0], hint[1], 0),
        acc_table=tuple(AccEntry(pid, acc, 0) for pid, acc in entries),
    )


def _apply(op, ctx, algo, ref):
    kind = op[0]
    if kind == "alive":
        _, pid, acc, forward = op
        ref.observe(pid, acc)
        if forward is None:
            algo.on_alive(alive(pid, acc_time=acc))
        else:
            leader, leader_acc = forward
            ref.forwards[pid] = forward
            ref.observe(leader, leader_acc)
            algo.on_alive(alive(pid, acc, local_leader=leader, local_leader_acc=leader_acc))
    elif kind == "flip":
        pid = op[1]
        if ctx.trusted(pid):
            ctx.distrust(pid)
            algo.on_suspect(pid)
        else:
            ctx.trust(pid)
            algo.on_trust(pid)
    elif kind == "accuse":
        ctx.set_time(ctx.now + 0.5)
        if algo.on_accusation(algo.phase):
            ref.own_acc = ctx.now
    elif kind == "hello":
        _, entries, hint = op
        for pid, acc in entries:
            ref.observe(pid, acc)
        if hint is not None:
            ref.observe(*hint)
        algo.on_hello_seed(_hello_reply(entries, hint))
    elif kind == "join":
        _, pid, joined, candidate = op
        ctx.add_member(member(pid, joined=joined, candidate=candidate))
        algo.on_membership_changed()
    else:  # leave: the tombstone stays in the view
        ctx.add_member(member(op[1], present=False))
        algo.on_membership_changed()


class TestIncrementalChoiceMatchesScan:
    @given(_ops, st.booleans(), st.sets(st.sampled_from(PIDS)))
    @settings(max_examples=300, deadline=None)
    def test_both_stages_match_reference_after_every_step(
        self, ops, local_candidate, initial_members
    ):
        ctx = FakeContext(local_pid=LOCAL, candidate=local_candidate, join_time=1.0)
        ctx.add_member(member(LOCAL, candidate=local_candidate, joined=1.0))
        for pid in sorted(initial_members):
            ctx.add_member(member(pid, joined=float(pid) / 4))
            ctx.trust(pid)
        algo = ctx.attach(OmegaLc(ctx))
        ref = Reference(ctx, join_time=1.0)
        algo.local_leader()  # a readout before start must not go stale
        algo.start()
        for op in ops:
            _apply(op, ctx, algo, ref)
            assert algo.local_leader() == ref.local_leader()
            assert algo.leader() == ref.leader()
