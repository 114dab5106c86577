"""Micro-benchmarks for the live datapath and the election's leader choice.

Three measurement families, pinned in ``BENCH_core.json`` under the
top-level ``micro`` key (next to the sim-side ``modes``) and checked by
the CI perf-smoke job via ``tools/bench_micro.py``:

* **codec** — encode/decode throughput over a deterministic mix of
  representative frames (heartbeat batch, gossip hello, accusation,
  lease request/reply).  Three paths: the allocating ``encode_message``,
  the zero-copy ``encode_message_into`` scratch path the batched
  transport uses, and ``decode_message`` reading straight from a shared
  buffer through a ``memoryview`` (the ``recvmmsg`` drain path).
  Frames/sec are machine-dependent, so the regression check compares
  them *normalized by the calibration score* (same scheme as the core
  bench).

* **election** — Ω_lc leader-choice updates/sec: one 50-candidate
  :class:`~repro.core.election.omega_lc.OmegaLc` on the unit tests'
  ``FakeContext``, fed a fixed seeded stream of forward switches, trust
  flips and accusation-time bumps drawn from the mix counted on
  perfbench's ``churn_swim`` workload (:data:`CHURN_SWIM_MIX`).
  Every update ends in a leader readout; the rate is normalized by the
  calibration score, like the codec rates.

* **udp** — sustained localhost datagram throughput between two real
  processes: a sender flooding ``send_batch`` bursts and a receiver
  counting decoded deliveries, once with ``batched=True`` on both ends
  (raw socket + ``sendmmsg``/``recvmmsg``) and once with the default
  asyncio datapath.  The headline number is the *delivered* ratio —
  sustained throughput is receiver-bound, and the per-datagram asyncio
  receive path is what batching exists to beat.  The recorded ratio is
  gated (``>= MIN_UDP_RATIO`` at record time, with the check tolerance
  applied on re-runs) so the batched path can never silently regress
  into being pointless.

All three are wall-clock measurements (the UDP one of real syscalls);
keep them short (a few seconds) — they run in CI on shared machines.
"""

from __future__ import annotations

import multiprocessing
import random
import socket
import time
from typing import Dict, List, Optional

from repro.core.election.omega_lc import OmegaLc
from repro.net.message import (
    AccEntry,
    AccuseMessage,
    AliveCell,
    BatchFrame,
    HelloMessage,
    LeaseReplyMessage,
    LeaseRequestMessage,
    MemberInfo,
)
from repro.runtime import mmsg
from repro.runtime.codec import (
    MAX_FRAME_BYTES,
    decode_message,
    encode_message,
    encode_message_into,
)

__all__ = [
    "MIN_UDP_RATIO",
    "CHURN_SWIM_MIX",
    "codec_frame_mix",
    "run_codec_micro",
    "election_update_stream",
    "run_election_micro",
    "run_udp_micro",
    "run_micro_bench",
    "compare_micro",
]

#: The acceptance floor for the batched/unbatched delivered ratio at
#: --update time; --check applies its tolerance on top (shared CI
#: machines are noisy, a recorded 2x can legitimately re-measure lower).
MIN_UDP_RATIO = 2.0


def codec_frame_mix() -> List[object]:
    """A deterministic, representative message mix (one of each family)."""
    members = tuple(
        MemberInfo(pid=i, node=i % 4, incarnation=i + 1, candidate=True,
                   present=True, joined_at=float(i))
        for i in range(6)
    )
    cells = tuple(
        AliveCell(group=g, pid=g % 3, acc_time=10.0 + g, phase=g,
                  local_leader=g % 3, local_leader_acc=9.5 + g,
                  delta=members[:2] if g == 0 else (),
                  view_version=g + 1, view_digest=0xABCD + g)
        for g in range(4)
    )
    return [
        BatchFrame(sender_node=0, dest_node=1, seq=7, send_time=123.25,
                   interval=0.25, cells=cells),
        HelloMessage(sender_node=1, dest_node=2, group=1, kind="gossip",
                     members=members, view_version=3, view_digest=99,
                     leader_hint=AccEntry(pid=1, acc_time=4.5, phase=2),
                     acc_table=tuple(AccEntry(pid=i, acc_time=float(i), phase=i)
                                     for i in range(4)),
                     trusted=(0, 1, 2), leases=(), lease_digest=5),
        AccuseMessage(sender_node=2, dest_node=0, group=1, accuser=2,
                      accused=0, accused_phase=3),
        LeaseRequestMessage(sender_node=3, dest_node=0, group=1, op="acquire",
                            lease=42, client=17, token=0, ttl=5.0, nonce=9),
        LeaseReplyMessage(sender_node=0, dest_node=3, group=1, status="granted",
                          lease=42, client=17, token=1001, holder=17,
                          expiry=55.5, retry_after=0.0, leader_node=0, nonce=9),
    ]


def run_codec_micro(iterations: int = 20_000, repeats: int = 3) -> Dict:
    """Frames/sec for the three codec paths over the fixed mix (best of
    ``repeats`` — noise only ever slows a run down)."""
    mix = codec_frame_mix()
    frames = [encode_message(m) for m in mix]
    scratch = bytearray(MAX_FRAME_BYTES)
    n = len(mix)
    total = iterations * n

    def best(fn) -> float:
        wall = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            wall = min(wall, time.perf_counter() - start)
        return total / wall

    def encode_pass() -> None:
        for _ in range(iterations):
            for message in mix:
                encode_message(message)

    def encode_into_pass() -> None:
        for _ in range(iterations):
            for message in mix:
                encode_message_into(message, scratch)

    # Zero-copy decode: every frame is viewed out of one shared buffer,
    # exactly like the recvmmsg drain.
    shared = bytearray(sum(len(f) for f in frames))
    views = []
    offset = 0
    for frame in frames:
        shared[offset : offset + len(frame)] = frame
        views.append(memoryview(shared)[offset : offset + len(frame)])
        offset += len(frame)

    def decode_pass() -> None:
        for _ in range(iterations):
            for view in views:
                decode_message(view)

    return {
        "frames_in_mix": n,
        "mean_frame_bytes": round(sum(len(f) for f in frames) / n, 1),
        "encode_per_sec": round(best(encode_pass), 1),
        "encode_into_per_sec": round(best(encode_into_pass), 1),
        "decode_per_sec": round(best(decode_pass), 1),
    }


#: Ω_lc inputs counted over all 50 nodes in one repetition of perfbench's
#: ``churn_swim`` workload (seed 1), bucketed by the position of the pid
#: involved in the receiving node's ``(acc_time, pid)`` ranking: ranks 0,
#: 1-3, 4-9 and 10+.  "forward": an ALIVE whose forwarded local leader
#: differs from the sender's previous one, by the rank of the newly named
#: pid.  "flip": an ``on_trust``/``on_suspect`` call.  "accuse": an ALIVE
#: carrying a later accusation time than known for its sender.  (Omitted:
#: 8,817 ALIVEs that changed nothing, 2,303 HELLO seeds and 377 local
#: accusations.)
CHURN_SWIM_MIX = {
    "forward": (22_650, 50_173, 0, 675),
    "flip": (1_192, 678, 1_268, 14_588),
    "accuse": (991, 386, 440, 15_254),
}
_RANK_BUCKETS = ((0, 1), (1, 4), (4, 10), (10, None))
#: Cap on concurrent suspects (churn_swim had 9 or more at 37 % of flips).
_MAX_SUSPECTS = 9


def election_update_stream(candidates: int = 50, updates: int = 20_000, seed: int = 12):
    """A fixed stream of Ω_lc inputs drawn from :data:`CHURN_SWIM_MIX`.

    Items are ``("forward", sender, leader, acc)`` (the uniformly drawn
    sender's stage-1 choice switched to ``leader``), ``("flip", pid)``
    (``pid`` goes from trusted to suspected or back; a flip that would
    exceed :data:`_MAX_SUSPECTS` trusts a suspect instead) and
    ``("accuse", pid, acc)`` (``pid``'s accusation time moved to "now",
    which ranks it last).  Each input's kind and rank bucket are drawn
    with the churn_swim counts as weights, the rank uniformly within its
    bucket.  Pid 0 is the local process; it joined last.
    """
    rng = random.Random(seed)
    acc = {pid: pid / 100.0 for pid in range(1, candidates)}
    acc[0] = 1.0
    ranking = sorted(acc, key=lambda pid: (acc[pid], pid))
    kinds = list(CHURN_SWIM_MIX)
    kind_weights = [sum(counts) for counts in CHURN_SWIM_MIX.values()]
    suspected: List[int] = []
    stream = []
    now = 1.0
    while len(stream) < updates:
        kind = rng.choices(kinds, kind_weights)[0]
        low, high = rng.choices(_RANK_BUCKETS, CHURN_SWIM_MIX[kind])[0]
        pid = ranking[rng.randrange(low, high or candidates)]
        if kind == "forward":
            stream.append(("forward", rng.randrange(1, candidates), pid, acc[pid]))
        elif kind == "flip":
            if pid == 0:
                continue  # the local process always trusts itself
            if pid not in suspected and len(suspected) == _MAX_SUSPECTS:
                pid = suspected[rng.randrange(len(suspected))]
            if pid in suspected:
                suspected.remove(pid)
            else:
                suspected.append(pid)
            stream.append(("flip", pid))
        else:
            now += 0.01
            acc[pid] = now
            ranking.remove(pid)
            ranking.append(pid)
            stream.append(("accuse", pid, now))
    return stream


def run_election_micro(candidates: int = 50, updates: int = 20_000, repeats: int = 3) -> Dict:
    """Ω_lc updates/sec over :func:`election_update_stream` (best of
    ``repeats``; each repeat starts from a fresh algorithm)."""
    from tests.core.helpers import FakeContext, alive, member

    stream = election_update_stream(candidates, updates)
    wall = float("inf")
    for _ in range(repeats):
        ctx = FakeContext(local_pid=0, join_time=1.0)
        ctx.add_member(member(0, joined=1.0))
        for pid in range(1, candidates):
            ctx.add_member(member(pid, joined=pid / 100.0))
        ctx.trust(*range(1, candidates))
        algorithm = ctx.attach(OmegaLc(ctx))
        algorithm.start()
        trusted = ctx.trusted_pids
        start = time.perf_counter()
        for item in stream:
            kind = item[0]
            if kind == "forward":
                _, sender, leader, acc = item
                algorithm.on_alive(
                    alive(sender, 0.0, local_leader=leader, local_leader_acc=acc)
                )
            elif kind == "flip":
                pid = item[1]
                if pid in trusted:
                    trusted.discard(pid)
                    algorithm.on_suspect(pid)
                else:
                    trusted.add(pid)
                    algorithm.on_trust(pid)
            else:
                _, pid, acc = item
                ctx.set_time(acc)
                if pid == 0:
                    algorithm.on_accusation(algorithm.phase)
                else:
                    algorithm.on_alive(alive(pid, acc))
            algorithm.leader()
        wall = min(wall, time.perf_counter() - start)
    return {
        "candidates": candidates,
        "updates": updates,
        "updates_per_sec": round(updates / wall, 1),
    }


def _free_addr() -> tuple:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    address = sock.getsockname()
    sock.close()
    return address


def _udp_receiver(addresses, batched, conn) -> None:
    """Receiver process: count decoded deliveries until told to stop."""
    import asyncio

    from repro.runtime.realtime import UdpTransport

    async def main() -> None:
        count = [0]
        transport = await UdpTransport(
            1, addresses, lambda m: count.__setitem__(0, count[0] + 1),
            batched=batched,
        ).open()
        conn.send("ready")
        while not conn.poll():
            await asyncio.sleep(0.01)
        conn.recv()
        await asyncio.sleep(0.1)  # drain the tail
        transport.close()
        conn.send(count[0])

    asyncio.run(main())


def _udp_flood(batched: bool, seconds: float) -> Optional[Dict]:
    """One sender-process flood against one receiver process."""
    import asyncio

    from repro.runtime.realtime import UdpTransport

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return None
    addresses = {0: _free_addr(), 1: _free_addr()}
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_udp_receiver, args=(addresses, batched, child))
    proc.start()
    parent.recv()

    async def send() -> tuple:
        transport = await UdpTransport(
            0, addresses, lambda m: None, batched=batched
        ).open()
        message = AccuseMessage(sender_node=0, dest_node=1, group=1,
                                accuser=0, accused=1, accused_phase=0)
        burst = [message] * 64
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            transport.send_batch(burst)
        wall = time.perf_counter() - start
        sent = transport.stats.frames_sent
        syscalls = transport.stats.batch_syscalls
        transport.close()
        return sent, wall, syscalls

    sent, wall, syscalls = asyncio.run(send())
    parent.send("stop")
    delivered = parent.recv()
    proc.join(timeout=10)
    return {
        "sent_per_sec": round(sent / wall, 1),
        "delivered_per_sec": round(delivered / wall, 1),
        "batch_syscalls": syscalls,
    }


def run_udp_micro(seconds: float = 1.0, repeats: int = 2) -> Optional[Dict]:
    """Batched-vs-unbatched sustained flood; None when sendmmsg is absent.

    Best delivered rate per path across ``repeats`` — the paths are
    measured in separate runs, so per-run noise never favours one side.
    """
    if not mmsg.available():
        return None
    best: Dict[str, Dict] = {}
    for batched, key in ((True, "batched"), (False, "unbatched")):
        for _ in range(repeats):
            run = _udp_flood(batched, seconds)
            if run is None:
                return None
            if (
                key not in best
                or run["delivered_per_sec"] > best[key]["delivered_per_sec"]
            ):
                best[key] = run
    ratio = (
        best["batched"]["delivered_per_sec"]
        / best["unbatched"]["delivered_per_sec"]
    )
    return {
        "batched": best["batched"],
        "unbatched": best["unbatched"],
        "delivered_ratio": round(ratio, 2),
    }


def run_micro_bench(skip_udp: bool = False, progress=None) -> Dict:
    """Run both micro families; returns the ``micro`` blob for the baseline."""
    from benchmarks.bench_core import calibration_kops

    blob: Dict = {"calibration_kops": round(calibration_kops(), 1)}
    if progress:
        progress(f"calibration: {blob['calibration_kops']:,.0f} kops")
    blob["codec"] = run_codec_micro()
    if progress:
        codec = blob["codec"]
        progress(
            f"codec: encode {codec['encode_per_sec']:,.0f}/s, "
            f"encode_into {codec['encode_into_per_sec']:,.0f}/s, "
            f"decode {codec['decode_per_sec']:,.0f}/s"
        )
    blob["election"] = run_election_micro()
    if progress:
        progress(f"election: {blob['election']['updates_per_sec']:,.0f} Ω_lc updates/s")
    if not skip_udp:
        blob["udp"] = run_udp_micro()
        if progress and blob["udp"] is not None:
            udp = blob["udp"]
            progress(
                f"udp: batched {udp['batched']['delivered_per_sec']:,.0f} "
                f"delivered/s vs unbatched "
                f"{udp['unbatched']['delivered_per_sec']:,.0f}/s "
                f"(ratio {udp['delivered_ratio']:.2f}x)"
            )
        elif progress:
            progress("udp: skipped (sendmmsg unavailable)")
    return blob


def compare_micro(baseline: dict, current: Dict, tolerance: float = 0.25) -> List[str]:
    """Regression-check ``current`` against the committed ``micro`` blob.

    * codec and election rates, normalized by each run's calibration
      score, must stay within ``tolerance`` of the baseline;
    * the UDP delivered ratio must stay above
      ``MIN_UDP_RATIO * (1 - tolerance)`` — the committed baseline is
      recorded at >= MIN_UDP_RATIO, and the tolerance absorbs shared-CI
      noise without ever letting the batched path regress to parity.
    """
    failures: List[str] = []
    base = baseline.get("micro")
    if base is None:
        return ["baseline has no 'micro' section (re-run tools/bench_micro.py --update)"]
    base_calibration = base.get("calibration_kops") or 1.0
    rates = [("codec", key) for key in ("encode_per_sec", "encode_into_per_sec", "decode_per_sec")]
    rates.append(("election", "updates_per_sec"))
    for family, key in rates:
        base_rate = base.get(family, {}).get(key)
        if not base_rate:
            continue
        norm = current[family][key] / current["calibration_kops"]
        base_norm = base_rate / base_calibration
        if norm < (1.0 - tolerance) * base_norm:
            failures.append(
                f"{family} {key}: normalized throughput regressed "
                f"{(1.0 - norm / base_norm) * 100:.1f}% "
                f"(baseline {base_rate:,.0f}/s @ {base_calibration:,.0f} kops, "
                f"current {current[family][key]:,.0f}/s @ "
                f"{current['calibration_kops']:,.0f} kops)"
            )
    udp = current.get("udp")
    if base.get("udp") is not None and udp is not None:
        floor = MIN_UDP_RATIO * (1.0 - tolerance)
        if udp["delivered_ratio"] < floor:
            failures.append(
                f"udp: batched/unbatched delivered ratio "
                f"{udp['delivered_ratio']:.2f}x fell below {floor:.2f}x "
                f"(recorded baseline {base['udp']['delivered_ratio']:.2f}x, "
                f"gate {MIN_UDP_RATIO:.1f}x minus {tolerance * 100:.0f}% noise)"
            )
    return failures
