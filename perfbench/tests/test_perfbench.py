"""Self-tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics, reference, sim
from perfbench.stats import median_and_tail, percentile, tail_percentile
from perfbench.tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_a_nested_span_tree():
    # a[0,10] > b[1,4] > c[2,3];  a > d[5,9];  e[20,21] is a second root.
    names = ["a", "b", "c", "d", "e"]
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    parent = np.array([-1, 0, 1, 0, -1], dtype=np.int32)
    name_id = np.arange(5, dtype=np.uint16)
    calls, seconds = self_times(name_id, start, end, parent, len(names))
    assert calls.tolist() == [1, 1, 1, 1, 1]
    assert seconds.tolist() == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    # The self times partition the roots' wall time.
    assert seconds.sum() == pytest.approx(10.0 + 1.0)


def test_self_time_sums_per_name():
    start = np.array([0.0, 1.0, 3.0])
    end = np.array([5.0, 2.0, 4.0])
    parent = np.array([-1, 0, 0], dtype=np.int32)
    name_id = np.array([0, 1, 1], dtype=np.uint16)
    calls, seconds = self_times(name_id, start, end, parent, 2)
    assert calls.tolist() == [1, 2]
    assert seconds.tolist() == pytest.approx([3.0, 2.0])


def test_recorded_spans_nest_and_skip_super_reentry():
    tracer = Tracer()

    class Base:
        def work(self):
            return inner()

    class Child(Base):
        def work(self):
            return super().work() + 1

    def leaf():
        return 1

    inner = tracer.wrap(leaf, "x.leaf", "x")
    Base.work = tracer.wrap(Base.__dict__["work"], "x.work", "x")
    Child.work = tracer.wrap(Child.__dict__["work"], "x.work", "x")
    assert Child().work() == 2
    summary = tracer.summary()
    assert summary["x.work"][0] == 1  # the super() call adds no span
    assert summary["x.leaf"][0] == 1
    name_id, _, _, parent = tracer.arrays()
    assert parent.tolist() == [-1, 0]
    assert [tracer.names[i] for i in name_id] == ["x.work", "x.leaf"]


def test_generator_entry_points_are_timed_per_resume():
    tracer = Tracer()

    def produce(n):
        for i in range(n):
            yield i

    def consume():
        return sum(items(3))

    items = tracer.wrap_generator(produce, "x.items", "x")
    consume = tracer.wrap(consume, "x.consume", "x")
    assert consume() == 3
    summary = tracer.summary()
    assert summary["x.items"][0] == 1  # one call ...
    name_id, start, end, parent = tracer.arrays()
    names = [tracer.names[i] for i in name_id]
    # ... and four resumes (three items, then StopIteration), each a child
    # of the consumer, which is where the generator's body really runs.
    assert names == ["x.consume"] + ["x.items"] * 4
    assert parent.tolist() == [-1, 0, 0, 0, 0]
    assert (start[1:] >= start[0]).all() and (end[1:] <= end[0]).all()


def test_a_closed_generator_closes_the_wrapped_one():
    tracer = Tracer()
    closed = []

    def produce():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    items = tracer.wrap_generator(produce, "x.items", "x")()
    assert next(items) == 1
    items.close()
    assert closed == [True]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, pct",
    [(5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct
    if pct is not None:
        beyond = sum(1 for v in range(1, n + 1) if v > percentile(range(1, n + 1), pct))
        assert beyond >= 10


def test_median_and_tail_report_percentile_and_n():
    values = list(range(1, 101))
    p50, tail, pct, n = median_and_tail(values)
    assert (p50, tail, pct, n) == (50, 90, 90.0, 100)
    # Too few samples: the tail falls back to the median.
    assert median_and_tail([3.0, 1.0, 2.0]) == (2.0, 2.0, 50.0, 3)


def test_failed_operations_count_as_missing_the_limit():
    p50, tail, _, _ = median_and_tail([1.0] * 25 + [float("inf")] * 15)
    assert p50 == 1.0 and tail == float("inf")


def test_finite_tail_steps_down_past_failed_samples():
    values = [float(v) for v in range(1, 990)] + [float("inf")] * 11
    assert median_and_tail(values)[1:3] == (float("inf"), 99.0)
    p50, tail, pct, n = median_and_tail(values, finite_tail=True)
    assert (p50, tail, pct, n) == (500.0, 950.0, 95.0, 1000)


# ----------------------------------------------------------------------
# Wrapper install/restore
# ----------------------------------------------------------------------
def _snapshot(owners):
    return {owner: dict(vars(owner)) for owner in owners}


def test_install_and_restore_leave_every_patched_owner_identical():
    probe = Tracer()
    probe.install()
    owners = {owner for owner, _, _ in probe._saved}
    probe.restore()
    before = _snapshot(owners)
    tracer = Tracer()
    with tracer:
        during = _snapshot(owners)
        assert during != before
    after = _snapshot(owners)
    assert after.keys() == before.keys()
    for owner in owners:
        assert after[owner].keys() == before[owner].keys()
        for key, value in before[owner].items():
            assert after[owner][key] is value, (owner, key)


# ----------------------------------------------------------------------
# Reference normalization
# ----------------------------------------------------------------------
def test_reference_meter_divides_each_block_by_its_neighbouring_samples(monkeypatch):
    samples = iter([0.002, 0.006, 0.008, 0.008])
    monkeypatch.setattr(reference, "reference_sample", lambda: next(samples))
    clock = iter([0.0, 0.1, 1.0, 1.3])
    meter = reference.ReferenceMeter(lambda: next(clock))
    meter.measure(lambda: None)  # 0.1 s between samples 0.002 and 0.006
    meter.begin()  # a pause: the next block starts from sample 0.008
    meter.measure(lambda: None)  # 0.3 s between samples 0.008 and 0.008
    assert meter.raw_s == pytest.approx(0.4)
    expected = 0.1 * reference.REFERENCE_S / 0.004 + 0.3 * reference.REFERENCE_S / 0.008
    assert meter.normalized_s == pytest.approx(expected)


def test_reference_sample_leaves_the_garbage_collector_as_it_was():
    import gc

    assert reference.reference_sample() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.reference_sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Determinism of a tiny sim workload
# ----------------------------------------------------------------------
TINY = replace(
    sim.WORKLOADS["failover_lossy"],
    name="tiny",
    n_nodes=5,
    n_groups=2,
    warmup=5.0,
    window=10.0,
    settle=6.0,
    kills=sim.KillPlan(first=1.0, period=4.0, jitter=0.5, downtime=(1.0, 2.0)),
)


def test_tiny_sim_workload_repeats_exactly():
    first = sim.run_rep(TINY, seed=7)
    second = sim.run_rep(TINY, seed=7)
    assert first.problems == []
    assert first.virtual["failover_n"] > 0
    assert (first.digest, first.events) == (second.digest, second.events)
    assert first.virtual == second.virtual


def test_measured_blocks_do_not_change_the_run():
    whole = sim.run_rep(replace(TINY, chunk=100.0), seed=5)
    blocks = sim.run_rep(replace(TINY, chunk=0.5), seed=5)
    assert (blocks.digest, blocks.events) == (whole.digest, whole.events)
    assert blocks.virtual == whole.virtual


def test_traced_tiny_run_reproduces_the_untraced_one():
    plain = sim.run_rep(TINY, seed=3)
    tracer = Tracer()
    with tracer:
        traced = sim.run_rep(TINY, seed=3)
    assert (traced.digest, traced.events) == (plain.digest, plain.events)
    summary = tracer.summary()
    blocks = sim._stops(0.0, TINY.warmup, TINY.chunk) + sim._stops(TINY.warmup, TINY.end, TINY.chunk)
    assert summary["sim.run_until"][0] == len(blocks)
    assert summary["net.deliver"][0] > 0
    assert summary.get("runtime.encode", (0, 0.0))[0] == 0


# ----------------------------------------------------------------------
# BENCHMARK.json mirrors the metric definitions
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(item) for item in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(item) for item in metrics.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} == set(sim.WORKLOADS) | {"live_udp"}
