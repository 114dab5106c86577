"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload failover_lossy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload, each in its own process

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the workload once untraced and once under the layer tracer and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Per-run artifacts (the latest span dump per workload, all-workload
#: results); git-ignored.
OUT_DIR = ROOT / ".perfbench"
#: At least this many full repetitions of a sim workload per run: the
#: determinism check compares them.
MIN_REPS = 2
#: setup_s is the median of at least MIN_SETUPS set-ups, and of more (up
#: to MAX_SETUPS) until they add up to SETUP_BUDGET_S: a short set-up is a
#: noisy measurement on its own.
MIN_SETUPS = 3
MAX_SETUPS = 12
SETUP_BUDGET_S = 2.0
WORKLOAD_NAMES = ("failover_lossy", "churn_swim", "lease_failover", "live_udp")


def _import_program():
    """Make ``repro`` (under src/) and this package importable."""
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import repro  # noqa: F401  (fails here, cleanly, without the program)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """What one run reports: metrics, operation counts, problems."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.details: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def line(self) -> str:
        from perfbench.metrics import UNITS

        return json.dumps(
            {
                "correct": not self.problems,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


# ----------------------------------------------------------------------
# Simulated workloads
# ----------------------------------------------------------------------
def run_sim(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import sim

    workload = sim.WORKLOADS[name]
    outcome = Outcome()
    if trace:
        return _run_sim_traced(workload, seed, outcome)
    started = time.perf_counter()
    reps = []
    while len(reps) < MIN_REPS or time.perf_counter() - started + _mean_wall(reps) <= seconds:
        t0 = time.perf_counter()
        rep = sim.run_rep(workload, seed)
        rep.wall_s = time.perf_counter() - t0
        reps.append(rep)
    setups = [(rep.setup_s, rep.setup_raw_s) for rep in reps]
    while len(setups) < MIN_SETUPS or (
        sum(raw for _, raw in setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
    ):
        setups.append(sim.run_setup(workload, seed))
    first = reps[0]
    _check_repeats(reps, outcome)
    outcome.problems.extend(first.problems)
    figures = first.virtual
    measured = workload.end - workload.warmup
    per_node_s = 1000.0 / workload.n_nodes / measured
    outcome.metrics = {
        "setup_s": statistics.median(normalized for normalized, _ in setups),
        "cpu_ms_per_node_s": per_node_s * statistics.median(rep.window_cpu_s for rep in reps),
        "failover_p50_ms": figures["failover_p50_ms"],
        "failover_tail_ms": figures["failover_tail_ms"],
        "wire_kb_per_node_s": figures["wire_kb_per_node_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.attempted = figures["attempted"]
    outcome.failed = figures["failed"]
    outcome.details = dict(
        figures,
        reps=len(reps),
        setups=len(setups),
        events=first.events,
        digest=first.digest,
        raw_setup_s=statistics.median(raw for _, raw in setups),
        raw_cpu_ms_per_node_s=per_node_s * statistics.median(rep.window_raw_cpu_s for rep in reps),
    )
    return outcome


def _mean_wall(reps) -> float:
    return sum(rep.wall_s for rep in reps) / len(reps) if reps else 0.0


def _check_repeats(reps, outcome: Outcome) -> None:
    first = reps[0]
    for index, rep in enumerate(reps[1:], start=2):
        if (rep.digest, rep.events) != (first.digest, first.events):
            outcome.problems.append(
                f"repeat {index} diverged: digest/events {rep.digest[:12]}/{rep.events} "
                f"vs {first.digest[:12]}/{first.events}"
            )
        elif not _same_figures(rep.virtual, first.virtual):
            outcome.problems.append(f"repeat {index} reproduced the trace but not its figures")


def _same_figures(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key, value in a.items():
        other = b[key]
        if isinstance(value, float) and math.isnan(value) and math.isnan(other):
            continue
        if value != other:
            return False
    return True


def _run_sim_traced(workload, seed: int, outcome: Outcome) -> Outcome:
    from perfbench import sim
    from perfbench.metrics import per_layer_values
    from perfbench.tracer import Tracer

    t0 = time.perf_counter()
    plain = sim.run_rep(workload, seed)
    plain_wall = time.perf_counter() - t0

    tracer = Tracer()

    def built(system) -> None:
        tracer.is_down = lambda node: not system.network.nodes[node].up

    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = sim.run_rep(workload, seed, on_built=built, on_finished=tracer.restore)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    if (traced.digest, traced.events) != (plain.digest, plain.events):
        outcome.problems.append(
            f"traced run diverged: digest/events {traced.digest[:12]}/{traced.events} "
            f"vs {plain.digest[:12]}/{plain.events}"
        )
    elif not _same_figures(traced.virtual, plain.virtual):
        outcome.problems.append("traced run reproduced the trace but not its figures")
    outcome.problems.extend(plain.problems)
    spans = OUT_DIR / "spans" / f"{workload.name}.npz"
    tracer.write_spans(spans)
    summary = tracer.summary()
    outcome.metrics = per_layer_values(
        summary,
        tracer.counts,
        tracer.timer_lag,
        plain.virtual,
        {
            "sim.events": traced.events,
            "trace.spans": len(tracer.span_end),
            "runtime.udp.frames_sent": 0,
            "runtime.udp.frames_received": 0,
            "runtime.udp.frames_rejected": 0,
            "trace.overhead_ratio": traced_wall / plain_wall,
        },
    )
    outcome.attempted = plain.virtual["attempted"]
    outcome.failed = plain.virtual["failed"]
    outcome.details = {
        "digest": plain.digest,
        "events": plain.events,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return outcome


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------
def run_live(seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import live

    outcome = Outcome()
    if trace:
        return _run_live_traced(seed, seconds, outcome)
    result = live.run_live(seed, seconds)
    outcome.problems.extend(result.problems)
    if result.problems:
        return outcome
    figures = result.figures
    outcome.metrics = {
        "setup_s": figures["setup_s"],
        "cpu_ms_per_node_s": figures["cpu_ms_per_node_s"],
        "failover_p50_ms": figures["failover_p50_ms"],
        "failover_tail_ms": figures["failover_tail_ms"],
        "wire_kb_per_node_s": figures["wire_kb_per_node_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.attempted = figures["attempted"]
    outcome.failed = figures["failed"]
    outcome.details = figures
    return outcome


def _run_live_traced(seed: int, seconds: float, outcome: Outcome) -> Outcome:
    from perfbench import live
    from perfbench.metrics import per_layer_values
    from perfbench.tracer import Tracer

    plain = live.run_live(seed, seconds / 2)
    tracer = Tracer()

    def built(daemons) -> None:
        tracer.is_down = lambda node: not daemons[node].node.up

    with tracer:
        traced = live.run_live(seed, seconds / 2, on_built=built)
    outcome.problems.extend(plain.problems + traced.problems)
    if outcome.problems:
        return outcome
    spans = OUT_DIR / "spans" / "live_udp.npz"
    tracer.write_spans(spans)
    figures = traced.figures
    outcome.metrics = per_layer_values(
        tracer.summary(),
        tracer.counts,
        tracer.timer_lag,
        figures,
        {
            "sim.events": 0,
            "trace.spans": len(tracer.span_end),
            "runtime.udp.frames_sent": figures["frames_sent"],
            "runtime.udp.frames_received": figures["frames_received"],
            "runtime.udp.frames_rejected": figures["frames_rejected"],
            "trace.overhead_ratio": figures["cpu_ms_per_node_s"]
            / plain.figures["cpu_ms_per_node_s"],
        },
    )
    outcome.attempted = plain.figures["attempted"] + figures["attempted"]
    outcome.failed = plain.figures["failed"] + figures["failed"]
    outcome.details = {"spans_file": str(spans.relative_to(ROOT))}
    return outcome


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_one(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if name == "live_udp":
        return run_live(seed, seconds, trace)
    return run_sim(name, seed, seconds, trace)


def report(name: str, outcome: Outcome) -> None:
    from perfbench.metrics import UNITS

    print(f"== {name}")
    for key, value in outcome.details.items():
        print(f"   {key:<28} {value}")
    for key, value in outcome.metrics.items():
        print(f"   {key:<40} {value:>14.6g} {UNITS[key]}")
    print(f"   attempted {outcome.attempted}  failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"   CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="leader election service benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.workload != "all":
        outcome = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        report(args.workload, outcome)
        print(outcome.line(), flush=True)
        return 0 if not outcome.problems else 1

    results = {}
    for name in WORKLOAD_NAMES:
        # One process per workload, so that peak_rss_mb is its own.
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            + ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            + ["--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"   CHECK FAILED: {name} printed no result (exit {child.returncode})")
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
