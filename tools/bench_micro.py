#!/usr/bin/env python
"""Run the live-datapath micro-benchmarks and maintain their baseline.

The codec, election and UDP micro measurements live under the top-level
``micro`` key of the committed ``BENCH_core.json`` (next to the sim-side
``modes``).  Typical invocations:

    # Measure and print; writes nothing.
    PYTHONPATH=src python tools/bench_micro.py

    # Regression-checked against the committed baseline (what the CI
    # perf-smoke job runs; exit 1 on a codec- or election-throughput or
    # UDP-ratio regression).
    PYTHONPATH=src python tools/bench_micro.py --check

    # Refresh the committed baseline after an intentional change.  The
    # UDP delivered ratio must clear the acceptance floor to record.
    PYTHONPATH=src python tools/bench_micro.py --update

See :mod:`benchmarks.bench_micro` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.bench_micro import (  # noqa: E402
    MIN_UDP_RATIO,
    compare_micro,
    run_micro_bench,
)

BASELINE_PATH = ROOT / "BENCH_core.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write this run into the committed baseline's 'micro' section",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression for --check (default 0.25)",
    )
    parser.add_argument(
        "--skip-udp",
        action="store_true",
        help="codec only (no receiver subprocess; for constrained sandboxes)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help=f"baseline file (default {BASELINE_PATH.name})",
    )
    args = parser.parse_args(argv)

    result = run_micro_bench(
        skip_udp=args.skip_udp, progress=lambda line: print(line, flush=True)
    )

    exit_code = 0
    if args.check:
        if not args.baseline.exists():
            print(f"error: no baseline at {args.baseline}", file=sys.stderr)
            return 2
        baseline = json.loads(args.baseline.read_text())
        failures = compare_micro(baseline, result, tolerance=args.tolerance)
        if failures:
            print(f"\nmicro-bench: {len(failures)} regression(s):")
            for failure in failures:
                print(f"  FAIL {failure}")
            exit_code = 1
        else:
            print(f"\nmicro-bench: OK within {args.tolerance * 100:.0f}% of baseline")

    if args.update:
        udp = result.get("udp")
        if udp is not None and udp["delivered_ratio"] < MIN_UDP_RATIO:
            print(
                f"error: refusing to record a UDP delivered ratio of "
                f"{udp['delivered_ratio']:.2f}x (< {MIN_UDP_RATIO:.1f}x "
                "acceptance floor)",
                file=sys.stderr,
            )
            return 1
        merged = {"schema": 1}
        if args.baseline.exists():
            merged = json.loads(args.baseline.read_text())
        merged["micro"] = result
        args.baseline.write_text(json.dumps(merged, indent=1) + "\n")
        print(f"updated {args.baseline} (micro section)")

    return exit_code


if __name__ == "__main__":
    sys.exit(main())
