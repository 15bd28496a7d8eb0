#!/usr/bin/env python
"""Compare two ``BENCH_*.json`` perf trajectories; fail on regression.

A file-to-file front end for the rule ``python -m repro sweep --gate``
applies (:func:`repro.sim.sweep.compare`), for ad-hoc A/B comparisons
of two written trajectories: sweep files (``BENCH_smoke.json``,
``BENCH_fig2.json``, ``BENCH_smtp16.json``) cell by cell, including
the baseline's speedup floors, and the model-checker file
(``BENCH_model.json``) config by config.

Exit status: 0 clean, 1 regression(s) or unusable input (including a
document with neither ``cells`` nor ``configs``, which would otherwise
compare nothing and pass).

Usage::

    python tools/perf_delta.py BASELINE.json FRESH.json [--limit 1.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.sim.sweep import GATE_SLOWDOWN_LIMIT, compare  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a fresh BENCH_*.json regresses >25% "
                    "against a committed one"
    )
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", help="freshly written BENCH_*.json")
    parser.add_argument("--limit", type=float, default=GATE_SLOWDOWN_LIMIT,
                        help="failure ratio (default %(default)s)")
    args = parser.parse_args(argv)

    docs = []
    for path in (args.baseline, args.fresh):
        try:
            docs.append(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as exc:
            print(f"perf-delta: cannot read {path}: {exc}", file=sys.stderr)
            return 1
    try:
        failures, lines = compare(docs[0], docs[1], limit=args.limit)
    except ValueError as exc:
        print(f"perf-delta: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(f"perf-delta: {line}")
    if failures:
        print(f"\nperf-delta: {failures} cell(s)/row(s) failed "
              f"(limit {args.limit:.2f}x)")
        return 1
    print("\nperf-delta: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
