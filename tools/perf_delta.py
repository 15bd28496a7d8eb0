#!/usr/bin/env python
"""Compare two ``BENCH_*.json`` perf trajectories; fail on regression.

``make smtp16-smoke`` (and any ad-hoc A/B of two sweep runs) needs a
file-to-file comparison rather than the in-process gate ``python -m
repro sweep --gate`` applies: the fresh trajectory is written first,
then held against the committed one, so the diff survives as two
artifacts that can be inspected or plotted after the verdict.

Sweep trajectories (``BENCH_smoke.json``, ``BENCH_fig2.json``,
``BENCH_smtp16.json``) carry ``cells``, matched by configuration (app,
model, nodes, ways, freq, preset, flags) and timed by CPU seconds
(``elapsed_s``).  The model-checker trajectory (``BENCH_model.json``)
carries ``configs`` rows, matched by their config key and timed by
``seconds``; their counts (states, sym_states, transitions, pruned,
max_depth) must match exactly, so a row whose counts differ fails
outright, as does a baseline row missing from the fresh run.

When both files carry a ``reference_s`` box-speed calibration, the
fresh side is normalized by ``max(1, fresh_ref / base_ref)`` — the
same slowness-excusing bias as the sweep gate, so a loaded box never
manufactures a regression and a fast box never hides one.  A matched
cell or row fails when its normalized time exceeds the baseline's by
more than ``--limit`` (default 1.25 = the >25% regression rule) plus a
20 ms absolute slack for sub-0.1s cells.

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
from typing import Any, Dict, List, Tuple

#: Ratio above which a matched cell is a regression (>25% slower).
DEFAULT_LIMIT = 1.25

#: Absolute slack (seconds) absorbing timer noise on sub-0.1s cells.
SLACK_S = 0.02

#: ``configs`` row fields that must match exactly (state-space counts).
COUNT_FIELDS = ("states", "sym_states", "transitions", "pruned", "max_depth")


def _gate_key(row: Dict[str, object]) -> Tuple:
    flags = row.get("flags") or {}
    return (
        row.get("app"), row.get("model"), row.get("n_nodes"),
        row.get("ways"), row.get("freq_ghz"), row.get("preset"),
        tuple(sorted(flags.items())),
    )


def _label(key: Tuple) -> str:
    app, model, n, w, freq, preset, flags = key
    extra = "".join(f" {k}={v}" for k, v in flags)
    return f"{app}/{model} n={n} w={w} {freq:g}GHz {preset}{extra}"


def _timed_cells(doc: Dict[str, object]) -> Dict[Tuple, float]:
    """Fresh-timed ok rows only: cached rows carry no usable timing."""
    out: Dict[Tuple, float] = {}
    for row in doc.get("cells", []):
        if row.get("status") != "ok" or row.get("cached"):
            continue
        elapsed = float(row.get("elapsed_s") or 0.0)
        if elapsed > 0:
            out[_gate_key(row)] = elapsed
    return out


def _timing(
    label: str, base_s: float, fresh_s: float, scale: float, limit: float
) -> Tuple[bool, str]:
    failed = fresh_s > base_s * scale * limit + SLACK_S
    ratio = fresh_s / (base_s * scale) if base_s > 0 else float("inf")
    return failed, (
        f"perf-delta: {label}: {'FAIL' if failed else 'ok'} "
        f"({fresh_s:.3f}s vs {base_s:.3f}s baseline, {ratio:.2f}x, "
        f"limit {limit:.2f}x)"
    )


def _compare_cells(
    base_doc: Dict[str, Any],
    fresh_doc: Dict[str, Any],
    scale: float,
    limit: float,
) -> Tuple[int, List[str]]:
    base = _timed_cells(base_doc)
    fresh = _timed_cells(fresh_doc)
    failures = 0
    lines = []
    for key, base_s in sorted(base.items(), key=lambda kv: _label(kv[0])):
        fresh_s = fresh.get(key)
        if fresh_s is None:
            lines.append(f"perf-delta: {_label(key)}: MISSING in fresh run")
            continue
        failed, line = _timing(_label(key), base_s, fresh_s, scale, limit)
        failures += failed
        lines.append(line)
    for key in sorted(set(fresh) - set(base), key=_label):
        lines.append(
            f"perf-delta: {_label(key)}: NEW ({fresh[key]:.3f}s, "
            f"no baseline)"
        )
    return failures, lines


def _compare_configs(
    base_doc: Dict[str, Any],
    fresh_doc: Dict[str, Any],
    scale: float,
    limit: float,
) -> Tuple[int, List[str]]:
    base: Dict[str, Any] = base_doc.get("configs") or {}
    fresh: Dict[str, Any] = fresh_doc.get("configs") or {}
    failures = 0
    lines = []
    for key in sorted(base):
        row = fresh.get(key)
        if row is None:
            failures += 1
            lines.append(f"perf-delta: {key}: FAIL (missing in fresh run)")
            continue
        drift = [
            f"{field} {base[key].get(field)} -> {row.get(field)}"
            for field in COUNT_FIELDS
            if base[key].get(field) != row.get(field)
        ]
        if drift:
            failures += 1
            lines.append(
                f"perf-delta: {key}: FAIL (counts differ: "
                f"{', '.join(drift)})"
            )
            continue
        failed, line = _timing(
            key, float(base[key]["seconds"]), float(row["seconds"]),
            scale, limit,
        )
        failures += failed
        lines.append(line)
    for key in sorted(set(fresh) - set(base)):
        lines.append(
            f"perf-delta: {key}: NEW ({float(fresh[key]['seconds']):.3f}s, "
            f"no baseline)"
        )
    return failures, lines


def compare(
    base_doc: Dict[str, Any],
    fresh_doc: Dict[str, Any],
    limit: float = DEFAULT_LIMIT,
) -> Tuple[int, List[str]]:
    """Return ``(n_failures, report_lines)`` for two BENCH documents.

    Raises ``ValueError`` when either document has neither ``cells``
    nor ``configs``.
    """
    for name, doc in (("baseline", base_doc), ("fresh", fresh_doc)):
        if "cells" not in doc and "configs" not in doc:
            raise ValueError(
                f"{name} document has neither cells nor configs; "
                f"nothing to compare"
            )
    scale = 1.0
    base_ref = float(base_doc.get("reference_s") or 0.0)
    fresh_ref = float(fresh_doc.get("reference_s") or 0.0)
    if base_ref > 0 and fresh_ref > 0:
        scale = max(1.0, fresh_ref / base_ref)
    lines = []
    if scale != 1.0:
        lines.append(
            f"perf-delta: box speed {scale:.2f}x baseline "
            f"(calibration {fresh_ref:.3f}s vs {base_ref:.3f}s); "
            f"comparing normalized timings"
        )
    failures = 0
    for part in (_compare_cells, _compare_configs):
        n, part_lines = part(base_doc, fresh_doc, scale, limit)
        failures += n
        lines.extend(part_lines)
    return failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a fresh BENCH_*.json regresses >25% "
                    "against a committed one"
    )
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", help="freshly written BENCH_*.json")
    parser.add_argument("--limit", type=float, default=DEFAULT_LIMIT,
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
        print(line)
    if failures:
        print(f"\nperf-delta: {failures} cell(s)/row(s) failed "
              f"(limit {args.limit:.2f}x)")
        return 1
    print("\nperf-delta: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
