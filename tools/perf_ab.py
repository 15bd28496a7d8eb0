#!/usr/bin/env python
"""Alternating-pair A/B of two checkouts on one perfbench workload.

A speed claim is measured as pairs: each pair runs the base checkout's
``perfbench/run.py`` and the change's back to back, alternating which
side goes first from pair to pair, so drift in the host's speed falls
on both sides alike.  Each run's last line of standard output is its
JSON result (``{"correct", "attempted", "failed", "metrics"}``).  A
pair where either side is not ``correct`` or has ``failed > 0`` is
rejected: its timings describe a run that did not reproduce the
expected digests.

Every run lasts the ``run_seconds`` the change's ``BENCHMARK.json``
sets.  For every end-to-end metric named there the tool prints each
kept pair's ratio (change / base) and, per seed, both sides' median and
quartiles, the median ratio, and how many pairs the change won (a tie
counts for neither side).  Whether a ratio above 1 is a gain depends on
the metric's ``better`` direction, printed beside it.  Each line ends
in a verdict: ``gain`` or ``loss`` only when at least ``MIN_PAIRS``
pairs were kept, the medians differ by more than the base's
interquartile range, and at least nine in ten pairs agree with the
median; otherwise ``unresolved`` and why.

Every run compiles its imports from source: ``PYTHONDONTWRITEBYTECODE``
is set and ``PYTHONPYCACHEPREFIX`` points at a new empty directory, so
no run reads or writes a checkout's ``__pycache__`` and a checkout that
holds one times the same as a checkout that does not.  The tool writes
nothing into the checkouts.

Exit status: 0 when every seed kept at least one pair, 1 otherwise.

Usage::

    python tools/perf_ab.py BASE_DIR CHANGE_DIR --workload dsm16-smtp \\
        --seeds 1,2 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(checkout, workload, seed, seconds) -> stdout`` of one run.
Runner = Callable[[Path, str, int, int], str]

#: Fewest kept pairs from which a difference is reported as a gain or
#: a loss.
MIN_PAIRS = 10


def run_env(pycache: str) -> Dict[str, str]:
    """This process's environment, with no bytecode written and none
    read but from the empty directory ``pycache``."""
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def run_perfbench(checkout: Path, workload: str, seed: int,
                  seconds: int) -> str:
    """One untraced perfbench run in ``checkout``; its stdout."""
    with tempfile.TemporaryDirectory(prefix="perf_ab_pycache_") as pycache:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=str(checkout), capture_output=True, text=True,
            env=run_env(pycache),
        )
    return proc.stdout


def parse_result(stdout: str) -> Optional[Dict]:
    """The JSON result on the last non-blank line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def usable(result: Optional[Dict]) -> bool:
    return (
        result is not None
        and result.get("correct") is True
        and result.get("failed", 1) == 0
        and isinstance(result.get("metrics"), dict)
    )


def read_benchmark(checkout: Path) -> Tuple[List[Tuple[str, str]], int]:
    """``(name, better)`` of each end-to-end metric, and the run
    length in seconds."""
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in doc["end_to_end"]]
    return metrics, doc["run_seconds"]


def run_pairs(base: Path, change: Path, workload: str, seed: int,
              pairs: int, seconds: int, runner: Runner,
              log: Callable[[str], None] = print) -> List[Tuple[Dict, Dict]]:
    """Run ``pairs`` alternating pairs; return the usable ones as
    ``(base_result, change_result)``."""
    kept = []
    for i in range(pairs):
        order = ((base, "base"), (change, "change"))
        if i % 2:
            order = order[::-1]
        results = {}
        for checkout, side in order:
            results[side] = parse_result(
                runner(checkout, workload, seed, seconds))
        bad = [side for side in ("base", "change")
               if not usable(results[side])]
        if bad:
            log(f"seed {seed} pair {i + 1}: rejected "
                f"({', '.join(bad)}: not correct, failed, or no result)")
            continue
        kept.append((results["base"], results["change"]))
    return kept


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(kept: Sequence[Tuple[Dict, Dict]],
              metrics: Sequence[Tuple[str, str]]) -> Dict[str, Dict]:
    """Per metric: each pair's ratio, both sides' quartiles, and the
    pairs the change won and lost."""
    out = {}
    for name, better in metrics:
        base_vals, change_vals, ratios = [], [], []
        for b, c in kept:
            bv = b["metrics"].get(name, {}).get("value")
            cv = c["metrics"].get(name, {}).get("value")
            if bv is None or cv is None:
                continue
            base_vals.append(bv)
            change_vals.append(cv)
            ratios.append(cv / bv if bv else float("nan"))
        if not ratios:
            continue
        sign = 1 if better == "higher" else -1
        out[name] = {
            "better": better,
            "ratios": ratios,
            "base": quartiles(base_vals),
            "change": quartiles(change_vals),
            "median_ratio": statistics.median(ratios),
            "wins": sum(sign * (c - b) > 0
                        for b, c in zip(base_vals, change_vals)),
            "losses": sum(sign * (c - b) < 0
                          for b, c in zip(base_vals, change_vals)),
        }
    return out


def verdict(s: Dict) -> str:
    """``gain``/``loss`` for a resolved difference, else ``unresolved``
    with the reason."""
    n = len(s["ratios"])
    if n < MIN_PAIRS:
        return f"unresolved: {n} pairs, a verdict needs {MIN_PAIRS}"
    q1, base_med, q3 = s["base"]
    gap = s["change"][1] - base_med
    if abs(gap) <= q3 - q1:
        return "unresolved: median gap inside the base quartiles"
    sign = 1 if s["better"] == "higher" else -1
    side, agree = (
        ("gain", s["wins"]) if sign * gap > 0 else ("loss", s["losses"]))
    if agree * 10 < n * 9:
        return f"unresolved: {side} in the median, {agree}/{n} pairs agree"
    return side


def report(seed: int, summary: Dict[str, Dict]) -> List[str]:
    lines = []
    for name, s in summary.items():
        pairs = " ".join(f"{r:.3f}" for r in s["ratios"])
        sides = " ".join(
            f"{side} {q[1]:.5g} (q1 {q[0]:.5g} q3 {q[2]:.5g})"
            for side, q in (("base", s["base"]), ("change", s["change"])))
        lines.append(
            f"seed {seed} {name} ({s['better']} is better): {sides} "
            f"median ratio {s['median_ratio']:.3f} "
            f"change won {s['wins']}/{len(s['ratios'])} [pairs: {pairs}] "
            f"-> {verdict(s)}")
    return lines


def main(argv: Optional[List[str]] = None,
         runner: Runner = run_perfbench) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1",
                    help="comma-separated perfbench seeds")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = ap.parse_args(argv)
    metrics, seconds = read_benchmark(args.change)
    status = 0
    for seed in (int(s) for s in args.seeds.split(",")):
        kept = run_pairs(args.base, args.change, args.workload, seed,
                         args.pairs, seconds, runner)
        print(f"seed {seed}: {len(kept)} of {args.pairs} pairs kept",
              flush=True)
        if not kept:
            status = 1
            continue
        for line in report(seed, summarize(kept, metrics)):
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
