"""Benchmark of the SMTp simulator as a tool: host speed, set-up cost,
memory and verifier throughput, over four fixed workloads.

Run from the repository root::

    python3 perfbench/run.py --workload uni-bench --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer split (see README.md).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--steadiness N`` and ``--compare`` run and compare repeated runs;
``--record`` stores the digests of a seed's operations.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
#: Scratch output (fuzz failure artifacts) stays inside the checkout.
OUT_DIR = ROOT / ".perfbench"
#: Cold set-up is measured this many times, each in a fresh process.
SETUP_PROBES = 9

sys.path.insert(0, str(HERE))
from calibrate import SpeedMeter, host_speed  # noqa: E402
from workloads import WORKLOADS, OpResult, run_op, workload_ops  # noqa: E402


def spec() -> Dict:
    """BENCHMARK.json: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected() -> Dict:
    return json.loads(EXPECTED.read_text())


def import_simulator() -> None:
    """Put the checkout's ``src`` on the import path; fail before any
    result is printed when the simulator sources are not there."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"perfbench: no simulator sources at {src / 'repro'}")
    sys.path.insert(0, str(src))


def guard_layers() -> Dict[str, List[str]]:
    """Layer-map guard: fail the run when a layer resolves no entry
    point; return the absent entry points of the others."""
    from layers import check_layer_map

    absent, dead = check_layer_map()
    if dead:
        sys.exit(f"perfbench: layers with no entry point left in "
                 f"src/repro: {', '.join(dead)}")
    return absent


def run_pass(ops, meter: SpeedMeter) -> List[OpResult]:
    """Run each operation once.  Its CPU time is also scaled to the
    reference host speed measured while it ran."""
    out = []
    for op in ops:
        first = len(meter.samples)
        res = run_op(op, str(OUT_DIR / "fuzz_artifacts"), meter.clock)
        res.norm_cpu_s = res.cpu_s * meter.speed_since(first)
        # A finished machine is a reference cycle: free it now, so
        # neither peak memory nor the next operation's time depends on
        # when the collector would have run.
        gc.collect()
        out.append(res)
        status = "ok" if res.ok else f"FAILED {res.error}"
        print(f"  {op.label}: cpu {res.cpu_s:.3f}s (normalized "
              f"{res.norm_cpu_s:.3f}s) cycles {res.cycles} "
              f"digest {res.digest or '-'} {status}", flush=True)
    return out


def measure_setup(workload: str, seed: int) -> List[float]:
    """Cold set-up seconds, each probe in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def setup_probe(workload: str, seed: int) -> None:
    """Child side of :func:`measure_setup`: import the simulator and
    build every operation's machine and inputs, timed from cold and
    scaled to the reference host speed."""
    before = host_speed()
    start = time.thread_time()
    import_simulator()
    from workloads import setup_op

    for op in workload_ops(workload, seed):
        setup_op(op)
    took = time.thread_time() - start
    print(took * (before + host_speed()) / 2)


def check_digests(workload: str, seed: int,
                  passes: List[List[OpResult]]) -> Tuple[int, List[str]]:
    """Mark operations whose digest differs from the recorded one (or
    from the first pass) as failed.  Returns ``(failed, notes)``."""
    recorded = load_expected()["seeds"].get(str(seed), {}).get(workload)
    notes: List[str] = []
    if recorded is None:
        notes.append(f"no recorded digests for seed {seed}; this run's:")
        for r in passes[0]:
            notes.append(f"  digest {r.op.label}: {r.digest}")
    for pass_results in passes:
        for r, first in zip(pass_results, passes[0]):
            if not r.ok:
                continue
            want = recorded.get(r.op.label) if recorded else None
            if want is None:
                if r.digest != first.digest:
                    r.ok = False
                    notes.append(f"DIGEST {r.op.label}: {r.digest} differs "
                                 f"from the first pass's {first.digest}")
                continue
            if r.digest == want["digest"]:
                continue
            r.ok = False
            notes.append(f"DIGEST {r.op.label}: {r.digest}, recorded "
                         f"{want['digest']}")
            for key, value in sorted(want.get("fields", {}).items()):
                got = r.fields.get(key)
                if got != value:
                    notes.append(f"  {key}: {got} (recorded {value})")
    return sum(not r.ok for p in passes for r in p), notes


def end_to_end(passes: List[List[OpResult]], setup: List[float]):
    """The end-to-end metrics, and each operation's median CPU time."""
    n_ops = len(passes[0])
    cpu = [statistics.median(p[i].norm_cpu_s for p in passes)
           for i in range(n_ops)]
    first = passes[0]
    sim_idx = [i for i, r in enumerate(first) if r.op.kind in ("sim", "fuzz")]
    return {
        "sim_cycles_per_s": sum(first[i].cycles for i in sim_idx)
        / sum(cpu[i] for i in sim_idx),
        "pass_cpu_s": sum(cpu),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, cpu


def info_lines(passes: List[List[OpResult]], cpu: List[float]) -> List[str]:
    """Host speed, and the verifier throughputs on ``verify``."""
    raw = sum(r.cpu_s for p in passes for r in p)
    lines = [f"info host speed = "
             f"{sum(r.norm_cpu_s for p in passes for r in p) / raw:.3f} "
             f"x reference (normalized CPU / measured CPU)"]
    first = passes[0]
    fuzz = [i for i, r in enumerate(first) if r.op.kind == "fuzz"]
    mc = [i for i, r in enumerate(first) if r.op.kind == "model"]
    if fuzz:
        ops = sum(first[i].fuzz_ops for i in fuzz)
        lines.append(f"info fuzz_ops_per_s = "
                     f"{ops / sum(cpu[i] for i in fuzz):.1f} ops/s")
    if mc:
        states = sum(first[i].states for i in mc)
        lines.append(f"info mc_states_per_s = "
                     f"{states / sum(cpu[i] for i in mc):.1f} states/s")
    return lines


def per_layer(tracer, traced: List[OpResult], untraced: List[OpResult],
              templates_new: int) -> Dict[str, float]:
    """The per-layer metrics: span counts and self times of the traced
    pass, simulated counters of its simulation cells."""
    spans = tracer.totals()

    def calls(*names: str) -> int:
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names: str) -> float:
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def incl_s(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sims = [r.stats for r in traced if r.stats is not None]
    nodes = [n for st in sims for n in st.nodes]
    threads = [t for n in nodes for t in n.threads]
    cycles = sum(st.cycles for st in sims)
    skipped = sum(st.skipped_cycles for st in sims)
    committed = sum(t.committed for t in threads)
    squashed = sum(t.squashed for t in threads)
    l1 = [n.l1d for n in nodes]
    l2 = [n.l2 for n in nodes]
    proto = [n.protocol for n in nodes]
    handlers = sum(p.handlers for p in proto)
    messages = sum(r.messages for r in traced)
    return {
        "machine.self_s": self_s("machine"),
        "machine.cycles_stepped": cycles - skipped,
        "machine.skipped_frac": ratio(skipped, cycles),
        "events.calls": calls("events"),
        "events.self_s": self_s("events"),
        "pipeline.step_1t.calls": calls("pipeline.step_1t"),
        "pipeline.step_1t.self_s": self_s("pipeline.step_1t"),
        "pipeline.step_nt.calls": calls("pipeline.step_nt"),
        "pipeline.step_nt.self_s": self_s("pipeline.step_nt"),
        "pipeline.step_ref.calls": calls("pipeline.step_ref"),
        "pipeline.committed": committed,
        "pipeline.mem_stall_frac": ratio(
            sum(t.memory_stall_cycles for t in threads),
            sum(st.cycles * len(st.app_threads()) for st in sims)),
        "pipeline.squash_frac": ratio(squashed, committed + squashed),
        "caches.calls": calls("caches"),
        "caches.self_s": self_s("caches"),
        "caches.l1_miss_rate": ratio(sum(c.misses for c in l1),
                                     sum(c.accesses for c in l1)),
        "caches.l2_miss_rate": ratio(sum(c.misses for c in l2),
                                     sum(c.accesses for c in l2)),
        "apps.calls": calls("apps"),
        "apps.self_s": self_s("apps"),
        "apps.template_hit_ratio": 1.0 - ratio(templates_new, committed)
        if committed else 0.0,
        "memctrl.calls": calls("memctrl"),
        "memctrl.self_s": self_s("memctrl"),
        "memctrl.sdram_accesses": sum(n.sdram_accesses for n in nodes),
        "memctrl.dircache_hit_ratio": ratio(
            sum(p.dir_cache_hits for p in proto),
            sum(p.dir_cache_hits + p.dir_cache_misses for p in proto)),
        "protocol.handlers": handlers,
        "protocol.instructions": sum(p.instructions for p in proto),
        "protocol.self_s": self_s("protocol"),
        "protocol.occupancy_mean": ratio(
            sum(p.busy_cycles for p in proto),
            sum(st.cycles * len(st.nodes) for st in sims)),
        "protocol.retry_ratio": ratio(
            sum(p.retries + p.nacks_sent for p in proto), handlers),
        "network.messages": messages,
        "network.self_s": self_s("network"),
        "network.mean_latency_cycles": ratio(
            sum(r.latency_cycles for r in traced), messages),
        "setup.build_machine_s": incl_s("setup.build_machine"),
        "setup.app_sources_s": incl_s("setup.app_sources"),
        "analyze.states": sum(r.states for r in traced),
        "analyze.transitions": sum(r.transitions for r in traced),
        "analyze.self_s": self_s("analyze", "analyze.check_state"),
        "analyze.check_state_s": self_s("analyze.check_state"),
        "fuzz.ops": sum(r.fuzz_ops for r in traced),
        "fuzz.sanitizer_s": self_s("fuzz.sanitizer"),
        "fuzz.checker_s": self_s("fuzz.checker"),
        "trace.overhead_x": ratio(sum(r.norm_cpu_s for r in traced),
                                  sum(r.norm_cpu_s for r in untraced)),
    }


def run_untraced(workload: str, seed: int, seconds: float) -> Dict:
    ops = workload_ops(workload, seed)
    setup = measure_setup(workload, seed)
    print(f"set-up probes (s): {' '.join(f'{s:.4f}' for s in setup)}")
    passes: List[List[OpResult]] = []
    start = time.perf_counter()
    with SpeedMeter() as meter:
        while True:
            print(f"pass {len(passes) + 1}:", flush=True)
            pass_start = time.perf_counter()
            passes.append(run_pass(ops, meter))
            took = time.perf_counter() - pass_start
            # Start another pass only if it is expected to end in time.
            if time.perf_counter() - start + took > seconds:
                break
    metrics, cpu = end_to_end(passes, setup)
    return finish(workload, seed, passes, metrics,
                  info_lines(passes, cpu))


def run_traced(workload: str, seed: int) -> Dict:
    from layers import Tracer

    from repro.apps.compile import template_cache_stats

    ops = workload_ops(workload, seed)
    tracer = Tracer()
    # Wrappers go on before the first machine is built, and the traced
    # pass runs first so set-up and template stores are cold in it.
    with SpeedMeter() as meter:
        tracer.install()
        templates_before = template_cache_stats()[1]
        print("traced pass:", flush=True)
        try:
            traced = run_pass(ops, meter)
        finally:
            tracer.uninstall()
        templates_new = template_cache_stats()[1] - templates_before
        print("untraced pass:", flush=True)
        untraced = run_pass(ops, meter)
    metrics = per_layer(tracer, traced, untraced, templates_new)
    return finish(workload, seed, [untraced, traced], metrics, [])


def finish(workload: str, seed: int, passes: List[List[OpResult]],
           metrics: Dict[str, float], info: List[str]) -> Dict:
    """Run the correctness checks, print everything, build the result."""
    from workloads import contrast_failures

    failed, notes = check_digests(workload, seed, passes)
    for line in notes:
        print(line)
    contrast = contrast_failures(workload, [r for p in passes for r in p])
    for line in contrast:
        print(f"CONTRAST {line}")
    attempted = sum(len(p) for p in passes)
    for r in (r for p in passes for r in p if not r.ok):
        print(f"FAILED {r.op.label}: {r.error or 'digest mismatch'}")
    print(f"info failed_share = {failed / attempted:.4f} "
          f"({failed} of {attempted} operations)")
    for line in info:
        print(line)
    doc = spec()
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0 and not contrast,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


# ----------------------------------------------------------------------
# Steadiness report and digest recording
# ----------------------------------------------------------------------


def steadiness(workload: str, runs: int, first_seed: int, seconds: int,
               out: Optional[str]) -> None:
    """Run the workload ``runs`` times (seeds first_seed, first_seed+1,
    ...) in fresh processes and report each metric's spread."""
    values: Dict[str, List[float]] = {}
    for k in range(runs):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(first_seed + k),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        result = (json.loads(proc.stdout.strip().splitlines()[-1])
                  if proc.returncode == 0 else {"correct": False})
        if not result["correct"]:
            sys.exit(f"perfbench: run {k + 1} failed:\n"
                     f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        speed = [line.split("=")[1].split()[0]
                 for line in proc.stdout.splitlines()
                 if line.startswith("info host speed")]
        print(f"run {k + 1}/{runs} seed {first_seed + k}: host speed "
              f"{speed[0]} " + " ".join(
                  f"{n}={m['value']:.5g}"
                  for n, m in result["metrics"].items()), flush=True)
    print_spread(values)
    if out:
        Path(out).write_text(json.dumps(
            {"workload": workload, "values": values}, indent=1))


def print_spread(values: Dict[str, List[float]]) -> None:
    bound = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{(q3 - q1) / med:>8.3f} {(max(vals) - min(vals)) / med:>9.3f} "
              f"{bound.get(name, float('nan')):>6}")


def compare(first: str, second: str) -> bool:
    """Is the second set's median no worse than the first's by more
    than each metric's bound?"""
    a = json.loads(Path(first).read_text())["values"]
    b = json.loads(Path(second).read_text())["values"]
    ok = True
    for m in spec()["end_to_end"]:
        name, bound = m["name"], m["bound"]
        ma, mb = statistics.median(a[name]), statistics.median(b[name])
        worse = (ma - mb) / ma if m["better"] == "higher" else (mb - ma) / ma
        verdict = "ok" if worse <= bound else "WORSE"
        ok &= verdict == "ok"
        print(f"{name:<18} {ma:>12.5g} -> {mb:>12.5g}  worse by "
              f"{worse:+.3f} (bound {bound})  {verdict}")
    return ok


def record(workload: str, seed: int) -> None:
    """Store this seed's digests (and, for the named seeds, the summed
    stats fields) in expected.json."""
    doc = load_expected()
    named = {doc["default_seed"], doc["held_out_seed"]}
    with SpeedMeter() as meter:
        results = run_pass(workload_ops(workload, seed), meter)
    bad = [r for r in results if not r.ok]
    if bad:
        sys.exit(f"perfbench: not recording, {len(bad)} operations failed")
    entry = {}
    for r in results:
        entry[r.op.label] = {"digest": r.digest}
        if seed in named:
            entry[r.op.label]["fields"] = r.fields
    doc["seeds"].setdefault(str(seed), {})[workload] = entry
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entry)} digests for {workload} seed {seed}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N",
                    help="run the workload N times and report spreads")
    ap.add_argument("--out", help="steadiness: write the values here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two steadiness files against the bounds")
    ap.add_argument("--record", action="store_true",
                    help="record this seed's digests in expected.json")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    seed = args.seed if args.seed is not None else (
        load_expected()["default_seed"])
    if args.steadiness:
        steadiness(args.workload, args.steadiness, seed, args.seconds,
                   args.out)
        return 0
    import_simulator()
    absent = guard_layers()
    for layer, entries in absent.items():
        for entry in entries:
            print(f"absent entry point ({layer}): {entry}")
    OUT_DIR.mkdir(exist_ok=True)
    if args.record:
        record(args.workload, seed)
        return 0
    print(f"workload {args.workload} seed {seed} trace {args.trace}")
    if args.trace:
        result = run_traced(args.workload, seed)
    else:
        result = run_untraced(args.workload, seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
