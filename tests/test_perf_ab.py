"""tools/perf_ab.py: result parsing, pair rejection and medians, with a
stubbed perfbench runner (no simulation runs)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import perf_ab  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BASE = Path("/base")
CHANGE = Path("/change")


def result(rate, cpu, correct=True, failed=0):
    return {
        "correct": correct, "attempted": 2, "failed": failed,
        "metrics": {
            "sim_cycles_per_s": {"value": rate, "unit": "cycles/s"},
            "pass_cpu_s": {"value": cpu, "unit": "s"},
        },
    }


def stub(outputs):
    """A runner replaying ``outputs[(checkout, seed)]`` in call order,
    recording each call."""
    calls = []

    def runner(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        doc = outputs[(checkout, seed)].pop(0)
        return "progress line\n" + (json.dumps(doc) if doc else "") + "\n"

    return runner, calls


def test_parse_result_reads_last_line():
    assert perf_ab.parse_result('noise\n{"correct": true}\n\n') == {
        "correct": True}
    assert perf_ab.parse_result("") is None
    assert perf_ab.parse_result("Traceback ...\nValueError: x") is None


def test_pairs_alternate_and_reject_bad_runs():
    outputs = {
        (BASE, 1): [result(100, 10), result(100, 10),
                    result(100, 10, correct=False)],
        (CHANGE, 1): [result(120, 8), result(110, 9), result(130, 7)],
    }
    runner, calls = stub(outputs)
    log = []
    kept = perf_ab.run_pairs(BASE, CHANGE, "dsm16-smtp", 1, 3, 25, runner,
                             log=log.append)
    # Pair 1 runs base first, pair 2 change first, pair 3 base first.
    assert [c[0] for c in calls] == [BASE, CHANGE, CHANGE, BASE,
                                     BASE, CHANGE]
    assert len(kept) == 2
    assert log == ["seed 1 pair 3: rejected (base: not correct, "
                   "failed, or no result)"]


def test_failed_ops_or_missing_result_reject_the_pair():
    outputs = {
        (BASE, 1): [result(100, 10), None],
        (CHANGE, 1): [result(100, 10, failed=1), result(100, 10)],
    }
    runner, _ = stub(outputs)
    assert perf_ab.run_pairs(BASE, CHANGE, "w", 1, 2, 25, runner,
                             log=lambda line: None) == []


def test_summary_medians_per_metric():
    kept = [(result(100, 10), result(120, 8)),
            (result(100, 10), result(110, 9)),
            (result(200, 20), result(260, 14))]
    metrics = [("sim_cycles_per_s", "higher"), ("pass_cpu_s", "lower"),
               ("setup_s", "lower")]
    s = perf_ab.summarize(kept, metrics)
    assert "setup_s" not in s  # absent from every run: not reported
    rate = s["sim_cycles_per_s"]
    assert rate["ratios"] == pytest.approx([1.2, 1.1, 1.3])
    assert rate["median_ratio"] == pytest.approx(1.2)
    assert rate["base"][1] == 100
    assert rate["change"][1] == 120
    assert rate["base"][0] <= 100 <= rate["base"][2]
    assert rate["wins"] == 3
    cpu = s["pass_cpu_s"]
    assert cpu["median_ratio"] == pytest.approx(0.8)
    assert cpu["better"] == "lower"
    assert cpu["wins"] == 3
    assert cpu["losses"] == 0


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    kept = [(result(100, 10), result(90, 10)),
            (result(100, 10), result(100, 9)),
            (result(100, 10), result(110, 11))]
    s = perf_ab.summarize(kept, [("sim_cycles_per_s", "higher"),
                                 ("pass_cpu_s", "lower")])
    assert s["sim_cycles_per_s"]["wins"] == 1
    assert s["sim_cycles_per_s"]["losses"] == 1
    assert s["pass_cpu_s"]["wins"] == 1
    assert s["pass_cpu_s"]["losses"] == 1


def test_verdict_needs_ten_pairs_a_clear_gap_and_nine_in_ten():
    metrics = [("sim_cycles_per_s", "higher"), ("pass_cpu_s", "lower")]
    # Ten pairs; base rates 100..109 (quartile spread 5.5), change
    # +20 in nine pairs and -1 in one.
    kept = [(result(100 + i, 10), result(120 + i if i else 99, 10 - i))
            for i in range(10)]
    s = perf_ab.summarize(kept, metrics)
    assert perf_ab.verdict(s["sim_cycles_per_s"]) == "gain"
    # pass_cpu_s falls 10 -> 10..1 with a flat base: a clear gain too.
    assert perf_ab.verdict(s["pass_cpu_s"]) == "gain"
    # The same differences the other way round are a loss.
    flipped = perf_ab.summarize([(c, b) for b, c in kept], metrics)
    assert perf_ab.verdict(flipped["sim_cycles_per_s"]) == "loss"
    # Nine pairs are too few, however clear.
    assert perf_ab.verdict(perf_ab.summarize(kept[1:], metrics)[
        "sim_cycles_per_s"]).startswith("unresolved: 9 pairs")
    # A median gap inside the base's quartile spread resolves nothing.
    close = [(result(100 + 10 * i, 10), result(103 + 10 * i, 10))
             for i in range(10)]
    assert perf_ab.verdict(perf_ab.summarize(close, metrics)[
        "sim_cycles_per_s"]) == (
        "unresolved: median gap inside the base quartiles")
    # A clear median gap that only eight pairs in ten agree with.
    split = [(result(100, 10), result(130 if i > 1 else 90, 10))
             for i in range(10)]
    assert perf_ab.verdict(perf_ab.summarize(split, metrics)[
        "sim_cycles_per_s"]) == (
        "unresolved: gain in the median, 8/10 pairs agree")


def test_main_end_to_end_with_stub(capsys):
    outputs = {
        (BASE, 1): [result(100, 10)],
        (ROOT, 1): [result(125, 8)],
        (BASE, 2): [result(100, 10, correct=False)],
        (ROOT, 2): [result(125, 8)],
    }
    runner, calls = stub(outputs)
    status = perf_ab.main(
        [str(BASE), str(ROOT), "--workload", "dsm16-smtp", "--seeds", "1,2",
         "--pairs", "1"], runner=runner)
    out = capsys.readouterr().out
    # Every run lasts the change checkout's BENCHMARK.json run_seconds.
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert {c[3] for c in calls} == {seconds}
    assert status == 1  # seed 2 kept no pair
    assert "seed 1: 1 of 1 pairs kept" in out
    assert "seed 1 sim_cycles_per_s (higher is better)" in out
    assert "median ratio 1.250 change won 1/1" in out
    assert "-> unresolved: 1 pairs, a verdict needs 10" in out
    assert "seed 2: 0 of 1 pairs kept" in out


def test_both_sides_run_without_bytecode_caches(monkeypatch):
    # Each run gets a new, empty cache prefix and writes no bytecode,
    # so neither checkout's __pycache__ is read or written.
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cwd, dict(env), prefix.is_dir() and not any(
            prefix.iterdir())))
        return perf_ab.subprocess.CompletedProcess(cmd, 0, "{}\n", "")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/inherited")
    monkeypatch.setattr(perf_ab.subprocess, "run", fake_run)
    for checkout in (BASE, CHANGE):
        assert perf_ab.run_perfbench(checkout, "verify", 1, 25) == "{}\n"
    (base_cwd, base_env, base_empty), (change_cwd, change_env,
                                       change_empty) = seen
    assert (base_cwd, change_cwd) == (str(BASE), str(CHANGE))
    assert base_empty and change_empty
    for env in (base_env, change_env):
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        prefix = env["PYTHONPYCACHEPREFIX"]
        assert prefix != "/inherited"
        assert not Path(prefix).is_relative_to(ROOT)
        assert not Path(prefix).exists()  # removed after its run
    assert base_env["PYTHONPYCACHEPREFIX"] != change_env["PYTHONPYCACHEPREFIX"]
    # Apart from the prefix the two runs see the same environment.
    base_env.pop("PYTHONPYCACHEPREFIX")
    change_env.pop("PYTHONPYCACHEPREFIX")
    assert base_env == change_env
