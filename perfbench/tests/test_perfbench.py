"""Tests of the benchmark's own code.

    python -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from replay import replay  # noqa: E402
from spans import self_times, span_metrics  # noqa: E402

CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_covered_by_references(workload):
    refs = workloads.load_refs()
    for seed in range(20):
        calls = workloads.make_pass(workload, seed)
        assert calls == workloads.make_pass(workload, seed)
        assert all(workloads.key(argv) in refs for argv in calls)


def test_generator_is_identical_across_processes():
    code = ("import json, workloads; print(json.dumps("
            "[workloads.make_pass(w, s) for w in ('decide', 'lattice') for s in range(5)]))")
    outputs = {
        subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": hash_seed}).stdout
        for hash_seed in ("0", "1")
    }
    assert len(outputs) == 1
    passes = json.loads(outputs.pop())
    assert passes == [[list(a) for a in workloads.make_pass(w, s)]
                      for w in ("decide", "lattice") for s in range(5)]


def test_seeded_workloads_vary_and_exhaustive_ones_do_not():
    for workload in ("decide", "lattice"):
        assert workloads.make_pass(workload, 1) != workloads.make_pass(workload, 2)
    for workload in ("sweep", "verify"):
        assert workloads.make_pass(workload, 1) == workloads.make_pass(workload, 2)


def test_decide_pass_uses_each_level_once_and_spans_all_strata():
    for seed in range(20):
        calls = workloads.make_pass("decide", seed)
        levels = [int(argv[2]) * (2 if argv[0] == "decide-torus" else 1) for argv in calls]
        assert len(set(levels)) == len(levels)
        rs = {int(argv[2]) for argv in calls if argv[0] == "decide-torus"}
        assert workloads.LARGE_R in rs
        assert any(argv[4] == "0" for argv in calls if argv[0] == "decide-torus")


@pytest.mark.parametrize("n, q", [(1, None), (19, None), (20, 50), (25, 60), (100, 90),
                                  (1000, 99)])
def test_tail_percentile_examples(n, q):
    assert run.tail_percentile(n) == q


def test_tail_percentile_leaves_at_least_ten_samples_beyond():
    for n in range(1, 600):
        q = run.tail_percentile(n)
        if q is None:
            assert n < 20
            continue
        values = list(range(n))
        tail = run.nearest_rank(values, q)
        assert sum(v > tail for v in values) >= 10
        if q < 99:
            above = run.nearest_rank(values, q + 1)
            assert sum(v > above for v in values) < 10


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["positivity.decide_torus", 1.0, 4.0, 0],
        ["quantum.sign_table", 2.0, 3.0, 1],
        ["positivity.decide_torus", 5.0, 9.0, 0],
        ["cli.main", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    metrics = span_metrics(spans, ["cli.main", "positivity.decide_torus",
                                   "quantum.sign_table", "cyclotomic.reduce"])
    assert metrics["cli.main.calls"] == 2
    assert metrics["cli.main.s"] == 11.0
    assert metrics["cli.main.self_s"] == 4.0
    assert metrics["positivity.decide_torus.self_s"] == 6.0
    assert metrics["quantum.sign_table.s"] == 1.0
    assert metrics["cyclotomic.reduce.calls"] == 0


def test_self_times_count_overlapping_children_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0], ["b", 3.0, 7.0, 0], ["b", 9.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _cold(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "rtfinite.cli", *argv], cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, check=False)


# One small call per workload, of the same commands the workload runs.
SMALL_CALLS = {
    "sweep": [("scan", "--r-max", "29", "--format", "csv", "--jobs", "1")],
    "verify": [("verify-theorem", "--r-max", "29")],
    "decide": [("decide-torus", "--r", "13", "--c", "1", "--format", "text"),
               ("decide-closed", "--p", "10", "--g", "2", "--format", "text"),
               ("decide-closed", "--p", "26", "--g", "1", "--format", "text")],
    "lattice": [("lattice-check", "--p", "58", "--samples", "20", "--seed", "3")],
}


@pytest.mark.parametrize("workload", sorted(SMALL_CALLS))
def test_traced_replay_prints_what_a_cold_call_prints(workload):
    calls = SMALL_CALLS[workload]
    traced, spans = replay(calls, trace=True)
    assert spans and traced["metrics"]["cli.main.calls"] == len(calls)
    for argv, call in zip(calls, traced["calls"]):
        cold = _cold(argv)
        assert cold.returncode == call["exit"] == 0
        assert workloads.sha256(cold.stdout) == workloads.sha256(call["stdout"].encode())


def test_replay_restores_the_program_after_tracing():
    from rtfinite import cli, positivity, quantum

    before = (cli.main, cli.decide_torus, positivity.qint_sign_values, quantum.sin_sign)
    replay(SMALL_CALLS["decide"][:1], trace=True)
    assert (cli.main, cli.decide_torus, positivity.qint_sign_values, quantum.sin_sign) == before


def test_layer_times_and_unattributed_time_add_up_to_the_wall_time():
    result, spans = replay(SMALL_CALLS["decide"] + SMALL_CALLS["lattice"], trace=True)
    metrics = result["metrics"]
    total_self = sum(metrics[f"{name}.self_s"] for name in run.SPAN_NAMES)
    assert total_self + metrics["trace.unattributed_s"] == pytest.approx(result["wall_s"])
    assert metrics["cyclotomic.mul.calls"] > 0 and metrics["quantum.sign_table.builds"] > 0


def test_decide_checks_catch_a_wrong_witness():
    argv = ("decide-torus", "--r", "7", "--c", "1", "--format", "text")
    refs = workloads.load_refs()
    good = _cold(argv).stdout
    assert workloads.check_call(argv, 0, good, refs) == []
    bad = good.replace(b"witness k=5", b"witness k=1")
    problems = workloads.check_call(argv, 0, bad, refs)
    assert "stdout differs from the reference" in problems
    assert any("not negative" in p for p in problems)
    assert workloads.check_call(argv, 3, good, refs) == ["exit code 3"]


def test_witness_signs_from_math_sin():
    # decide-torus r=7 c=1: witness k=5, ratio 1 = [4]/([3][2]) at p=14
    assert workloads.lollipop_sign(1, 1, 5, 14) == -1
    assert workloads.factored_sign("[4]/([3][2])", 5, 14) == -1
    # decide-closed p=10 g=2: witness k=3, theta ratio [3]/([2]^2)
    assert workloads.factored_sign("[3]/([2]^2)", 3, 10) == -1
    assert workloads.factored_sign("-[3]/([2]^2)", 3, 10) == 1


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
