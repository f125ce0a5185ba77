"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

It shrinks every workload's size grid, runs one pass of each workload with
and without tracing, and checks that every metric named in BENCHMARK.json is
emitted, that no operation fails on the current code, that a corrupted
probability table is counted as a failure, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "BELL_SHAPES", ((2, 2), (2, 3)))
    monkeypatch.setattr(workloads, "ANALYSERS", ((2, 2, True, True), (2, 3, True, False)))
    monkeypatch.setattr(workloads, "RANDOM_DEVICES", ((3, True, True), (4, False, False)))
    monkeypatch.setattr(workloads, "SWEEP_STRATA", ((1, 1), (2, 1)))
    monkeypatch.setattr(workloads, "LOCAL_DIMS", (2, 3))
    monkeypatch.setattr(workloads, "RECOMPOSITION_TRIALS", 3)
    monkeypatch.setattr(workloads, "CHSH_SAMPLES", 500)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def run_benchmark(capsys, tmp_path, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.001", "--trace", str(trace),
            "--results-dir", str(tmp_path)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_file_names_the_workloads():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(harness.END_TO_END_UNITS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_no_failures(tiny, capsys, tmp_path, workload):
    result = run_benchmark(capsys, tmp_path, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_accounts_for_time(tiny, capsys, tmp_path, workload):
    result = run_benchmark(capsys, tmp_path, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads((tmp_path / "results" / f"{workload}-seed3-trace1.json").read_text())
    accounting = record["extras"]["accounting"]
    assert abs(accounting["residual_s"]) <= 1e-6 * accounting["op_s"]
    spans = json.loads((tmp_path / f"spans-{workload}.json").read_text())
    assert len(spans["spans"]) == accounting["spans"]


def test_tracer_restores_the_program(tiny, capsys, tmp_path):
    import fairsamp
    from fairsamp import bell, linalg

    before = (fairsamp.check_exact, bell.tensor, linalg.tensor, bell.BellScenario.joint_raw)
    run_benchmark(capsys, tmp_path, "bell-large", trace=1)
    assert (fairsamp.check_exact, bell.tensor, linalg.tensor, bell.BellScenario.joint_raw) == before


@pytest.mark.parametrize("child_share", [0.0, 0.8])
def test_chsh_sample_rate_counts_time_spent_in_child_calls(child_share):
    t = tracing.Tracer()
    chsh = t._name_id("adversary.run_faked_chsh", "adversary")
    expect = t._name_id("linalg.expect", "linalg")
    t._name_id("linalg.eigh_psd", "linalg")
    second = 10**9
    t.spans = [(0, t._op_name, 0, second, -1, 0), (1, chsh, 0, second, 0, 0)]
    if child_share:
        t.spans.append((2, expect, 0, int(child_share * second), 1, 0))
    t.op_kinds = ["chsh"]
    t.chsh_samples = 2000
    metrics, _ = t.metrics(1, 1.0, 1.0)
    assert metrics["adversary.samples_per_s"]["value"] == pytest.approx(2000.0)


def test_corrupted_probability_table_counts_as_failure(tiny, tmp_path):
    plan = workloads.setup_bell_large(3, tmp_path)
    simulate = next(op for op in plan.ops if op.kind == "cli_simulate")
    assert harness.run_op(simulate, 0).ok
    report = json.loads((tmp_path / "bell0.simulate.json").read_text())
    bad = copy.deepcopy(report)
    label = next(iter(bad["raw"]))
    outcome = next(iter(bad["raw"][label]))
    bad["raw"][label][outcome] += 0.01

    corrupted = workloads.Op("cli_simulate", lambda _pass: bad, workloads.check_simulate_report)
    loop = harness.run_passes([corrupted, workloads.Op("cli_simulate", lambda _pass: report, workloads.check_simulate_report)], passes=1)
    assert (loop.attempted, loop.failed) == (2, 1)
    _, extras = harness.end_to_end(loop, setup_s=1.0)
    assert extras["failed_ratio"] == 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_latency_leaves_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    value, q = harness.tail_latency(values)
    assert sum(v > value for v in values) == harness.TAIL_SAMPLES
    assert q == 90.0


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0 + 0.01 * i for i in range(10)], [10.0 + 0.01 * i for i in range(10)], "unchanged"),
        ([10.0 + 0.01 * i for i in range(10)], [20.0 + 0.01 * i for i in range(10)], "improved"),
        ([10.0 + 0.01 * i for i in range(10)], [5.0 + 0.01 * i for i in range(10)], "worse"),
        ([10.0, 14.0, 6.0, 12.0, 8.0, 10.0, 15.0, 5.0, 11.0, 9.0], [10.0, 9.0, 11.0, 13.0, 7.0, 10.0, 6.0, 14.0, 8.0, 12.0], "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, "higher", 0.1) == expected
