"""Tests of the benchmark itself: inputs, correctness gate, tracing, contract.

Run from the root of the checkout::

    python3 -m pytest perfbench/test_workloads.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

from persistnet.scenarios import load_scenario, run_scenario  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_scenarios_pass(workload, seed, tmp_path):
    for path in workloads.write_inputs(workload, seed, tmp_path):
        report, _ = run_scenario(load_scenario(path))
        assert not report.aborted, path.name
        assert report.passed, (path.name, report.render_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS[1:])
def test_same_seed_same_inputs(workload):
    assert workloads.synthetic_doc(workload, 3) == workloads.synthetic_doc(workload, 3)
    assert workloads.synthetic_doc(workload, 3) != workloads.synthetic_doc(workload, 4)


def test_chord_inflow_stays_within_budget():
    doc = workloads.synthetic_doc("checks-wide", 5)
    inflow = {}
    for arc in doc["arcs"]:
        w = arc["weight"]
        peak = w.get("c", w.get("height", max(w.get("values", [0.0]))))
        inflow[arc["head"]] = inflow.get(arc["head"], 0.0) + peak
    assert max(inflow.values()) <= workloads.RING_C + workloads.CHORD_BUDGET + 1e-12


def test_differences_rules():
    ref = {"passed": True, "count": 3, "x": 1.0, "margin": 8.9e-18, "detail": "a"}
    assert verify.differences(ref, {**ref, "detail": "b"}) == []
    assert verify.differences(ref, {**ref, "x": 1.0 + 1e-12}) == []
    assert verify.differences(ref, {**ref, "margin": -3e-17}) == []
    assert verify.differences(ref, {**ref, "x": 1.0 + 1e-6})
    assert verify.differences(ref, {**ref, "count": 4})
    assert verify.differences(ref, {**ref, "passed": False})
    assert verify.differences(ref, {**ref, "passed": 1})


def test_trace_counts_repeat(tmp_path):
    gate = run.Gate({}, tmp_path / "out")
    inputs = workloads.write_inputs("catalog", 0, tmp_path / "in")
    tracer = Tracer()
    tracer.install()
    try:
        passes = []
        for _ in range(2):
            tracer.start_pass()
            for path in inputs:
                gate.run(path)
            passes.append(tracer.end_pass())
    finally:
        tracer.uninstall()
    assert gate.failed == 0, gate.problems
    assert sorted(passes[0]) == sorted(name for name, _, _ in LAYER_METRICS)
    for name, unit, _ in LAYER_METRICS:
        if unit in ("count", "bytes"):
            assert passes[0][name] == passes[1][name] > 0, name
    assert passes[0]["continuous.min_step"] == passes[1]["continuous.min_step"]
    from persistnet import cli, weights

    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(weights.Constant.eval, "__wrapped__")


def test_stored_reference_matches_the_program(tmp_path, monkeypatch):
    stored = verify.load_reference()
    monkeypatch.setattr(verify, "REFERENCE_PATH", tmp_path / "seed0.json")
    assert run.write_reference(tmp_path / "work") == 0
    fresh = verify.load_reference()
    assert verify.differences(stored["reports"], fresh["reports"]) == []
    assert verify.differences(stored["csv"], fresh["csv"], "csv") == []


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        list(LAYER_METRICS) + [(n, u, "lower") for n, u in run.TRACE_EXTRA]
    )


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_baseline_speed_covers_every_operation(tmp_path):
    speed = json.loads(run.SPEED_PATH.read_text())["seconds"]
    for workload in workloads.WORKLOADS:
        for path in workloads.write_inputs(workload, 1, tmp_path / workload):
            name = json.loads(path.read_text())["name"]
            assert speed[run.speed_key(workload, name)] > 0, (workload, name)


def test_baseline_worker_runs_and_ends(tmp_path):
    inputs = workloads.write_inputs("catalog", 0, tmp_path / "in")
    fast = [p for p in inputs if "window-violation" in p.name or "powerlaw" in p.name]
    baseline = run.Baseline(fast[:1], tmp_path / "out", os.sched_getaffinity(0))
    try:
        baseline.ready()
        assert all(baseline.run(path) > 0 for path in fast)
    finally:
        baseline.close()
    assert baseline.proc.returncode == 0
    assert len(list((tmp_path / "out").glob("*.report.json"))) == len(fast)
