"""Self-test of the benchmark harness on its two smoke workloads.

Run from the root of a checkout (about 20 s on 2 cores):
    python3 -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "21",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    """stdout lines, final JSON and result file of three smoke runs."""
    out = {}
    for workload, trace in (("smoke", 0), ("smoke", 1), ("smoke_cnn", 1)):
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(
            (ROOT / ".bench_work" / workload / "result.json").read_text())
        out[workload, trace] = (lines, json.loads(lines[-1]), result)
    return out


def test_every_end_to_end_metric_is_printed_with_its_unit(runs):
    lines, final, _ = runs["smoke", 0]
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 2
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == listed
    for name, value in final["metrics"].items():
        assert math.isfinite(value["value"]) and value["value"] > 0, name
    for name, unit in {**listed, "error_rate": "ratio"}.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name


def test_per_layer_metrics_follow_benchmark_json(runs):
    for key in (("smoke", 1), ("smoke_cnn", 1)):
        _, final, _ = runs[key]
        assert final["correct"] and final["failed"] == 0
        assert {k: v["unit"] for k, v in final["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layers = runs["smoke_cnn", 1][2]["per_layer"]
    for op in tracer.OPS:
        assert layers[f"ops.{op}.calls"] > 0, op
        assert layers[f"ops.{op}.fwd_s"] > 0 and layers[f"ops.{op}.bwd_s"] > 0
    assert layers["extract_examples.calls_per_candidate"] == 3


def test_every_wrapped_binding_records_a_call(runs):
    wrapped, hits = set(), {}
    for key in (("smoke", 1), ("smoke_cnn", 1)):
        for rep in runs[key][2]["repetitions"]:
            if rep["trace"]:
                wrapped |= set(rep["wrapped"])
                for binding, calls in rep["bindings"].items():
                    hits[binding] = hits.get(binding, 0) + calls
    assert tracer.OFF_RUN_PATH <= wrapped
    silent = sorted(b for b in wrapped - tracer.OFF_RUN_PATH if not hits.get(b))
    assert silent == []
    # the by-value imports that patching only the defining module would miss
    for binding in ("orchestrator.train_attacker", "orchestrator.sgd_step",
                    "orchestrator.extract_examples", "attack.adam_step",
                    "cli.run_compression", "cli.save_checkpoint",
                    "cli.write_record", "numcore.optim.check_finite"):
        assert hits.get(f"sparseguard.{binding}"), binding


def test_tracing_does_not_perturb_the_report_stream(runs):
    untraced_sha = runs["smoke", 0][2]["report_sha256"]
    reps = runs["smoke", 1][2]["repetitions"]
    assert {r["trace"] for r in reps} == {True, False}
    assert {r["sha256"] for r in reps} == {untraced_sha}


def test_report_checks_reject_bad_streams():
    line = {"iteration": 1, "active_weights": 10, "candidates": [
        {"pair": "magnitude:gradient", "task_acc": 0.9, "mia_acc": 0.5,
         "tm_score": 1.8, "mia_gain": -3.0}]}
    summary = {"summary": True, "iterations": 2, "final_task_acc": 0.9,
               "final_mia_acc": 0.5, "final_tm_score": 1.8}
    good = [line, dict(line, iteration=2), summary]
    assert bench.check_report(good, 2) == []
    assert bench.check_report(good, 3)
    assert bench.check_report(good[:-1], 2)
    assert bench.check_report([line, dict(line, active_weights=11), summary], 2)
    for bad in (float("nan"), float("inf"), 1.5, -0.1):
        cand = dict(line["candidates"][0], mia_acc=bad)
        assert bench.check_report(
            [line, dict(line, candidates=[cand]), summary], 2), bad


def test_units_follow_the_naming_convention():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert bench.unit(metric["name"]) == metric["unit"], metric["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("smoke", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
