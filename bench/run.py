"""sparseguard benchmark: closed-loop repetitions of `sparseguard run`.

Usage, from the root of a checkout:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one repetition at a time; each repetition is a fresh
process (bench/child.py) that calls the public `sparseguard run --config ...
--deterministic` entry point on the workload's config, built from the seed.
Repetitions start until S seconds have passed (at least MIN_REPS of them).
Every repetition's report stream is checked; a repetition fails on a
non-zero exit, a failed check, or a report stream that differs from the
first repetition's.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json (medians over the repetitions).
With --trace 1 the repetitions alternate traced and untraced runs and the
metrics are the per-layer metrics of BENCHMARK.json, taken from the traced
repetitions; every per-layer metric the workload produces is printed above.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")
MIN_REPS = 2
MIN_TRACE_REPS = 3       # traced, untraced, traced: two traced for the count check
REP_TIMEOUT_S = 120
BLAS_THREADS = 1         # 1 and 2 threads measured the same on these shapes
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blobs(classes, n_train, n_test, dim, seed, **extra):
    return {"kind": "blobs", "classes": classes, "n_train": n_train,
            "n_test": n_test, "dim": dim, "seed": seed, **extra}


def _mlp_blackbox(seed):
    return {
        "omega": 0.1, "variant": "re2", "seed": seed,
        "dataset": _blobs(4, 1000, 500, 16, seed),
        "target": {"kind": "mlp", "input_shape": [16], "classes": 4,
                   "hidden": [64, 64]},
        "inner_iterations": 93, "batch_size": 32, "total_epochs": 8,
    }


def _wide_mlp(seed):
    return {
        "omega": 0.05, "variant": "none", "seed": seed,
        "dataset": _blobs(10, 1000, 500, 256, seed),
        "target": {"kind": "mlp", "input_shape": [256], "classes": 10,
                   "hidden": [512, 256]},
        "inner_iterations": 125, "batch_size": 64, "total_epochs": 18,
        "attacker_epochs_first": 10, "attacker_epochs_topup": 2,
        "attacker_finetune_epochs": 1,
    }


def _cnn_whitebox(seed):
    return {
        "omega": 0.2, "variant": "re1", "seed": seed,
        "attacker_mode": "whitebox",
        "dataset": _blobs(4, 300, 150, 256, seed),
        "target": {"kind": "cnn", "input_shape": [1, 16, 16], "classes": 4,
                   "channels": [8, 16], "kernel": 3},
        "inner_iterations": 30, "batch_size": 32,
        "candidate_finetune_epochs": 0.5, "total_epochs": 7.5,
        "attacker_epochs_first": 30, "attacker_epochs_topup": 5,
        "attacker_finetune_epochs": 2,
    }


def _smoke(seed):
    # Shapes and schedule of acceptance test 09 (a few seconds per run).
    return {
        "omega": 0.3, "seed": seed,
        "dataset": _blobs(3, 256, 128, 4, seed, cluster_std=1.0),
        "target": {"kind": "mlp", "input_shape": [4], "classes": 3,
                   "hidden": [16, 12]},
        "inner_iterations": 24, "batch_size": 32,
        "candidate_finetune_epochs": 1.0, "total_epochs": 12.0,
    }


def _smoke_cnn(seed):
    # Test 09's data and schedule with a CNN target, a white-box attacker and
    # re1, so the self-test reaches the conv, pooling and entropy ops.
    return {
        "omega": 0.3, "seed": seed, "variant": "re1",
        "attacker_mode": "whitebox",
        "attacker_epochs_first": 10, "attacker_epochs_topup": 2,
        "attacker_finetune_epochs": 1,
        "dataset": _blobs(3, 256, 128, 16, seed, cluster_std=1.0),
        "target": {"kind": "cnn", "input_shape": [1, 4, 4], "classes": 3,
                   "channels": [2, 4], "kernel": 3},
        "inner_iterations": 24, "batch_size": 32,
        "candidate_finetune_epochs": 1.0, "total_epochs": 12.0,
    }


# name -> (config for a seed, planned outer iterations)
WORKLOADS = {
    "mlp_blackbox": (_mlp_blackbox, 2),
    "wide_mlp": (_wide_mlp, 2),
    "cnn_whitebox": (_cnn_whitebox, 2),
    "smoke": (_smoke, 3),
    "smoke_cnn": (_smoke_cnn, 3),
}


# -- output checks -------------------------------------------------------------


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_report(records: list[dict], planned: int) -> list[str]:
    """Problems with one repetition's report stream; empty when correct."""
    if not records or not records[-1].get("summary"):
        return ["report stream has no summary line"]
    lines, summary = records[:-1], records[-1]
    problems = []
    if len(lines) != planned or summary.get("iterations") != planned:
        problems.append(f"{len(lines)} iterations, planned {planned}")
    if len({r["active_weights"] for r in lines}) > 1:
        problems.append("active_weights changed between iterations")
    scores = [c for r in lines for c in r["candidates"]]
    scores.append({"task_acc": summary["final_task_acc"],
                   "mia_acc": summary["final_mia_acc"],
                   "tm_score": summary["final_tm_score"]})
    for s in scores:
        if not all(_finite(v) for k, v in s.items() if k != "pair"):
            problems.append(f"non-finite score in {s}")
        elif not (0.0 <= s["task_acc"] <= 1.0 and 0.0 <= s["mia_acc"] <= 1.0):
            problems.append(f"accuracy outside [0, 1] in {s}")
    return problems


# -- one repetition --------------------------------------------------------------


def run_rep(config_path: Path, rep_dir: Path, trace: bool,
            planned: int) -> dict:
    """Spawn one repetition and check its outputs."""
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "child.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
           "1" if trace else "0", "--", "--config", str(config_path),
           "--deterministic", "--out-dir", str(rep_dir / "out")]
    env = dict(os.environ, PYTHONPATH="src")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "problems": [f"timed out after "
                                             f"{REP_TIMEOUT_S} s"]}
    rep = {"trace": trace, "problems": []}
    if proc.returncode != 0:
        rep["problems"].append(f"exit code {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        return rep
    try:
        child = json.loads(result_path.read_text())
        report_bytes = (rep_dir / "out" / "report.jsonl").read_bytes()
        records = [json.loads(line) for line in report_bytes.splitlines()]
    except (OSError, ValueError) as exc:
        rep["problems"].append(f"unreadable output: {exc}")
        return rep
    rep.update(
        setup_s=child["enter"] - spawned,
        run_s=child["exit"] - child["enter"],
        peak_rss_mb=child["maxrss_kb"] / 1024.0,
        sha256=hashlib.sha256(report_bytes).hexdigest(),
        summary=records[-1] if records else {},
        layers=child.get("trace"),
        bindings=child.get("bindings"),
        wrapped=child.get("wrapped"),
    )
    rep["problems"] += check_report(records, planned)
    return rep


# -- aggregation ----------------------------------------------------------------


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def end_to_end(reps: list[dict], error_rate: float) -> dict:
    """Medians of the successful repetitions, plus the error rate."""
    summary = reps[0]["summary"]
    return {
        "run_s": _median(reps, "run_s"),
        "setup_s": _median(reps, "setup_s"),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
        "final_tm_score": summary["final_tm_score"],
        "final_mia_acc": summary["final_mia_acc"],
        "final_task_acc": summary["final_task_acc"],
        "error_rate": error_rate,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians of the traced repetitions' layer metrics (counts are equal
    across them, see `compare`), plus the tracing overhead."""
    layers = [r["layers"] for r in traced]
    out = {name: value if isinstance(value, int)
           else statistics.median(l[name] for l in layers)
           for name, value in layers[0].items()}
    if untraced:
        out["trace.overhead_s"] = (_median(traced, "run_s")
                                   - _median(untraced, "run_s"))
    return out


def compare(rep: dict, earlier: list[dict]) -> list[str]:
    """Problems of a repetition against the first correct ones: the report
    stream must be byte-identical, and a traced repetition's counts must
    repeat exactly."""
    good = [r for r in earlier if not r["problems"]]
    problems = []
    if good and rep["sha256"] != good[0]["sha256"]:
        problems.append(f"report sha256 {rep['sha256']} differs from "
                        f"{good[0]['sha256']}")
    first_traced = next((r for r in good if r["trace"]), None)
    if rep["trace"] and first_traced is not None:
        mine, ref = rep["layers"], first_traced["layers"]
        if mine.keys() != ref.keys():
            problems.append("traced metric names differ between repetitions")
        for name, value in ref.items():
            if isinstance(value, int) and mine.get(name) != value:
                problems.append(f"count {name} is {mine.get(name)}, "
                                f"was {value}")
    return problems


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS, "seed": seed}


# -- main -------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if not Path("src/sparseguard/cli.py").is_file():
        print("error: run from the root of a sparseguard checkout "
              "(src/sparseguard is missing)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # Byte-compile once, so no repetition pays for it in its set-up time.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   check=True)

    build, planned = WORKLOADS[args.workload]
    work = WORK_DIR / args.workload
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(build(args.seed), indent=2) + "\n")

    reps: list[dict] = []
    started = time.monotonic()
    minimum = MIN_TRACE_REPS if args.trace else MIN_REPS
    while len(reps) < minimum or time.monotonic() - started < args.seconds:
        # trace mode alternates traced (even) and untraced (odd) repetitions
        trace = bool(args.trace) and len(reps) % 2 == 0
        rep = run_rep(config_path, work / "rep", trace, planned)
        if not rep["problems"]:
            rep["problems"] = compare(rep, reps)
        reps.append(rep)
        spans = work / "rep" / "child_spans.npz"
        if spans.exists():
            spans.replace(work / "spans.npz")
        shutil.rmtree(work / "rep")

    ok = [r for r in reps if not r["problems"]]
    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
          f"{len(reps)} repetitions in {time.monotonic() - started:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for i, r in enumerate(reps):
        for problem in r["problems"]:
            print(f"repetition {i + 1} failed: {problem}")
    result = {"workload": args.workload, "env": env, "attempted": len(reps),
              "failed": len(reps) - len(ok)}
    metrics = {}
    if ok:
        print(f"report_sha256 {ok[0]['sha256']}")
        result["report_sha256"] = ok[0]["sha256"]
        untraced = [r for r in ok if not r["trace"]]
        traced = [r for r in ok if r["trace"]]
        if untraced:
            e2e = end_to_end(untraced, result["failed"] / len(reps))
            for key in ("run_s", "setup_s"):
                print(f"{key} per repetition: "
                      + " ".join(f"{r[key]:.3f}" for r in untraced))
            print_table("end-to-end", e2e, len(untraced))
            result["end_to_end"] = e2e
            metrics.update(e2e)
        if traced:
            layers = per_layer(traced, untraced)
            print_table("per-layer (traced)", layers, len(traced))
            result["per_layer"] = layers
            metrics.update(layers)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["correct"] = result["failed"] == 0 and bool(ok)
    (work / "result.json").write_text(json.dumps(
        {**result, "repetitions": [_public(r) for r in reps]}, indent=2) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                "unit": unit(m["name"])} for m in listed},
    }))
    return 0


def _public(rep: dict) -> dict:
    return {k: v for k, v in rep.items() if k not in ("layers",)}


def print_table(title: str, values: dict, samples: int) -> None:
    print(f"{title}: median of {samples} repetition(s)")
    for name in sorted(values):
        print(f"  {name:<40} {values[name]!r:>24} {unit(name)}")


def unit(name: str) -> str:
    """Unit of every metric the benchmark prints, by naming convention."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith((".calls", ".steps", ".rows")):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
