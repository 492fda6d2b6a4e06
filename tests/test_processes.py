"""Fresh-process tests of the command line. Each `sparseguard` call below is
a `python -m sparseguard.cli` process of its own, importing this checkout's
`src`, with a `PYTHONHASHSEED` no other call here uses. Two such processes
must write the same bytes, which one process running a config twice cannot
show: set order, for one, follows the hash seed. The module takes about
4 s."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparseguard.checkpoint import load_checkpoint, save_checkpoint
from sparseguard.report import read_report

SRC = Path(__file__).resolve().parents[1] / "src"

TOY = {
    "omega": 0.3,
    "dataset": {"kind": "blobs", "classes": 3, "n_train": 128, "n_test": 64,
                "dim": 4, "seed": 5},
    "target": {"kind": "mlp", "input_shape": [4], "classes": 3,
               "hidden": [12, 8]},
    "inner_iterations": 12, "batch_size": 32, "total_epochs": 4.0,
    "attacker_epochs_first": 2, "attacker_epochs_topup": 1,
    "attacker_finetune_epochs": 1,
}

CONFIGS = {
    "toy": TOY,
    # conv ops, per-example gradients and the conv1d attacker stream
    "cnn": dict(TOY, variant="re1", attacker_mode="whitebox",
                dataset=dict(TOY["dataset"], dim=16),
                target={"kind": "cnn", "input_shape": [1, 4, 4],
                        "classes": 3, "channels": [2, 4], "kernel": 3}),
    # a threshold that wipes out every layer discards the threshold pair
    "discard": dict(TOY, tau=1e9, pairs=["magnitude:gradient",
                                         "threshold:random",
                                         "magnitude:random"]),
}


def _write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def sparseguard():
    """`sparseguard(*args)` runs the command in a fresh process under a hash
    seed no earlier call used, and returns its CompletedProcess (text
    stdout and stderr)."""
    hash_seeds = itertools.count(1)
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))

    def run(*args):
        env = dict(os.environ, PYTHONPATH=path,
                   PYTHONHASHSEED=str(next(hash_seeds)))
        return subprocess.run(
            [sys.executable, "-m", "sparseguard.cli", *map(str, args)],
            env=env, capture_output=True, text=True, timeout=300)
    return run


@pytest.fixture(scope="module")
def reruns(sparseguard, tmp_path_factory):
    """`reruns(name)`: (out_dir, stdout summary line) of each of two
    processes that ran CONFIGS[name], run once per module."""
    done = {}

    def get(name):
        if name not in done:
            root = tmp_path_factory.mktemp(name)
            config = _write_config(root / "config.json", CONFIGS[name])
            runs = []
            for attempt in range(2):
                out_dir = root / f"out{attempt}"
                run = sparseguard("run", "--config", config,
                                  "--deterministic", "--out-dir", out_dir)
                assert run.returncode == 0, run.stderr
                runs.append((out_dir, run.stdout.splitlines()[0]))
            done[name] = runs
        return done[name]
    return get


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_two_processes_write_the_same_bytes(reruns, name):
    (first, line), (second, again) = reruns(name)
    assert line.startswith("selected=") and line == again
    for file in ("report.jsonl", "checkpoint_final.bin"):
        assert (first / file).read_bytes() == (second / file).read_bytes()


@pytest.mark.parametrize("name", ["toy", "cnn"])
def test_final_checkpoint_reloads_and_resaves_to_the_same_bytes(
        reruns, tmp_path, name):
    # the parameter array and the bool masks round-trip exactly, through the
    # CNN's 4-D conv banks too
    path = reruns(name)[0][0] / "checkpoint_final.bin"
    loaded = load_checkpoint(path)
    header = loaded.header
    save_checkpoint(tmp_path / "resaved.bin", loaded.model,
                    iteration=header.iteration, seed=header.seed,
                    dataset=header.dataset,
                    attacker_mode=header.attacker_mode)
    assert (tmp_path / "resaved.bin").read_bytes() == path.read_bytes()


def test_attack_eval_on_the_whitebox_cnn_checkpoint(sparseguard, reruns):
    path = reruns("cnn")[0][0] / "checkpoint_final.bin"
    done = sparseguard("attack-eval", "--checkpoint", path,
                       "--attacker-epochs", 1)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("mode: whitebox\nMIA accuracy: ")


def test_report_reads_the_toy_stream(sparseguard, reruns):
    done = sparseguard("report", "--path",
                       reruns("toy")[0][0] / "report.jsonl")
    assert done.returncode == 0, done.stderr
    assert "summary: 1 iterations" in done.stdout


def test_discard_run_drops_the_threshold_pair_in_every_iteration(reruns):
    records = read_report(reruns("discard")[0][0] / "report.jsonl")
    iterations = [r for r in records if not r.get("summary")]
    assert iterations
    for record in iterations:
        assert any(note.startswith("threshold:random discarded")
                   for note in record["notes"])
        assert [c["pair"] for c in record["candidates"]] == [
            "magnitude:gradient", "magnitude:random"]


def test_aborted_run_leaves_a_trail_report_reads(sparseguard, tmp_path):
    # three iterations; the second checkpoint cannot replace a directory
    config = _write_config(tmp_path / "config.json",
                           dict(TOY, total_epochs=12.0))
    out_dir = tmp_path / "out"
    (out_dir / "checkpoint_0002.bin").mkdir(parents=True)
    run = sparseguard("run", "--config", config, "--out-dir", out_dir)
    assert run.returncode == 1
    assert run.stderr.startswith("error: run aborted: ")
    # iteration lines 1 and 2, and no summary line
    records = read_report(out_dir / "report.jsonl")
    assert [r.get("iteration") for r in records] == [1, 2]
    shown = sparseguard("report", "--path", out_dir / "report.jsonl")
    assert shown.returncode == 0, shown.stderr
    assert [line.split()[0] for line in shown.stdout.splitlines()[2:]] == [
        "1", "2"]
