"""End-to-end command-line tests over a toy experiment."""

import json
import struct

import numpy as np
import pytest

from sparseguard.checkpoint import MAGIC, _digest, save_checkpoint
from sparseguard.cli import build_parser, main
from sparseguard.config import target_spec_from
from sparseguard.models import build_target
from sparseguard.orchestrator import RunConfig
from sparseguard.report import read_report

TOY_CONFIG = {
    "omega": 0.3,
    "dataset": {"kind": "blobs", "classes": 3, "n_train": 128, "n_test": 64,
                "dim": 4, "seed": 5, "cluster_std": 1.2},
    "target": {"kind": "mlp", "input_shape": [4], "classes": 3,
               "hidden": [12, 8]},
    "inner_iterations": 12,
    "batch_size": 32,
    "total_epochs": 6.0,
    "candidate_finetune_epochs": 1.0,
    "attacker_epochs_first": 4,
    "attacker_epochs_topup": 2,
    "attacker_finetune_epochs": 1,
    "seed": 3,
    "deterministic": True,
}


@pytest.fixture()
def toy_run(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    doc = dict(TOY_CONFIG, out_dir=str(out_dir))
    config_path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(config_path)])
    assert code == 0
    return config_path, out_dir, capsys.readouterr().out


def test_run_writes_reports_and_checkpoints(toy_run):
    _, out_dir, out = toy_run
    records = read_report(out_dir / "report.jsonl")
    iterations = [r for r in records if not r.get("summary")]
    summaries = [r for r in records if r.get("summary")]
    assert len(summaries) == 1
    assert len(records) == len(iterations) + 1
    assert summaries[0]["iterations"] == len(iterations)
    for i, rec in enumerate(iterations, start=1):
        assert rec["iteration"] == i
        assert (out_dir / f"checkpoint_{i:04d}.bin").exists()
    assert (out_dir / "checkpoint_final.bin").exists()
    assert "tm_score=" in out and "selected=" in out


def test_run_deterministic_reruns_byte_identical(tmp_path):
    config_path = tmp_path / "config.json"
    streams = []
    for attempt in range(2):
        out_dir = tmp_path / f"out{attempt}"
        doc = dict(TOY_CONFIG, out_dir=str(out_dir))
        config_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config_path)]) == 0
        streams.append((out_dir / "report.jsonl").read_bytes())
    assert streams[0] == streams[1]


def test_run_missing_omega_exact_message(tmp_path, capsys):
    doc = {k: v for k, v in TOY_CONFIG.items() if k != "omega"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "missing field: omega" in capsys.readouterr().err


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    doc = dict(TOY_CONFIG, omeag=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown field: omeag" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("change, message", [
    ({"batch_size": "32"}, "field batch_size must be an integer"),
    ({"dataset": {"kind": "csv", "path": "absent.csv", "test_fraction": 0.2,
                  "seed": 0}}, "absent.csv"),
    ({"dataset": dict(TOY_CONFIG["dataset"], dim=5)}, "features"),
    ({"dataset": dict(TOY_CONFIG["dataset"], classes=4)}, "class count"),
    ({"learning_rate": "0.1"}, "field learning_rate must be a number"),
    ({"probe_size": 12.5}, "field probe_size must be an integer"),
    ({"early_stop": "yes"}, "field early_stop must be a boolean"),
    ({"target": dict(TOY_CONFIG["target"], classes="3")},
     "target field classes must be an integer"),
    ({"pairs": [1]}, "field pairs[0] must be a string"),
    ({"lr_milestones": ["0.5"]}, "field lr_milestones[0] must be a number"),
    ({"target": dict(TOY_CONFIG["target"], hidden=[12.5, 8])},
     "target field hidden[0] must be an integer"),
    ({"target": dict(TOY_CONFIG["target"], input_shape=["4"])},
     "target field input_shape[0] must be an integer"),
    ({"dataset": dict(TOY_CONFIG["dataset"], n_train=128.7)},
     "dataset key n_train must be an integer"),
    ({"beta": -0.1}, "beta must be >= 0, got -0.1"),
    ({"learning_rate": 0}, "learning_rate must be > 0, got 0"),
    ({"lr_decay": 1.5}, "lr_decay must be in (0, 1), got 1.5"),
    ({"prune_rate_start": 1.5}, "prune_rate_start must be in (0, 1), got 1.5"),
    ({"probe_size": 0}, "probe_size must be >= 1, got 0"),
    ({"lr_milestones": [0.75, 0.5]},
     "lr_milestones must be strictly increasing fractions in (0, 1), "
     "got [0.75, 0.5]"),
    ({"lr_milestones": [2.0]}, "got [2.0]"),
    ({"attacker_learning_rate": -0.001},
     "attacker_learning_rate must be > 0, got -0.001"),
    ({"attacker_epochs_first": -3}, "attacker_epochs_first must be >= 0"),
    ({"attacker_epochs_topup": -1}, "attacker_epochs_topup must be >= 0"),
    ({"attacker_finetune_epochs": -1},
     "attacker_finetune_epochs must be >= 0"),
    ({"lam": -1.0}, "lam must be >= 0, got -1.0"),
    ({"tau": -0.1, "pairs": ["threshold:gradient", "threshold:random"]},
     "tau must be >= 0, got -0.1"),
], ids=["wrong type", "missing csv", "width", "labels", "string number",
        "float integer", "string boolean", "target string integer",
        "integer pair tag", "string milestone", "float hidden width",
        "string input width", "float dataset count", "negative beta",
        "zero learning rate", "lr decay above 1", "prune rate above 1",
        "empty probe", "decreasing milestones", "milestone above 1",
        "negative attacker learning rate", "negative first attacker epochs",
        "negative top-up attacker epochs",
        "negative fine-tune attacker epochs", "negative lam", "negative tau"])
def test_run_configuration_errors_exit_2(tmp_path, capsys, change, message):
    out_dir = tmp_path / "out"
    doc = dict(TOY_CONFIG, out_dir=str(out_dir), **change)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (out_dir / "report.jsonl").exists()


TOY_CSV_ROWS = [f"{i * 0.1},{i % 4 * 0.5},{i % 3 - 1},{i * 0.2},{i % 3}"
                for i in range(40)]


def _toy_csv(tmp_path, rows):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    return {"kind": "csv", "path": str(path), "test_fraction": 0.25, "seed": 0}


def _csv_with_nan(tmp_path):
    rows = list(TOY_CSV_ROWS)
    rows[7] = "0.7,nan,0.0,1.4,1"
    return _toy_csv(tmp_path, rows)


def _csv_with_huge_column(tmp_path):
    # 1e308 in every row of column 1 overflows its training mean
    return _toy_csv(tmp_path, ["1e308" + row[row.index(","):]
                               for row in TOY_CSV_ROWS])


def test_run_non_finite_csv_cell_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    doc = dict(TOY_CONFIG, out_dir=str(out_dir), dataset=_csv_with_nan(tmp_path))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 8, column 2: 'nan'" in err
    assert not (out_dir / "report.jsonl").exists()


def test_attack_eval_non_finite_csv_cell_exits_2(toy_run, tmp_path, capsys):
    _, out_dir, _ = toy_run
    descriptor = tmp_path / "dataset.json"
    descriptor.write_text(json.dumps(_csv_with_nan(tmp_path)))
    code = main(["attack-eval", "--checkpoint",
                 str(out_dir / "checkpoint_final.bin"),
                 "--dataset", str(descriptor), "--attacker-epochs", "1"])
    assert code == 2
    assert "row 8, column 2: 'nan' is not finite" in capsys.readouterr().err


HUGE_COLUMN_MESSAGE = ("feature column 1 does not standardize to finite "
                       "values (training mean inf")


def test_run_overflowing_csv_column_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    doc = dict(TOY_CONFIG, out_dir=str(out_dir),
               dataset=_csv_with_huge_column(tmp_path))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and HUGE_COLUMN_MESSAGE in err
    assert not (out_dir / "report.jsonl").exists()


def _toy_checkpoint(path, weight=None, target_change=None):
    """A checkpoint of an untrained toy target. `weight` overwrites every
    parameter value; `target_change` edits the recorded target spec under a
    recomputed digest, so only the edited content can be rejected."""
    spec = target_spec_from(TOY_CONFIG["target"])
    model = build_target(spec, TOY_CONFIG["omega"], np.random.default_rng(0))
    if weight is not None:
        for p in model.params():
            p.data[...] = weight
    save_checkpoint(path, model, iteration=1, seed=0,
                    dataset=TOY_CONFIG["dataset"], attacker_mode="blackbox")
    if target_change is not None:
        blob = path.read_bytes()
        start = len(MAGIC) + 4
        (length,) = struct.unpack("<I", blob[len(MAGIC):start])
        header = json.loads(blob[start:start + length])
        header["target"].update(target_change)
        header["spec_digest"] = _digest(header["target"], header["omega"])
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack("<I", len(text)) + text
                         + blob[start + length:])
    return path


@pytest.mark.parametrize("edits, message", [
    ({"target_change": {"depth": 2}}, "unknown target field: depth"),
    ({"target_change": {"classes": "3"}},
     "target field classes must be an integer"),
    ({"weight": np.nan}, "checkpoint holds non-finite weights"),
], ids=["unknown target key", "string classes", "nan weight"])
def test_attack_eval_malformed_checkpoint_exits_2(tmp_path, capsys, edits,
                                                  message):
    path = _toy_checkpoint(tmp_path / "c.bin", **edits)
    assert main(["attack-eval", "--checkpoint", str(path),
                 "--attacker-epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_attack_eval_overflowing_csv_column_exits_2(tmp_path, capsys):
    descriptor = tmp_path / "dataset.json"
    descriptor.write_text(json.dumps(_csv_with_huge_column(tmp_path)))
    code = main(["attack-eval", "--checkpoint",
                 str(_toy_checkpoint(tmp_path / "c.bin")),
                 "--dataset", str(descriptor), "--attacker-epochs", "1"])
    assert code == 2
    assert HUGE_COLUMN_MESSAGE in capsys.readouterr().err


# the overflow is the case under test; whether numpy also warns about it
# inside matmul depends on the numpy version
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_attack_eval_runtime_overflow_exits_1(tmp_path, capsys):
    # finite weights load, then overflow in the target's forward pass
    path = _toy_checkpoint(tmp_path / "c.bin", weight=1e308)
    code = main(["attack-eval", "--checkpoint", str(path),
                 "--attacker-epochs", "1"])
    assert code == 1
    assert capsys.readouterr().err == ("error: non-finite values in "
                                       "tensor data\n")


def test_cli_overrides_seed_and_out_dir(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TOY_CONFIG))
    out_dir = tmp_path / "elsewhere"
    code = main(["run", "--config", str(config_path), "--seed", "9",
                 "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.jsonl").exists()


def test_attack_eval_on_checkpoint(toy_run, capsys):
    _, out_dir, _ = toy_run
    capsys.readouterr()
    code = main(["attack-eval", "--checkpoint",
                 str(out_dir / "checkpoint_final.bin"),
                 "--attacker-epochs", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MIA accuracy:" in out
    assert "MIA gain:" in out
    assert "non-member accuracy:" in out


def test_attack_eval_defaults_to_the_run_attacker_epochs():
    args = build_parser().parse_args(["attack-eval", "--checkpoint", "c.bin"])
    assert args.attacker_epochs == RunConfig.attacker_epochs_first


def test_attack_eval_mode_mismatch(toy_run, capsys):
    _, out_dir, _ = toy_run
    capsys.readouterr()
    code = main(["attack-eval", "--checkpoint",
                 str(out_dir / "checkpoint_final.bin"),
                 "--mode", "whitebox"])
    assert code == 2
    assert "mode mismatch" in capsys.readouterr().err


def test_gradcheck_command(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "gradient check passed" in out


def test_report_command(toy_run, capsys):
    _, out_dir, _ = toy_run
    capsys.readouterr()
    assert main(["report", "--path", str(out_dir / "report.jsonl")]) == 0
    table = capsys.readouterr().out
    assert "tm_score" in table
    assert "summary:" in table


def test_report_command_missing_file(tmp_path):
    assert main(["report", "--path", str(tmp_path / "nope.jsonl")]) == 2
