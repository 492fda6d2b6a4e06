"""End-to-end command-line tests over a toy experiment."""

import json
import struct
import types

import numpy as np
import pytest

from sparseguard import cli
from sparseguard.checkpoint import (
    MAGIC,
    _digest,
    load_checkpoint,
    save_checkpoint,
)
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

# a two-stage CNN target for 16-feature rows, as the CI workflow runs it
TOY_CNN_TARGET = {"kind": "cnn", "input_shape": [1, 4, 4], "classes": 3,
                  "channels": [2, 4], "kernel": 3}


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
     "dataset field n_train must be an integer"),
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
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"dataset": dict(TOY_CONFIG["dataset"], n_train=1)},
     "each split needs at least 2 rows to halve, got 1 training and 64 test "
     "rows"),
    ({"lam": float("nan")}, "field lam must be finite"),
    ({"total_epochs": float("inf")}, "field total_epochs must be finite"),
    ({"beta": float("nan")}, "field beta must be finite"),
    ({"learning_rate": float("inf")}, "field learning_rate must be finite"),
    ({"early_stop_delta": float("nan")},
     "field early_stop_delta must be finite"),
    ({"lr_milestones": [0.5, float("nan")]},
     "field lr_milestones[1] must be finite"),
    ({"dataset": dict(TOY_CONFIG["dataset"], n_train=-5)},
     "dataset field n_train must be >= 1, got -5"),
    ({"dataset": dict(TOY_CONFIG["dataset"], cluster_std=float("nan"))},
     "dataset field cluster_std must be finite"),
    ({"target": dict(TOY_CONFIG["target"], hidden=[0, 8])},
     "target field hidden[0] must be >= 1, got 0"),
    ({"target": dict(TOY_CONFIG["target"], hidden=[-3, 8])},
     "target field hidden[0] must be >= 1, got -3"),
    ({"target": dict(TOY_CNN_TARGET, kernel=0)},
     "target field kernel must be >= 1, got 0"),
    ({"target": dict(TOY_CNN_TARGET, channels=[0, 4])},
     "target field channels[0] must be >= 1, got 0"),
    ({"target": dict(TOY_CNN_TARGET, input_shape=[16])},
     "target field input_shape must be [c, h, w] with h and w divisible by "
     "2 ** len(channels) = 4, got [16]"),
    ({"target": dict(TOY_CNN_TARGET, input_shape=[1, 6, 6])},
     "target field input_shape must be [c, h, w] with h and w divisible by "
     "2 ** len(channels) = 4, got [1, 6, 6]"),
    ({"early_stop": True, "early_stop_patience": 0},
     "field early_stop_patience must be >= 1, got 0"),
], ids=["wrong type", "missing csv", "width", "labels", "string number",
        "float integer", "string boolean", "target string integer",
        "integer pair tag", "string milestone", "float hidden width",
        "string input width", "float dataset count", "negative beta",
        "zero learning rate", "lr decay above 1", "prune rate above 1",
        "empty probe", "decreasing milestones", "milestone above 1",
        "negative attacker learning rate", "negative first attacker epochs",
        "negative top-up attacker epochs",
        "negative fine-tune attacker epochs", "negative lam", "negative tau",
        "negative seed", "one training row", "nan lam", "infinite epochs",
        "nan beta", "infinite learning rate", "nan early-stop delta",
        "nan milestone", "negative dataset count", "nan dataset std",
        "zero hidden width", "negative hidden width", "zero cnn kernel",
        "zero cnn channels", "flat cnn input", "cnn side not divisible",
        "zero early-stop patience"])
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


def test_run_negative_seed_override_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TOY_CONFIG, out_dir=str(out_dir))))
    assert main(["run", "--config", str(path), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"
    assert not (out_dir / "report.jsonl").exists()


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


def _toy_checkpoint(path, weight=None, pruned=None, target_change=None,
                    header_change=None):
    """A checkpoint of an untrained toy target. `weight` overwrites every
    active parameter value (pruned weights stay 0) and `pruned` every pruned
    weight of the second masked layer; `target_change` edits the recorded
    target spec and `header_change` the other header fields, under a
    recomputed digest, so only the edited content can be rejected."""
    spec = target_spec_from(TOY_CONFIG["target"])
    model = build_target(spec, TOY_CONFIG["omega"], np.random.default_rng(0))
    if weight is not None:
        for p in model.params():
            p.data[...] = weight if p.mask is None else weight * p.mask
    if pruned is not None:
        layer = model.masked_layers()[1]
        layer.w.data[layer.mask == 0.0] = pruned
    save_checkpoint(path, model, iteration=1, seed=0,
                    dataset=TOY_CONFIG["dataset"], attacker_mode="blackbox")
    if target_change is not None or header_change is not None:
        blob = path.read_bytes()
        start = len(MAGIC) + 4
        (length,) = struct.unpack("<I", blob[len(MAGIC):start])
        header = json.loads(blob[start:start + length])
        header["target"].update(target_change or {})
        header.update(header_change or {})
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
    ({"header_change": {"epsilon": None}},
     "checkpoint field epsilon must be a number"),
    ({"header_change": {"iteration": None}},
     "checkpoint field iteration must be an integer"),
    ({"header_change": {"attacker_mode": "greybox"}},
     "checkpoint field attacker_mode must be one of"),
    ({"header_change": {"target": [4]}},
     "checkpoint field target must be an object"),
    ({"header_change": {"note": "extra"}}, "unknown checkpoint field: note"),
    ({"header_change": {"omega": float("nan")}},
     "checkpoint field omega must be finite"),
    ({"target_change": {"hidden": [0]}},
     "target field hidden[0] must be >= 1, got 0"),
    ({"pruned": 1.0}, "checkpoint masked layer 1 holds a non-zero weight at "
                      "a pruned position"),
], ids=["unknown target key", "string classes", "nan weight", "null epsilon",
        "null iteration", "unknown attacker mode", "list target",
        "unknown header key", "nan omega", "zero hidden width",
        "non-zero pruned weight"])
def test_attack_eval_malformed_checkpoint_exits_2(tmp_path, capsys, edits,
                                                  message):
    path = _toy_checkpoint(tmp_path / "c.bin", **edits)
    assert main(["attack-eval", "--checkpoint", str(path),
                 "--attacker-epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("edit, message", [
    (lambda h: {k: v for k, v in h.items() if k != "omega"},
     "error: missing checkpoint field: omega\n"),
    (lambda h: [h], "error: checkpoint header must be a JSON object\n"),
], ids=["missing omega", "list header"])
def test_attack_eval_header_not_as_declared_exits_2(tmp_path, capsys, edit,
                                                    message):
    path = _toy_checkpoint(tmp_path / "c.bin")
    blob = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(MAGIC):start])
    text = json.dumps(edit(json.loads(blob[start:start + length]))).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(text)) + text
                     + blob[start + length:])
    assert main(["attack-eval", "--checkpoint", str(path),
                 "--attacker-epochs", "1"]) == 2
    assert capsys.readouterr().err == message


def test_attack_eval_negative_seed_exits_2(tmp_path, capsys):
    code = main(["attack-eval", "--checkpoint",
                 str(_toy_checkpoint(tmp_path / "c.bin")),
                 "--seed", "-1", "--attacker-epochs", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_attack_eval_overflowing_csv_column_exits_2(tmp_path, capsys):
    descriptor = tmp_path / "dataset.json"
    descriptor.write_text(json.dumps(_csv_with_huge_column(tmp_path)))
    code = main(["attack-eval", "--checkpoint",
                 str(_toy_checkpoint(tmp_path / "c.bin")),
                 "--dataset", str(descriptor), "--attacker-epochs", "1"])
    assert code == 2
    assert HUGE_COLUMN_MESSAGE in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"dim": 5}, "error: dataset has 5 features but the target expects 4\n"),
    ({"classes": 4}, "error: dataset labels exceed the target class count\n"),
], ids=["width", "labels"])
def test_attack_eval_dataset_that_does_not_fit_exits_2(tmp_path, capsys,
                                                       change, message):
    descriptor = tmp_path / "dataset.json"
    descriptor.write_text(json.dumps(dict(TOY_CONFIG["dataset"], **change)))
    code = main(["attack-eval", "--checkpoint",
                 str(_toy_checkpoint(tmp_path / "c.bin")),
                 "--dataset", str(descriptor), "--attacker-epochs", "1"])
    assert code == 2
    assert capsys.readouterr().err == message


def test_attack_eval_negative_attacker_epochs_exits_2(tmp_path, capsys):
    path = _toy_checkpoint(tmp_path / "c.bin")
    code = main(["attack-eval", "--checkpoint", str(path),
                 "--attacker-epochs", "-1"])
    assert code == 2
    assert capsys.readouterr().err == ("error: --attacker-epochs must be "
                                       ">= 0, got -1\n")
    assert main(["attack-eval", "--checkpoint", str(path),
                 "--attacker-epochs", "0"]) == 0


def test_run_one_row_csv_split_exits_2(tmp_path, capsys):
    test_path = tmp_path / "test.csv"
    test_path.write_text(TOY_CSV_ROWS[0] + "\n")
    dataset = {"kind": "csv", "path": _toy_csv(tmp_path, TOY_CSV_ROWS)["path"],
               "test_path": str(test_path)}
    out_dir = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TOY_CONFIG, out_dir=str(out_dir),
                                    dataset=dataset)))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: each split needs at least 2 rows to halve, got 40 training "
        "and 1 test rows\n")
    assert not (out_dir / "report.jsonl").exists()


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
    config_path.write_text(json.dumps(dict(TOY_CONFIG, deterministic=False)))
    out_dir = tmp_path / "elsewhere"
    code = main(["run", "--config", str(config_path), "--seed", "9",
                 "--deterministic", "--out-dir", str(out_dir)])
    assert code == 0
    records = read_report(out_dir / "report.jsonl")
    assert all(r["wall_time_s"] == 0.0
               for r in records if not r.get("summary"))
    assert load_checkpoint(out_dir / "checkpoint_final.bin").header.seed == 9


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


def _report_line(change):
    record = {"iteration": 1, "selected": "magnitude:gradient",
              "cumulative_epochs": 1.0, "wall_time_s": 0.0,
              "active_weights": 10, "prune_rate": 0.2, "tau": 0.01,
              "notes": [],
              "candidates": [{"pair": "magnitude:gradient", "task_acc": 0.9,
                              "mia_acc": 0.5, "tm_score": 1.8,
                              "mia_gain": -3.0}]}
    return json.dumps(change(record))


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "malformed report line 2: not a JSON object"),
    ('"text"', "malformed report line 2: not a JSON object"),
    (_report_line(lambda r: {k: v for k, v in r.items()
                             if k != "candidates"}),
     "malformed report line 2: missing field: candidates"),
    (_report_line(lambda r: dict(r, candidates=[{
        k: v for k, v in r["candidates"][0].items() if k != "task_acc"}])),
     "malformed report line 2: missing candidates[0] field: task_acc"),
    (_report_line(lambda r: dict(r, candidates=[3])),
     "malformed report line 2: field candidates[0] must be an object"),
    ('{"summary": true, "final_tm_score": 1.0}',
     "malformed report line 2: missing field: iterations"),
    (_report_line(lambda r: dict(r, selected="threshold:random")),
     "report line 1: selected pair missing from candidates"),
], ids=["list", "string", "no candidates", "no task_acc",
        "number candidate", "no iterations", "selected not a candidate"])
def test_report_malformed_line_exits_1(tmp_path, capsys, line, message):
    path = tmp_path / "report.jsonl"
    path.write_text(_report_line(lambda r: r) + "\n" + line + "\n"
                    + _report_line(lambda r: r) + "\n")
    assert main(["report", "--path", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gradcheck_command(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "gradient check passed" in out


class _FakeMallopt:
    def __init__(self):
        self.settings = []

    def __call__(self, param, value):
        self.settings.append((param, value))
        return 1


def test_main_pins_the_heap_before_dispatch(monkeypatch):
    mallopt = _FakeMallopt()
    monkeypatch.setattr(cli.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert main(["gradcheck"]) == 0
    assert mallopt.settings == [(cli.M_MMAP_THRESHOLD, 32 << 20),
                             (cli.M_TRIM_THRESHOLD, 256 << 20)]


def test_heap_pin_is_a_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert main(["gradcheck"]) == 0


def test_report_command(toy_run, capsys):
    _, out_dir, _ = toy_run
    capsys.readouterr()
    assert main(["report", "--path", str(out_dir / "report.jsonl")]) == 0
    table = capsys.readouterr().out
    assert "tm_score" in table
    assert "summary:" in table


def test_report_command_missing_file(tmp_path):
    assert main(["report", "--path", str(tmp_path / "nope.jsonl")]) == 2
