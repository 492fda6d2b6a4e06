"""Experiment-config document tests: parsing and validation."""

import json
from dataclasses import fields

import pytest

from sparseguard.config import parse_config, parse_pair_tag, target_spec_from
from sparseguard.models import TargetSpec
from sparseguard.orchestrator import RunConfig
from sparseguard.sparse import ALL_PAIRS, StrategyPair

MINIMAL = {
    "omega": 0.1,
    "dataset": {"kind": "blobs", "classes": 4, "n_train": 100, "n_test": 40,
                "seed": 1},
    "target": {"kind": "mlp", "input_shape": [2], "classes": 4,
               "hidden": [8, 8]},
}


def test_parse_minimal_uses_defaults():
    cfg, dataset, out_dir = parse_config(json.dumps(MINIMAL))
    assert cfg.omega == 0.1
    assert cfg.inner_iterations == 4000
    assert cfg.variant == "none"
    assert cfg.pairs == ALL_PAIRS
    assert cfg.deterministic is True
    assert dataset == MINIMAL["dataset"]
    assert out_dir == "runs"


def test_missing_omega_message():
    doc = dict(MINIMAL)
    del doc["omega"]
    with pytest.raises(ValueError, match="^missing field: omega$"):
        parse_config(json.dumps(doc))


def test_unknown_key_rejected():
    doc = dict(MINIMAL, omgea=0.1)
    with pytest.raises(ValueError, match="unknown field: omgea"):
        parse_config(json.dumps(doc))


def test_not_json_rejected():
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_config("omega = 0.1")
    with pytest.raises(ValueError, match="JSON object"):
        parse_config("[1, 2]")


def test_parse_translates_target_and_pairs():
    doc = dict(MINIMAL, variant="re1", inner_iterations=50,
               pairs=["magnitude:gradient", "threshold:random"])
    run_cfg, _, _ = parse_config(json.dumps(doc))
    assert run_cfg.variant == "re1"
    assert run_cfg.inner_iterations == 50
    assert run_cfg.pairs == (StrategyPair("magnitude", "gradient"),
                             StrategyPair("threshold", "random"))
    assert run_cfg.target.classes == 4
    assert run_cfg.target.input_shape == (2,)


def test_repeated_pair_rejected():
    # a report names each candidate by its tag alone
    doc = dict(MINIMAL, pairs=["magnitude:random", "threshold:gradient",
                               "magnitude:random", "magnitude:random"])
    with pytest.raises(ValueError, match="^field pairs must be distinct, but "
                                         "magnitude:random appears more than "
                                         "once$"):
        parse_config(json.dumps(doc))
    with pytest.raises(ValueError, match="threshold:gradient appears"):
        RunConfig(omega=0.1, target=TargetSpec(kind="mlp", input_shape=(2,),
                                               classes=4),
                  pairs=(StrategyPair("threshold", "gradient"),) * 2)


def test_bad_pair_tag():
    with pytest.raises(ValueError, match="prune:grow"):
        parse_pair_tag("magnitude")
    with pytest.raises(ValueError):
        parse_pair_tag("magnitude:upward")


def test_target_spec_validation():
    with pytest.raises(ValueError, match="unknown target field: depth"):
        target_spec_from({"kind": "mlp", "input_shape": [2], "classes": 3,
                          "depth": 4})
    with pytest.raises(ValueError, match="missing target field: classes"):
        target_spec_from({"kind": "mlp", "input_shape": [2]})


CNN_TARGET = {"kind": "cnn", "input_shape": [1, 8, 8], "classes": 3,
              "channels": [2, 4]}


@pytest.mark.parametrize("change, message", [
    ({"kind": "rnn"}, "target field kind must be one of ('mlp', 'cnn')"),
    ({"classes": 1}, "target field classes must be >= 2, got 1"),
    ({"input_shape": [1, 0, 8]},
     "target field input_shape[1] must be >= 1, got 0"),
    ({"hidden": [8, 0]}, "target field hidden[1] must be >= 1, got 0"),
    ({"channels": [2, -1]}, "target field channels[1] must be >= 1, got -1"),
    ({"input_shape": [1, 8, 8], "channels": [2, 2, 2, 2]},
     "target field input_shape must be [c, h, w] with h and w divisible by "
     "2 ** len(channels) = 16, got [1, 8, 8]"),
], ids=["unknown kind", "one class", "zero input side", "zero width",
        "negative channels", "too many stages"])
def test_target_out_of_range_rejected(change, message):
    with pytest.raises(ValueError) as info:
        target_spec_from(dict(CNN_TARGET, **change))
    assert str(info.value) == message


def test_target_bounds_hold_for_specs_built_in_code():
    with pytest.raises(ValueError, match=r"^target field hidden\[0\] must"):
        TargetSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(0,))
    # an mlp has no conv stages, so channels and kernel go unused but must
    # still be in range; its input may have any rank
    spec = TargetSpec(kind="mlp", input_shape=(2, 3), classes=2)
    assert spec.input_width == 6


def test_dataset_must_be_object():
    doc = dict(MINIMAL, dataset="blobs")
    with pytest.raises(ValueError, match="dataset must be an object"):
        parse_config(json.dumps(doc))


# a value for every RunConfig field, none of them its default
EVERY_FIELD = {
    "omega": 0.5,
    "target": {"kind": "cnn", "input_shape": [1, 4, 4], "classes": 3,
               "hidden": [5], "channels": [2, 3], "kernel": 2},
    "pairs": ["threshold:random"],
    "inner_iterations": 7,
    "batch_size": 16,
    "candidate_finetune_epochs": 0.5,
    "total_epochs": 3.0,
    "variant": "re2",
    "beta": 0.3,
    "lam": 2.0,
    "learning_rate": 0.05,
    "lr_milestones": [0.3],
    "lr_decay": 0.5,
    "attacker_mode": "whitebox",
    "attacker_epochs_first": 9,
    "attacker_epochs_topup": 3,
    "attacker_finetune_epochs": 2,
    "attacker_learning_rate": 0.01,
    "prune_rate_start": 0.4,
    "prune_rate_end": 0.05,
    "tau": 0.02,
    "validation_fraction": 0.3,
    "probe_size": 64,
    "early_stop": True,
    "early_stop_delta": 0.01,
    "early_stop_patience": 5,
    "seed": 11,
    "deterministic": False,
}


def test_every_run_config_field_parses_to_its_value():
    doc = dict(EVERY_FIELD, dataset=MINIMAL["dataset"], out_dir="elsewhere")
    cfg, dataset, out_dir = parse_config(json.dumps(doc))
    assert set(EVERY_FIELD) == {f.name for f in fields(RunConfig)}
    expected = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in EVERY_FIELD.items()}
    expected["target"] = TargetSpec(kind="cnn", input_shape=(1, 4, 4),
                                    classes=3, hidden=(5,), channels=(2, 3),
                                    kernel=2)
    expected["pairs"] = (StrategyPair("threshold", "random"),)
    for name, value in expected.items():
        assert value != getattr(RunConfig, name, None), name
        assert getattr(cfg, name) == value, name
    assert dataset == MINIMAL["dataset"]
    assert out_dir == "elsewhere"


def test_minimal_document_takes_every_run_default():
    expected = RunConfig(omega=0.1, target=TargetSpec(
        kind="mlp", input_shape=(2,), classes=4, hidden=(8, 8)))
    assert parse_config(json.dumps(MINIMAL))[0] == expected


@pytest.mark.parametrize("change, message", [
    ({"out_dir": 3}, "^field out_dir must be a string$"),
    ({"target": [2]}, "^field target must be an object$"),
    ({"pairs": "magnitude:gradient"}, "^field pairs must be a list$"),
], ids=["integer out_dir", "list target", "string pairs"])
def test_object_string_and_list_keys_are_type_checked(change, message):
    with pytest.raises(ValueError, match=message):
        parse_config(json.dumps(dict(MINIMAL, **change)))


def test_missing_dataset_message():
    doc = {k: v for k, v in MINIMAL.items() if k != "dataset"}
    with pytest.raises(ValueError, match="^missing field: dataset$"):
        parse_config(json.dumps(doc))
