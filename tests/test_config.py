"""Experiment-config document tests: parsing, validation, round-trip."""

import json
from dataclasses import fields

import pytest

from sparseguard.config import (
    ExperimentConfig,
    parse_config,
    parse_pair_tag,
    serialize_config,
    target_spec_from,
    to_run_config,
    with_overrides,
)
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
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.omega == 0.1
    assert cfg.inner_iterations == 4000
    assert cfg.variant == "none"
    assert cfg.pairs == tuple(p.tag() for p in ALL_PAIRS)
    assert cfg.deterministic is True


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


def test_round_trip_is_fixed_point():
    doc = dict(MINIMAL, total_epochs=25.0, variant="re2",
               lr_milestones=[0.4, 0.8], seed=7, tau=0.01)
    cfg = parse_config(json.dumps(doc))
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2 == cfg
    assert serialize_config(cfg2) == text


def test_to_run_config_translation():
    doc = dict(MINIMAL, variant="re1", inner_iterations=50,
               pairs=["magnitude:gradient", "threshold:random"])
    run_cfg = to_run_config(parse_config(json.dumps(doc)))
    assert run_cfg.variant == "re1"
    assert run_cfg.inner_iterations == 50
    assert run_cfg.pairs == (StrategyPair("magnitude", "gradient"),
                             StrategyPair("threshold", "random"))
    assert run_cfg.target.classes == 4
    assert run_cfg.target.input_shape == (2,)


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


def test_with_overrides():
    cfg = parse_config(json.dumps(MINIMAL))
    same = with_overrides(cfg)
    assert same == cfg
    changed = with_overrides(cfg, seed=9, deterministic=True, out_dir="x")
    assert changed.seed == 9 and changed.out_dir == "x"
    assert cfg.seed == 0


def test_dataset_must_be_object():
    doc = dict(MINIMAL, dataset="blobs")
    with pytest.raises(ValueError, match="dataset must be an object"):
        parse_config(json.dumps(doc))


def test_document_fields_are_run_config_fields_plus_plumbing():
    document = [f.name for f in fields(ExperimentConfig)]
    run = [f.name for f in fields(RunConfig)]
    assert sorted(document) == sorted(run + ["dataset", "out_dir"])


def test_minimal_document_takes_every_run_default():
    expected = RunConfig(omega=0.1, target=TargetSpec(
        kind="mlp", input_shape=(2,), classes=4, hidden=(8, 8)))
    assert to_run_config(parse_config(json.dumps(MINIMAL))) == expected
