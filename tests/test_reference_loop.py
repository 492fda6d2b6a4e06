"""Differential test: `run_compression` against the plain loop in
`reference_loop.py`. Over a fixed list of seeded configs, both must give the
same report records, byte for byte, and the same final weights and masks."""

import dataclasses
import json

import pytest

from reference_loop import reference_compression
from sparseguard.config import parse_pair_tag
from sparseguard.data import load_dataset
from sparseguard.models import TargetSpec
from sparseguard.orchestrator import RunConfig, run_compression

MLP1 = TargetSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(8,))
MLP2 = TargetSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(10, 6))
CNN1 = TargetSpec(kind="cnn", input_shape=(1, 4, 4), classes=3,
                  channels=(2,), kernel=3)
CNN2 = TargetSpec(kind="cnn", input_shape=(1, 4, 4), classes=3,
                  channels=(2, 3), kernel=2)
ALL = ("magnitude:gradient", "magnitude:random", "threshold:gradient",
       "threshold:random")
STOP = {"early_stop": True, "early_stop_delta": 0.5, "early_stop_patience": 1}

# (seed, target, attacker mode, loss, pairs, tau, other settings); a tau of
# 1e9 discards every threshold pair
CASES = [
    (0, MLP2, "blackbox", "none", ALL[:1], None, {}),
    (1, MLP2, "whitebox", "re1", (ALL[0], ALL[3]), None, {}),
    (2, CNN1, "blackbox", "re2", ALL[1:], 0.05, {}),
    (3, CNN1, "whitebox", "none", ALL, None, {}),
    (4, MLP1, "blackbox", "re2", (ALL[2], ALL[0]), 1e9, {}),
    (5, MLP2, "whitebox", "re2", ALL[::-1], 1e9, {}),
    (6, MLP2, "blackbox", "re1", (ALL[3], ALL[1], ALL[2]), 0.05, STOP),
    (7, CNN2, "blackbox", "none", ALL[:2], None,
     {"attacker_finetune_epochs": 0}),
    (8, MLP2, "blackbox", "none", ALL, None, {"omega": 0.95}),
    (9, CNN1, "whitebox", "re1", (ALL[2], ALL[1]), 1e9, {}),
    (10, MLP1, "whitebox", "none", ALL[1:2], 0.05, {}),
    (11, MLP2, "blackbox", "re2", ALL, None, STOP),
    (12, CNN2, "whitebox", "re2", (ALL[1], ALL[0]), None, {}),
    (13, MLP2, "whitebox", "re1", ALL, None,
     {"inner_iterations": 0, "total_epochs": 3.0}),
    (14, MLP1, "blackbox", "none", (ALL[3], ALL[2], ALL[0]), 1e9,
     {"attacker_finetune_epochs": 2}),
    (15, CNN1, "blackbox", "re1", ALL, None, {"omega": 0.9}),
    (16, MLP2, "blackbox", "re2", ALL[:1], 0.05, {}),
    (17, CNN2, "whitebox", "none", (ALL[3], ALL[0]), 0.05, STOP),
    (18, MLP2, "whitebox", "re1", (ALL[1], ALL[0]), None,
     {"candidate_finetune_epochs": 0.5}),
    (19, MLP1, "blackbox", "re2", ALL, None,
     dict(STOP, attacker_finetune_epochs=0)),
]


def _config_and_data(case):
    seed, target, mode, variant, pairs, tau, settings = case
    config = RunConfig(
        omega=0.4, target=target, pairs=tuple(map(parse_pair_tag, pairs)),
        inner_iterations=6, batch_size=32, candidate_finetune_epochs=1.0,
        total_epochs=6.0, variant=variant, attacker_mode=mode,
        attacker_epochs_first=2, attacker_epochs_topup=1,
        attacker_finetune_epochs=1, tau=tau, seed=seed, deterministic=True)
    # each known half holds more rows than a 64-row attacker half-batch,
    # so every batch is a draw of the attacker's stream, not all the rows
    data = load_dataset({"kind": "blobs", "classes": 3, "n_train": 160,
                         "n_test": 144, "dim": target.input_width,
                         "seed": 100 + seed})
    return dataclasses.replace(config, **settings), data


def _records(reports) -> list[str]:
    return [json.dumps(r.as_record(), sort_keys=True) for r in reports]


def _state(model) -> list:
    return [(p.data.tobytes(), None if p.mask is None else p.mask.tobytes())
            for p in model.params()]


@pytest.mark.parametrize("case", CASES, ids=[f"seed{c[0]}" for c in CASES])
def test_run_compression_matches_the_reference_loop(case):
    config, data = _config_and_data(case)
    model, reports = run_compression(config, data)
    ref_model, ref_reports = reference_compression(config, data)
    assert _records(reports) == _records(ref_reports)
    assert _state(model) == _state(ref_model)
