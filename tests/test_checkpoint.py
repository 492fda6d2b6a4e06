"""Checkpoint format tests: lossless round trip, corruption detection."""

import json
import os
import struct

import numpy as np
import pytest

from sparseguard.checkpoint import (
    MAGIC,
    _digest,
    load_checkpoint,
    save_checkpoint,
)
from sparseguard.models import TargetSpec, build_target
from sparseguard.sparse import active_count

DESC = {"kind": "blobs", "classes": 3, "n_train": 50, "n_test": 20, "seed": 0}


def random_model(rng):
    hidden = tuple(int(h) for h in rng.integers(4, 20, size=rng.integers(1, 3)))
    dim = int(rng.integers(2, 9))
    classes = int(rng.integers(2, 6))
    omega = float(rng.uniform(0.2, 0.9))
    spec = TargetSpec(kind="mlp", input_shape=(dim,), classes=classes,
                      hidden=hidden)
    model = build_target(spec, omega, rng)
    for p in model.params():
        p.data += rng.normal(0, 0.1, size=p.data.shape)
    for layer in model.masked_layers():
        layer.w.data *= layer.mask
    return model


def test_round_trip_bit_exact_many_models(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(100):
        model = random_model(rng)
        path = tmp_path / f"m{trial}.bin"
        save_checkpoint(path, model, iteration=trial, seed=trial * 3,
                        dataset=DESC, attacker_mode="blackbox")
        loaded = load_checkpoint(path)
        assert loaded.header.iteration == trial
        assert loaded.header.seed == trial * 3
        assert loaded.header.dataset == DESC
        assert loaded.header.attacker_mode == "blackbox"
        for a, b in zip(model.params(), loaded.model.params()):
            assert a.data.tobytes() == b.data.tobytes()
        for la, lb in zip(model.masked_layers(), loaded.model.masked_layers()):
            assert la.mask.dtype == lb.mask.dtype == bool
            assert la.mask.tobytes() == lb.mask.tobytes()
        assert active_count(loaded.model) == active_count(model)
        assert loaded.model.omega == model.omega


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTFMT" + b"\x00" * 50)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    model = random_model(np.random.default_rng(1))
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="truncated|trailing|popcount"):
        load_checkpoint(path)


def test_mask_corruption_breaks_popcount(tmp_path):
    model = random_model(np.random.default_rng(2))
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    blob = bytearray(path.read_bytes())
    # flip bits in the final byte (mask region sits at the end)
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="popcount"):
        load_checkpoint(path)


def test_header_tamper_detected(tmp_path):
    model = random_model(np.random.default_rng(3))
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    blob = path.read_bytes()
    # Flip one hex character of the stored digest; length is unchanged so
    # the header still parses, but the integrity check must fire.
    marker = b'"spec_digest": "'
    pos = blob.index(marker) + len(marker)
    flipped = b"0" if blob[pos:pos + 1] != b"0" else b"f"
    tampered = blob[:pos] + flipped + blob[pos + 1:]
    path.write_bytes(tampered)
    with pytest.raises(ValueError, match="digest"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    model = random_model(np.random.default_rng(4))
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    old = random_model(np.random.default_rng(5))
    path = tmp_path / "m.bin"
    save_checkpoint(path, old, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    before = path.read_bytes()

    def torn(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "packbits", torn)  # fails after the weights
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, random_model(np.random.default_rng(6)),
                        iteration=2, seed=0, dataset=DESC,
                        attacker_mode="blackbox")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path).header.iteration == 1
    assert os.listdir(tmp_path) == ["m.bin"]


def _resign_header(path, edit):
    """Apply edit(header) to a saved checkpoint and recompute its digest, so
    only the edited content can be rejected."""
    blob = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(MAGIC):start])
    header = json.loads(blob[start:start + length])
    edit(header)
    header["spec_digest"] = _digest(header["target"], header["omega"])
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(text)) + text
                     + blob[start + length:])


@pytest.mark.parametrize("change, message", [
    ({"depth": 2}, "unknown target field: depth"),
    ({"classes": "3"}, "target field classes must be an integer"),
    ({"hidden": [12.5]}, "target field hidden[0] must be an integer"),
    ({"hidden": [0]}, "target field hidden[0] must be >= 1, got 0"),
    ({"classes": 1}, "target field classes must be >= 2, got 1"),
], ids=["unknown key", "string classes", "float width", "zero width",
        "one class"])
def test_malformed_target_rejected(tmp_path, change, message):
    model = random_model(np.random.default_rng(7))
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    _resign_header(path, lambda header: header["target"].update(change))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert message in str(info.value)


@pytest.mark.parametrize("value", [1.0, -1e-300])
def test_nonzero_pruned_weight_rejected(tmp_path, value):
    # the sparse-topology rule: a weight whose mask entry is 0 holds ±0
    model = random_model(np.random.default_rng(9))
    layers = model.masked_layers()
    k = next(k for k, layer in enumerate(layers) if not layer.mask.all())
    pruned = np.flatnonzero(layers[k].mask == 0.0)
    layers[k].w.data.reshape(-1)[pruned[-1]] = value
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    with pytest.raises(ValueError, match=f"masked layer {k} holds a "
                       f"non-zero weight at a pruned position"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_rejected(tmp_path, value):
    model = random_model(np.random.default_rng(8))
    model.params()[-1].data[0] = value
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    with pytest.raises(ValueError, match="non-finite weights"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value, message", [
    ("epsilon", None, "checkpoint field epsilon must be a number"),
    ("epsilon", "0.1", "checkpoint field epsilon must be a number"),
    ("epsilon", float("nan"), "checkpoint field epsilon must be finite"),
    ("omega", None, "checkpoint field omega must be a number"),
    ("iteration", None, "checkpoint field iteration must be an integer"),
    ("iteration", 1.0, "checkpoint field iteration must be an integer"),
    ("iteration", True, "checkpoint field iteration must be an integer"),
    ("seed", False, "checkpoint field seed must be an integer"),
    ("seed", -1, "checkpoint field seed must be >= 0"),
    ("attacker_mode", "greybox",
     "checkpoint field attacker_mode must be one of"),
    ("attacker_mode", None, "checkpoint field attacker_mode must be one of"),
    ("dataset", None, "checkpoint field dataset must be an object"),
    ("dataset", ["blobs"], "checkpoint field dataset must be an object"),
    ("omega", float("inf"), "checkpoint field omega must be finite"),
    ("target", [4], "checkpoint field target must be an object"),
    ("param_shapes", 5, "checkpoint field param_shapes must be a list"),
    ("active_count", "7", "checkpoint field active_count must be an integer"),
    ("note", "extra", "unknown checkpoint field: note"),
    ("omega", 1.5, "checkpoint field omega must be in (0, 1], got 1.5"),
    ("iteration", -1, "checkpoint field iteration must be >= 0, got -1"),
])
def test_malformed_header_field_rejected(tmp_path, key, value, message):
    model = random_model(np.random.default_rng(9))
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    _resign_header(path, lambda header: header.update({key: value}))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert message in str(info.value)


def _rewrite_header(path, edit):
    """Replace a saved checkpoint's header with edit(header), unsigned."""
    blob = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(MAGIC):start])
    text = json.dumps(edit(json.loads(blob[start:start + length]))).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(text)) + text
                     + blob[start + length:])


@pytest.mark.parametrize("edit, message", [
    (lambda h: {k: v for k, v in h.items() if k != "omega"},
     "missing checkpoint field: omega"),
    (lambda h: {k: v for k, v in h.items() if k != "spec_digest"},
     "missing checkpoint field: spec_digest"),
    (lambda h: [h], "checkpoint header must be a JSON object"),
    (lambda h: "header", "checkpoint header must be a JSON object"),
], ids=["missing omega", "missing digest", "list header", "string header"])
def test_header_not_as_declared_rejected(tmp_path, edit, message):
    model = random_model(np.random.default_rng(10))
    path = tmp_path / "m.bin"
    save_checkpoint(path, model, iteration=1, seed=0, dataset=DESC,
                    attacker_mode="blackbox")
    _rewrite_header(path, edit)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == message
