"""Checkpoint format tests: lossless round trip, corruption detection."""

import os

import numpy as np
import pytest

from sparseguard.checkpoint import MAGIC, load_checkpoint, save_checkpoint
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
        assert loaded.iteration == trial
        assert loaded.seed == trial * 3
        assert loaded.dataset == DESC
        assert loaded.attacker_mode == "blackbox"
        for a, b in zip(model.params(), loaded.model.params()):
            assert a.data.tobytes() == b.data.tobytes()
        for la, lb in zip(model.masked_layers(), loaded.model.masked_layers()):
            assert np.array_equal(la.mask, lb.mask)
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
    assert load_checkpoint(path).iteration == 1
    assert os.listdir(tmp_path) == ["m.bin"]
