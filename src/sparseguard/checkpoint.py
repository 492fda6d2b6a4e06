"""Binary model checkpoints: magic prefix, JSON header, raw arrays, bitsets.

Layout: b"SFCMP1" | u32 little-endian header length | header JSON (UTF-8) |
every parameter array as little-endian float64 in model.params() order |
every mask as a little-bit-order packed bitset in masked_layers() order.
Loading checks the recorded target spec like a config's, rebuilds the
architecture from it, and restores finite weights bit-exactly and masks exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .config import target_spec_from
from .models import SparseModel, build_target
from .sparse import active_count

MAGIC = b"SFCMP1"
VERSION = 1


@dataclass
class Checkpoint:
    model: SparseModel
    omega: float
    iteration: int
    seed: int
    dataset: dict
    attacker_mode: str
    spec_digest: str


def _digest(spec_doc: dict, omega: float) -> str:
    blob = json.dumps({"target": spec_doc, "omega": omega},
                      sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def save_checkpoint(path, model: SparseModel, *, iteration: int, seed: int,
                    dataset: dict, attacker_mode: str) -> None:
    spec_doc = asdict(model.spec)
    params = model.params()
    masks = [layer.mask for layer in model.masked_layers()]
    omega = float(model.omega)
    header = {
        "version": VERSION,
        "target": spec_doc,
        "omega": omega,
        "epsilon": float(model.epsilon),
        "iteration": int(iteration),
        "seed": int(seed),
        "dataset": dataset,
        "attacker_mode": attacker_mode,
        "active_count": active_count(model),
        "param_shapes": [list(p.data.shape) for p in params],
        "mask_shapes": [list(m.shape) for m in masks],
        "spec_digest": _digest(spec_doc, omega),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # write a sibling and rename it over the target, so a crash mid-write
    # leaves the previous checkpoint intact
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for p in params:
                fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
            for m in masks:
                bits = np.packbits(m.astype(np.uint8).reshape(-1),
                                   bitorder="little")
                fh.write(bits.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated checkpoint: expected {n} bytes of {what}")
    return data


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError("not a checkpoint file (bad magic)")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
        if header.get("version") != VERSION:
            raise ValueError(f"unsupported checkpoint version: "
                             f"{header.get('version')}")
        spec_doc = header["target"]
        if header["spec_digest"] != _digest(spec_doc, header["omega"]):
            raise ValueError("checkpoint header digest mismatch")
        spec = target_spec_from(spec_doc)
        # build at full density (always feasible), then overwrite everything
        model = build_target(spec, 1.0, np.random.default_rng(0))
        params = model.params()
        if [list(p.data.shape) for p in params] != header["param_shapes"]:
            raise ValueError("checkpoint/spec mismatch: parameter shapes differ")
        for p in params:
            raw = _read_exact(fh, p.data.size * 8, "weights")
            p.data[...] = np.frombuffer(raw, dtype="<f8").reshape(p.data.shape)
            if not np.all(np.isfinite(p.data)):
                raise ValueError("checkpoint holds non-finite weights")
        layers = model.masked_layers()
        if [list(l.mask.shape) for l in layers] != header["mask_shapes"]:
            raise ValueError("checkpoint/spec mismatch: mask shapes differ")
        total_active = 0
        for layer in layers:
            size = layer.mask.size
            raw = _read_exact(fh, (size + 7) // 8, "masks")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                 count=size, bitorder="little")
            layer.mask[...] = bits.reshape(layer.mask.shape).astype(np.float64)
            total_active += int(bits.sum())
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint payload")
    if total_active != header["active_count"]:
        raise ValueError("mask popcount does not match recorded active count")
    model.omega = float(header["omega"])
    model.epsilon = float(header["epsilon"])
    return Checkpoint(model=model, omega=float(header["omega"]),
                      iteration=int(header["iteration"]),
                      seed=int(header["seed"]), dataset=header["dataset"],
                      attacker_mode=header["attacker_mode"],
                      spec_digest=header["spec_digest"])
