"""Binary model checkpoints: magic prefix, JSON header, raw arrays, bitsets.

Layout: b"SFCMP1" | u32 little-endian header length | header JSON (UTF-8) |
every parameter array as little-endian float64 in model.params() order |
every mask as a little-bit-order packed bitset in masked_layers() order.
The header is declared once, as `Header`: saving writes its fields, and
loading checks the parsed header against them (`document.check_document`)
and the recorded target spec like a config's, rebuilds the architecture
from the spec, and restores finite weights bit-exactly and masks exactly,
holding them to the sparse-topology rule: a mask-0 weight must be ±0.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .attack import MODES
from .config import target_spec_from
from .document import at_least, check_document, check_ranges, one_of, within
from .models import SparseModel, build_target
from .sparse import active_count

MAGIC = b"SFCMP1"
VERSION = 1


@dataclass(frozen=True)
class Header:
    """Every field of a checkpoint's JSON header. The digest covers only
    `target` and `omega`; the shapes and the active count are checked
    against the payload."""

    version: int
    target: dict
    omega: float = within(0, 1, closed=True)
    epsilon: float
    iteration: int = at_least(0)
    seed: int = at_least(0)
    dataset: dict
    attacker_mode: str = one_of(MODES)
    active_count: int
    param_shapes: list
    mask_shapes: list
    spec_digest: str

    def __post_init__(self):
        check_ranges(self, "checkpoint ")


@dataclass
class Checkpoint:
    model: SparseModel
    header: Header


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
    header = Header(
        version=VERSION, target=spec_doc, omega=omega,
        epsilon=float(model.epsilon), iteration=int(iteration),
        seed=int(seed), dataset=dataset, attacker_mode=attacker_mode,
        active_count=active_count(model),
        param_shapes=[list(p.data.shape) for p in params],
        mask_shapes=[list(m.shape) for m in masks],
        spec_digest=_digest(spec_doc, omega))
    blob = json.dumps(asdict(header), sort_keys=True).encode("utf-8")
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
        doc = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("checkpoint header must be a JSON object")
        if doc.get("version") != VERSION:
            raise ValueError(f"unsupported checkpoint version: "
                             f"{doc.get('version')}")
        check_document(Header, doc, "checkpoint ")
        if doc["spec_digest"] != _digest(doc["target"], doc["omega"]):
            raise ValueError("checkpoint header digest mismatch")
        header = Header(**doc)
        spec = target_spec_from(header.target)
        # build at full density (always feasible), then overwrite everything
        model = build_target(spec, 1.0, np.random.default_rng(0))
        params = model.params()
        if [list(p.data.shape) for p in params] != header.param_shapes:
            raise ValueError("checkpoint/spec mismatch: parameter shapes differ")
        for p in params:
            raw = _read_exact(fh, p.data.size * 8, "weights")
            p.data[...] = np.frombuffer(raw, dtype="<f8").reshape(p.data.shape)
            if not np.all(np.isfinite(p.data)):
                raise ValueError("checkpoint holds non-finite weights")
        layers = model.masked_layers()
        if [list(l.mask.shape) for l in layers] != header.mask_shapes:
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
    if total_active != header.active_count:
        raise ValueError("mask popcount does not match recorded active count")
    for k, layer in enumerate(layers):
        if np.any(layer.w.data[layer.mask == 0.0]):
            raise ValueError(f"checkpoint masked layer {k} holds a non-zero "
                             f"weight at a pruned position")
    model.omega = float(header.omega)
    model.epsilon = float(header.epsilon)
    return Checkpoint(model=model, header=header)
