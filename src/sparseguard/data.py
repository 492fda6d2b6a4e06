"""Dataset construction: synthetic generators and delimited-text loading.

Every loader returns a (train, test) pair of LabeledSet already standardized
feature-wise using statistics computed on the training split only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass
class LabeledSet:
    """Feature matrix with integer class labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise ValueError(f"features must be 2d, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("labels must align with feature rows")

    def __len__(self) -> int:
        return self.x.shape[0]


def _check_keys(desc: dict, required: set, optional: set):
    keys = set(desc)
    missing = required - keys
    if missing:
        raise ValueError(f"missing dataset key: {sorted(missing)[0]}")
    extra = keys - required - optional - {"kind"}
    if extra:
        raise ValueError(f"unknown dataset key: {sorted(extra)[0]}")


def _number(desc: dict, key: str, kind: type, default=None):
    """desc[key], or default when absent, as kind (int or float). A bool is
    not a number, and a float is not an integer."""
    value = desc.get(key, default)
    accepted = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, accepted):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"dataset key {key} must be {noun}, got {value!r}")
    return kind(value)


def _balanced_labels(n: int, classes: int, rng: np.random.Generator) -> np.ndarray:
    # round-robin assignment, then shuffle so class order carries no signal
    y = np.arange(n, dtype=np.int64) % classes
    rng.shuffle(y)
    return y


def _make_blobs(classes: int, n_train: int, n_test: int, dim: int,
                center_spread: float, cluster_std: float,
                rng: np.random.Generator) -> tuple[LabeledSet, LabeledSet]:
    centers = rng.normal(0.0, center_spread, size=(classes, dim))
    sets = []
    for n in (n_train, n_test):
        y = _balanced_labels(n, classes, rng)
        x = centers[y] + rng.normal(0.0, cluster_std, size=(n, dim))
        sets.append(LabeledSet(x, y))
    return sets[0], sets[1]


def _make_spirals(classes: int, n_train: int, n_test: int, noise: float,
                  turns: float, rng: np.random.Generator) -> tuple[LabeledSet, LabeledSet]:
    sets = []
    for n in (n_train, n_test):
        y = _balanced_labels(n, classes, rng)
        t = rng.uniform(0.15, 1.0, size=n)
        theta = t * turns * 2.0 * np.pi + y * (2.0 * np.pi / classes)
        r = t
        x = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        x += rng.normal(0.0, noise, size=x.shape)
        sets.append(LabeledSet(x, y))
    return sets[0], sets[1]


def _parse_delimited(path: str, delimiter: str) -> tuple[np.ndarray, np.ndarray]:
    feats: list[list[float]] = []
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty dataset file: {path}")
    start = 0
    first = lines[0].split(delimiter)
    try:
        [float(c) for c in first[:-1]]
        int(first[-1])
    except ValueError:
        start = 1  # header row
    width = None
    for i, line in enumerate(lines[start:], start=start + 1):
        cells = line.split(delimiter)
        if width is None:
            width = len(cells)
            if width < 2:
                raise ValueError(f"row {i}: need at least one feature and a label")
        elif len(cells) != width:
            raise ValueError(f"row {i}: expected {width} columns, got {len(cells)}")
        row = []
        for j, cell in enumerate(cells[:-1], start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"row {i}, column {j}: cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"row {i}, column {j}: {cell!r} is not finite")
            row.append(value)
        try:
            label = int(cells[-1])
        except ValueError:
            raise ValueError(
                f"row {i}, column {width}: cannot parse {cells[-1]!r} as a label"
            ) from None
        if label < 0:
            raise ValueError(f"row {i}: label must be non-negative, got {label}")
        feats.append(row)
        labels.append(label)
    return np.asarray(feats, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def _standardize(train: LabeledSet, test: LabeledSet) -> tuple[LabeledSet, LabeledSet]:
    # huge finite cells can overflow the statistics or the scaled values
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.x.mean(axis=0)
        std = train.x.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        train_x, test_x = (train.x - mean) / std, (test.x - mean) / std
    finite = (np.isfinite(mean) & np.isfinite(std)
              & np.isfinite(train_x).all(axis=0) & np.isfinite(test_x).all(axis=0))
    if not finite.all():
        j = int(np.argmin(finite))
        raise ValueError(
            f"feature column {j + 1} does not standardize to finite values "
            f"(training mean {mean[j]:.6g}, standard deviation {std[j]:.6g})")
    return LabeledSet(train_x, train.y), LabeledSet(test_x, test.y)


def load_dataset(descriptor: dict) -> tuple[LabeledSet, LabeledSet]:
    """Build the (train, test) pair named by a descriptor dictionary.

    Supported kinds: "blobs" and "spirals" (seeded synthetic generators) and
    "csv" (delimited text, last column = integer label, optional header).
    """
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ValueError("dataset descriptor must be a dict with a 'kind' key")
    kind = descriptor["kind"]
    if kind in ("blobs", "spirals"):
        _check_keys(descriptor, {"classes", "n_train", "n_test", "seed"},
                    {"dim", "center_spread", "cluster_std"} if kind == "blobs"
                    else {"noise", "turns"})
        rng = np.random.default_rng(_number(descriptor, "seed", int))
        sizes = {key: _number(descriptor, key, int)
                 for key in ("classes", "n_train", "n_test")}
        if kind == "blobs":
            train, test = _make_blobs(
                **sizes, dim=_number(descriptor, "dim", int, 2),
                center_spread=_number(descriptor, "center_spread", float, 3.0),
                cluster_std=_number(descriptor, "cluster_std", float, 1.0),
                rng=rng)
        else:
            train, test = _make_spirals(
                **sizes, noise=_number(descriptor, "noise", float, 0.1),
                turns=_number(descriptor, "turns", float, 1.5), rng=rng)
    elif kind == "csv":
        _check_keys(descriptor, {"path"},
                    {"test_path", "test_fraction", "seed", "delimiter"})
        delim = str(descriptor.get("delimiter", ","))
        x, y = _parse_delimited(str(descriptor["path"]), delim)
        if "test_path" in descriptor:
            tx, ty = _parse_delimited(str(descriptor["test_path"]), delim)
            train, test = LabeledSet(x, y), LabeledSet(tx, ty)
        else:
            if "test_fraction" not in descriptor or "seed" not in descriptor:
                raise ValueError(
                    "csv descriptor needs test_path, or test_fraction and seed")
            frac = _number(descriptor, "test_fraction", float)
            if not 0.0 < frac < 1.0:
                raise ValueError(f"test_fraction must be in (0, 1), got {frac}")
            rng = np.random.default_rng(_number(descriptor, "seed", int))
            perm = rng.permutation(len(y))
            n_test = int(np.floor(frac * len(y)))
            test_idx, train_idx = perm[:n_test], perm[n_test:]
            train = LabeledSet(x[train_idx], y[train_idx])
            test = LabeledSet(x[test_idx], y[test_idx])
    else:
        raise ValueError(f"unknown dataset kind: {kind!r}")
    if len(train) == 0 or len(test) == 0:
        raise ValueError("both train and test splits must be non-empty")
    classes = int(max(train.y.max(), test.y.max())) + 1
    if classes < 2:
        raise ValueError("need at least two classes")
    return _standardize(train, test)
