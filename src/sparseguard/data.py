"""Dataset construction: synthetic generators and delimited-text loading.

A dataset descriptor is a JSON object whose `kind` picks one of the
declared descriptor classes below; its other keys are that class's fields,
checked by `document.check_document` and by each field's declared range. Every
loader returns a (train, test) pair of LabeledSet already standardized
feature-wise using statistics computed on the training split only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .document import at_least, check_document, check_ranges, non_empty, within


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


@dataclass(frozen=True)
class Blobs:
    """Descriptor of kind "blobs": one Gaussian cluster per class around a
    random center."""

    classes: int = at_least(2)
    n_train: int = at_least(1)
    n_test: int = at_least(1)
    seed: int = at_least(0)
    dim: int = at_least(1, default=2)
    center_spread: float = at_least(0, default=3.0)
    cluster_std: float = at_least(0, default=1.0)

    def __post_init__(self):
        check_ranges(self, "dataset ")


@dataclass(frozen=True)
class Spirals:
    """Descriptor of kind "spirals": one noisy 2-d spiral arm per class."""

    classes: int = at_least(2)
    n_train: int = at_least(1)
    n_test: int = at_least(1)
    seed: int = at_least(0)
    noise: float = at_least(0, default=0.1)
    turns: float = 1.5

    def __post_init__(self):
        check_ranges(self, "dataset ")


@dataclass(frozen=True)
class Csv:
    """Descriptor of kind "csv": delimited text, last column the integer
    label, optional header row. The test split is a second file, or a
    seeded fraction of the first."""

    path: str
    test_path: str | None = None
    test_fraction: float | None = within(0, 1, default=None)
    seed: int | None = at_least(0, default=None)
    delimiter: str = non_empty(default=",")

    def __post_init__(self):
        check_ranges(self, "dataset ")
        if self.test_path is None and (self.test_fraction is None
                                       or self.seed is None):
            raise ValueError(
                "csv descriptor needs test_path, or test_fraction and seed")


def _balanced_labels(n: int, classes: int, rng: np.random.Generator) -> np.ndarray:
    # round-robin assignment, then shuffle so class order carries no signal
    y = np.arange(n, dtype=np.int64) % classes
    rng.shuffle(y)
    return y


def _make_blobs(d: Blobs) -> tuple[LabeledSet, LabeledSet]:
    rng = np.random.default_rng(d.seed)
    centers = rng.normal(0.0, d.center_spread, size=(d.classes, d.dim))
    sets = []
    for n in (d.n_train, d.n_test):
        y = _balanced_labels(n, d.classes, rng)
        x = centers[y] + rng.normal(0.0, d.cluster_std, size=(n, d.dim))
        sets.append(LabeledSet(x, y))
    return sets[0], sets[1]


def _make_spirals(d: Spirals) -> tuple[LabeledSet, LabeledSet]:
    rng = np.random.default_rng(d.seed)
    sets = []
    for n in (d.n_train, d.n_test):
        y = _balanced_labels(n, d.classes, rng)
        t = rng.uniform(0.15, 1.0, size=n)
        theta = t * d.turns * 2.0 * np.pi + y * (2.0 * np.pi / d.classes)
        r = t
        x = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        x += rng.normal(0.0, d.noise, size=x.shape)
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


def _load_csv(d: Csv) -> tuple[LabeledSet, LabeledSet]:
    x, y = _parse_delimited(d.path, d.delimiter)
    if d.test_path is not None:
        tx, ty = _parse_delimited(d.test_path, d.delimiter)
        return LabeledSet(x, y), LabeledSet(tx, ty)
    perm = np.random.default_rng(d.seed).permutation(len(y))
    n_test = int(np.floor(d.test_fraction * len(y)))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (LabeledSet(x[train_idx], y[train_idx]),
            LabeledSet(x[test_idx], y[test_idx]))


# descriptor kind -> (its declared fields, the loader that takes them)
_KINDS = {
    "blobs": (Blobs, _make_blobs),
    "spirals": (Spirals, _make_spirals),
    "csv": (Csv, _load_csv),
}


def load_dataset(descriptor: dict) -> tuple[LabeledSet, LabeledSet]:
    """Build the (train, test) pair named by a descriptor dictionary: its
    `kind` names one of the descriptor classes above, and its other keys
    are that class's fields."""
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ValueError("dataset descriptor must be a dict with a 'kind' key")
    kind = descriptor["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown dataset kind: {kind!r}")
    cls, load = _KINDS[kind]
    doc = {k: v for k, v in descriptor.items() if k != "kind"}
    check_document(cls, doc, "dataset ")
    train, test = load(cls(**doc))
    if len(train) == 0 or len(test) == 0:
        raise ValueError("both train and test splits must be non-empty")
    classes = int(max(train.y.max(), test.y.max())) + 1
    if classes < 2:
        raise ValueError("need at least two classes")
    return _standardize(train, test)
