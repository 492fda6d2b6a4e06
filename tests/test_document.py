"""The shared JSON document checker: keys, types, choices and finiteness."""

# the checker reads declared types as written, as every package module has them
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from sparseguard.document import check_document


@dataclass
class Doc:
    count: int
    rate: float
    mode: str = field(default="a", metadata={"choices": ("a", "b")})
    widths: tuple[int, ...] = ()
    scores: list[float] = field(default_factory=list)
    limit: float | None = None


def test_valid_document_passes():
    check_document(Doc, {"count": 3, "rate": 2, "mode": "b",
                         "widths": [1, 2], "scores": [0.5], "limit": None})


def test_numpy_scalars_pass_as_numbers():
    check_document(Doc, {"count": np.int64(3), "rate": np.float32(0.5),
                         "widths": [np.int32(2)]})


@pytest.mark.parametrize("doc, message", [
    ({"rate": 1.0}, "missing field: count"),
    ({"count": 1, "rate": 1.0, "cuont": 1}, "unknown field: cuont"),
    ({"count": True, "rate": 1.0}, "field count must be an integer"),
    ({"count": np.True_, "rate": 1.0}, "field count must be an integer"),
    ({"count": 1.0, "rate": 1.0}, "field count must be an integer"),
    ({"count": 1, "rate": False}, "field rate must be a number"),
    ({"count": 1, "rate": float("nan")}, "field rate must be finite"),
    ({"count": 1, "rate": float("-inf")}, "field rate must be finite"),
    ({"count": 1, "rate": np.float64("inf")}, "field rate must be finite"),
    ({"count": 1, "rate": 1.0, "limit": float("inf")},
     "field limit must be finite"),
    ({"count": 1, "rate": 1.0, "scores": [1.0, float("nan")]},
     "field scores[1] must be finite"),
    ({"count": 1, "rate": 1.0, "widths": [1.5]},
     "field widths[0] must be an integer"),
    ({"count": 1, "rate": 1.0, "mode": "c"},
     "field mode must be one of ('a', 'b')"),
    ({"count": 1, "rate": 1.0, "mode": None},
     "field mode must be one of ('a', 'b')"),
], ids=["missing", "unknown", "bool integer", "numpy bool integer",
        "float integer", "bool number", "nan", "negative infinity",
        "numpy infinity", "infinite optional", "nan list item",
        "float tuple item", "not a choice", "null choice"])
def test_document_not_as_declared_rejected(doc, message):
    with pytest.raises(ValueError) as info:
        check_document(Doc, doc)
    assert str(info.value) == message


def test_huge_integer_in_a_number_field_is_finite():
    check_document(Doc, {"count": 1, "rate": 10 ** 400})
