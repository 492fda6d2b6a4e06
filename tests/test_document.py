"""The shared JSON document checker: keys, types, choices and finiteness."""

# the checker reads declared types as written, as every package module has them
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from sparseguard.document import (
    above,
    at_least,
    check_document,
    check_ranges,
    check_value,
    non_empty,
    one_of,
    within,
)


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


@dataclass(frozen=True)
class Ranged:
    count: int = at_least(1)
    rate: float = above(0, default=1.0)
    share: float = within(0, 1, default=0.5)
    level: float = within(0, 1, closed=True, default=1.0)
    widths: tuple[int, ...] = at_least(2, default=(2,))
    limit: float | None = at_least(0, default=None)
    name: str = non_empty(default="x")
    mode: str = one_of(("a", "b"), default="a")

    def __post_init__(self):
        check_ranges(self, "ranged ")


def test_in_range_document_builds():
    Ranged(count=1, rate=1e-9, share=0.999, level=1.0, widths=(2, 9),
           limit=0.0, name="y", mode="b")
    assert Ranged(count=3).rate == 1.0 and Ranged.limit is None


@pytest.mark.parametrize("change, message", [
    ({"count": 0}, "ranged field count must be >= 1, got 0"),
    ({"rate": 0}, "ranged field rate must be > 0, got 0"),
    ({"share": 1.0}, "ranged field share must be in (0, 1), got 1.0"),
    ({"share": 0}, "ranged field share must be in (0, 1), got 0"),
    ({"level": 1.5}, "ranged field level must be in (0, 1], got 1.5"),
    ({"level": 0.0}, "ranged field level must be in (0, 1], got 0.0"),
    ({"widths": (2, 1)}, "ranged field widths[1] must be >= 2, got 1"),
    ({"widths": [1]}, "ranged field widths[0] must be >= 2, got 1"),
    ({"limit": -0.5}, "ranged field limit must be >= 0, got -0.5"),
    ({"name": ""}, "ranged field name must not be empty"),
    ({"mode": "c"}, "ranged field mode must be one of ('a', 'b')"),
], ids=["below minimum", "at exclusive minimum", "at open end",
        "at open start", "above closed end", "at open start of half-open",
        "sequence entry", "list entry", "optional value", "empty string",
        "not a choice"])
def test_out_of_range_value_rejected(change, message):
    with pytest.raises(ValueError) as info:
        Ranged(**dict({"count": 1}, **change))
    assert str(info.value) == message


def test_declared_bounds_reach_the_document_check():
    # a choice is checked before the type, so a wrong type names the choices
    with pytest.raises(ValueError, match=r"^field mode must be one of"):
        check_document(Ranged, {"count": 1, "mode": 3})


def test_check_value_names_the_value_as_told():
    check_value(Ranged, "count", 5, "--count")
    check_value(Ranged, "limit", None, "--limit")
    with pytest.raises(ValueError) as info:
        check_value(Ranged, "count", 0, "--count")
    assert str(info.value) == "--count must be >= 1, got 0"
