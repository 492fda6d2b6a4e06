"""The one checker for the JSON documents the program reads: a config, a
dataset descriptor, a checkpoint header and a report line.

Each document is declared as a dataclass. `check_document` holds a parsed
JSON object to its fields' keys and types before the dataclass is built.
Each field declares its range once, by `one_of`, `at_least`, `above`,
`within` or `non_empty`, and the dataclass's `__post_init__` enforces them
all with `check_ranges`. This module imports nothing from the package, so
every module can use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, field, fields

# declared field type -> (accepted value types, name in messages); numpy
# scalars pass as numbers, as a caller-built document may hold them
_JSON_TYPES = {
    "bool": ((bool,), "a boolean"),
    "int": ((numbers.Integral,), "an integer"),
    "float": ((numbers.Real,), "a number"),
    "str": ((str,), "a string"),
    "list": ((list,), "a list"),
    "tuple": ((list,), "a list"),
    "dict": ((dict,), "an object"),
    "TargetSpec": ((dict,), "an object"),
    "StrategyPair": ((str,), "a string"),
}


def check_json_type(value, kind: str, what: str) -> None:
    """Raise unless value has the JSON type of a field declared as kind. A
    bool is not a number, a float is not an integer, and a number field
    must be finite (Python's json reads NaN and Infinity)."""
    accepted, noun = _JSON_TYPES[kind]
    if (isinstance(value, bool) and bool not in accepted
            or not isinstance(value, accepted)):
        raise ValueError(f"{what} must be {noun}")
    # NaN fails both comparisons; an integer of any size passes
    if kind == "float" and not -math.inf < value < math.inf:
        raise ValueError(f"{what} must be finite")


def check_document(cls, doc: dict, prefix: str = "") -> None:
    """Check a JSON object against a dataclass's fields: every key must be a
    field, every field without a default must be present, a field whose
    metadata lists `choices` must hold one of them, and every value must
    have the JSON type of its declared field type; the items of a
    `tuple[T, ...]` or `list[T]` field must have T's."""
    declared = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in declared:
            raise ValueError(f"unknown {prefix}field: {key}")
    for name, f in declared.items():
        if name not in doc:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"missing {prefix}field: {name}")
            continue
        value = doc[name]
        if "choices" in f.metadata:  # a declared choice has the field's type
            check_value(cls, name, value, f"{prefix}field {name}")
            continue
        kind = f.type if isinstance(f.type, str) else f.type.__name__
        if value is None and kind.endswith(" | None"):
            continue
        kind, _, item = kind.removesuffix(" | None").partition("[")
        item = item.removesuffix("]").removesuffix(", ...")
        check_json_type(value, kind, f"{prefix}field {name}")
        for i, v in enumerate(value if item else ()):
            check_json_type(v, item, f"{prefix}field {name}[{i}]")


def one_of(choices: tuple, **kw):
    """A dataclass field that must hold one of `choices`. This and the
    bounds below pass `kw`, such as a default, to `dataclasses.field`."""
    return field(metadata={"choices": choices}, **kw)


def at_least(low, **kw):
    return _bounded(f"be >= {low}", lambda v: v >= low, kw)


def above(low, **kw):
    return _bounded(f"be > {low}", lambda v: v > low, kw)


def within(low, high, *, closed: bool = False, **kw):  # (low, high] if closed
    return _bounded(f"be in ({low}, {high}{']' if closed else ')'}",
                    lambda v: low < v < high or closed and v == high, kw)


def non_empty(**kw):
    return field(metadata={"bound": ("not be empty", bool)}, **kw)


def _bounded(requirement: str, holds, kw):
    return field(metadata={"bound": (requirement + ", got {}", holds)}, **kw)


def check_ranges(doc, prefix: str = "") -> None:
    """Raise unless each field of a built document holds one of its `choices`
    and meets its bound: in every entry of a tuple or list, unless None."""
    for f in fields(doc):
        check_value(type(doc), f.name, getattr(doc, f.name),
                    f"{prefix}field {f.name}")


def check_value(cls, name: str, value, what: str) -> None:
    """Hold one value (say, a command-line override) to a field's range."""
    f = cls.__dataclass_fields__[name]
    choices = f.metadata.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"{what} must be one of {choices}")
    requirement, holds = f.metadata.get("bound", (None, None))
    if holds is None or value is None:
        return
    many = isinstance(value, (tuple, list))
    for i, v in enumerate(value if many else [value]):
        if not holds(v):
            name = f"{what}[{i}]" if many else what
            raise ValueError(f"{name} must {requirement.format(v)}")
