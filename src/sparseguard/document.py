"""The one key and type checker for the JSON documents the program reads: a
config, a dataset descriptor, a checkpoint header and a report line.

Each document is declared as a dataclass; `check_document` holds a parsed
JSON object to its fields before the dataclass is built, and the dataclass's
`__post_init__` range-checks the values. This module imports nothing from
the package, so every module can use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, fields

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
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ValueError(f"{prefix}field {name} must be one of {choices}")
        kind = f.type if isinstance(f.type, str) else f.type.__name__
        if value is None and kind.endswith(" | None"):
            continue
        kind, _, item = kind.removesuffix(" | None").partition("[")
        item = item.removesuffix("]").removesuffix(", ...")
        check_json_type(value, kind, f"{prefix}field {name}")
        for i, v in enumerate(value if item else ()):
            check_json_type(v, item, f"{prefix}field {name}[{i}]")
