"""Experiment configuration: a JSON document that round-trips losslessly.

The document mirrors RunConfig and adds the dataset descriptor, the target
architecture, and output plumbing. Unknown keys are rejected so typos fail
fast; serialize(parse(text)) is a fixed point.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import MISSING, field, fields, make_dataclass

from .models import TargetSpec
from .orchestrator import RunConfig
from .sparse import ALL_PAIRS, StrategyPair

DEFAULT_PAIR_TAGS = tuple(p.tag() for p in ALL_PAIRS)


def _document_fields() -> list:
    """RunConfig's fields as the document spells them (`target` as a JSON
    object, `pairs` as strategy tags), plus the dataset descriptor and the
    output directory. The required fields come out as omega, dataset,
    target: the order in which a missing one is reported."""
    out = []
    for f in fields(RunConfig):
        kind, default = f.type, f.default
        if f.name == "target":
            out.append(("dataset", dict))
            kind = dict
        elif f.name == "pairs":
            kind, default = "tuple[str, ...]", DEFAULT_PAIR_TAGS
        out.append((f.name, kind, field(default=default)))
    return out + [("out_dir", str, field(default="runs"))]


ExperimentConfig = make_dataclass("ExperimentConfig", _document_fields(),
                                  frozen=True)

# declared field type -> (accepted JSON value types, name in messages)
_JSON_TYPES = {
    "bool": ((bool,), "a boolean"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "tuple": ((list,), "a list"),
    "dict": ((dict,), "an object"),
}


def check_json_type(value, kind: str, what: str) -> None:
    accepted, noun = _JSON_TYPES[kind]
    if (isinstance(value, bool) and bool not in accepted
            or not isinstance(value, accepted)):
        raise ValueError(f"{what} must be {noun}")


def check_document(cls, doc: dict, prefix: str = "") -> None:
    """Check a JSON object against a dataclass's fields: every key must be a
    field, every field without a default must be present, and every value
    must have the JSON type of its declared field type; the items of a
    `tuple[T, ...]` field must have T's. A bool is not a number, and a float
    is not an integer."""
    declared = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in declared:
            raise ValueError(f"unknown {prefix}field: {key}")
    for name, f in declared.items():
        if name not in doc:
            if f.default is MISSING:
                raise ValueError(f"missing {prefix}field: {name}")
            continue
        value = doc[name]
        kind = f.type if isinstance(f.type, str) else f.type.__name__
        if value is None and kind.endswith(" | None"):
            continue
        kind, _, item = (kind.removesuffix(" | None").removesuffix(", ...]")
                         .partition("["))
        check_json_type(value, kind, f"{prefix}field {name}")
        for i, v in enumerate(value if item else ()):
            check_json_type(v, item, f"{prefix}field {name}[{i}]")


def parse_config(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    check_document(ExperimentConfig, doc)
    return ExperimentConfig(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in doc.items()})


def serialize_config(config: ExperimentConfig) -> str:
    doc = {}
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def parse_pair_tag(tag: str) -> StrategyPair:
    parts = tag.split(":")
    if len(parts) != 2:
        raise ValueError(f"strategy tag must look like 'prune:grow', got {tag!r}")
    return StrategyPair(parts[0], parts[1])


def target_spec_from(doc: dict) -> TargetSpec:
    check_document(TargetSpec, doc, "target ")
    return TargetSpec(**doc)


def to_run_config(config: ExperimentConfig) -> RunConfig:
    """Translate the parsed document into the orchestrator's RunConfig."""
    values = {f.name: getattr(config, f.name) for f in fields(RunConfig)}
    values["target"] = target_spec_from(config.target)
    values["pairs"] = tuple(parse_pair_tag(t) for t in config.pairs)
    return RunConfig(**values)


def with_overrides(config: ExperimentConfig, *, seed=None, deterministic=None,
                   out_dir=None) -> ExperimentConfig:
    updates = {}
    if seed is not None:
        updates["seed"] = int(seed)
    if deterministic is not None:
        updates["deterministic"] = bool(deterministic)
    if out_dir is not None:
        updates["out_dir"] = str(out_dir)
    return dataclasses.replace(config, **updates) if updates else config
