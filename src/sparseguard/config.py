"""Experiment configuration: a JSON document parsed straight into RunConfig.

The document holds RunConfig's fields, with `target` as a JSON object and
`pairs` as a list of "prune:grow" tags, plus two keys of its own: the
dataset descriptor `dataset` (required) and the output directory `out_dir`
(default "runs"). Unknown keys are rejected so typos fail fast, every value
must have its field's JSON type (`document.check_document`), and every
value must lie in the range its field declares.
"""

from __future__ import annotations

import json

from .document import check_document, check_json_type
from .models import TargetSpec
from .orchestrator import RunConfig
from .sparse import StrategyPair


def parse_config(text: str) -> tuple[RunConfig, dict, str]:
    """The run settings, the dataset descriptor and the output directory
    that a config document names."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    settings = {k: v for k, v in doc.items() if k not in ("dataset", "out_dir")}
    check_document(RunConfig, settings)
    if "dataset" not in doc:
        raise ValueError("missing field: dataset")
    check_json_type(doc["dataset"], "dict", "field dataset")
    out_dir = doc.get("out_dir", "runs")
    check_json_type(out_dir, "str", "field out_dir")
    settings = {k: tuple(v) if isinstance(v, list) else v
                for k, v in settings.items()}
    settings["target"] = target_spec_from(settings["target"])
    if "pairs" in settings:
        settings["pairs"] = tuple(parse_pair_tag(t) for t in settings["pairs"])
    return RunConfig(**settings), doc["dataset"], out_dir


def load_config(path: str) -> tuple[RunConfig, dict, str]:
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
