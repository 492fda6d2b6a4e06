"""Report stream: one JSON object per line, crash-safe, append-only.

A run writes one line per outer iteration (`IterationReport.as_record`) plus
a final summary line (`Summary`) carrying the TM-score trajectory. Reading
checks every line against its declared record (`document.check_document`)
and tolerates a truncated final line (a crash mid-write loses at most that
line), but rejects corruption anywhere else.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .document import check_document
from .sparse import StrategyPair


@dataclass(frozen=True)
class CandidateScore:
    pair: StrategyPair
    task_acc: float
    mia_acc: float
    tm_score: float
    mia_gain: float


@dataclass(frozen=True)
class IterationReport:
    iteration: int
    candidates: tuple
    selected: StrategyPair
    cumulative_epochs: float
    wall_time_s: float
    active_weights: int
    prune_rate: float
    tau: float
    notes: tuple = ()

    def as_record(self) -> dict:
        """Plain-JSON form: strategy pairs flattened to their tags."""
        record = asdict(self)
        record["selected"] = self.selected.tag()
        for cand, score in zip(record["candidates"], self.candidates):
            cand["pair"] = score.pair.tag()
        return record


@dataclass(frozen=True)
class Summary:
    summary: bool
    iterations: int
    tm_trajectory: list[float]
    final_selected: str
    final_task_acc: float
    final_mia_acc: float
    final_tm_score: float
    total_epochs: float


def write_record(fh, record: dict) -> None:
    fh.write(json.dumps(record, sort_keys=True) + "\n")
    fh.flush()


def read_report(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    records = []
    last = len(lines) - 1
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i == last:
                break  # torn final line from an interrupted write
            raise ValueError(f"malformed report line {i + 1}") from None
        try:
            _check_record(record)
        except ValueError as exc:
            raise ValueError(f"malformed report line {i + 1}: {exc}") from None
        records.append(record)
    return records


def _check_record(record) -> None:
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    if record.get("summary"):
        check_document(Summary, record)
        return
    check_document(IterationReport, record)
    for i, cand in enumerate(record["candidates"]):
        if not isinstance(cand, dict):
            raise ValueError(f"field candidates[{i}] must be an object")
        check_document(CandidateScore, cand, f"candidates[{i}] ")


def _selected_scores(record: dict) -> dict:
    chosen = [c for c in record["candidates"]
              if c["pair"] == record["selected"]]
    where = f"report line {record.get('iteration')}: selected pair"
    if not chosen:
        raise ValueError(f"{where} missing from candidates")
    if len(chosen) > 1:  # a run never writes one; candidates are distinct
        raise ValueError(f"{where} {record['selected']} names "
                         f"{len(chosen)} candidates")
    return chosen[0]


def summary_record(records: list[dict]) -> dict:
    """Final line: the adopted candidate's trajectory and end-state scores,
    from the iteration records."""
    if not records:
        raise ValueError("cannot summarize an empty report trail")
    chosen = [_selected_scores(r) for r in records]
    final = chosen[-1]
    return asdict(Summary(
        summary=True, iterations=len(records),
        tm_trajectory=[c["tm_score"] for c in chosen],
        final_selected=records[-1]["selected"],
        final_task_acc=final["task_acc"], final_mia_acc=final["mia_acc"],
        final_tm_score=final["tm_score"],
        total_epochs=records[-1]["cumulative_epochs"]))


def pretty_table(records: list[dict]) -> str:
    """Human-readable view of a report stream for the CLI."""
    lines = []
    header = (f"{'iter':>4}  {'selected':<20} {'task_acc':>8} {'mia_acc':>8} "
              f"{'tm_score':>8} {'epochs':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for rec in records:
        if rec.get("summary"):
            lines.append("-" * len(header))
            lines.append(
                f"summary: {rec['iterations']} iterations, "
                f"final tm_score {rec['final_tm_score']:.4f} "
                f"(task {rec['final_task_acc']:.4f}, "
                f"mia {rec['final_mia_acc']:.4f}) via {rec['final_selected']}")
            continue
        sel = _selected_scores(rec)
        lines.append(
            f"{rec['iteration']:>4}  {rec['selected']:<20} "
            f"{sel['task_acc']:>8.4f} {sel['mia_acc']:>8.4f} "
            f"{sel['tm_score']:>8.4f} {rec['cumulative_epochs']:>8.2f}")
    return "\n".join(lines)
