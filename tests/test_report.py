"""Report stream tests: line protocol, truncation tolerance, summaries."""

import json

import pytest

from sparseguard.report import (
    CandidateScore,
    IterationReport,
    pretty_table,
    read_report,
    summary_record,
    write_record,
)
from sparseguard.sparse import StrategyPair


def record(i, tm=1.1, task=0.6, mia=0.5):
    return {
        "iteration": i,
        "selected": "magnitude:gradient",
        "cumulative_epochs": float(i * 2),
        "wall_time_s": 0.0,
        "active_weights": 100,
        "prune_rate": 0.2,
        "tau": 0.01,
        "notes": [],
        "candidates": [
            {"pair": "magnitude:gradient", "task_acc": task, "mia_acc": mia,
             "tm_score": tm, "mia_gain": -10.0},
            {"pair": "magnitude:random", "task_acc": task - 0.1,
             "mia_acc": mia, "tm_score": tm - 0.2, "mia_gain": -11.0},
        ],
    }


def test_round_trip_lines(tmp_path):
    path = tmp_path / "report.jsonl"
    with open(path, "w") as fh:
        for i in (1, 2, 3):
            write_record(fh, record(i))
    got = read_report(path)
    assert [r["iteration"] for r in got] == [1, 2, 3]
    # every line is independently parseable
    for line in path.read_text().splitlines():
        json.loads(line)


def test_truncated_final_line_dropped(tmp_path):
    path = tmp_path / "report.jsonl"
    with open(path, "w") as fh:
        write_record(fh, record(1))
        write_record(fh, record(2))
    text = path.read_text()
    path.write_text(text[:-25])  # tear the final line mid-object
    got = read_report(path)
    assert [r["iteration"] for r in got] == [1]


def test_malformed_middle_line_rejected(tmp_path):
    path = tmp_path / "report.jsonl"
    with open(path, "w") as fh:
        write_record(fh, record(1))
        fh.write("{broken\n")
        write_record(fh, record(2))
    with pytest.raises(ValueError, match="line 2"):
        read_report(path)


def test_summary_record_trajectory():
    recs = [record(1, tm=1.0), record(2, tm=1.2), record(3, tm=1.15)]
    summary = summary_record(recs)
    assert summary["summary"] is True
    assert summary["iterations"] == 3
    assert summary["tm_trajectory"] == [1.0, 1.2, 1.15]
    assert summary["final_tm_score"] == 1.15
    assert summary["final_selected"] == "magnitude:gradient"
    with pytest.raises(ValueError):
        summary_record([])


def test_pretty_table_renders():
    recs = [record(1), record(2)]
    recs.append(summary_record(recs))
    table = pretty_table(recs)
    assert "iter" in table and "tm_score" in table
    assert "magnitude:gradient" in table
    assert "summary: 2 iterations" in table


def test_as_record_flattens_strategy_pairs_to_tags():
    first = StrategyPair("magnitude", "gradient")
    second = StrategyPair("threshold", "random")
    report = IterationReport(
        iteration=2, selected=second, cumulative_epochs=4.0, wall_time_s=0.0,
        active_weights=10, prune_rate=0.2, tau=0.01, notes=("skipped",),
        candidates=(CandidateScore(first, 0.9, 0.5, 1.8, -3.0),
                    CandidateScore(second, 0.8, 0.4, 2.0, -4.0)))
    expected = {
        "iteration": 2, "selected": "threshold:random",
        "cumulative_epochs": 4.0, "wall_time_s": 0.0, "active_weights": 10,
        "prune_rate": 0.2, "tau": 0.01, "notes": ["skipped"],
        "candidates": [
            {"pair": "magnitude:gradient", "task_acc": 0.9, "mia_acc": 0.5,
             "tm_score": 1.8, "mia_gain": -3.0},
            {"pair": "threshold:random", "task_acc": 0.8, "mia_acc": 0.4,
             "tm_score": 2.0, "mia_gain": -4.0},
        ],
    }
    assert (json.dumps(report.as_record(), sort_keys=True)
            == json.dumps(expected, sort_keys=True))


@pytest.mark.parametrize("line, message", [
    ("[1]", "malformed report line 2: not a JSON object"),
    (json.dumps({k: v for k, v in record(2).items() if k != "candidates"}),
     "malformed report line 2: missing field: candidates"),
    (json.dumps(dict(record(2), tau="0.01")),
     "malformed report line 2: field tau must be a number"),
    (json.dumps({"summary": True, "iterations": 1}),
     "malformed report line 2: missing field: tm_trajectory"),
], ids=["list", "no candidates", "string tau", "short summary"])
def test_valid_json_that_is_not_a_record_rejected(tmp_path, line, message):
    path = tmp_path / "report.jsonl"
    with open(path, "w") as fh:
        write_record(fh, record(1))
        fh.write(line + "\n")
    with pytest.raises(ValueError) as info:
        read_report(path)
    assert str(info.value).startswith(message)


def test_summary_line_reads_back(tmp_path):
    path = tmp_path / "report.jsonl"
    recs = [record(1), record(2)]
    with open(path, "w") as fh:
        for rec in recs + [summary_record(recs)]:
            write_record(fh, rec)
    assert read_report(path)[-1] == summary_record(recs)
