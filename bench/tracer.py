"""Span tracer for traced benchmark repetitions.

The tracer wraps the public functions of each sparseguard layer from outside
the package. A function is patched at every module that binds it by name
(`orchestrator` imports `train_attacker` by value, `attack` imports
`adam_step`, `optim` imports `check_finite`, ...), because patching only the
defining module would miss those calls. Each call records one span (name,
start, end, parent span) in memory; `summary()` reduces the spans to
per-layer metrics and `save_spans()` writes them out once the run has ended.
`check_finite` is only counted: it runs about once per array produced, and a
span per call would cost more than the check itself.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

OPS = ("linear", "relu", "sigmoid", "softmax", "concat", "conv2d", "conv1d",
       "maxpool2", "cross_entropy", "binary_cross_entropy",
       "row_entropy_mean")

# (defining module, function, span name)
SPANNED = [
    ("sparseguard.orchestrator", "run_compression", "run_compression"),
    ("sparseguard.orchestrator", "train_phase", "train_phase"),
    ("sparseguard.orchestrator", "generate_candidates", "generate_candidates"),
    ("sparseguard.attack", "train_attacker", "train_attacker"),
    ("sparseguard.attack", "finetune_attacker", "finetune_attacker"),
    ("sparseguard.attack", "extract_examples", "extract_examples"),
    ("sparseguard.attack", "mia_accuracy", "mia_accuracy"),
    ("sparseguard.attack", "mia_gain", "mia_gain"),
    ("sparseguard.attack", "attack_outputs", "attack_outputs"),
    ("sparseguard.sparse", "sparse_update", "sparse_update"),
    ("sparseguard.metrics", "task_accuracy", "task_accuracy"),
    ("sparseguard.metrics", "training_loss", "training_loss"),
    ("sparseguard.models", "build_target", "build_target"),
    ("sparseguard.numcore.optim", "adam_step", "optim.adam_step"),
    ("sparseguard.numcore.optim", "sgd_step", "optim.sgd_step"),
    ("sparseguard.checkpoint", "save_checkpoint", "save_checkpoint"),
    ("sparseguard.report", "write_record", "write_record"),
    ("sparseguard.data", "load_dataset", "load_dataset"),
    ("sparseguard.config", "load_config", "load_config"),
] + [("sparseguard.numcore.ops", op, f"ops.{op}.fwd") for op in OPS]

COUNTED = [("sparseguard.numcore.tensor", "check_finite", "check_finite")]

# Bindings that `sparseguard run` never calls through: the imports only
# `attack-eval` and `load_checkpoint` use, the package re-export, and the
# defining modules of functions that are only ever called by value from
# elsewhere. They are wrapped like every other binding; the harness
# self-test requires every binding *not* listed here to record a call.
OFF_RUN_PATH = frozenset({
    "sparseguard.cli.attack_outputs",
    "sparseguard.cli.extract_examples",
    "sparseguard.cli.mia_accuracy",
    "sparseguard.cli.mia_gain",
    "sparseguard.cli.train_attacker",
    "sparseguard.checkpoint.build_target",
    "sparseguard.numcore.check_finite",
    "sparseguard.orchestrator.run_compression",
    "sparseguard.attack.mia_accuracy",
    "sparseguard.attack.mia_gain",
    "sparseguard.attack.finetune_attacker",
    "sparseguard.sparse.sparse_update",
    "sparseguard.metrics.task_accuracy",
    "sparseguard.metrics.training_loss",
    "sparseguard.models.build_target",
    "sparseguard.numcore.optim.adam_step",
    "sparseguard.numcore.optim.sgd_step",
    "sparseguard.checkpoint.save_checkpoint",
    "sparseguard.report.write_record",
    "sparseguard.data.load_dataset",
    "sparseguard.config.load_config",
})


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_t0: list[float] = []
        self.span_t1: list[float] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.hits: Counter = Counter()   # binding -> calls made through it
        self.sink_stamps: list[float] = []
        self.wrapped: set[str] = set()

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, fn, name: str, binding: str | None, after=None):
        name_id = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        t0s, t1s, stack, hits = self.span_t0, self.span_t1, self._stack, self.hits
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if binding is not None:
                hits[binding] += 1
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, fn, name: str, binding: str):
        counts, hits = self.counts, self.hits

        def wrapper(*args, **kwargs):
            hits[binding] += 1
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-function counters ---------------------------------------------

    def _after(self, name: str):
        counts = self.counts
        if name == "train_phase":
            def after(args, kwargs, out):
                counts["train_phase.steps"] += _arg(args, kwargs, 2,
                                                    "iterations")
        elif name == "generate_candidates":
            def after(args, kwargs, out):
                counts["candidates.proposed"] += len(
                    _arg(args, kwargs, 1, "config").pairs)
                counts["candidates.kept"] += len(out[0])
        elif name == "extract_examples":
            def after(args, kwargs, out):
                counts["extract_examples.rows"] += len(out[0]) + len(out[1])
        elif name == "save_checkpoint":
            def after(args, kwargs, out):
                counts["save_checkpoint.bytes"] += os.path.getsize(
                    _arg(args, kwargs, 0, "path"))
        else:
            return None
        return after

    def _with_sink_stamps(self, fn):
        stamps = self.sink_stamps

        def run_compression(*args, **kwargs):
            sink = kwargs.get("report_sink")
            if sink is not None:
                def stamped(report):
                    sink(report)
                    stamps.append(time.perf_counter())
                kwargs["report_sink"] = stamped
            stamps.append(time.perf_counter())
            return fn(*args, **kwargs)

        return run_compression

    # -- installation ----------------------------------------------------

    @staticmethod
    def bindings(original) -> list[tuple[object, str]]:
        """Every (module, global name) of the package bound to `original`."""
        found = []
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "sparseguard"
                                      or modname.startswith("sparseguard.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    found.append((module, attr))
        return found

    def _patch(self, owner, attr: str, replacement, binding: str) -> None:
        setattr(owner, attr, replacement)
        self.wrapped.add(binding)

    def install(self) -> None:
        """Patch every binding of every traced function, after importing the
        CLI so that every module of the package is loaded."""
        import sparseguard.cli  # noqa: F401
        from sparseguard.numcore.tensor import Tape

        for modname, fname, name in SPANNED + COUNTED:
            original = getattr(sys.modules[modname], fname)
            for module, attr in self.bindings(original):
                binding = f"{module.__name__}.{attr}"
                self._patch(module, attr,
                            self._wrapper(original, name, binding), binding)

        prefix = "sparseguard.numcore.tensor.Tape"
        self._patch(Tape, "backward", self._spanned(
            Tape.backward, "Tape.backward", f"{prefix}.backward"),
            f"{prefix}.backward")
        self._patch(Tape, "record", self._timed_backward_record(
            Tape.record, f"{prefix}.record"), f"{prefix}.record")

    def _wrapper(self, original, name: str, binding: str):
        if any(name == counted for _, _, counted in COUNTED):
            return self._counted(original, name, binding)
        wrapped = self._spanned(original, name, binding, self._after(name))
        if name == "run_compression":
            wrapped = self._with_sink_stamps(wrapped)
        return wrapped

    def _timed_backward_record(self, record, binding: str):
        """Tape.record wrapper: time each op's backward closure, keyed by the
        op that defined it (`linear.<locals>.fn` -> `linear`)."""
        hits = self.hits
        spanned = self._spanned
        bwd_names = {op: f"ops.{op}.bwd" for op in OPS}

        def record_op(tape, out, parents, backward_fn):
            hits[binding] += 1
            op = backward_fn.__qualname__.partition(".")[0]
            name = bwd_names.get(op)
            if name is not None:
                backward_fn = spanned(backward_fn, name, None)
            return record(tape, out, parents, backward_fn)

        return record_op

    # -- reduction -------------------------------------------------------

    def _arrays(self):
        return (np.asarray(self.span_name, dtype=np.int64),
                np.asarray(self.span_parent, dtype=np.int64),
                np.asarray(self.span_t0, dtype=np.float64),
                np.asarray(self.span_t1, dtype=np.float64))

    def save_spans(self, path) -> None:
        name, parent, t0, t1 = self._arrays()
        np.savez(path, names=np.asarray(self.names), name=name,
                 parent=parent, t0=t0, t1=t1)

    def summary(self) -> dict:
        """Per-layer metrics: `<name>.s`, `.calls` and, for spans that had
        child spans, `.self_s` (duration minus the time its children cover);
        forward/backward op spans become `ops.<op>.fwd_s` / `.bwd_s`."""
        name, parent, t0, t1 = self._arrays()
        n_names = len(self.names)
        dur = t1 - t0
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested],
                                 minlength=len(dur))
        has_children = np.bincount(parent[nested], minlength=len(dur)) > 0
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_total = np.bincount(name, weights=dur - child_time,
                                 minlength=n_names)
        calls = np.bincount(name, minlength=n_names)
        parented = np.bincount(name, weights=has_children, minlength=n_names)

        out: dict[str, float] = {}
        for i, label in enumerate(self.names):
            if calls[i] == 0:
                continue
            if label.startswith("ops."):
                op, kind = label.rsplit(".", 1)
                out[f"{op}.{kind}_s"] = float(total[i])
                if kind == "fwd":
                    out[f"{op}.calls"] = int(calls[i])
                continue
            out[f"{label}.s"] = float(total[i])
            out[f"{label}.calls"] = int(calls[i])
            if parented[i] > 0:
                out[f"{label}.self_s"] = float(self_total[i])

        ids = self._name_ids
        counts = self.counts
        out["train_phase.steps"] = int(counts["train_phase.steps"])
        out["train_attacker.steps"] = self._descendants(
            name, parent, ids.get("optim.adam_step"), ids.get("train_attacker"))
        if counts["candidates.proposed"]:
            out["candidates.kept_ratio"] = (counts["candidates.kept"]
                                            / counts["candidates.proposed"])
        out["extract_examples.rows"] = int(counts["extract_examples.rows"])
        if counts["candidates.kept"] and "extract_examples" in ids:
            extract = name == ids["extract_examples"]
            root = ids.get("run_compression")
            parent_names = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
            per_candidate = int(np.sum(extract & (parent_names != root)))
            out["extract_examples.calls_per_candidate"] = (
                per_candidate / counts["candidates.kept"])
        out["save_checkpoint.bytes"] = int(counts["save_checkpoint.bytes"])
        finite = int(counts["check_finite"])
        steps = out.get("optim.adam_step.calls", 0) + out.get(
            "optim.sgd_step.calls", 0)
        out["check_finite.calls"] = finite
        if steps:
            out["check_finite.calls_per_step"] = finite / steps
        gaps = np.diff(self.sink_stamps)
        if len(gaps):
            out["iteration.s"] = float(statistics.median(gaps))
        return out

    @staticmethod
    def _descendants(name, parent, child_id, ancestor_id) -> int:
        """Number of `child_id` spans with an `ancestor_id` span above them."""
        if child_id is None or ancestor_id is None:
            return 0
        found = 0
        for idx in np.flatnonzero(name == child_id):
            p = parent[idx]
            while p >= 0 and name[p] != ancestor_id:
                p = parent[p]
            found += p >= 0
        return int(found)
