"""The outer compress-attack-test-select loop.

One outer iteration trains the sparse model for a fixed span, proposes one
candidate topology per prune/grow strategy pair, refreshes the simulated
attacker against the parent model, fine-tunes an attacker copy per candidate,
scores every candidate on task accuracy and attack resistance, and adopts the
candidate with the best trade-off. The loop runs ceil(epoch budget / epochs
per iteration) outer iterations (optionally stopping early on stagnation).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .attack import (
    MODES,
    extract_examples,
    finetune_attacker,
    mia_accuracy,
    mia_gain,
    split_for_attack,
    train_attacker,
)
from .data import LabeledSet
from .metrics import VARIANTS, task_accuracy, tm_score, training_loss
from .models import TargetSpec, build_attacker, build_target
from .numcore import Tape
from .numcore.optim import sgd_step
from .sparse import (
    ALL_PAIRS,
    DegenerateUpdateError,
    StrategyPair,
    active_count,
    prune_rate_at,
    sparse_update,
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one compression run needs besides the datasets."""

    omega: float
    target: TargetSpec
    pairs: tuple = ALL_PAIRS
    inner_iterations: int = 4000
    batch_size: int = 128
    candidate_finetune_epochs: float = 1.0
    total_epochs: float = 10.0
    variant: str = "none"
    beta: float = 0.1
    lam: float = 1.0
    learning_rate: float = 0.1
    lr_milestones: tuple[float, ...] = (0.5, 0.75)
    lr_decay: float = 0.1
    attacker_mode: str = "blackbox"
    attacker_epochs_first: int = 100
    attacker_epochs_topup: int = 20
    attacker_finetune_epochs: int = 5
    attacker_learning_rate: float = 0.001
    prune_rate_start: float = 0.2
    prune_rate_end: float = 0.02
    tau: float | None = None
    validation_fraction: float = 0.2
    probe_size: int = 512
    early_stop: bool = False
    early_stop_delta: float = 0.005
    early_stop_patience: int = 3
    seed: int = 0
    deterministic: bool = True

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(f"omega must be in (0, 1], got {self.omega}")
        if not self.pairs:
            raise ValueError("strategy set must be non-empty")
        if self.total_epochs < 1.0:
            raise ValueError("total epoch budget must be >= 1")
        if self.inner_iterations < 0:
            raise ValueError("inner iteration count must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")
        if self.candidate_finetune_epochs < 0:
            raise ValueError("candidate fine-tune epochs must be >= 0")
        if self.inner_iterations == 0 and self.candidate_finetune_epochs == 0:
            raise ValueError("an outer iteration must consume some budget")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got "
                             f"{self.learning_rate}")
        if not 0.0 < self.lr_decay < 1.0:
            raise ValueError(f"lr_decay must be in (0, 1), got {self.lr_decay}")
        fractions = self.lr_milestones
        if (any(not 0.0 < f < 1.0 for f in fractions)
                or any(b <= a for a, b in zip(fractions, fractions[1:]))):
            raise ValueError(f"lr_milestones must be strictly increasing "
                             f"fractions in (0, 1), got {list(fractions)}")
        if self.attacker_learning_rate <= 0:
            raise ValueError(f"attacker_learning_rate must be > 0, got "
                             f"{self.attacker_learning_rate}")
        for name in ("attacker_epochs_first", "attacker_epochs_topup",
                     "attacker_finetune_epochs", "lam"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.tau is not None and self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        for name in ("prune_rate_start", "prune_rate_end"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.probe_size < 1:
            raise ValueError(f"probe_size must be >= 1, got {self.probe_size}")
        if self.attacker_mode not in MODES:
            raise ValueError(f"attacker mode must be one of {MODES}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation fraction must be in (0, 1)")
        if not isinstance(self.target, TargetSpec):
            raise ValueError("target must be a TargetSpec")
        for p in self.pairs:
            if not isinstance(p, StrategyPair):
                raise ValueError("pairs must contain StrategyPair entries")


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
        return {
            "iteration": self.iteration,
            "selected": self.selected.tag(),
            "cumulative_epochs": self.cumulative_epochs,
            "wall_time_s": self.wall_time_s,
            "active_weights": self.active_weights,
            "prune_rate": self.prune_rate,
            "tau": self.tau,
            "notes": list(self.notes),
            "candidates": [
                {
                    "pair": c.pair.tag(),
                    "task_acc": c.task_acc,
                    "mia_acc": c.mia_acc,
                    "tm_score": c.tm_score,
                    "mia_gain": c.mia_gain,
                }
                for c in self.candidates
            ],
        }


class RngTree:
    """Deterministic stream factory: spawn order defines the stream."""

    def __init__(self, seed: int):
        self._seq = np.random.SeedSequence(seed)

    def next(self) -> np.random.Generator:
        return np.random.default_rng(self._seq.spawn(1)[0])


def _steps_per_epoch(n: int, batch_size: int) -> int:
    return max(1, n // min(batch_size, n))


def learning_rate_at(config: RunConfig, epoch: int) -> float:
    """Step decay: `learning_rate` times `lr_decay` once per distinct
    milestone epoch `floor(fraction * total_epochs)` in [1, epoch]. Small
    budgets can floor two fractions to one epoch (one decay) or a fraction
    to epoch 0 (no decay)."""
    passed = {m for f in config.lr_milestones
              if 1 <= (m := math.floor(f * config.total_epochs)) <= epoch}
    return config.learning_rate * config.lr_decay ** len(passed)


def train_phase(model, train_data: LabeledSet, iterations: int,
                config: RunConfig, rng: np.random.Generator, *,
                epoch_base: float = 0.0, loss_trace: list | None = None):
    """Run `iterations` optimizer steps of the configured loss and rate
    schedule, `epoch_base` epochs into the run, over shuffled full batches;
    the model's masks gate every update."""
    n = len(train_data)
    bs = min(config.batch_size, n)
    steps_per_epoch = _steps_per_epoch(n, bs)
    params = model.params()
    done = 0
    while done < iterations:
        perm = rng.permutation(n)
        for b in range(steps_per_epoch):
            if done >= iterations:
                break
            rows = perm[b * bs:(b + 1) * bs]
            lr = learning_rate_at(config,
                                  int(epoch_base + done / steps_per_epoch))
            with Tape() as tape:
                probs = model(train_data.x[rows])
                loss = training_loss(probs, train_data.y[rows],
                                     config.variant, config.beta)
            tape.backward(loss)
            sgd_step(params, lr)
            if loss_trace is not None:
                loss_trace.append(float(loss.data))
            done += 1
    return model


def generate_candidates(model, config: RunConfig, rng: np.random.Generator,
                        *, gradients: dict, prune_rate: float, tau: float,
                        train_data: LabeledSet, epoch_base: float = 0.0):
    """One fine-tuned deep-copied candidate per strategy pair.

    Degenerate updates (a threshold that would wipe a layer) are discarded
    with a note; at least one candidate must survive.
    """
    steps = int(round(config.candidate_finetune_epochs
                      * _steps_per_epoch(len(train_data), config.batch_size)))
    updated, notes = [], []
    for pair in config.pairs:
        child = np.random.default_rng(rng.integers(2 ** 63))
        try:
            cand = sparse_update(model, pair, prune_rate, tau, gradients, child)
        except DegenerateUpdateError as exc:
            notes.append(f"{pair.tag()} discarded: {exc}")
            continue
        updated.append((pair, cand))
    if not updated:
        raise RuntimeError("every candidate was degenerate; no candidate "
                           "survived the sparse update")
    tune_rngs = [np.random.default_rng(rng.integers(2 ** 63)) for _ in updated]
    for (_, cand), stream in zip(updated, tune_rngs):
        train_phase(cand, train_data, steps, config, stream,
                    epoch_base=epoch_base)
    return updated, notes


def select_best(scores: list) -> StrategyPair:
    """Highest TM-score wins; ties prefer lower attack accuracy, then the
    fixed strategy order (magnitude before threshold, gradient before
    random)."""
    if not scores:
        raise ValueError("no candidate scores to select from")
    ranked = min(scores, key=lambda s: (-s.tm_score, s.mia_acc,
                                        s.pair.prune, s.pair.grow))
    return ranked.pair


def _probe_gradients(model, probe_x, probe_y, config: RunConfig) -> dict:
    with Tape() as tape:
        probs = model(probe_x)
        loss = training_loss(probs, probe_y, config.variant, config.beta)
    tape.backward(loss)
    return {k: layer.w.grad for k, layer in enumerate(model.masked_layers())}


def _pooled_tau(model, prune_rate: float) -> float:
    mags = [np.abs(l.w.data.reshape(-1)[l.mask.reshape(-1) == 1.0])
            for l in model.masked_layers()]
    pooled = np.concatenate(mags)
    return float(np.quantile(pooled, prune_rate))


def _validation_slice(known_test: LabeledSet, fraction: float,
                      rng: np.random.Generator) -> LabeledSet:
    k = max(1, int(round(fraction * len(known_test))))
    rows = rng.permutation(len(known_test))[:k]
    return LabeledSet(known_test.x[rows], known_test.y[rows])


def check_dataset_fits(target: TargetSpec,
                       datasets: tuple[LabeledSet, LabeledSet]) -> None:
    """Reject a dataset whose width or labels do not fit the target."""
    train_set, test_set = datasets
    if train_set.x.shape[1] != target.input_width:
        raise ValueError(
            f"dataset has {train_set.x.shape[1]} features but the target "
            f"expects {target.input_width}")
    if int(max(train_set.y.max(), test_set.y.max())) >= target.classes:
        raise ValueError("dataset labels exceed the target class count")


def run_compression(config: RunConfig,
                    datasets: tuple[LabeledSet, LabeledSet],
                    report_sink=None, iteration_callback=None):
    """Run the full loop; returns (final model, list of IterationReport).

    `report_sink`, when given, receives each IterationReport right after its
    iteration completes, so a crashed run still leaves the trail emitted so
    far. `iteration_callback(report, model)` additionally sees the adopted
    model, for per-iteration persistence.
    """
    check_dataset_fits(config.target, datasets)
    train_set, test_set = datasets

    seq = RngTree(config.seed)
    rng_split, rng_val, rng_init = seq.next(), seq.next(), seq.next()
    splits = split_for_attack(train_set, test_set, rng_split)
    val_set = _validation_slice(splits.known_test, config.validation_fraction,
                                rng_val)
    model = build_target(config.target, config.omega, rng_init)
    initial_active = active_count(model)

    n = len(train_set)
    steps_per_epoch = _steps_per_epoch(n, config.batch_size)
    span_epochs = config.inner_iterations / steps_per_epoch
    per_iteration_epochs = span_epochs + config.candidate_finetune_epochs
    planned = max(1, math.ceil(config.total_epochs / per_iteration_epochs))
    probe = min(config.probe_size, n)
    probe_x, probe_y = train_set.x[:probe], train_set.y[:probe]

    attacker = None
    tau = config.tau
    cumulative = 0.0
    reports: list[IterationReport] = []
    best_tm = -math.inf
    stall = 0
    for iteration in range(1, planned + 1):
        started = time.perf_counter()

        train_phase(model, train_set, config.inner_iterations, config,
                    seq.next(), epoch_base=cumulative)
        gradients = _probe_gradients(model, probe_x, probe_y, config)
        rate = prune_rate_at(iteration - 1, planned,
                             config.prune_rate_start,
                             config.prune_rate_end)
        if tau is None:
            tau = _pooled_tau(model, rate)

        examples, _ = extract_examples(model, splits, config.attacker_mode)
        if attacker is None:
            attacker = build_attacker(config.attacker_mode, model, seq.next())
            epochs = config.attacker_epochs_first
        else:
            epochs = config.attacker_epochs_topup
        train_attacker(attacker, examples, epochs=epochs, rng=seq.next(),
                       learning_rate=config.attacker_learning_rate)

        candidates, notes = generate_candidates(
            model, config, seq.next(), gradients=gradients,
            prune_rate=rate, tau=tau, train_data=train_set,
            epoch_base=cumulative + span_epochs)
        job_rngs = [seq.next() for _ in candidates]

        scores, tuned_attackers = [], []
        for (pair, cand), stream in zip(candidates, job_rngs):
            tuned = finetune_attacker(attacker, cand, splits,
                                      config.attacker_finetune_epochs,
                                      rng=stream,
                                      learning_rate=config.attacker_learning_rate)
            task = task_accuracy(cand, val_set)
            mia = mia_accuracy(tuned, cand, splits)
            gain = mia_gain(tuned, cand, splits)
            tm = tm_score(task, max(mia, 1e-6), config.lam)
            scores.append(CandidateScore(pair, task, mia, tm, gain))
            tuned_attackers.append(tuned)

        selected = select_best(scores)
        chosen = next(i for i, s in enumerate(scores) if s.pair == selected)
        model = candidates[chosen][1]
        attacker = tuned_attackers[chosen]
        if active_count(model) != initial_active:
            raise RuntimeError("active-weight count drifted during the "
                               "sparse update; invariant violated")

        cumulative += per_iteration_epochs
        wall = 0.0 if config.deterministic else (time.perf_counter()
                                                 - started)
        report = IterationReport(
            iteration=iteration, candidates=tuple(scores),
            selected=selected, cumulative_epochs=cumulative,
            wall_time_s=wall, active_weights=initial_active,
            prune_rate=rate, tau=tau, notes=tuple(notes))
        reports.append(report)
        if report_sink is not None:
            report_sink(report)
        if iteration_callback is not None:
            iteration_callback(report, model)

        best_this = max(s.tm_score for s in scores)
        if best_this >= best_tm + config.early_stop_delta:
            stall = 0
        else:
            stall += 1
        best_tm = max(best_tm, best_this)
        if config.early_stop and stall >= config.early_stop_patience:
            break
    return model, reports
