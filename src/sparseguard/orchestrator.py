"""The outer compress-attack-test-select loop.

One outer iteration trains the sparse model for a fixed span, refreshes the
simulated attacker against it, plans one candidate topology per prune/grow
strategy pair as a sparse update of that parent model, then builds,
fine-tunes and scores one candidate at a time (task accuracy and resistance
to an attacker copy tuned against it), and adopts the candidate with the
best trade-off. The loop runs ceil(epoch budget / epochs per iteration)
outer iterations (optionally stopping early on stagnation).
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

from .attack import (
    MODES,
    AttackSplits,
    extract_examples,
    finetune_attacker,
    mia_accuracy,
    mia_gain,
    split_for_attack,
    train_attacker,
)
from .data import LabeledSet
from .document import above, at_least, check_ranges, one_of, within
from .metrics import VARIANTS, task_accuracy, tm_score, training_loss
from .models import TargetSpec, build_attacker, build_target
from .numcore import Tape
from .numcore.optim import sgd_step
from .report import CandidateScore, IterationReport
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

    omega: float = within(0, 1, closed=True)
    target: TargetSpec
    pairs: tuple[StrategyPair, ...] = ALL_PAIRS
    inner_iterations: int = at_least(0, default=4000)
    batch_size: int = at_least(2, default=128)
    candidate_finetune_epochs: float = at_least(0, default=1.0)
    total_epochs: float = at_least(1, default=10.0)
    variant: str = one_of(VARIANTS, default="none")
    beta: float = at_least(0, default=0.1)
    lam: float = at_least(0, default=1.0)
    learning_rate: float = above(0, default=0.1)
    lr_milestones: tuple[float, ...] = (0.5, 0.75)
    lr_decay: float = within(0, 1, default=0.1)
    attacker_mode: str = one_of(MODES, default="blackbox")
    attacker_epochs_first: int = at_least(0, default=100)
    attacker_epochs_topup: int = at_least(0, default=20)
    attacker_finetune_epochs: int = at_least(0, default=5)
    attacker_learning_rate: float = above(0, default=0.001)
    prune_rate_start: float = within(0, 1, default=0.2)
    prune_rate_end: float = within(0, 1, default=0.02)
    tau: float | None = at_least(0, default=None)
    validation_fraction: float = within(0, 1, default=0.2)
    probe_size: int = at_least(1, default=512)
    early_stop: bool = False
    early_stop_delta: float = at_least(0, default=0.005)
    early_stop_patience: int = at_least(1, default=3)
    seed: int = at_least(0, default=0)
    deterministic: bool = True

    def __post_init__(self):
        check_ranges(self)
        if not isinstance(self.target, TargetSpec):
            raise ValueError("field target must be a TargetSpec")
        if not self.pairs or not all(isinstance(p, StrategyPair)
                                     for p in self.pairs):
            raise ValueError("field pairs must be non-empty StrategyPairs")
        repeated = [p.tag() for i, p in enumerate(self.pairs)
                    if p in self.pairs[:i]]
        if repeated:
            # a report names each candidate by its tag alone
            raise ValueError(f"field pairs must be distinct, but "
                             f"{repeated[0]} appears more than once")
        if self.inner_iterations == 0 and self.candidate_finetune_epochs == 0:
            raise ValueError("fields inner_iterations and "
                             "candidate_finetune_epochs must not both be 0")
        ends = (0.0, *self.lr_milestones, 1.0)  # start, milestones, end
        if any(b <= a for a, b in zip(ends, ends[1:])):
            raise ValueError("field lr_milestones must be strictly increasing "
                             "fractions in (0, 1), got "
                             f"{list(self.lr_milestones)}")


class RngTree:
    """Deterministic stream factory: spawn order defines the stream."""

    def __init__(self, seed: int):
        self._seq = np.random.SeedSequence(seed)

    def next(self) -> np.random.Generator:
        return np.random.default_rng(self._seq.spawn(1)[0])


def _steps_per_epoch(n: int, batch_size: int) -> int:
    return max(1, n // min(batch_size, n))


def finetune_steps(config: RunConfig, n: int) -> int:
    """The optimizer steps of each candidate fine-tune on `n` training rows.
    A positive `candidate_finetune_epochs` that rounds to no step is
    rejected: its epochs would be counted, but nothing would train."""
    per_epoch = _steps_per_epoch(n, config.batch_size)
    steps = int(round(config.candidate_finetune_epochs * per_epoch))
    if steps == 0 and config.candidate_finetune_epochs > 0:
        raise ValueError(
            f"candidate_finetune_epochs {config.candidate_finetune_epochs} "
            f"rounds to 0 of the {per_epoch} steps per epoch on {n} "
            f"training rows; set it to 0 or raise it")
    return steps


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
                epoch_base: float = 0.0):
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
            done += 1
    return model


def generate_candidates(model, config: RunConfig, rng: np.random.Generator,
                        *, gradients: dict, prune_rate: float, tau: float):
    """One sparse-update plan per strategy pair, with the stream its
    candidate's fine-tune draws from: ([(pair, SparseUpdate, tune stream)],
    notes). Nothing is copied or trained here; `SparseUpdate.apply` builds a
    candidate when it is scored.

    Every pair's child seed is drawn before the first tune stream, and only
    surviving pairs draw a tune stream, so a discarded pair shifts no other
    stream. Degenerate updates (a threshold that would wipe a layer) are
    discarded with a note; at least one candidate must survive.
    """
    planned, notes = [], []
    for pair in config.pairs:
        child = np.random.default_rng(rng.integers(2 ** 63))
        try:
            update = sparse_update(model, pair, prune_rate, tau, gradients,
                                   child)
        except DegenerateUpdateError as exc:
            notes.append(f"{pair.tag()} discarded: {exc}")
            continue
        planned.append((pair, update))
    if not planned:
        raise RuntimeError("every candidate was degenerate; no candidate "
                           "survived the sparse update")
    return [(pair, update, np.random.default_rng(rng.integers(2 ** 63)))
            for pair, update in planned], notes


def rank(score: CandidateScore) -> tuple:
    """Selection order, lowest first: highest TM-score; ties prefer lower
    attack accuracy, then the fixed strategy order (magnitude before
    threshold, gradient before random)."""
    return (-score.tm_score, score.mia_acc, score.pair.prune, score.pair.grow)


def _probe_gradients(model, probe_x, probe_y, config: RunConfig) -> dict:
    """The dense loss gradient of each masked layer's weight, keyed by layer
    index. The model keeps no gradient afterwards, so the deep copies the
    sparse update makes do not carry one."""
    with Tape() as tape:
        probs = model(probe_x)
        loss = training_loss(probs, probe_y, config.variant, config.beta)
    tape.backward(loss)
    gradients = {k: layer.w.grad
                 for k, layer in enumerate(model.masked_layers())}
    for p in model.params():
        p.grad = None
    return gradients


def _pooled_tau(model, prune_rate: float) -> float:
    mags = [np.abs(l.w.data.reshape(-1)[l.mask.reshape(-1)])
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
    """Reject a dataset whose width or labels do not fit the target, or
    whose splits are too small to halve into known and unknown rows."""
    train_set, test_set = datasets
    if min(len(train_set), len(test_set)) < 2:
        raise ValueError(
            f"each split needs at least 2 rows to halve, got "
            f"{len(train_set)} training and {len(test_set)} test rows")
    if train_set.x.shape[1] != target.input_width:
        raise ValueError(
            f"dataset has {train_set.x.shape[1]} features but the target "
            f"expects {target.input_width}")
    if int(max(train_set.y.max(), test_set.y.max())) >= target.classes:
        raise ValueError("dataset labels exceed the target class count")


@dataclass(frozen=True)
class _Run:
    """What every outer iteration of one run reads and none changes."""

    config: RunConfig
    train_set: LabeledSet
    splits: AttackSplits
    val_set: LabeledSet
    probe_x: np.ndarray
    probe_y: np.ndarray
    seq: RngTree
    planned: int
    finetune_steps: int
    span_epochs: float
    per_iteration_epochs: float
    initial_active: int


def _run_iteration(run: _Run, iteration: int, model, attacker, tau,
                   cumulative: float):
    """One outer iteration; returns (adopted model, its tuned attacker, tau,
    IterationReport). Everything else the iteration builds (the candidates,
    attack examples, probe gradients and scores) is freed when it returns,
    before the next iteration builds its own.

    The candidates are planned on the parent as sparse updates, and the
    probe gradients are dropped once they are. Then each candidate in turn
    is built, fine-tuned, given a tuned attacker copy, scored and dropped,
    so at most two target models (the parent and the one being scored) and
    two attacker states are alive at once. For the leading candidate the
    loop keeps its score, its update and copies of its tune and job streams
    taken before use. After the loop the leader's update is applied to the
    parent and its fine-tune replayed, and the parent attacker is trained
    in place on the adopted model's known pair with the job stream: the same
    starts and streams give the leader's model and attacker bit for bit, at
    the cost of one more target and attacker fine-tune."""
    config, seq = run.config, run.seq
    started = time.perf_counter()

    train_phase(model, run.train_set, config.inner_iterations, config,
                seq.next(), epoch_base=cumulative)
    gradients = _probe_gradients(model, run.probe_x, run.probe_y, config)
    rate = prune_rate_at(iteration - 1, run.planned, config.prune_rate_start,
                         config.prune_rate_end)
    if tau is None:
        tau = _pooled_tau(model, rate)

    examples = extract_examples(model, run.splits, config.attacker_mode)[0]
    if attacker is None:
        attacker = build_attacker(config.attacker_mode, model, seq.next())
        epochs = config.attacker_epochs_first
    else:
        epochs = config.attacker_epochs_topup
    train_attacker(attacker, examples, epochs=epochs, rng=seq.next(),
                   learning_rate=config.attacker_learning_rate)
    del examples

    candidates, notes = generate_candidates(
        model, config, seq.next(), gradients=gradients,
        prune_rate=rate, tau=tau)
    del gradients
    job_rngs = [seq.next() for _ in candidates]
    epoch_base = cumulative + run.span_epochs

    def fine_tuned(cand, stream):
        return train_phase(cand, run.train_set, run.finetune_steps, config,
                           stream, epoch_base=epoch_base)

    scores, leader = [], None
    for (pair, update, tune), job in zip(candidates, job_rngs):
        replay = (copy.deepcopy(tune), copy.deepcopy(job))
        cand = fine_tuned(update.apply(model), tune)
        tuned = finetune_attacker(
            attacker, cand, run.splits, config.attacker_finetune_epochs,
            rng=job, learning_rate=config.attacker_learning_rate)
        task = task_accuracy(cand, run.val_set)
        mia = mia_accuracy(tuned, cand, run.splits)
        gain = mia_gain(tuned, cand, run.splits)
        tm = tm_score(task, max(mia, 1e-6), config.lam)
        scores.append(CandidateScore(pair, task, mia, tm, gain))
        if leader is None or rank(scores[-1]) < rank(leader[0]):
            leader = (scores[-1], update, *replay)
        del cand, tuned

    best, update, tune, job = leader
    model = fine_tuned(update.apply(model), tune)
    if config.attacker_finetune_epochs:
        known = extract_examples(model, run.splits, config.attacker_mode)[0]
        train_attacker(attacker, known,
                       epochs=config.attacker_finetune_epochs, rng=job,
                       learning_rate=config.attacker_learning_rate)
    if active_count(model) != run.initial_active:
        raise RuntimeError("active-weight count drifted during the "
                           "sparse update; invariant violated")

    wall = 0.0 if config.deterministic else time.perf_counter() - started
    report = IterationReport(
        iteration=iteration, candidates=tuple(scores),
        selected=best.pair,
        cumulative_epochs=cumulative + run.per_iteration_epochs,
        wall_time_s=wall, active_weights=run.initial_active,
        prune_rate=rate, tau=tau, notes=tuple(notes))
    return model, attacker, tau, report


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

    n = len(train_set)
    span_epochs = config.inner_iterations / _steps_per_epoch(
        n, config.batch_size)
    per_iteration_epochs = span_epochs + config.candidate_finetune_epochs
    probe = min(config.probe_size, n)
    run = _Run(
        config=config, train_set=train_set, splits=splits, val_set=val_set,
        probe_x=train_set.x[:probe], probe_y=train_set.y[:probe], seq=seq,
        planned=max(1, math.ceil(config.total_epochs / per_iteration_epochs)),
        finetune_steps=finetune_steps(config, n),
        span_epochs=span_epochs, per_iteration_epochs=per_iteration_epochs,
        initial_active=active_count(model))

    attacker = None
    tau = config.tau
    cumulative = 0.0
    reports: list[IterationReport] = []
    best_tm = -math.inf
    stall = 0
    for iteration in range(1, run.planned + 1):
        model, attacker, tau, report = _run_iteration(
            run, iteration, model, attacker, tau, cumulative)
        cumulative = report.cumulative_epochs
        reports.append(report)
        if report_sink is not None:
            report_sink(report)
        if iteration_callback is not None:
            iteration_callback(report, model)

        best_this = max(s.tm_score for s in report.candidates)
        if best_this >= best_tm + config.early_stop_delta:
            stall = 0
        else:
            stall += 1
        best_tm = max(best_tm, best_this)
        if config.early_stop and stall >= config.early_stop_patience:
            break
    return model, reports
