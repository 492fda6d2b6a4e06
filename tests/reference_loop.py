"""A plain form of `orchestrator.run_compression`, for differential tests.

Each outer iteration trains the target, tops up the attacker, then builds
every surviving candidate as a deep copy of the target with its sparse update
made, fine-tunes it, tunes an attacker copy against it, scores it and keeps
it. It then adopts the selected candidate and its tuned attacker as they are.
Where the package builds and drops one candidate at a time and rebuilds the
leader by replaying its fine-tunes, this loop keeps every candidate alive.

Stream contract: `SeedSequence(config.seed)` spawns every stream, one child
at a time, in this order:
- the split stream, the validation stream and the init stream;
- then, per iteration: the training stream, the attacker init stream (first
  iteration only) and the attacker training stream;
- then the candidates' stream, which draws every pair's child seed first
  (the child stream is that pair's sparse-update stream), and then one tune
  stream per surviving pair;
- then one job stream per survivor, which tunes its attacker copy.
A change to the package's order of draws changes this loop in the same
change.
"""

import math

import numpy as np

from sparseguard.attack import (
    extract_examples,
    finetune_attacker,
    mia_accuracy,
    mia_gain,
    split_for_attack,
    train_attacker,
)
from sparseguard.data import LabeledSet
from sparseguard.metrics import task_accuracy, tm_score, training_loss
from sparseguard.models import build_attacker, build_target
from sparseguard.numcore import Tape
from sparseguard.orchestrator import train_phase
from sparseguard.report import CandidateScore, IterationReport
from sparseguard.sparse import (
    DegenerateUpdateError,
    active_count,
    prune_rate_at,
    sparse_update,
)


def reference_compression(config, datasets):
    """(final model, [IterationReport]), as `run_compression` returns them
    for a deterministic config."""
    train_set, test_set = datasets
    seq = np.random.SeedSequence(config.seed)

    def stream():
        return np.random.default_rng(seq.spawn(1)[0])

    splits = split_for_attack(train_set, test_set, stream())
    known = splits.known_test
    k = max(1, int(round(config.validation_fraction * len(known))))
    rows = stream().permutation(len(known))[:k]
    val_set = LabeledSet(known.x[rows], known.y[rows])
    model = build_target(config.target, config.omega, stream())
    active = active_count(model)
    n = len(train_set)
    steps_per_epoch = max(1, n // min(config.batch_size, n))
    span = config.inner_iterations / steps_per_epoch
    per_iteration = span + config.candidate_finetune_epochs
    planned = max(1, math.ceil(config.total_epochs / per_iteration))
    tune_steps = int(round(config.candidate_finetune_epochs * steps_per_epoch))
    probe = min(config.probe_size, n)
    lr = config.attacker_learning_rate
    attacker, tau, cumulative, reports = None, config.tau, 0.0, []
    best_tm, stall = -math.inf, 0
    for iteration in range(1, planned + 1):
        train_phase(model, train_set, config.inner_iterations, config,
                    stream(), epoch_base=cumulative)
        with Tape() as tape:
            loss = training_loss(model(train_set.x[:probe]),
                                 train_set.y[:probe], config.variant,
                                 config.beta)
        tape.backward(loss)
        gradients = {i: layer.w.grad
                     for i, layer in enumerate(model.masked_layers())}
        for p in model.params():
            p.grad = None
        rate = prune_rate_at(iteration - 1, planned, config.prune_rate_start,
                             config.prune_rate_end)
        if tau is None:
            kept = [np.abs(l.w.data[l.mask]) for l in model.masked_layers()]
            tau = float(np.quantile(np.concatenate(kept), rate))

        if attacker is None:
            attacker = build_attacker(config.attacker_mode, model, stream())
            epochs = config.attacker_epochs_first
        else:
            epochs = config.attacker_epochs_topup
        train_attacker(attacker,
                       extract_examples(model, splits, config.attacker_mode)[0],
                       epochs=epochs, rng=stream(), learning_rate=lr)

        pick = stream()
        children = [np.random.default_rng(pick.integers(2 ** 63))
                    for _ in config.pairs]
        built, notes = [], []
        for pair, child in zip(config.pairs, children):
            try:
                update = sparse_update(model, pair, rate, tau, gradients, child)
            except DegenerateUpdateError as exc:
                notes.append(f"{pair.tag()} discarded: {exc}")
                continue
            built.append((pair, update.apply(model)))
        tunes = [np.random.default_rng(pick.integers(2 ** 63)) for _ in built]
        jobs = [stream() for _ in built]
        scored = []
        for (pair, cand), tune, job in zip(built, tunes, jobs):
            train_phase(cand, train_set, tune_steps, config, tune,
                        epoch_base=cumulative + span)
            tuned = finetune_attacker(attacker, cand, splits,
                                      config.attacker_finetune_epochs,
                                      rng=job, learning_rate=lr)
            task = task_accuracy(cand, val_set)
            mia = mia_accuracy(tuned, cand, splits)
            score = CandidateScore(pair, task, mia,
                                   tm_score(task, max(mia, 1e-6), config.lam),
                                   mia_gain(tuned, cand, splits))
            scored.append((score, cand, tuned))
        # highest TM-score; ties prefer lower attack accuracy, then the
        # fixed strategy order; the first of equals wins
        best, model, attacker = min(scored, key=lambda s: (
            -s[0].tm_score, s[0].mia_acc, s[0].pair.prune, s[0].pair.grow))
        assert active_count(model) == active

        cumulative += per_iteration
        scores = tuple(s[0] for s in scored)
        reports.append(IterationReport(
            iteration=iteration, candidates=scores, selected=best.pair,
            cumulative_epochs=cumulative, wall_time_s=0.0,
            active_weights=active, prune_rate=rate, tau=tau,
            notes=tuple(notes)))
        best_this = max(s.tm_score for s in scores)
        stall = 0 if best_this >= best_tm + config.early_stop_delta else stall + 1
        best_tm = max(best_tm, best_this)
        if config.early_stop and stall >= config.early_stop_patience:
            break
    return model, reports
