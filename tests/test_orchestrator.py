"""Outer-loop tests: config validation, training phase, candidates, selection,
and the full compress-attack-test-select cycle at toy scale."""

import numpy as np
import pytest

from sparseguard.data import load_dataset
from sparseguard.models import TargetSpec, build_target
from sparseguard.numcore import NonFiniteError, Tape
from sparseguard.numcore import ops
from sparseguard.orchestrator import (
    CandidateScore,
    IterationReport,
    RunConfig,
    generate_candidates,
    run_compression,
    select_best,
    train_phase,
)
from sparseguard.sparse import ALL_PAIRS, StrategyPair, active_count


def toy_config(**overrides) -> RunConfig:
    base = dict(
        omega=0.3,
        target=TargetSpec(kind="mlp", input_shape=(4,), classes=3,
                          hidden=(16, 12)),
        inner_iterations=30,
        batch_size=32,
        candidate_finetune_epochs=1,
        total_epochs=30.0,
        variant="none",
        learning_rate=0.1,
        attacker_epochs_first=5,
        attacker_epochs_topup=2,
        attacker_finetune_epochs=1,
        seed=0,
        deterministic=True,
    )
    base.update(overrides)
    return RunConfig(**base)


def toy_data(seed=0, n_train=200, n_test=80):
    return load_dataset({"kind": "blobs", "classes": 3, "n_train": n_train,
                         "n_test": n_test, "dim": 4, "seed": seed,
                         "cluster_std": 1.2})


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        toy_config(omega=0.0)
    with pytest.raises(ValueError):
        toy_config(omega=1.5)
    with pytest.raises(ValueError):
        toy_config(total_epochs=0.5)
    with pytest.raises(ValueError):
        toy_config(pairs=())
    with pytest.raises(ValueError):
        toy_config(variant="re3")
    with pytest.raises(ValueError):
        toy_config(attacker_mode="graybox")
    out_of_range = [
        ({"beta": -0.1}, "beta must be >= 0"),
        ({"learning_rate": 0}, "learning_rate must be > 0"),
        ({"lr_decay": 1.5}, "lr_decay must be in"),
        ({"prune_rate_start": 1.5}, "prune_rate_start must be in"),
        ({"prune_rate_end": 0.0}, "prune_rate_end must be in"),
        ({"probe_size": 0}, "probe_size must be >= 1"),
    ]
    for change, message in out_of_range:
        with pytest.raises(ValueError, match=message):
            toy_config(**change)
    assert toy_config(omega=1.0).omega == 1.0


# ---------------------------------------------------------------- selection

def score(pair, task, mia, tm):
    return CandidateScore(pair=pair, task_acc=task, mia_acc=mia,
                          tm_score=tm, mia_gain=-1.0)


def test_select_best_spec_tie_case():
    scores = [
        score(ALL_PAIRS[0], 0.6, 0.50, 1.20),
        score(ALL_PAIRS[1], 0.7, 0.52, 1.35),
        score(ALL_PAIRS[2], 0.5, 0.45, 1.10),
        score(ALL_PAIRS[3], 0.7, 0.56, 1.35),
    ]
    assert select_best(scores) == ALL_PAIRS[1]


def test_select_best_full_tie_uses_pair_order():
    scores = [score(p, 0.5, 0.5, 1.0) for p in reversed(ALL_PAIRS)]
    assert select_best(scores) == StrategyPair("magnitude", "gradient")


def test_select_best_single_and_empty():
    only = [score(ALL_PAIRS[2], 0.4, 0.5, 0.8)]
    assert select_best(only) == ALL_PAIRS[2]
    with pytest.raises(ValueError):
        select_best([])


def test_select_best_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tasks = rng.uniform(0.2, 0.9, size=4)
        mias = rng.uniform(0.45, 0.7, size=4)
        base = [score(p, t, m, t / m)
                for p, t, m in zip(ALL_PAIRS, tasks, mias)]
        scaled = [score(p, 3.7 * t, m, 3.7 * t / m)
                  for p, t, m in zip(ALL_PAIRS, tasks, mias)]
        assert select_best(base) == select_best(scaled)


# ---------------------------------------------------------------- training

def test_train_phase_zero_iterations_identity():
    train, _ = toy_data()
    model = build_target(toy_config().target, 0.3, np.random.default_rng(0))
    before = [p.data.copy() for p in model.params()]
    out = train_phase(model, train, 0, toy_config(), np.random.default_rng(0))
    assert out is model
    for p, snap in zip(model.params(), before):
        assert p.data.tobytes() == snap.tobytes()


def test_train_phase_masks_enforced_and_loss_decreases():
    train, _ = toy_data(seed=1)
    config = toy_config(lr_milestones=())
    model = build_target(config.target, 0.3, np.random.default_rng(1))
    trace = []
    train_phase(model, train, 120, config, np.random.default_rng(1),
                loss_trace=trace)
    assert len(trace) == 120
    assert all(np.isfinite(v) for v in trace)
    ma = np.convolve(trace, np.ones(10) / 10, mode="valid")
    upticks = np.diff(ma)
    assert upticks.max() < 0.05
    assert ma[-1] < ma[0]
    for layer in model.masked_layers():
        off = layer.mask == 0.0
        assert np.all(layer.w.data[off] == 0.0)


def test_train_phase_nonfinite_input_raises():
    from sparseguard.data import LabeledSet

    rng = np.random.default_rng(2)
    x = rng.normal(size=(32, 4))
    x[5, 2] = np.inf
    poisoned = LabeledSet(x, rng.integers(0, 3, size=32))
    config = toy_config(batch_size=32)
    model = build_target(config.target, 0.3, np.random.default_rng(2))
    with pytest.raises(NonFiniteError):
        train_phase(model, poisoned, 5, config, np.random.default_rng(2))


# ---------------------------------------------------------------- candidates

def probe_gradients(model, data):
    with Tape() as tape:
        out = model(data.x[:128])
        loss = ops.cross_entropy(out, data.y[:128])
    tape.backward(loss)
    return {k: layer.w.grad.copy()
            for k, layer in enumerate(model.masked_layers())}


def test_generate_candidates_contract():
    train, _ = toy_data(seed=3)
    config = toy_config()
    model = build_target(config.target, 0.3, np.random.default_rng(3))
    train_phase(model, train, 40, config, np.random.default_rng(3))
    grads = probe_gradients(model, train)
    before = [p.data.copy() for p in model.params()]
    masks_before = [l.mask.copy() for l in model.masked_layers()]
    produced = generate_candidates(
        model, config, np.random.default_rng(3), gradients=grads,
        prune_rate=0.2, tau=1e-4, train_data=train)
    candidates, notes = produced
    assert notes == []
    assert [pair.tag() for pair, _ in candidates] == [p.tag() for p in ALL_PAIRS]
    # parent untouched, bitwise
    for p, snap in zip(model.params(), before):
        assert p.data.tobytes() == snap.tobytes()
    for layer, snap in zip(model.masked_layers(), masks_before):
        assert layer.mask.tobytes() == snap.tobytes()
    target_count = active_count(model)
    for _, cand in candidates:
        assert active_count(cand) == target_count
    # same prune kind + same parent => identical pruned set
    by_tag = {pair.tag(): cand for pair, cand in candidates}
    for a, b in (("magnitude:gradient", "magnitude:random"),
                 ("threshold:gradient", "threshold:random")):
        for la, lb, lp in zip(by_tag[a].masked_layers(),
                              by_tag[b].masked_layers(),
                              model.masked_layers()):
            pruned_a = (lp.mask == 1.0) & (la.mask == 0.0)
            pruned_b = (lp.mask == 1.0) & (lb.mask == 0.0)
            assert np.array_equal(pruned_a, pruned_b)


def test_generate_candidates_discards_degenerate():
    train, _ = toy_data(seed=4)
    config = toy_config()
    model = build_target(config.target, 0.3, np.random.default_rng(4))
    grads = probe_gradients(model, train)
    # a huge threshold wipes whole layers -> both threshold pairs discarded
    candidates, notes = generate_candidates(
        model, config, np.random.default_rng(4), gradients=grads,
        prune_rate=0.2, tau=1e9, train_data=train)
    tags = [pair.tag() for pair, _ in candidates]
    assert tags == ["magnitude:gradient", "magnitude:random"]
    assert len(notes) == 2
    assert all("threshold" in n for n in notes)


def test_generate_candidates_requires_survivor():
    train, _ = toy_data(seed=5)
    config = toy_config(pairs=(StrategyPair("threshold", "gradient"),
                               StrategyPair("threshold", "random")))
    model = build_target(config.target, 0.3, np.random.default_rng(5))
    grads = probe_gradients(model, train)
    with pytest.raises(RuntimeError, match="candidate"):
        generate_candidates(model, config, np.random.default_rng(5),
                            gradients=grads, prune_rate=0.2, tau=1e9,
                            train_data=train)


# ---------------------------------------------------------------- full loop

def test_run_compression_small_end_to_end():
    config = toy_config(inner_iterations=24, total_epochs=12.0)
    datasets = toy_data(seed=6, n_train=256, n_test=120)
    sink = []
    model, reports = run_compression(config, datasets,
                                     report_sink=sink.append)
    assert len(reports) >= 2
    assert sink == reports
    assert [r.iteration for r in reports] == list(range(1, len(reports) + 1))
    cumulative = [r.cumulative_epochs for r in reports]
    assert all(b > a for a, b in zip(cumulative, cumulative[1:]))
    assert cumulative[-1] >= config.total_epochs
    initial = reports[0].active_weights
    for r in reports:
        assert len(r.candidates) == 4
        assert r.active_weights == initial
        best = max(c.tm_score for c in r.candidates)
        chosen = [c for c in r.candidates if c.pair == r.selected][0]
        assert chosen.tm_score == best
        assert r.wall_time_s == 0.0
    assert active_count(model) == initial


def test_run_compression_single_span_budget():
    # Eps equal to one span => exactly one outer iteration
    config = toy_config(inner_iterations=16, batch_size=32,
                        total_epochs=2.0, candidate_finetune_epochs=1)
    datasets = toy_data(seed=7, n_train=128, n_test=64)
    # span = 16 iters / (128//32 batches) = 4 epochs >= total budget
    _, reports = run_compression(config, datasets)
    assert len(reports) == 1


def test_run_compression_runs_exactly_the_planned_iterations():
    # ten iterations of 0.1 epochs spend the 1.0 budget; summing 0.1 ten
    # times in floating point falls just short of 1.0
    config = toy_config(inner_iterations=0, candidate_finetune_epochs=0.1,
                        total_epochs=1.0)
    datasets = toy_data(seed=9, n_train=160, n_test=80)
    _, reports = run_compression(config, datasets)
    assert len(reports) == 10


def test_run_compression_deterministic_repeat():
    config = toy_config(inner_iterations=20, total_epochs=10.0, seed=11)
    datasets = toy_data(seed=8, n_train=200, n_test=100)
    m1, r1 = run_compression(config, datasets)
    m2, r2 = run_compression(config, datasets)
    assert [r.selected.tag() for r in r1] == [r.selected.tag() for r in r2]
    for a, b in zip(r1, r2):
        for ca, cb in zip(a.candidates, b.candidates):
            assert ca.task_acc == cb.task_acc
            assert ca.mia_acc == cb.mia_acc
            assert ca.tm_score == cb.tm_score
            assert ca.mia_gain == cb.mia_gain
    for pa, pb in zip(m1.params(), m2.params()):
        assert pa.data.tobytes() == pb.data.tobytes()


def test_run_compression_early_stop():
    config = toy_config(inner_iterations=0, total_epochs=20.0,
                        candidate_finetune_epochs=1, early_stop=True,
                        early_stop_delta=10.0, early_stop_patience=3)
    datasets = toy_data(seed=9, n_train=160, n_test=80)
    _, reports = run_compression(config, datasets)
    # improvement can never reach delta=10, so the run stops after
    # patience consecutive stagnant iterations following the first
    assert len(reports) == 4


def test_run_compression_persists_partial_trail_on_abort():
    config = toy_config(inner_iterations=20, total_epochs=40.0,
                        learning_rate=0.05, seed=13)
    datasets = toy_data(seed=10, n_train=200, n_test=100)
    seen = []

    def sink(report):
        seen.append(report)
        if len(seen) == 2:
            raise RuntimeError("sink exploded")

    with pytest.raises(RuntimeError, match="sink exploded"):
        run_compression(config, datasets, report_sink=sink)
    assert len(seen) == 2
