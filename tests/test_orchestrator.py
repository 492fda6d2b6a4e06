"""Outer-loop tests: config validation, training phase, candidates, selection,
and the full compress-attack-test-select cycle at toy scale."""

import copy
import gc
import weakref

import numpy as np
import pytest

from sparseguard import orchestrator
from sparseguard.data import load_dataset
from sparseguard.models import TargetSpec, build_target
from sparseguard.numcore import NonFiniteError, Parameter, Tape
from sparseguard.numcore import ops
from sparseguard.orchestrator import (
    CandidateScore,
    IterationReport,
    RunConfig,
    generate_candidates,
    learning_rate_at,
    rank,
    run_compression,
    train_phase,
)
from sparseguard.sparse import (
    ALL_PAIRS,
    SparseUpdate,
    StrategyPair,
    active_count,
    sparse_update,
)


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
        ({"attacker_learning_rate": -0.001},
         "attacker_learning_rate must be > 0"),
        ({"attacker_learning_rate": 0}, "attacker_learning_rate must be > 0"),
        ({"attacker_epochs_first": -3}, "attacker_epochs_first must be >= 0"),
        ({"attacker_epochs_topup": -1}, "attacker_epochs_topup must be >= 0"),
        ({"attacker_finetune_epochs": -1},
         "attacker_finetune_epochs must be >= 0"),
        ({"lam": -1.0}, "lam must be >= 0"),
        ({"tau": -0.1}, "tau must be >= 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ]
    for change, message in out_of_range:
        with pytest.raises(ValueError, match=message):
            toy_config(**change)
    assert toy_config(omega=1.0).omega == 1.0
    assert toy_config(attacker_epochs_first=0, lam=0.0, tau=0.0).tau == 0.0
    assert toy_config(seed=0).seed == 0


def test_learning_rate_at_frozen_points():
    config = toy_config(total_epochs=200.0, lr_milestones=(0.5, 0.75),
                        learning_rate=0.1, lr_decay=0.1)
    assert learning_rate_at(config, 0) == pytest.approx(0.1)
    assert learning_rate_at(config, 99) == pytest.approx(0.1)
    assert learning_rate_at(config, 100) == pytest.approx(0.01)
    assert learning_rate_at(config, 180) == pytest.approx(0.001, rel=1e-12)


def test_learning_rate_at_small_budgets():
    # 0.5 and 0.6 of 2 epochs both floor to epoch 1: one decay, not two
    merged = toy_config(total_epochs=2.0, lr_milestones=(0.5, 0.6))
    assert learning_rate_at(merged, 0) == pytest.approx(0.1)
    assert learning_rate_at(merged, 1) == pytest.approx(0.01)
    assert learning_rate_at(merged, 5) == pytest.approx(0.01)
    # the default milestones floor to epoch 0 at a 1-epoch budget
    single = toy_config(total_epochs=1.0)
    assert single.lr_milestones == RunConfig.lr_milestones
    assert learning_rate_at(single, 0) == learning_rate_at(single, 3) == 0.1


@pytest.mark.parametrize("milestones", [(0.75, 0.5), (2.0,), (0.0,),
                                        (0.5, 0.5), (1.0,)],
                         ids=["decreasing", "above 1", "zero", "repeated",
                              "one"])
def test_lr_milestones_must_increase_within_the_run(milestones):
    with pytest.raises(ValueError, match="lr_milestones must be strictly "
                                         "increasing fractions in"):
        toy_config(lr_milestones=milestones)


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
    # the loop adopts the first candidate that `rank` puts lowest
    assert min(scores, key=rank).pair == ALL_PAIRS[1]


def test_select_best_full_tie_uses_pair_order():
    scores = [score(p, 0.5, 0.5, 1.0) for p in reversed(ALL_PAIRS)]
    assert min(scores, key=rank).pair == StrategyPair("magnitude", "gradient")


def test_select_best_single_candidate():
    only = [score(ALL_PAIRS[2], 0.4, 0.5, 0.8)]
    assert min(only, key=rank).pair == ALL_PAIRS[2]


def test_select_best_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tasks = rng.uniform(0.2, 0.9, size=4)
        mias = rng.uniform(0.45, 0.7, size=4)
        base = [score(p, t, m, t / m)
                for p, t, m in zip(ALL_PAIRS, tasks, mias)]
        scaled = [score(p, 3.7 * t, m, 3.7 * t / m)
                  for p, t, m in zip(ALL_PAIRS, tasks, mias)]
        assert min(base, key=rank).pair == min(scaled, key=rank).pair


# ---------------------------------------------------------------- training

def test_train_phase_zero_iterations_identity():
    train, _ = toy_data()
    model = build_target(toy_config().target, 0.3, np.random.default_rng(0))
    before = [p.data.copy() for p in model.params()]
    out = train_phase(model, train, 0, toy_config(), np.random.default_rng(0))
    assert out is model
    for p, snap in zip(model.params(), before):
        assert p.data.tobytes() == snap.tobytes()


def test_train_phase_masks_enforced_and_loss_decreases(monkeypatch):
    train, _ = toy_data(seed=1)
    config = toy_config(lr_milestones=())
    model = build_target(config.target, 0.3, np.random.default_rng(1))
    trace = []
    real = orchestrator.training_loss

    def spy(*args, **kwargs):
        loss = real(*args, **kwargs)
        trace.append(float(loss.data))
        return loss

    monkeypatch.setattr(orchestrator, "training_loss", spy)
    train_phase(model, train, 120, config, np.random.default_rng(1))
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


def masks_and_weights(model) -> list:
    return ([p.data.tobytes() for p in model.params()]
            + [l.mask.tobytes() for l in model.masked_layers()])


def test_generate_candidates_contract():
    train, _ = toy_data(seed=3)
    config = toy_config()
    model = build_target(config.target, 0.3, np.random.default_rng(3))
    train_phase(model, train, 40, config, np.random.default_rng(3))
    grads = probe_gradients(model, train)
    before = masks_and_weights(model)
    candidates, notes = generate_candidates(
        model, config, np.random.default_rng(3), gradients=grads,
        prune_rate=0.2, tau=1e-4)
    assert notes == []
    assert [pair.tag() for pair, _, _ in candidates] == [
        p.tag() for p in ALL_PAIRS]
    # planning copies and trains nothing: the parent is untouched, bitwise
    assert masks_and_weights(model) == before
    # the draw order: every pair's child seed, then one tune stream each
    draws = np.random.default_rng(3)
    children = [draws.integers(2 ** 63) for _ in ALL_PAIRS]
    tunes = [draws.integers(2 ** 63) for _ in ALL_PAIRS]
    target_count = active_count(model)
    for (pair, update, tune), child, seed in zip(candidates, children, tunes):
        assert (tune.bit_generator.state
                == np.random.default_rng(seed).bit_generator.state)
        again = sparse_update(model, pair, 0.2, 1e-4, grads,
                              np.random.default_rng(child))
        cand = update.apply(model)
        assert masks_and_weights(cand) == masks_and_weights(
            again.apply(model))
        assert active_count(cand) == target_count
    # same prune kind + same parent => identical pruned set
    by_tag = {pair.tag(): update for pair, update, _ in candidates}
    for a, b in (("magnitude:gradient", "magnitude:random"),
                 ("threshold:gradient", "threshold:random")):
        for pa, pb in zip(by_tag[a].pruned, by_tag[b].pruned):
            assert np.array_equal(pa, pb)


def test_probe_pass_leaves_no_gradient_behind():
    train, _ = toy_data(seed=3)
    config = toy_config()
    model = build_target(config.target, 0.3, np.random.default_rng(3))
    expected = probe_gradients(model, train)
    grads = orchestrator._probe_gradients(model, train.x[:128],
                                          train.y[:128], config)
    assert sorted(grads) == sorted(expected)
    for k, g in grads.items():
        assert g.tobytes() == expected[k].tobytes()
    assert all(p.grad is None for p in model.params())
    cand = sparse_update(model, ALL_PAIRS[0], 0.2, 1e-4, grads,
                         np.random.default_rng(3)).apply(model)
    assert all(p.grad is None for p in cand.params())


def test_generate_candidates_discards_degenerate():
    train, _ = toy_data(seed=4)
    pairs = (StrategyPair("magnitude", "gradient"),
             StrategyPair("threshold", "random"),
             StrategyPair("magnitude", "random"),
             StrategyPair("threshold", "gradient"))
    config = toy_config(pairs=pairs)
    model = build_target(config.target, 0.3, np.random.default_rng(4))
    grads = probe_gradients(model, train)
    # a huge threshold wipes whole layers -> both threshold pairs discarded
    candidates, notes = generate_candidates(
        model, config, np.random.default_rng(4), gradients=grads,
        prune_rate=0.2, tau=1e9)
    tags = [pair.tag() for pair, _, _ in candidates]
    assert tags == ["magnitude:gradient", "magnitude:random"]
    assert len(notes) == 2
    assert all("threshold" in n for n in notes)
    # a discarded pair still draws its child seed, and draws no tune stream
    draws = np.random.default_rng(4)
    children = [draws.integers(2 ** 63) for _ in pairs]
    tunes = [draws.integers(2 ** 63) for _ in candidates]
    for (pair, update, tune), child, seed in zip(
            candidates, (children[0], children[2]), tunes):
        again = sparse_update(model, pair, 0.2, 1e9, grads,
                              np.random.default_rng(child))
        assert masks_and_weights(update.apply(model)) == masks_and_weights(
            again.apply(model))
        assert (tune.bit_generator.state
                == np.random.default_rng(seed).bit_generator.state)


def test_generate_candidates_requires_survivor():
    train, _ = toy_data(seed=5)
    config = toy_config(pairs=(StrategyPair("threshold", "gradient"),
                               StrategyPair("threshold", "random")))
    model = build_target(config.target, 0.3, np.random.default_rng(5))
    grads = probe_gradients(model, train)
    with pytest.raises(RuntimeError, match="candidate"):
        generate_candidates(model, config, np.random.default_rng(5),
                            gradients=grads, prune_rate=0.2, tau=1e9)


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


def _attacker_state(attacker) -> list:
    """The bytes of an attacker's parameters and its Adam state."""
    state = attacker.opt_state
    return ([p.data.tobytes() for p in attacker.params()]
            + [state.m.tobytes(), state.v.tobytes(), state.t])


@pytest.mark.parametrize("scoring", ["scored", "tied", "patched rank"])
def test_run_compression_keeps_only_the_leading_tuned_attacker(monkeypatch,
                                                                scoring):
    pairs = ALL_PAIRS
    if scoring == "tied":
        # every candidate scores alike, so the strategy order decides; the
        # reversed pair list puts its winner last
        monkeypatch.setattr(orchestrator, "task_accuracy", lambda *a: 0.5)
        monkeypatch.setattr(orchestrator, "mia_accuracy", lambda *a: 0.5)
        pairs = tuple(reversed(ALL_PAIRS))
    elif scoring == "patched rank":
        # the loop must adopt by the patched ranking
        favourite = StrategyPair("threshold", "gradient")
        monkeypatch.setattr(orchestrator, "rank",
                            lambda s: (s.pair != favourite, s.pair.tag()))
    refs = []       # weak references to every tuned copy made so far
    alive = []      # earlier tuned copies alive as each fine-tune starts
    snapshots = []  # deep copy of each tuned copy, as it was returned
    adopted = []    # the attacker each iteration hands to the next
    real_finetune = orchestrator.finetune_attacker
    real_iteration = orchestrator._run_iteration

    def spy(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        tuned = real_finetune(*args, **kwargs)
        refs.append(weakref.ref(tuned))
        snapshots.append(_attacker_state(copy.deepcopy(tuned)))
        return tuned

    def iteration_spy(*args, **kwargs):
        model, attacker, tau, report = real_iteration(*args, **kwargs)
        adopted.append(_attacker_state(attacker))
        return model, attacker, tau, report

    monkeypatch.setattr(orchestrator, "finetune_attacker", spy)
    monkeypatch.setattr(orchestrator, "_run_iteration", iteration_spy)
    config = toy_config(inner_iterations=24, total_epochs=12.0, pairs=pairs)
    _, reports = run_compression(config, toy_data(seed=6, n_train=256,
                                                  n_test=120))
    assert len(reports) >= 2 and len(snapshots) == 4 * len(reports)
    assert alive == [0] * len(snapshots)
    # each iteration adopts its selected candidate's tuned attacker, bit for
    # bit, and selects the first candidate that `rank` puts lowest
    for i, report in enumerate(reports):
        k = next(k for k, c in enumerate(report.candidates)
                 if c.pair == report.selected)
        assert adopted[i] == snapshots[4 * i + k]
        assert report.selected == min(report.candidates,
                                      key=orchestrator.rank).pair
    if scoring == "tied":
        assert {r.selected for r in reports} == {StrategyPair("magnitude",
                                                              "gradient")}
    elif scoring == "patched rank":
        assert {r.selected for r in reports} == {favourite}


def test_run_compression_frees_the_previous_iterations_candidates(
        monkeypatch):
    refs = []   # weak references to every model an update built so far
    alive = []  # those alive as each call starts, bar its parent
    real = orchestrator.generate_candidates
    real_apply = SparseUpdate.apply

    def apply_spy(update, model):
        built = real_apply(update, model)
        refs.append(weakref.ref(built))
        return built

    def spy(model, *args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None and ref() is not model
                         for ref in refs))
        return real(model, *args, **kwargs)

    monkeypatch.setattr(SparseUpdate, "apply", apply_spy)
    monkeypatch.setattr(orchestrator, "generate_candidates", spy)
    config = toy_config(inner_iterations=24, total_epochs=12.0)
    _, reports = run_compression(config, toy_data(seed=6, n_train=256,
                                                  n_test=120))
    # four candidates and the adopted model per iteration
    assert len(reports) >= 3 and len(refs) == 5 * len(reports)
    assert alive == [0] * len(reports)


def test_run_compression_builds_one_candidate_at_a_time(monkeypatch):
    refs = []       # weak references to every model an update built
    alive = []      # those alive as each one is built, bar its parent
    fresh = []      # the last built model, until its fine-tune
    tuned = []      # per iteration: each built model's bytes after its
                    # fine-tune, in build order
    adopted = []    # the model each iteration hands to the next
    real_apply = SparseUpdate.apply
    real_train = orchestrator.train_phase
    real_iteration = orchestrator._run_iteration

    def apply_spy(update, model):
        gc.collect()
        alive.append(sum(ref() is not None and ref() is not model
                         for ref in refs))
        built = real_apply(update, model)
        refs.append(weakref.ref(built))
        fresh[:] = refs[-1:]
        return built

    def train_spy(model, *args, **kwargs):
        out = real_train(model, *args, **kwargs)
        if fresh and fresh.pop()() is model:
            tuned[-1].append(masks_and_weights(model))
        return out

    def iteration_spy(*args, **kwargs):
        tuned.append([])
        model, attacker, tau, report = real_iteration(*args, **kwargs)
        adopted.append(masks_and_weights(model))
        return model, attacker, tau, report

    monkeypatch.setattr(SparseUpdate, "apply", apply_spy)
    monkeypatch.setattr(orchestrator, "train_phase", train_spy)
    monkeypatch.setattr(orchestrator, "_run_iteration", iteration_spy)
    config = toy_config(inner_iterations=24, total_epochs=12.0)
    _, reports = run_compression(config, toy_data(seed=6, n_train=256,
                                                  n_test=120))
    assert len(reports) >= 2 and len(refs) == 5 * len(reports)
    # when a candidate or the adopted model is built, no earlier candidate
    # is alive; the parent is the previous iteration's adopted model
    assert alive == [0] * len(refs)
    for report, built, model in zip(reports, tuned, adopted):
        k = next(k for k, c in enumerate(report.candidates)
                 if c.pair == report.selected)
        assert len(built) == 5
        assert model == built[k] == built[4]


@pytest.mark.parametrize("target, mode, dim", [
    (TargetSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(16, 12)),
     "blackbox", 4),
    (TargetSpec(kind="cnn", input_shape=(1, 4, 4), classes=3,
                channels=(2, 4), kernel=3), "whitebox", 16),
], ids=["mlp-blackbox", "cnn-whitebox"])
def test_every_backward_pass_sets_gradients_as_views_of_one_flat_gradient(
        monkeypatch, target, mode, dim):
    real = Tape.backward
    ranks = set()  # the ranks of the gradients set

    def spy(tape, loss):
        params = {p.key: p for _, parents, _ in tape._nodes
                  for p in parents if isinstance(p, Parameter)}
        real(tape, loss)
        flats = {}  # id(store) -> the flat gradient of this pass
        for p in params.values():
            flat = flats.setdefault(id(p.store), p.grad.base)
            assert p.grad.base is flat and flat.shape == p.store.shape
            assert p.grad.shape == p.data.shape
            assert (p.grad.ctypes.data
                    == flat.ctypes.data + flat.itemsize * p.offset)
        assert flats and not any(np.shares_memory(f, g) for i, f in
                                 enumerate(flats.values())
                                 for g in list(flats.values())[i + 1:])
        ranks.update(p.grad.ndim for p in params.values())

    monkeypatch.setattr(Tape, "backward", spy)
    config = toy_config(target=target, attacker_mode=mode,
                        inner_iterations=8, total_epochs=4.0)
    datasets = load_dataset({"kind": "blobs", "classes": 3, "n_train": 128,
                             "n_test": 64, "dim": dim, "seed": 5})
    _, reports = run_compression(config, datasets)
    assert reports
    # the CNN run reaches conv2d (rank 4) and conv1d (rank 3) weights
    assert ranks == ({1, 2} if mode == "blackbox" else {1, 2, 3, 4})


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
    # times in floating point falls just short of 1.0. 320 rows at batch 32
    # make 0.1 epochs one step
    config = toy_config(inner_iterations=0, candidate_finetune_epochs=0.1,
                        total_epochs=1.0)
    datasets = toy_data(seed=9, n_train=320, n_test=80)
    _, reports = run_compression(config, datasets)
    assert len(reports) == 10


def test_run_compression_rejects_a_finetune_of_no_step():
    # 160 rows at batch 32 are 5 steps per epoch, and round(0.5) is 0
    config = toy_config(inner_iterations=30, candidate_finetune_epochs=0.1)
    with pytest.raises(ValueError, match="rounds to 0 of the 5 steps"):
        run_compression(config, toy_data(seed=9, n_train=160, n_test=80))


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
