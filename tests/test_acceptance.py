"""Acceptance gate: ten checks covering the score oracle, structural
invariants, gradient correctness, attack-signal sanity, and end-to-end
directional claims.

Each check prints one PASS/FAIL line on the real stdout (capture suspended
for the print) so a full suite run doubles as an acceptance report. The
heavy artifacts (an overfit target with trained attackers, and the
five-seed end-to-end bundle) are built once per module and shared between
checks.
"""

import dataclasses
import io
import time

import numpy as np
import pytest

from sparseguard.attack import (
    AttackExamples,
    extract_examples,
    mia_accuracy,
    split_for_attack,
    train_attacker,
)
from sparseguard.data import load_dataset
from sparseguard.gradcheck import TOLERANCE, run_cases, worst_case
from sparseguard.metrics import task_accuracy, tm_score
from sparseguard.models import (
    Attacker,
    AttackerSpec,
    TargetSpec,
    build_target,
    last_layer_gradient_length,
)
from sparseguard.numcore import Tape, ops
from sparseguard.numcore.optim import sgd_step
from sparseguard.orchestrator import RunConfig, run_compression, train_phase
from sparseguard.report import write_record
from sparseguard.sparse import (
    ALL_PAIRS,
    active_count,
    calibrate_epsilon,
    er_probability,
    sparse_update,
    sparsity,
)


@pytest.fixture()
def verdict(capsys):
    def emit(num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"acceptance {num:>2} {name}: {status}{tail}", flush=True)
        return ok
    return emit


# -- 1: score oracle ---------------------------------------------------------

# Known-good (task acc %, attack acc %, reported score) triples; the reported
# column was produced by rounding task/attack to two decimals, so recomputing
# must land within 0.01 of it after the same rounding.
ORACLE_ROWS = (
    (69.52, 51.75, 1.34), (69.89, 51.94, 1.35), (69.91, 51.54, 1.35),
    (68.86, 53.33, 1.29),
    (87.41, 58.34, 1.50), (54.57, 68.35, 0.80), (82.72, 52.74, 1.57),
    (81.66, 55.63, 1.47), (72.09, 59.94, 1.20), (80.47, 54.38, 1.48),
    (82.23, 61.63, 1.33), (82.26, 53.15, 1.55), (83.94, 52.97, 1.59),
    (84.00, 53.12, 1.58),
    (62.87, 66.49, 0.95), (86.19, 54.83, 1.57), (83.73, 54.05, 1.55),
    (73.27, 60.42, 1.21), (86.84, 55.59, 1.56), (86.26, 63.45, 1.36),
    (86.11, 56.12, 1.53), (85.31, 52.37, 1.63), (85.38, 53.17, 1.61),
    (65.48, 69.73, 0.94), (19.26, 71.07, 0.27), (60.10, 57.62, 1.04),
    (55.56, 60.03, 0.92), (17.10, 52.32, 0.33), (52.34, 53.27, 0.98),
    (53.71, 57.18, 0.94), (58.36, 57.92, 1.01), (63.81, 52.46, 1.22),
    (63.45, 51.27, 1.24),
    (24.56, 74.17, 0.33), (61.16, 63.93, 0.96), (59.61, 64.56, 0.92),
    (17.45, 52.44, 0.33), (54.48, 53.60, 1.02), (57.16, 55.65, 1.03),
    (60.91, 61.03, 1.00), (65.15, 52.79, 1.24), (65.15, 52.32, 1.25),
)


def test_01_score_oracle(verdict):
    worst = 0.0
    for task, mia, printed in ORACLE_ROWS:
        got = round(tm_score(task / 100.0, mia / 100.0, 1.0), 2)
        worst = max(worst, abs(got - printed))
    ok = worst <= 0.01 + 1e-9
    assert verdict(1, "score oracle", ok,
                    f"{len(ORACLE_ROWS)} rows, worst gap {worst:.2f}")


# -- 2: sparsity preservation ------------------------------------------------

def test_02_sparsity_preserved_by_updates(verdict):
    rng = np.random.default_rng(0)
    mlp = build_target(TargetSpec(kind="mlp", input_shape=(12,), classes=4,
                                  hidden=(32, 16)), 0.5, rng)
    cnn = build_target(TargetSpec(kind="cnn", input_shape=(1, 8, 8), classes=3,
                                  channels=(4, 8)), 0.4, rng)
    t0 = time.time()
    n = 0
    for pair in ALL_PAIRS:
        for base in (mlp, cnn):
            current = base.clone()
            per_layer = [int(np.count_nonzero(l.mask))
                         for l in current.masked_layers()]
            for _ in range(125):
                grads = {k: rng.standard_normal(l.w.data.shape)
                         for k, l in enumerate(current.masked_layers())}
                pooled = np.concatenate(
                    [np.abs(l.w.data[l.mask == 1.0]).ravel()
                     for l in current.masked_layers()])
                tau = float(np.quantile(pooled, rng.uniform(0.05, 0.3)))
                rate = float(rng.uniform(0.05, 0.45))
                current = sparse_update(current, pair, rate, tau, grads, rng)
                now = [int(np.count_nonzero(l.mask))
                       for l in current.masked_layers()]
                assert now == per_layer
                n += 1
    elapsed = time.time() - t0
    ok = n == 1000 and elapsed < 30.0
    assert verdict(2, "sparsity preservation", ok,
                    f"{n} updates, per-layer counts exact, {elapsed:.1f}s")


# -- 3: sparse initialization densities ---------------------------------------

def test_03_er_initialization(verdict):
    spec = TargetSpec(kind="mlp", input_shape=(784,), classes=10,
                      hidden=(300, 100))
    ok = True
    details = []
    for omega in (0.05, 0.1, 0.2):
        model = build_target(spec, omega, np.random.default_rng(7))
        rho = sparsity(model)
        ok &= abs(rho - omega) / omega <= 0.01
        dims = [(l.w.data.shape[0], l.w.data.shape[1])
                for l in model.masked_layers()]
        eps = calibrate_epsilon(dims, omega)
        p_wide = er_probability(eps, 300, 784)
        p_small = er_probability(eps, 10, 100)
        ok &= p_wide < p_small
        details.append(f"omega={omega}: density {rho:.4f}, "
                       f"p={p_wide:.4f}<{p_small:.4f}")
    assert verdict(3, "sparse initialization", ok, "; ".join(details))


# -- 4: gradient gate ---------------------------------------------------------

def test_04_gradient_gate(verdict):
    results = run_cases(seed=0)
    worst = worst_case(results)
    ok = all(r.passed for r in results)
    assert verdict(4, "gradient gate", ok,
                    f"{len(results)} cases, worst {worst.max_rel_err:.2e} "
                    f"({worst.name}), tolerance {TOLERANCE:.0e}")


# -- 5 and 10 share one overfit-target bundle ---------------------------------

def _fit(target, train_set, epochs, lr, batch, seed):
    rng = np.random.default_rng(seed)
    n = len(train_set)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n - batch + 1, batch):
            rows = perm[start:start + batch]
            with Tape() as tape:
                out = target(train_set.x[rows])
                loss = ops.cross_entropy(out, train_set.y[rows])
            tape.backward(loss)
            sgd_step(target.params(), lr)
    return target


@pytest.fixture(scope="module")
def overfit_bundle():
    """Per seed: an aggressively memorized target on 500 samples plus
    black-box, white-box, and untrained-control attack accuracies."""
    bb, wb, fresh = [], [], []
    t0 = time.time()
    for seed in range(5):
        train, test = load_dataset({"kind": "blobs", "classes": 4,
                                    "n_train": 500, "n_test": 200, "dim": 6,
                                    "seed": 100 + seed, "center_spread": 1.0,
                                    "cluster_std": 2.0})
        splits = split_for_attack(train, test, np.random.default_rng(seed))
        spec = TargetSpec(kind="mlp", input_shape=(6,), classes=4,
                          hidden=(256,))
        target = build_target(spec, 1.0, np.random.default_rng(seed))
        _fit(target, train, epochs=200, lr=0.2, batch=32, seed=seed)

        at, _ = extract_examples(target, splits, "blackbox")
        atk = Attacker(
            AttackerSpec(mode="blackbox", classes=4),
            np.random.default_rng(seed))
        train_attacker(atk, at, epochs=100, rng=np.random.default_rng(seed),
                       learning_rate=0.001)
        bb.append(mia_accuracy(atk, target, splits))

        at_w, _ = extract_examples(target, splits, "whitebox")
        atk_w = Attacker(
            AttackerSpec(mode="whitebox", classes=4,
                         grad_len=last_layer_gradient_length(target)),
            np.random.default_rng(seed))
        train_attacker(atk_w, at_w, epochs=100,
                       rng=np.random.default_rng(seed), learning_rate=0.001)
        wb.append(mia_accuracy(atk_w, target, splits))

        control = build_target(spec, 1.0, np.random.default_rng(1000 + seed))
        at_f, _ = extract_examples(control, splits, "blackbox")
        atk_f = Attacker(
            AttackerSpec(mode="blackbox", classes=4),
            np.random.default_rng(seed))
        train_attacker(atk_f, at_f, epochs=100,
                       rng=np.random.default_rng(seed), learning_rate=0.001)
        fresh.append(mia_accuracy(atk_f, control, splits))
    return {"bb": bb, "wb": wb, "fresh": fresh, "elapsed": time.time() - t0}


def test_05_attack_signal_sanity(overfit_bundle, verdict):
    med_over = float(np.median(overfit_bundle["bb"]))
    med_fresh = float(np.median(overfit_bundle["fresh"]))
    ok = med_over > 0.60 and abs(med_fresh - 0.5) <= 0.03
    assert verdict(5, "attack-signal sanity", ok,
                    f"overfit median {med_over:.3f} > 0.60, untrained median "
                    f"{med_fresh:.3f} within 0.5+-0.03, "
                    f"{overfit_bundle['elapsed']:.0f}s")


# -- 6: balanced attacker batches ---------------------------------------------

def test_06_balanced_batches(verdict):
    rng = np.random.default_rng(5)
    examples = AttackExamples(rng.standard_normal((480, 6)),
                              np.array([1] * 300 + [0] * 180))
    counts = []
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=3),
                        np.random.default_rng(5))
    train_attacker(attacker, examples, epochs=100, rng=rng,
                   batch_hook=lambda f, t: counts.append((len(t), int(t.sum()))),
                   learning_rate=0.001)
    ok = len(counts) == 400 and all(c == (128, 64) for c in counts)
    assert verdict(6, "balanced attacker batches", ok,
                    f"{len(counts)} batches, every one exactly 64+64")


# -- 7 and 8 share one five-seed end-to-end bundle -----------------------------

E2E_SPEC = TargetSpec(kind="mlp", input_shape=(16,), classes=4,
                      hidden=(64, 64))


def _e2e_config(variant, seed):
    return RunConfig(omega=0.1, target=E2E_SPEC, inner_iterations=186,
                     batch_size=32, candidate_finetune_epochs=1.0,
                     total_epochs=32.0, variant=variant, learning_rate=0.1,
                     seed=seed, deterministic=True)


def _prune_once_reference(config, datasets, seed):
    """Two-step pipeline at the same optimizer-step budget: dense training
    for half the steps, one global magnitude prune down to the run's active
    count, then masked fine-tuning for the remaining half, all at the
    constant base learning rate."""
    train_set, _ = datasets
    steps_per_epoch = len(train_set) // config.batch_size
    finetune_steps = round(config.candidate_finetune_epochs * steps_per_epoch)
    span = config.inner_iterations / steps_per_epoch
    planned = int(np.ceil(config.total_epochs /
                          (span + config.candidate_finetune_epochs)))
    total_steps = planned * (config.inner_iterations + finetune_steps)
    half = total_steps // 2

    rng = np.random.default_rng(seed)
    model = build_target(E2E_SPEC, 1.0, rng)
    k = active_count(build_target(E2E_SPEC, config.omega,
                                  np.random.default_rng(seed)))
    constant = dataclasses.replace(config, lr_milestones=())
    train_phase(model, train_set, half, constant, rng)
    layers = model.masked_layers()
    flat = np.concatenate([np.abs(l.w.data).ravel() for l in layers])
    keep = np.zeros(flat.size, dtype=bool)
    keep[np.argsort(flat)[::-1][:k]] = True
    pos = 0
    for layer in layers:
        size = layer.w.data.size
        layer.mask[...] = keep[pos:pos + size].reshape(layer.mask.shape)
        layer.w.data *= layer.mask
        pos += size
    assert active_count(model) == k
    train_phase(model, train_set, total_steps - half, constant, rng)
    return model


def _independent_eval(model, datasets, seed):
    """Score a finished model with a fresh split and a fresh attacker so all
    pipelines are measured by the same instrument."""
    train_set, test_set = datasets
    splits = split_for_attack(train_set, test_set,
                              np.random.default_rng(7000 + seed))
    at, _ = extract_examples(model, splits, "blackbox")
    attacker = Attacker(
        AttackerSpec(mode="blackbox", classes=4),
        np.random.default_rng(8000 + seed))
    train_attacker(attacker, at, epochs=100,
                   rng=np.random.default_rng(8000 + seed), learning_rate=0.001)
    mia = mia_accuracy(attacker, model, splits)
    task = task_accuracy(model, test_set)
    return task, mia, tm_score(task, max(mia, 1e-6), 1.0)


@pytest.fixture(scope="module")
def e2e_bundle():
    """Per seed: the full loop with re2 and with no regularizer, plus the
    prune-once reference, all scored by the shared independent protocol."""
    rows = []
    t0 = time.time()
    for seed in range(5):
        datasets = load_dataset({"kind": "blobs", "classes": 4,
                                 "n_train": 2000, "n_test": 1000, "dim": 16,
                                 "seed": 200 + seed, "center_spread": 1.0,
                                 "cluster_std": 2.5})
        model_re2, reports = run_compression(_e2e_config("re2", seed),
                                             datasets)
        model_none, _ = run_compression(_e2e_config("none", seed), datasets)
        reference = _prune_once_reference(_e2e_config("none", seed),
                                          datasets, seed)
        rows.append({"iters": len(reports),
                     "re2": _independent_eval(model_re2, datasets, seed),
                     "none": _independent_eval(model_none, datasets, seed),
                     "ref": _independent_eval(reference, datasets, seed)})
    return {"rows": rows, "elapsed": time.time() - t0}


def test_07_beats_prune_once_reference(e2e_bundle, verdict):
    rows = e2e_bundle["rows"]
    wins = sum(1 for r in rows if r["re2"][2] > r["ref"][2])
    pairs = ", ".join(f"{r['re2'][2]:.3f}>{r['ref'][2]:.3f}" for r in rows)
    ok = wins >= 4 and all(r["iters"] == 8 for r in rows)
    assert verdict(7, "end-to-end beats prune-once", ok,
                    f"{wins}/5 seeds at 8 iterations each [{pairs}], "
                    f"{e2e_bundle['elapsed']:.0f}s")


def test_08_regularizer_lowers_attack_accuracy(e2e_bundle, verdict):
    rows = e2e_bundle["rows"]
    med_re2 = float(np.median([r["re2"][1] for r in rows]))
    med_none = float(np.median([r["none"][1] for r in rows]))
    ok = med_re2 <= med_none
    assert verdict(8, "entropy regularizer direction", ok,
                    f"median attack acc {med_re2:.4f} (re2) <= "
                    f"{med_none:.4f} (none)")


# -- 9: determinism ------------------------------------------------------------

def test_09_deterministic_report_streams(verdict):
    datasets = load_dataset({"kind": "blobs", "classes": 3, "n_train": 256,
                             "n_test": 128, "dim": 4, "seed": 11,
                             "cluster_std": 1.0})
    config = RunConfig(omega=0.3,
                       target=TargetSpec(kind="mlp", input_shape=(4,),
                                         classes=3, hidden=(16, 12)),
                       inner_iterations=24, batch_size=32,
                       candidate_finetune_epochs=1.0, total_epochs=12.0,
                       seed=21, deterministic=True)
    streams = []
    for _ in range(2):
        buffer = io.StringIO()
        run_compression(config, datasets,
                        report_sink=lambda r: write_record(buffer,
                                                           r.as_record()))
        streams.append(buffer.getvalue().encode())
    ok = streams[0] == streams[1] and len(streams[0]) > 0
    assert verdict(9, "deterministic report streams", ok,
                    f"two runs, {len(streams[0])} bytes each, identical")


# -- 10: white-box strength -----------------------------------------------------

def test_10_whitebox_at_least_blackbox(overfit_bundle, verdict):
    med_wb = float(np.median(overfit_bundle["wb"]))
    med_bb = float(np.median(overfit_bundle["bb"]))
    ok = med_wb >= med_bb
    assert verdict(10, "white-box strength", ok,
                    f"median {med_wb:.3f} (white-box) >= {med_bb:.3f} "
                    f"(black-box)")
