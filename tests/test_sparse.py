"""Mask management tests: closed-form oracles, brute-force references on
tiny layers, and sparsity-preservation sweeps."""

import copy
import math

import numpy as np
import pytest

from sparseguard.models import TargetSpec, build_target
from sparseguard.numcore.layers import Linear
from sparseguard.sparse import (
    ALL_PAIRS,
    DegenerateUpdateError,
    SparseUpdate,
    StrategyPair,
    _below_threshold,
    _largest_gradient,
    _smallest_active,
    active_count,
    calibrate_epsilon,
    er_initialize,
    er_probability,
    prune_rate_at,
    sparse_update,
)


def sparsity(model) -> float:
    """Kept fraction: sum_k ||M^k||_0 / sum_k size(W^k)."""
    return active_count(model) / sum(l.w.data.size for l in model.masked_layers())


class Net:
    """Minimal duck-typed sparse model: a list of masked Linear layers."""

    def __init__(self, widths, rng, dense=False):
        self.layers = [
            Linear(a, b, rng, weight_scale=0.5, masked=True)
            for a, b in zip(widths, widths[1:])
        ]
        if dense:
            for layer in self.layers:
                layer.mask[...] = 1.0

    def masked_layers(self):
        return self.layers


def single_layer(weights, mask):
    rng = np.random.default_rng(0)
    net = Net([len(weights), 1], rng)
    layer = net.layers[0]
    layer.w.data[...] = np.asarray(weights, dtype=np.float64).reshape(1, -1)
    layer.mask[...] = np.asarray(mask, dtype=np.float64).reshape(1, -1)
    layer.w.data *= layer.mask
    return net, layer


def inactive_pool(layer):
    """A layer's inactive flat indices, ascending: the pool growth draws from."""
    return np.flatnonzero(layer.mask.reshape(-1) == 0.0)


def applied(net, pruned=(), grown=()):
    """The only layer of a copy of net after a plan that prunes, then grows
    the given flat indices."""
    pruned = np.asarray(pruned, dtype=np.int64)
    grown = np.asarray(grown, dtype=np.int64)
    active = active_count(net) - pruned.size + grown.size
    plan = SparseUpdate((pruned,), (grown,), (pruned[:0],), (active,))
    return plan.apply(net).layers[0]


# ------------------------------------------------------------ ER formulas


def test_er_probability_frozen_values():
    assert er_probability(1.0, 4, 6) == pytest.approx(10 / 24)
    assert er_probability(1.0, 100, 100) == pytest.approx(0.02)
    assert er_probability(5.0, 2, 2) == 1.0


def test_er_probability_prefers_small_layers():
    # bigger n_k*n_prev relative to n_k+n_prev gets a lower keep probability
    shapes = [(4, 6), (10, 10), (100, 30), (300, 784), (1000, 1000)]
    probs = [er_probability(0.5, a, b) for a, b in shapes]
    assert all(x > y for x, y in zip(probs, probs[1:]))


def expected_density(eps, dims):
    sizes = [a * b for a, b in dims]
    kept = sum(er_probability(eps, a, b) * a * b for a, b in dims)
    return kept / sum(sizes)


def test_calibrate_epsilon_closed_form_single_layer():
    assert calibrate_epsilon([(4, 6)], 0.5) == pytest.approx(1.2)


def test_calibrate_epsilon_two_layer_hand_value():
    eps = calibrate_epsilon([(10, 10), (100, 100)], 0.05)
    assert eps == pytest.approx(0.05 * (100 + 10000) / (20 + 200), rel=1e-9)
    assert expected_density(eps, [(10, 10), (100, 100)]) == pytest.approx(0.05, rel=1e-6)


def test_calibrate_epsilon_saturation():
    eps = calibrate_epsilon([(4, 6)], 1.0)
    assert expected_density(eps, [(4, 6)]) == pytest.approx(1.0)


def test_calibrate_epsilon_with_clipping():
    # the small layer clips to probability 1, bisection must compensate
    dims = [(2, 2), (100, 100)]
    eps = calibrate_epsilon(dims, 0.9)
    assert er_probability(eps, 2, 2) == 1.0
    assert expected_density(eps, dims) == pytest.approx(0.9, rel=1e-6)


# --------------------------------------------------------- initialization


def test_er_initialize_density_and_determinism():
    def build():
        rng = np.random.default_rng(42)
        net = Net([64, 32, 16, 4], rng)
        er_initialize(net, 0.1, np.random.default_rng(5))
        return net

    net = build()
    total = sum(l.w.data.size for l in net.layers)
    assert active_count(net) == math.floor(0.1 * total)
    assert 0.099 <= sparsity(net) <= 0.101
    assert net.omega == 0.1
    assert net.epsilon > 0
    # survivors drawn, dead positions exactly zero
    for layer in net.layers:
        assert np.all(layer.w.data[layer.mask == 0.0] == 0.0)
        assert np.all(layer.w.data[layer.mask == 1.0] != 0.0)

    other = build()
    for a, b in zip(net.layers, other.layers):
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.w.data, b.w.data)


def test_er_initialize_when_no_count_lies_within_ten_percent():
    # 4x3 at omega 0.3 expects 3.6 +- 0.36 weights, a window that holds no
    # whole count, so draws within one weight of 3.6 pass instead
    for seed in range(10):
        net = Net([4, 3], np.random.default_rng(seed))
        er_initialize(net, 0.3, np.random.default_rng(seed))
        assert active_count(net) == 3


def test_er_initialize_full_density():
    rng = np.random.default_rng(1)
    net = Net([8, 4], rng)
    er_initialize(net, 1.0, np.random.default_rng(2))
    assert sparsity(net) == 1.0


def test_sparsity_direct_counts():
    net, layer = single_layer([0.5, 0.0, 0.3, 0.0], [1, 0, 1, 0])
    assert sparsity(net) == pytest.approx(0.5)
    layer.mask[...] = 0.0
    layer.w.data[...] = 0.0
    assert sparsity(net) == 0.0


# ----------------------------------------------------------------- pruning


def test_prune_magnitude_frozen_cases():
    net, layer = single_layer([0.5, -0.01, 0.3, 0.002], [1, 1, 1, 1])
    removed = _smallest_active(layer, 2)
    assert removed.tolist() == [1, 3]
    pruned = applied(net, pruned=removed)
    assert pruned.w.data[0, 1] == 0.0 and pruned.mask[0, 1] == 0.0

    _, layer = single_layer([0.5, 0.5, 0.1], [1, 1, 1])
    assert _smallest_active(layer, 1).tolist() == [2]

    _, layer = single_layer([0.2, -0.2], [1, 1])
    assert _smallest_active(layer, 1).tolist() == [0]


def test_prune_magnitude_count_too_large():
    _, layer = single_layer([0.5, 0.0], [1, 0])
    with pytest.raises(ValueError):
        _smallest_active(layer, 2)


def test_prune_magnitude_brute_force_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        weights = rng.normal(size=n)
        mask = (rng.random(n) < 0.7).astype(float)
        weights = weights * mask
        act = np.flatnonzero(mask)
        if act.size == 0:
            continue
        count = int(rng.integers(0, act.size + 1))
        _, layer = single_layer(weights, mask)
        removed = set(_smallest_active(layer, count).tolist())
        reference = sorted(act, key=lambda i: (abs(weights[i]), i))[:count]
        assert removed == set(reference)


def test_prune_threshold_frozen_cases():
    _, layer = single_layer([0.5, -0.01, 0.3, 0.002], [1, 1, 1, 1])
    assert _below_threshold(layer, 0.05).tolist() == [1, 3]

    _, layer = single_layer([0.5, -0.01], [1, 1])
    assert _below_threshold(layer, 0.0).tolist() == []

    _, layer = single_layer([0.5, -0.01, 0.3], [1, 1, 1])
    assert _below_threshold(layer, np.inf).tolist() == [0, 1, 2]


# ------------------------------------------------------------------ growth


def test_grow_gradient_frozen_case():
    net, layer = single_layer([0.4, 0.0, 0.0, 0.0, 0.2], [1, 0, 0, 0, 1])
    grads = np.array([[5.0, 0.9, 1.2, 0.05, 5.0]])
    grown = _largest_gradient(grads, inactive_pool(layer), 2)
    assert sorted(grown.tolist()) == [1, 2]
    out = applied(net, grown=grown)
    assert out.w.data[0, 1] == 0.0 and out.mask[0, 1] == 1.0
    assert _largest_gradient(grads, inactive_pool(layer), 0).tolist() == []


def test_grow_gradient_tie_breaks_low_index():
    _, layer = single_layer([1.0, 0.0, 0.0], [1, 0, 0])
    grads = np.array([[0.0, 0.7, -0.7]])
    assert _largest_gradient(grads, inactive_pool(layer), 1).tolist() == [1]


def test_grow_gradient_brute_force_oracle():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        mask = (rng.random(n) < 0.4).astype(float)
        weights = rng.normal(size=n) * mask
        grads = rng.normal(size=n)
        inactive = np.flatnonzero(mask == 0.0)
        if inactive.size == 0:
            continue
        count = int(rng.integers(0, inactive.size + 1))
        _, layer = single_layer(weights, mask)
        grown = set(_largest_gradient(grads, inactive_pool(layer),
                                      count).tolist())
        reference = sorted(inactive, key=lambda i: (-abs(grads[i]), i))[:count]
        assert grown == set(reference)


def test_grow_random_forced_and_deterministic():
    # one of two active weights is pruned, and one inactive position is left
    pair = StrategyPair("magnitude", "random")
    net, _ = single_layer([0.5, 0.0, 0.7], [1, 0, 1])
    plan = sparse_update(net, pair, 0.3, 0.0, {}, np.random.default_rng(3))
    assert [g.tolist() for g in plan.grown] == [[1]]

    rng = np.random.default_rng(11)
    net2 = Net([10, 6, 4], rng)
    er_initialize(net2, 0.3, np.random.default_rng(1))

    def grow_both(net):
        return sparse_update(net, pair, 0.3, 0.0, {},
                             np.random.default_rng(77))

    plan = grow_both(net2)
    assert [g.size for g in plan.grown] == [p.size for p in plan.pruned]
    assert all(g.size for g in plan.grown)
    assert ([g.tolist() for g in plan.grown]
            == [g.tolist() for g in grow_both(copy.deepcopy(net2)).grown])


# ----------------------------------------------------------- sparse_update


def make_grads(net, rng):
    return {k: rng.normal(size=l.w.data.shape)
            for k, l in enumerate(net.masked_layers())}


def test_sparse_update_rate_rounding_rule():
    # 10 active, rate 0.2 -> exactly 2 pruned and 2 grown in that layer
    rng = np.random.default_rng(12)
    net = Net([5, 4], rng)
    er_initialize(net, 0.5, np.random.default_rng(3))
    assert active_count(net) == 10
    pair = StrategyPair("magnitude", "random")
    out = sparse_update(net, pair, 0.2, 0.0, make_grads(net, rng),
                        np.random.default_rng(4)).apply(net)
    assert active_count(out) == 10
    changed = (out.layers[0].mask != net.layers[0].mask).sum()
    assert changed == 4  # 2 positions left, 2 positions joined


def test_sparse_update_min_one_rule():
    rng = np.random.default_rng(13)
    net = Net([5, 4], rng)
    er_initialize(net, 0.5, np.random.default_rng(3))
    pair = StrategyPair("magnitude", "random")
    out = sparse_update(net, pair, 0.01, 0.0, make_grads(net, rng),
                        np.random.default_rng(4)).apply(net)
    changed = (out.layers[0].mask != net.layers[0].mask).sum()
    assert changed == 2  # floor(0.01*10) = 0, bumped to 1 pruned + 1 grown


def test_sparse_update_preserves_counts_and_parent():
    rng = np.random.default_rng(14)
    for trial in range(60):
        widths = [int(rng.integers(4, 12)) for _ in range(3)]
        net = Net(widths, rng)
        omega = float(rng.uniform(0.2, 0.6))
        er_initialize(net, omega, np.random.default_rng(trial))
        before = active_count(net)
        snapshot = [l.w.data.copy() for l in net.layers]
        masks = [l.mask.copy() for l in net.layers]
        pair = ALL_PAIRS[trial % 4]
        tau = float(np.quantile(np.abs(np.concatenate(
            [l.w.data[l.mask == 1.0] for l in net.layers])), 0.2))
        out = sparse_update(net, pair, 0.25, tau, make_grads(net, rng),
                            np.random.default_rng(trial + 1)).apply(net)
        assert active_count(out) == before
        for layer, w, m in zip(net.layers, snapshot, masks):
            assert np.array_equal(layer.w.data, w)
            assert np.array_equal(layer.mask, m)
        for layer in out.layers:
            assert np.all(layer.w.data[layer.mask == 0.0] == 0.0)


def test_sparse_update_prune_and_grow_disjoint():
    rng = np.random.default_rng(15)
    net = Net([10, 8, 4], rng)
    er_initialize(net, 0.3, np.random.default_rng(2))
    parent_masks = [l.mask.copy() for l in net.layers]
    out = sparse_update(net, StrategyPair("magnitude", "gradient"), 0.3, 0.0,
                        make_grads(net, rng), np.random.default_rng(3)).apply(net)
    for k, layer in enumerate(out.layers):
        pruned = (parent_masks[k] == 1.0) & (layer.mask == 0.0)
        grown = (parent_masks[k] == 0.0) & (layer.mask == 1.0)
        assert not np.any(pruned & grown)
        assert pruned.sum() == grown.sum()


def test_sparse_update_threshold_wipeout_raises():
    rng = np.random.default_rng(16)
    net = Net([6, 4], rng)
    er_initialize(net, 0.5, np.random.default_rng(2))
    with pytest.raises(DegenerateUpdateError):
        sparse_update(net, StrategyPair("threshold", "random"), 0.2, np.inf,
                      make_grads(net, rng), np.random.default_rng(3))


def near_dense_net():
    """Layer 0 has 11 of 12 weights active, so pruning it leaves a smaller
    inactive pool than it needs and the shortfall is regrown from the
    just-pruned positions; layer 1 has 6 of 15 active."""
    net = Net([4, 3, 5], np.random.default_rng(21))
    first, second = net.layers
    first.mask.reshape(-1)[5] = 0.0
    second.mask[...] = 0.0
    second.mask.reshape(-1)[[0, 4, 7, 9, 12, 14]] = 1.0
    for layer in net.layers:
        layer.w.data *= layer.mask
    grads = {k: np.random.default_rng(22 + k).normal(size=l.w.data.shape)
             for k, l in enumerate(net.layers)}
    return net, grads


@pytest.mark.parametrize("pair, grown", [
    (StrategyPair("magnitude", "gradient"), [[0, 4, 5], [3]]),
    (StrategyPair("magnitude", "random"), [[4, 5, 8], [1]]),
    (StrategyPair("threshold", "gradient"), [[0, 4, 5, 10], [3, 5, 13]]),
    (StrategyPair("threshold", "random"), [[0, 4, 5, 10], [1, 5, 8]]),
], ids=lambda v: v.tag() if isinstance(v, StrategyPair) else None)
def test_sparse_update_near_dense_regrowth_is_pinned(pair, grown):
    net, grads = near_dense_net()
    out = sparse_update(net, pair, 0.3, 0.3, grads,
                        np.random.default_rng(23)).apply(net)
    # grown weights start at 0 and every surviving parent weight is nonzero
    assert [np.flatnonzero((l.mask == 1.0) & (l.w.data == 0.0)).tolist()
            for l in out.layers] == grown
    assert active_count(out) == active_count(net)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=StrategyPair.tag)
def test_sparse_update_dense_layer_keeps_mask(pair):
    net, grads = near_dense_net()
    first = net.layers[0]
    first.mask[...] = 1.0
    first.w.data[...] = np.random.default_rng(24).normal(0.0, 0.5, (3, 4))
    out = sparse_update(net, pair, 0.3, 0.3, grads,
                        np.random.default_rng(23)).apply(net)
    w = first.w.data.reshape(-1)
    if pair.prune == "magnitude":
        pruned = np.argsort(np.abs(w), kind="stable")[:3]
    else:
        pruned = np.flatnonzero(np.abs(w) < 0.3)
    assert pruned.size > 0
    expected = w.copy()
    expected[pruned] = 0.0
    assert np.array_equal(out.layers[0].mask, first.mask)
    assert np.array_equal(out.layers[0].w.data.reshape(-1), expected)


def reference_update(model, pair, prune_rate, tau, dense_gradients, rng):
    """The sparse update as it was made before it became a plan: prune and
    regrow a deep copy in place, growth by gradient ranked with a full
    lexsort. The planned update must match it bit for bit."""
    new = copy.deepcopy(model)
    layers = new.masked_layers()

    def set_mask(k, chosen, value):
        layers[k].mask.reshape(-1)[chosen] = value
        layers[k].w.data.reshape(-1)[chosen] = 0.0

    def grow(k, pool, count):
        if count and pair.grow == "gradient":
            g = np.asarray(dense_gradients[k]).reshape(-1)
            order = np.lexsort((pool, -np.abs(g[pool])))
            set_mask(k, pool[order[:count]], True)
        elif count:
            set_mask(k, rng.choice(pool, size=count, replace=False), True)

    plan = []
    for k, layer in enumerate(layers):
        w, m = layer.w.data.reshape(-1), layer.mask.reshape(-1)
        act = int(np.count_nonzero(m))
        pool = np.flatnonzero(~m)
        if pair.prune == "magnitude":
            count = max(math.floor(prune_rate * act), int(act > 1))
            live = np.flatnonzero(m)
            pruned = np.sort(live[np.lexsort((live, np.abs(w[live])))[:count]])
        else:
            pruned = np.flatnonzero(m & (np.abs(w) < tau))
            if act > 0 and pruned.size == act:
                raise DegenerateUpdateError(f"layer {k}")
        set_mask(k, pruned, False)
        plan.append((pool, pruned))
    for k, (pool, pruned) in enumerate(plan):
        grow(k, pool, min(pruned.size, pool.size))
    for k, (pool, pruned) in enumerate(plan):
        grow(k, pruned, max(pruned.size - pool.size, 0))
    return new


def layer_bytes(model):
    """Every weight (with the sign of each zero) and mask of a model."""
    tensors = model.params() if hasattr(model, "params") else [
        l.w for l in model.masked_layers()]
    return ([p.data.tobytes() for p in tensors]
            + [l.mask.tobytes() for l in model.masked_layers()])


def update_cases():
    """(name, model, gradients, tau): MLP and CNN targets with Gaussian and
    heavily tied gradients, the near-dense nets and a threshold that wipes
    out the second layer only."""
    rng = np.random.default_rng(31)
    mlp = build_target(TargetSpec(kind="mlp", input_shape=(12,), classes=4,
                                  hidden=(32, 16)), 0.3, rng)
    cnn = build_target(TargetSpec(kind="cnn", input_shape=(1, 8, 8),
                                  classes=3, channels=(4, 8)), 0.4, rng)
    for name, model in (("mlp", mlp), ("cnn", cnn)):
        pooled = np.concatenate([np.abs(l.w.data[l.mask])
                                 for l in model.masked_layers()])
        tau = float(np.quantile(pooled, 0.3))
        normal = make_grads(model, rng)
        tied = {k: np.round(g) for k, g in make_grads(model, rng).items()}
        yield f"{name}-normal", model, normal, tau
        yield f"{name}-tied", model, tied, tau
    net, grads = near_dense_net()
    yield "near-dense", net, grads, 0.3
    dense, grads = near_dense_net()
    dense.layers[0].mask[...] = True
    dense.layers[0].w.data[...] = rng.normal(0.0, 0.5, (3, 4))
    yield "dense-layer", dense, grads, 0.3
    wiped, grads = near_dense_net()
    wiped.layers[1].w.data[wiped.layers[1].mask] = 1e-3
    yield "wiped-second-layer", wiped, grads, 0.01


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=StrategyPair.tag)
def test_planned_update_matches_the_deep_copy_update_bitwise(pair):
    for name, model, grads, tau in update_cases():
        for rate in (0.1, 0.3, 0.6):
            parent = layer_bytes(model)
            planned_rng = np.random.default_rng(41)
            reference_rng = np.random.default_rng(41)
            try:
                expected = reference_update(model, pair, rate, tau, grads,
                                            reference_rng)
            except DegenerateUpdateError:
                expected = None
            if expected is None:
                with pytest.raises(DegenerateUpdateError):
                    sparse_update(model, pair, rate, tau, grads, planned_rng)
            else:
                update = sparse_update(model, pair, rate, tau, grads,
                                       planned_rng)
                assert layer_bytes(model) == parent, name
                assert layer_bytes(update.apply(model)) == layer_bytes(
                    expected), (name, rate)
            assert (planned_rng.bit_generator.state
                    == reference_rng.bit_generator.state), (name, rate)
    # the last case is degenerate for the threshold pairs
    assert (expected is None) == (pair.prune == "threshold")


def test_grow_gradient_takes_the_lowest_indices_tied_at_the_cutoff():
    rng = np.random.default_rng(32)
    for _ in range(200):
        n = int(rng.integers(20, 120))
        mask = rng.random(n) < 0.3
        # magnitudes 0..3 only, so most entries tie with the cutoff
        grads = rng.integers(-3, 4, size=n).astype(np.float64)
        net, layer = single_layer(rng.normal(size=n) * mask, mask)
        pool = inactive_pool(layer)
        count = int(rng.integers(0, pool.size + 1))
        grown = _largest_gradient(grads.reshape(1, -1), pool, count)
        reference = sorted(pool, key=lambda i: (-abs(grads[i]), i))[:count]
        assert grown.tolist() == sorted(reference)
        assert np.flatnonzero(applied(net, grown=grown).mask).tolist() == (
            sorted(np.flatnonzero(mask).tolist() + reference))


def test_strategy_pairs_enumeration():
    assert len(ALL_PAIRS) == 4
    assert len(set(ALL_PAIRS)) == 4
    assert ALL_PAIRS[0] == StrategyPair("magnitude", "gradient")
    with pytest.raises(ValueError):
        StrategyPair("taste", "random")


def test_prune_rate_cosine_endpoints():
    assert prune_rate_at(0, 10, 0.2, 0.02) == pytest.approx(0.2)
    assert prune_rate_at(9, 10, 0.2, 0.02) == pytest.approx(0.02)
    mid = prune_rate_at(5, 11, 0.2, 0.02)
    assert mid == pytest.approx(0.11)
    assert prune_rate_at(0, 1, 0.2, 0.02) == pytest.approx(0.2)
