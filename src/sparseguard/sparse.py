"""Sparse mask management: Erdos-Renyi initialization against a global
density budget, sparsity accounting, the two pruning and two growth
strategies, and the count-preserving dynamic update.

A "model" here is anything with masked_layers() returning layers whose .w is
a Parameter carrying a 0/1 float mask of the same shape. Positions are
addressed as (layer_index, flat_row_major_index) pairs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

PRUNE_KINDS = ("magnitude", "threshold")
GROW_KINDS = ("gradient", "random")


class DegenerateUpdateError(RuntimeError):
    """Threshold pruning would wipe out every active weight in a layer."""


@dataclass(frozen=True, order=True)
class StrategyPair:
    """One pruning strategy crossed with one growth strategy. Field order
    doubles as the fixed tie-break order: magnitude < threshold, gradient <
    random."""

    prune: str
    grow: str

    def __post_init__(self):
        if self.prune not in PRUNE_KINDS:
            raise ValueError(f"unknown prune strategy {self.prune!r}")
        if self.grow not in GROW_KINDS:
            raise ValueError(f"unknown grow strategy {self.grow!r}")

    def tag(self) -> str:
        return f"{self.prune}:{self.grow}"


ALL_PAIRS = tuple(
    StrategyPair(p, g) for p in PRUNE_KINDS for g in GROW_KINDS
)


def er_probability(epsilon: float, n_k: int, n_prev: int) -> float:
    """Connection keep probability min(1, eps*(n_k+n_prev)/(n_k*n_prev))."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return min(1.0, epsilon * (n_k + n_prev) / (n_k * n_prev))


def calibrate_epsilon(layer_dims, omega: float) -> float:
    """Solve for eps so the expected kept fraction over all layers is omega.

    Returns the closed form omega*sum(n_k*n_prev)/sum(n_k+n_prev) when no
    layer clips at probability 1; otherwise bisects to relative error 1e-6.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError("omega must be in (0, 1]")
    dims = [(int(a), int(b)) for a, b in layer_dims]
    sizes = [a * b for a, b in dims]
    total = sum(sizes)

    def density(eps):
        return sum(er_probability(eps, a, b) * a * b for a, b in dims) / total

    closed = omega * sum(sizes) / sum(a + b for a, b in dims)
    if all(closed * (a + b) / (a * b) <= 1.0 for a, b in dims):
        return closed

    lo, hi = 0.0, max(closed, 1.0)
    while density(hi) < omega - 1e-15:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d = density(mid)
        if abs(d - omega) <= 1e-6 * omega:
            return mid
        if d < omega:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _layer_dims(layer) -> tuple[int, int]:
    # a conv bank (co, ci, kh, kw) counts as the 2-D matrix (co, ci*kh*kw)
    shape = layer.w.data.shape
    return shape[0], int(np.prod(shape[1:]))


def active_count(model) -> int:
    return int(sum(np.count_nonzero(l.mask) for l in model.masked_layers()))


def maskable_count(model) -> int:
    return int(sum(l.w.data.size for l in model.masked_layers()))


def sparsity(model) -> float:
    """Kept fraction: sum_k ||M^k||_0 / sum_k size(W^k), maskable layers only."""
    return active_count(model) / maskable_count(model)


def er_initialize(model, omega: float, rng: np.random.Generator):
    """Draw per-layer Bernoulli masks at the calibrated eps, redraw when the
    realized density misses omega by more than 10% relative (at most 20
    attempts), then flip random positions to land exactly on
    floor(omega * total) active weights. Surviving weights are redrawn from
    normal(0, sqrt(2/fan_in)); dead positions are exactly 0."""
    layers = model.masked_layers()
    if not layers:
        raise ValueError("model has no maskable layers")
    dims = [_layer_dims(l) for l in layers]
    eps = calibrate_epsilon(dims, omega)
    probs = [er_probability(eps, a, b) for a, b in dims]
    total = sum(a * b for a, b in dims)
    target = math.floor(omega * total)

    for attempt in range(20):
        masks = [(rng.random(l.w.data.shape) < p).astype(np.float64)
                 for l, p in zip(layers, probs)]
        realized = sum(int(m.sum()) for m in masks)
        if abs(realized - omega * total) <= 0.10 * omega * total:
            break
    else:
        raise RuntimeError("er_initialize: redraw budget exhausted (20 attempts)")

    # global random flips to hit the target count exactly
    flat = np.concatenate([m.reshape(-1) for m in masks])
    diff = realized - target
    if diff > 0:
        candidates = np.flatnonzero(flat == 1.0)
        flat[rng.choice(candidates, size=diff, replace=False)] = 0.0
    elif diff < 0:
        candidates = np.flatnonzero(flat == 0.0)
        flat[rng.choice(candidates, size=-diff, replace=False)] = 1.0
    offset = 0
    for layer, mask in zip(layers, masks):
        size = mask.size
        mask[...] = flat[offset:offset + size].reshape(mask.shape)
        offset += size

    for layer, mask, (_, fan_in) in zip(layers, masks, dims):
        layer.w.mask[...] = mask
        layer.w.data[...] = rng.normal(
            0.0, math.sqrt(2.0 / fan_in), layer.w.data.shape) * mask

    model.omega = omega
    model.epsilon = eps
    return model


def _flat_views(layer):
    return layer.w.data.reshape(-1), layer.w.mask.reshape(-1)


def prune_magnitude(model, count_per_layer: dict) -> set:
    """Deactivate the count smallest-|w| active weights per layer; ties go to
    the lowest flat index. Returns the set of (layer, flat index) removed."""
    removed = set()
    for k, layer in enumerate(model.masked_layers()):
        count = int(count_per_layer.get(k, 0))
        if count == 0:
            continue
        w, m = _flat_views(layer)
        act = np.flatnonzero(m == 1.0)
        if count > act.size:
            raise ValueError(
                f"layer {k}: cannot prune {count} of {act.size} active weights")
        order = np.lexsort((act, np.abs(w[act])))
        chosen = act[order[:count]]
        m[chosen] = 0.0
        w[chosen] = 0.0
        removed.update((k, int(i)) for i in chosen)
    return removed


def prune_threshold(model, tau: float) -> set:
    """Deactivate every active weight with |w| < tau."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    removed = set()
    for k, layer in enumerate(model.masked_layers()):
        w, m = _flat_views(layer)
        chosen = np.flatnonzero((m == 1.0) & (np.abs(w) < tau))
        m[chosen] = 0.0
        w[chosen] = 0.0
        removed.update((k, int(i)) for i in chosen)
    return removed


def _grow(layer, k, chosen, grown):
    w, m = _flat_views(layer)
    m[chosen] = 1.0
    w[chosen] = 0.0  # grown weights start at 0
    grown.update((k, int(i)) for i in chosen)


def _inactive_pool(layer, k: int, count: int, exclude: set | None) -> np.ndarray:
    """Flat indices of layer k's inactive positions outside exclude; there
    must be at least count of them."""
    _, m = _flat_views(layer)
    pool = np.flatnonzero(m == 0.0)
    if exclude:
        banned = {f for kk, f in exclude if kk == k}
        if banned:
            pool = pool[~np.isin(pool, list(banned))]
    if count > pool.size:
        raise ValueError(
            f"layer {k}: cannot grow {count} of {pool.size} inactive positions")
    return pool


def grow_gradient(model, dense_gradients: dict, counts: dict, rng,
                  exclude: set | None = None) -> set:
    """Activate the counts[k] inactive positions with largest |dL/dw| per
    layer, using the dense pre-mask gradients; ties go to the lowest flat
    index. rng is accepted for signature symmetry and unused. Positions in
    exclude are not considered."""
    del rng
    grown = set()
    for k, layer in enumerate(model.masked_layers()):
        count = int(counts.get(k, 0))
        if count == 0:
            continue
        g = np.asarray(dense_gradients[k]).reshape(-1)
        pool = _inactive_pool(layer, k, count, exclude)
        order = np.lexsort((pool, -np.abs(g[pool])))
        _grow(layer, k, pool[order[:count]], grown)
    return grown


def grow_random(model, counts: dict, rng: np.random.Generator,
                exclude: set | None = None) -> set:
    """Activate counts[k] inactive positions per layer, uniformly without
    replacement. Positions in exclude are not considered."""
    grown = set()
    for k, layer in enumerate(model.masked_layers()):
        count = int(counts.get(k, 0))
        if count == 0:
            continue
        pool = _inactive_pool(layer, k, count, exclude)
        _grow(layer, k, rng.choice(pool, size=count, replace=False), grown)
    return grown


def sparse_update(model, pair: StrategyPair, prune_rate: float, tau: float,
                  dense_gradients: dict, rng: np.random.Generator):
    """Prune then regrow a deep copy of the model, preserving the active
    count of every layer exactly. Just-pruned positions are excluded from
    regrowth; in the degenerate near-dense case where the remaining inactive
    pool is too small, the shortfall is regrown from the pruned pool so the
    count contract always holds."""
    if not 0.0 < prune_rate < 1.0:
        raise ValueError("prune_rate must be in (0, 1)")
    new = copy.deepcopy(model)
    layers = new.masked_layers()

    if pair.prune == "magnitude":
        counts = {}
        for k, layer in enumerate(layers):
            act = int(np.count_nonzero(layer.mask))
            n = math.floor(prune_rate * act)
            if n == 0 and act > 1:
                n = 1
            counts[k] = n
        pruned = prune_magnitude(new, counts)
    else:
        for k, layer in enumerate(layers):
            w, m = _flat_views(layer)
            act = np.count_nonzero(m)
            doomed = np.count_nonzero((m == 1.0) & (np.abs(w) < tau))
            if act > 0 and doomed == act:
                raise DegenerateUpdateError(
                    f"threshold {tau} wipes out all {act} active weights in layer {k}")
        pruned = prune_threshold(new, tau)

    grow_counts = {}
    for k, _ in enumerate(layers):
        grow_counts[k] = sum(1 for kk, _ in pruned if kk == k)

    # split per layer into what fits outside the pruned set and any shortfall
    main, fallback = {}, {}
    for k, layer in enumerate(layers):
        _, m = _flat_views(layer)
        inactive = int(np.count_nonzero(m == 0.0))
        pruned_k = grow_counts[k]
        room = inactive - pruned_k
        main[k] = min(grow_counts[k], room)
        fallback[k] = grow_counts[k] - main[k]

    if pair.grow == "gradient":
        grown = grow_gradient(new, dense_gradients, main, rng, exclude=pruned)
        if any(fallback.values()):
            grown |= grow_gradient(new, dense_gradients, fallback, rng)
    else:
        grown = grow_random(new, main, rng, exclude=pruned)
        if any(fallback.values()):
            grown |= grow_random(new, fallback, rng)
    assert len(grown) == len(pruned)
    return new


def prune_rate_at(iteration: int, total_iterations: int, start: float,
                  end: float) -> float:
    """Cosine anneal from start (iteration 0) to end (last iteration)."""
    if total_iterations <= 1:
        return start
    t = iteration / (total_iterations - 1)
    return end + 0.5 * (start - end) * (1.0 + math.cos(math.pi * min(t, 1.0)))
