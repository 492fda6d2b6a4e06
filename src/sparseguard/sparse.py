"""Sparse mask management: Erdos-Renyi initialization against a global
density budget, sparsity accounting, the two pruning and two growth
strategies, and the count-preserving dynamic update: `sparse_update` plans
it on a model it only reads, and `SparseUpdate.apply` builds the updated
copy.

A "model" here is anything with masked_layers() returning layers whose .w is
a Parameter carrying a bool mask of the same shape. Prune and grow act
on one layer at a time and address its positions as flat row-major indices
into that layer's weight tensor. Every writer here keeps the sparse-topology
rule (see `numcore.Parameter`): a weight whose mask entry is 0 holds ±0,
which the optimizers keep too and checkpoint loading checks.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .document import check_ranges, one_of

PRUNE_KINDS = ("magnitude", "threshold")
GROW_KINDS = ("gradient", "random")


class DegenerateUpdateError(RuntimeError):
    """Threshold pruning would wipe out every active weight in a layer."""


@dataclass(frozen=True, order=True)
class StrategyPair:
    """One pruning strategy crossed with one growth strategy. Field order
    doubles as the fixed tie-break order: magnitude < threshold, gradient <
    random."""

    prune: str = one_of(PRUNE_KINDS)
    grow: str = one_of(GROW_KINDS)

    def __post_init__(self):
        check_ranges(self, "strategy ")

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


def er_initialize(model, omega: float, rng: np.random.Generator):
    """Draw per-layer Bernoulli masks at the calibrated eps, redraw when the
    realized count misses omega * total by over 10% (by over 1 if no count
    is that close; 20 attempts at most), then flip random positions to land
    on floor(omega * total) active weights exactly. Surviving weights are
    redrawn from normal(0, sqrt(2/fan_in)); dead positions are exactly 0."""
    layers = model.masked_layers()
    if not layers:
        raise ValueError("model has no maskable layers")
    dims = [_layer_dims(l) for l in layers]
    eps = calibrate_epsilon(dims, omega)
    probs = [er_probability(eps, a, b) for a, b in dims]
    total = sum(a * b for a, b in dims)
    expected, tolerance = omega * total, 0.10 * omega * total
    if math.floor(expected + tolerance) < expected - tolerance:
        tolerance = 1.0  # the 10% window holds no whole count
    target = math.floor(expected)

    for attempt in range(20):
        masks = [rng.random(l.w.data.shape) < p
                 for l, p in zip(layers, probs)]
        realized = sum(int(m.sum()) for m in masks)
        if abs(realized - expected) <= tolerance:
            break
    else:
        raise RuntimeError("er_initialize: redraw budget exhausted (20 attempts)")

    # global random flips to hit the target count exactly
    flat = np.concatenate([m.reshape(-1) for m in masks])
    diff = realized - target
    if diff > 0:
        candidates = np.flatnonzero(flat)
        flat[rng.choice(candidates, size=diff, replace=False)] = False
    elif diff < 0:
        candidates = np.flatnonzero(~flat)
        flat[rng.choice(candidates, size=-diff, replace=False)] = True
    bounds = np.cumsum([m.size for m in masks])[:-1]
    for layer, part, (_, fan_in) in zip(layers, np.split(flat, bounds), dims):
        mask = part.reshape(layer.w.data.shape)
        layer.w.mask[...] = mask
        layer.w.data[...] = rng.normal(
            0.0, math.sqrt(2.0 / fan_in), mask.shape) * mask

    model.omega = omega
    model.epsilon = eps
    return model


def _flat_views(layer):
    return layer.w.data.reshape(-1), layer.w.mask.reshape(-1)


def _set_mask(layer, chosen: np.ndarray, value: bool) -> np.ndarray:
    # pruned weights are dead and grown weights start at 0
    w, m = _flat_views(layer)
    m[chosen] = value
    w[chosen] = 0.0
    return chosen


def _smallest_active(layer, count: int) -> np.ndarray:
    w, m = _flat_views(layer)
    act = np.flatnonzero(m)
    if count > act.size:
        raise ValueError(f"cannot prune {count} of {act.size} active weights")
    order = np.lexsort((act, np.abs(w[act])))
    return np.sort(act[order[:count]])


def _below_threshold(layer, tau: float) -> np.ndarray:
    if tau < 0:
        raise ValueError("tau must be non-negative")
    w, m = _flat_views(layer)
    return np.flatnonzero(m & (np.abs(w) < tau))


def _largest_gradient(gradient, pool: np.ndarray, count: int) -> np.ndarray:
    # every entry above the count-th largest |g|, then the lowest-index
    # entries equal to it; pool is ascending, so the result is too
    if count == 0 or count >= pool.size:
        return pool[:count]
    mags = np.asarray(gradient).reshape(-1)[pool]
    np.abs(mags, out=mags)
    kth = mags.size - count
    cutoff = np.partition(mags, kth)[kth]
    chosen = mags > cutoff
    ties = np.flatnonzero(mags == cutoff)
    chosen[ties[:count - np.count_nonzero(chosen)]] = True
    return pool[chosen]


@dataclass(frozen=True)
class SparseUpdate:
    """One planned prune-and-regrow step: per masked layer, the flat indices
    it prunes, grows from its pre-prune inactive positions and regrows from
    the just-pruned ones, and the active count the layer keeps."""

    pruned: tuple[np.ndarray, ...]
    grown: tuple[np.ndarray, ...]
    regrown: tuple[np.ndarray, ...]
    active: tuple[int, ...]

    def apply(self, model):
        """A deep copy of the model with the update made: every pruned,
        grown and regrown weight is set to 0.0, prune before grow before
        regrow."""
        new = copy.deepcopy(model)
        layers = new.masked_layers()
        for layer, chosen in zip(layers, self.pruned):
            _set_mask(layer, chosen, False)
        for layer, chosen in zip(layers, self.grown):
            _set_mask(layer, chosen, True)
        for k, (layer, chosen) in enumerate(zip(layers, self.regrown)):
            _set_mask(layer, chosen, True)
            if np.count_nonzero(layer.mask) != self.active[k]:
                raise RuntimeError(f"sparse update changed the active count "
                                   f"of layer {k}")
        return new


def sparse_update(model, pair: StrategyPair, prune_rate: float, tau: float,
                  dense_gradients: dict, rng: np.random.Generator
                  ) -> SparseUpdate:
    """Plan a prune then regrow of the model that preserves the active count
    of every layer exactly; the model is only read. A threshold that wipes
    out a layer raises DegenerateUpdateError. Each layer regrows from its
    pre-prune inactive positions; when those are too few (near-dense), a
    second pass over the layers regrows the shortfall from the just-pruned
    positions. Random growth draws from `rng` in that order, layer by layer.
    `SparseUpdate.apply` builds the updated copy."""
    if not 0.0 < prune_rate < 1.0:
        raise ValueError("prune_rate must be in (0, 1)")

    def grow(k, pool, count):  # a count of 0 makes no random draw
        if pair.grow == "gradient":
            return _largest_gradient(dense_gradients[k], pool, count)
        if count:
            return rng.choice(pool, size=count, replace=False)
        return pool[:0]

    layers = model.masked_layers()
    active, pruned = [], []
    for k, layer in enumerate(layers):
        act = int(np.count_nonzero(layer.mask))
        if pair.prune == "magnitude":
            cut = _smallest_active(
                layer, max(math.floor(prune_rate * act), int(act > 1)))
        else:
            cut = _below_threshold(layer, tau)
            if act > 0 and cut.size == act:
                raise DegenerateUpdateError(
                    f"threshold {tau} wipes out all {act} active weights in layer {k}")
        active.append(act)
        pruned.append(cut)

    # a layer's pre-prune inactive pool is built only while the layer grows;
    # the regrowth makes up what that pool was too small to give
    grown = [grow(k, np.flatnonzero(~layer.mask.reshape(-1)),
                  min(cut.size, layer.mask.size - act))
             for k, (layer, act, cut) in enumerate(zip(layers, active, pruned))]
    regrown = [grow(k, cut, cut.size - got.size)
               for k, (cut, got) in enumerate(zip(pruned, grown))]
    return SparseUpdate(tuple(pruned), tuple(grown), tuple(regrown),
                        tuple(active))


def prune_rate_at(iteration: int, total_iterations: int, start: float,
                  end: float) -> float:
    """Cosine anneal from start (iteration 0) to end (last iteration)."""
    if total_iterations <= 1:
        return start
    t = iteration / (total_iterations - 1)
    return end + 0.5 * (start - end) * (1.0 + math.cos(math.pi * min(t, 1.0)))
