"""Gradient-gate registry tests: full pass, anti-vacuity, negative control."""

import numpy as np
import pytest

from sparseguard import gradcheck
from sparseguard.numcore import Tape, Tensor
from sparseguard.numcore.layers import Linear
from sparseguard.numcore import ops
from sparseguard.numcore.tensor import active_tape


def test_all_cases_pass_tolerance():
    results = gradcheck.run_cases()
    assert len(results) == len(gradcheck.CASES)
    for r in results:
        assert r.passed, f"{r.name}: {r.max_rel_err}"
    assert gradcheck.worst_case(results).max_rel_err < gradcheck.TOLERANCE


def test_empty_selection_rejected():
    with pytest.raises(ValueError, match="vacuous"):
        gradcheck.run_cases(names=[])


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown gradient case"):
        gradcheck.run_cases(names=["not-a-case"])


def broken_scale(t, factor):
    # deliberately wrong adjoint: backward doubles the true gradient
    out = Tensor(t.data * factor)
    tape = active_tape()
    if tape is not None:
        tape.record(out, (t,), lambda g: (2.0 * factor * g,))
    return out


def corrupted_case(rng):
    x = rng.normal(size=(3, 4))
    layer = Linear(4, 2, rng, weight_scale=0.5)
    loss = lambda: ops.tsum(broken_scale(layer(Tensor(x)), 1.5))
    return [layer.w, layer.b], loss


def test_corrupted_adjoint_fails_and_names_case():
    results = gradcheck.run_cases(names=["corrupted-linear"],
                                  extra={"corrupted-linear": corrupted_case})
    assert len(results) == 1
    assert results[0].name == "corrupted-linear"
    assert not results[0].passed
    assert results[0].max_rel_err > 0.1


def growth_blind(layer, x):
    # the layer's own forward, but a backward that zeroes the weight gradient
    # at pruned positions: the signal that gradient growth ranks on is gone
    with Tape():  # keeps the layer's own node off the outer tape
        out = layer(x)
    tape = active_tape()
    if tape is not None:
        tape.record(out, (layer.w, layer.b),
                    lambda g: ((g.T @ x.data) * layer.w.mask, g.sum(axis=0)))
    return out


def growth_blind_case(rng):
    x = rng.normal(size=(4, 5))
    layer = Linear(5, 3, rng, weight_scale=0.5, masked=True)
    layer.w.mask[...] = np.arange(15).reshape(3, 5) % 3 != 0
    layer.w.data *= layer.w.mask
    y = rng.integers(0, 3, size=4)
    loss = lambda: ops.cross_entropy(ops.softmax(growth_blind(layer, Tensor(x))), y)
    return [layer.w, layer.b], loss


def test_broken_growth_signal_fails():
    results = gradcheck.run_cases(names=["growth-blind"],
                                  extra={"growth-blind": growth_blind_case})
    assert results[0].max_rel_err > gradcheck.TOLERANCE
    assert not results[0].passed
