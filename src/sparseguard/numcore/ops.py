"""Primitive differentiable ops. Each op computes its output eagerly and,
when a tape is active, records a closure returning the parents' adjoints.
A closure captures only the arrays, shapes and flags its backward reads,
never an input `Tensor`, so an activation nothing downstream reads is freed
as soon as the forward code drops it. What only a backward reads (`relu`'s
mask, `maxpool2`'s winner codes) is built only while a tape records.
The weighted ops (`linear`, `conv2d`, `conv1d`) return None for an input
whose `needs_grad` is False instead of computing an adjoint nobody reads.

No op reads a mask: a pruned weight holds ±0 (see `Parameter`), so the
weighted ops multiply by `w.data` as it is, and weight gradients are DENSE:
pruned positions still receive the growth signal. Probabilities are
clamped to [1e-12, 1] inside every log.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, active_tape

CLAMP = 1e-12


def _record(out, parents, backward_fn):
    tape = active_tape()
    if tape is not None:
        tape.record(out, parents, backward_fn)


# ------------------------------------------------------------------ algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError("add requires identical shapes")
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (g, g))
    return out


def scale(x: Tensor, alpha: float) -> Tensor:
    alpha = float(alpha)
    out = Tensor(x.data * alpha)
    _record(out, (x,), lambda g: (g * alpha,))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError("mul requires identical shapes")
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    _record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def tsum(x: Tensor) -> Tensor:
    shape = x.data.shape
    out = Tensor(np.float64(x.data.sum()))
    _record(out, (x,), lambda g: (np.broadcast_to(g, shape).copy(),))
    return out


def reshape(x: Tensor, shape) -> Tensor:
    x_shape = x.data.shape
    out = Tensor(x.data.reshape(shape))
    _record(out, (x,), lambda g: (g.reshape(x_shape),))
    return out


def flatten(x: Tensor) -> Tensor:
    return reshape(x, (x.data.shape[0], -1))


def concat(parts: list, axis: int = 1) -> Tensor:
    sizes = [p.data.shape[axis] for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    offsets = np.cumsum(sizes)[:-1]

    def fn(g):
        return tuple(np.split(g, offsets, axis=axis))

    _record(out, tuple(parts), fn)
    return out


# ----------------------------------------------------------------- layers


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """out = x @ w.T + b with x (n, n_in), w (n_out, n_in), b (n_out,)."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"linear expects x (n, {w.data.shape[1]}), got {x.data.shape}"
        )
    xd, need_x = x.data, x.needs_grad
    out = Tensor(xd @ w.data.T + b.data)

    def fn(g):
        gx = g @ w.data if need_x else None
        return gx, g.T @ xd, g.sum(axis=0)

    _record(out, (x, w, b), fn)
    return out


def relu(x: Tensor) -> Tensor:
    """max(x, 0). On a tape it keeps a bool mask of its output, which is
    `x > 0` (the input is finite), instead of the input."""
    out = Tensor(np.maximum(x.data, 0.0))
    if active_tape() is not None:
        live = out.data > 0.0
        _record(out, (x,), lambda g: (g * live,))
    return out


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)
    _record(out, (x,), lambda g: (g * s * (1.0 - s),))
    return out


def softmax(x: Tensor) -> Tensor:
    """Row-wise stable softmax over (n, C) logits."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def fn(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    _record(out, (x,), fn)
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """2-D correlation, stride 1, "same" padding (an even kernel pads one more
    row and column after than before). x (n, ci, H, W), w (co, ci, kh, kw).

    The (n, H, W, ci·kh·kw) im2col matrix lives only while it is used: the
    backward closure keeps the padded input, not the matrix, and builds the
    matrix again for the weight gradient. The input adjoint is summed one
    kernel offset at a time, as `(ci, co) @ (co, n·H·W)` products, so no
    column gradient as large as the matrix is built either. Each product
    holds the same dot products as the matching rows of one product over all
    offsets; BLAS may pick another kernel for the smaller shape, so on some
    shapes the input adjoint can differ in its last bits from the one-product
    form."""
    n, ci, height, width = x.data.shape
    co, ci_w, kh, kw = w.data.shape
    if ci_w != ci:
        raise ValueError(f"conv2d channel mismatch: input {ci}, weight {ci_w}")
    ph0, pw0 = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph0, kh - 1 - ph0), (pw0, kw - 1 - pw0)))

    def im2col():
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
        return cols.reshape(n, height, width, ci * kh * kw)

    out_data = np.einsum("nhwk,ok->nohw", im2col(), w.data.reshape(co, -1),
                         optimize=True)
    out = Tensor(out_data + b.data[None, :, None, None])
    need_x = x.needs_grad

    def fn(g):
        gb = g.sum(axis=(0, 2, 3))
        gw = np.einsum("nohw,nhwk->ok", g, im2col(), optimize=True).reshape(w.data.shape)
        if not need_x:
            return None, gw, gb
        g_mat = g.transpose(1, 0, 2, 3).reshape(co, -1)
        taps = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # (kh, kw, co, ci)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                part = (taps[i, j].T @ g_mat).reshape(ci, n, height, width)
                gxp[:, :, i:i + height, j:j + width] += part.transpose(1, 0, 2, 3)
        return gxp[:, :, ph0:ph0 + height, pw0:pw0 + width], gw, gb

    _record(out, (x, w, b), fn)
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """1-D correlation with stride. x (n, ci, L), w (co, ci, k)."""
    n, ci, length = x.data.shape
    co, ci_w, k = w.data.shape
    if ci_w != ci:
        raise ValueError(f"conv1d channel mismatch: input {ci}, weight {ci_w}")
    if length < k:
        raise ValueError(f"conv1d input length {length} shorter than kernel {k}")
    ol = (length - k) // stride + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=2)
    cols = windows[:, :, ::stride]                        # (n, ci, ol, k) view
    cols = np.ascontiguousarray(cols.transpose(0, 2, 1, 3)).reshape(n, ol, ci * k)
    w_mat = w.data.reshape(co, -1)
    out_data = np.einsum("nlk,ok->nol", cols, w_mat, optimize=True)
    out = Tensor(out_data + b.data[None, :, None])
    need_x = x.needs_grad

    def fn(g):
        gb = g.sum(axis=(0, 2))
        gw = np.einsum("nol,nlk->ok", g, cols, optimize=True).reshape(w.data.shape)
        if not need_x:
            return None, gw, gb
        gcols = np.einsum("nol,ok->nlk", g, w_mat, optimize=True)
        gcols = gcols.reshape(n, ol, ci, k)
        gx = np.zeros((n, ci, length))
        for j in range(k):
            gx[:, :, j:j + stride * ol:stride] += gcols[:, :, :, j].transpose(0, 2, 1)
        return gx, gw, gb

    _record(out, (x, w, b), fn)
    return out


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; spatial dims must be even. Ties go to the
    first position in row-major window order (signed zeros compare equal, so
    a window's first zero wins whatever its sign).

    The input is read through its four strided window views, never copied or
    reordered: inside the CNN it arrives in the (c, n, h, w) memory order of
    `conv2d`'s `einsum`. The output and the input gradient are allocated in C
    order. On a tape the op keeps one `uint8` code per window, the view
    index (0 to 3) of its first maximum, and nothing of its input; off a tape
    it keeps nothing. A NaN written into `x.data` after construction loses
    every comparison, so it reaches the output (and its finite check) only
    when it is first in its window."""
    n, c, height, width = x.data.shape
    if height % 2 or width % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {height}x{width}")
    oh, ow = height // 2, width // 2
    views = [x.data[:, :, dy::2, dx::2] for dy in (0, 1) for dx in (0, 1)]
    taped = active_tape() is not None
    best = np.empty((n, c, oh, ow))
    np.copyto(best, views[0])
    code = np.zeros((n, c, oh, ow), dtype=np.uint8) if taped else None
    for k, q in enumerate(views[1:], start=1):
        wins = q > best
        np.copyto(best, q, where=wins)
        if taped:
            np.copyto(code, np.uint8(k), where=wins)
    out = Tensor(best)
    if not taped:
        return out

    def fn(g):
        # the four views partition the input, so each writes its whole share
        # of gx: g at its window's first maximum, +0.0 elsewhere
        gx = np.empty((n, c, height, width))
        for k, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            gx[:, :, dy::2, dx::2] = np.where(code == k, g, 0.0)
        return (gx,)

    _record(out, (x,), fn)
    return out


# ----------------------------------------------------------------- losses


def _check_rows_are_distributions(p: np.ndarray) -> None:
    if p.ndim != 2:
        raise ValueError("probabilities must be a (n, C) matrix")
    sums = p.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError("probability rows must sum to 1 within 1e-6")


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean over the batch of -ln p[true class], p clamped at 1e-12."""
    p = probs.data
    y = np.asarray(labels)
    _check_rows_are_distributions(p)
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be integers")
    n, n_classes = p.shape
    if y.shape != (n,) or y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels must be a vector in [0, C)")
    p_true = p[np.arange(n), y]
    clamped = np.clip(p_true, CLAMP, 1.0)
    out = Tensor(np.float64(np.mean(-np.log(clamped))))

    def fn(g):
        gp = np.zeros_like(p)
        live = p_true >= CLAMP
        gp[np.arange(n), y] = np.where(live, -float(g) / (n * clamped), 0.0)
        return (gp,)

    _record(out, (probs,), fn)
    return out


def binary_cross_entropy(p: Tensor, targets) -> Tensor:
    """Mean BCE over a vector of probabilities; both p and 1-p clamped."""
    d = p.data
    t = np.asarray(targets, dtype=np.float64)
    if d.ndim != 1 or t.shape != d.shape:
        raise ValueError("binary_cross_entropy expects matching vectors")
    n = d.shape[0]
    pc = np.clip(d, CLAMP, 1.0)
    qc = np.clip(1.0 - d, CLAMP, 1.0)
    out = Tensor(np.float64(-np.mean(t * np.log(pc) + (1.0 - t) * np.log(qc))))

    def fn(g):
        gp = np.zeros_like(d)
        gp += np.where((t > 0) & (d >= CLAMP), -1.0 / pc, 0.0)
        gp += np.where((t == 0) & (1.0 - d >= CLAMP), 1.0 / qc, 0.0)
        return (gp * float(g) / n,)

    _record(out, (p,), fn)
    return out


def row_entropy_mean(probs: Tensor, rows=None) -> Tensor:
    """Mean over selected rows of -sum_i p_i ln p_i (natural log, clamped).

    rows is a vector of unique row indices; None selects the whole batch.
    An empty selection is the constant 0 with zero gradient.
    """
    p = probs.data
    sel = np.arange(p.shape[0]) if rows is None else np.asarray(rows, dtype=np.int64)
    if sel.size == 0:
        out = Tensor(np.float64(0.0))
        _record(out, (probs,), lambda g: (np.zeros_like(p),))
        return out
    ps = p[sel]
    logs = np.log(np.clip(ps, CLAMP, 1.0))
    out = Tensor(np.float64(-(ps * logs).sum() / sel.size))

    def fn(g):
        gp = np.zeros_like(p)
        gp[sel] = -float(g) * (logs + (ps >= CLAMP)) / sel.size
        return (gp,)

    _record(out, (probs,), fn)
    return out
