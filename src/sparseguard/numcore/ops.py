"""Primitive differentiable ops. Each op computes its output eagerly and,
when a tape is active, records a closure returning the parents' adjoints.
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
    out = Tensor(a.data * b.data)
    _record(out, (a, b), lambda g: (g * b.data, g * a.data))
    return out


def tsum(x: Tensor) -> Tensor:
    out = Tensor(np.float64(x.data.sum()))
    _record(out, (x,), lambda g: (np.broadcast_to(g, x.data.shape).copy(),))
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    _record(out, (x,), lambda g: (g.reshape(x.data.shape),))
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
    out = Tensor(x.data @ w.data.T + b.data)

    def fn(g):
        gx = g @ w.data if x.needs_grad else None
        return gx, g.T @ x.data, g.sum(axis=0)

    _record(out, (x, w, b), fn)
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    _record(out, (x,), lambda g: (g * (x.data > 0.0),))
    return out


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
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
    row and column after than before). x (n, ci, H, W), w (co, ci, kh, kw)."""
    n, ci, height, width = x.data.shape
    co, ci_w, kh, kw = w.data.shape
    if ci_w != ci:
        raise ValueError(f"conv2d channel mismatch: input {ci}, weight {ci_w}")
    ph0, pw0 = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph0, kh - 1 - ph0), (pw0, kw - 1 - pw0)))

    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n, height, width, ci * kh * kw)
    w_mat = w.data.reshape(co, -1)
    out_data = np.einsum("nhwk,ok->nohw", cols, w_mat, optimize=True)
    out = Tensor(out_data + b.data[None, :, None, None])

    def fn(g):
        gb = g.sum(axis=(0, 2, 3))
        gw = np.einsum("nohw,nhwk->ok", g, cols, optimize=True).reshape(w.data.shape)
        if not x.needs_grad:
            return None, gw, gb
        gcols = np.einsum("nohw,ok->nhwk", g, w_mat, optimize=True)
        gcols = gcols.reshape(n, height, width, ci, kh, kw)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + height, j:j + width] += gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
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

    def fn(g):
        gb = g.sum(axis=(0, 2))
        gw = np.einsum("nol,nlk->ok", g, cols, optimize=True).reshape(w.data.shape)
        if not x.needs_grad:
            return None, gw, gb
        gcols = np.einsum("nol,ok->nlk", g, w_mat, optimize=True)
        gcols = gcols.reshape(n, ol, ci, k)
        gx = np.zeros_like(x.data)
        for j in range(k):
            gx[:, :, j:j + stride * ol:stride] += gcols[:, :, :, j].transpose(0, 2, 1)
        return gx, gw, gb

    _record(out, (x, w, b), fn)
    return out


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; spatial dims must be even. Ties go to the
    first position in row-major window order."""
    n, c, height, width = x.data.shape
    if height % 2 or width % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {height}x{width}")
    oh, ow = height // 2, width // 2
    xr = x.data.reshape(n, c, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5)
    xr = np.ascontiguousarray(xr).reshape(n, c, oh, ow, 4)
    idx = xr.argmax(axis=-1)
    out = Tensor(np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0])

    def fn(g):
        gr = np.zeros((n, c, oh, ow, 4))
        np.put_along_axis(gr, idx[..., None], g[..., None], axis=-1)
        gx = gr.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return (np.ascontiguousarray(gx).reshape(n, c, height, width),)

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
