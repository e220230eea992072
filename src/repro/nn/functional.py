"""Vectorized neural-network primitives (conv, pooling, softmax, entropy).

Convolution is implemented as im2col + one GEMM — the standard HPC
formulation that turns a 7-deep loop nest into a single BLAS call.  The
column buffer is materialized contiguously (guide: beware cache effects /
prefer contiguous operands for GEMM).  Pooling uses a zero-copy
``sliding_window_view`` with strided slicing.

All functions here operate on :class:`~repro.nn.tensor.Tensor` and are
differentiable unless documented otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor

Array = np.ndarray

__all__ = [
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "linear",
    "softmax",
    "cross_entropy",
    "mse_loss",
    "entropy",
]


# ---------------------------------------------------------------------- #
# im2col machinery
# ---------------------------------------------------------------------- #
def _im2col(x: Array, kh: int, kw: int, stride: int) -> tuple[Array, int, int]:
    """Unfold padded NCHW input into a (N*OH*OW, C*KH*KW) column matrix."""
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, OH, OW, KH, KW), zero-copy
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def _valid_span(k: int, padding: int, stride: int, out_size: int, size: int) -> tuple[int, int, int]:
    """Clip one kernel offset's output range to the unpadded input.

    Output position ``t`` touches input coordinate ``k + stride*t - padding``;
    returns ``(first_coord, t0, t1)`` such that positions ``t0..t1`` (exclusive)
    land inside ``[0, size)``.
    """
    t0 = max(0, -((k - padding) // stride) if k < padding else 0)
    r0 = k - padding + stride * t0
    if r0 >= size:
        return r0, 0, 0
    t1 = min(out_size, t0 + (size - 1 - r0) // stride + 1)
    return r0, t0, t1


def _col2im(
    cols: Array,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    oh: int,
    ow: int,
    padding: int = 0,
) -> Array:
    """Scatter-add column gradients straight back to the *unpadded* input.

    Padding is handled by clipping each kernel offset's slice to the real
    input extent, so no padded intermediate is materialized and the
    returned array is freshly owned — the caller accumulates it without a
    defensive copy (``Tensor._accumulate(..., fresh=True)``).
    """
    n, c, h, w = x_shape
    dx = np.zeros(x_shape, dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    # KH*KW iterations (25 for a 5x5 kernel); each is a fully vectorized add.
    for i in range(kh):
        for j in range(kw):
            r0, t0, t1 = _valid_span(i, padding, stride, oh, h)
            c0, u0, u1 = _valid_span(j, padding, stride, ow, w)
            if t0 >= t1 or u0 >= u1:
                continue
            dx[
                :, :, r0 : r0 + stride * (t1 - t0) : stride, c0 : c0 + stride * (u1 - u0) : stride
            ] += cols6[:, :, i, j, t0:t1, u0:u1]
    return dx


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation over NCHW input.

    ``weight`` has shape (out_channels, in_channels, KH, KW); ``bias`` is
    (out_channels,) or None.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got ndim={x.ndim}")
    f, c_w, kh, kw = weight.shape
    n, c, h, w = x.shape
    if c != c_w:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ValueError(
            f"kernel ({kh}x{kw}) larger than padded input ({h + 2 * padding}x{w + 2 * padding})"
        )

    x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    cols, oh, ow = _im2col(x_pad, kh, kw, stride)
    w_mat = weight.data.reshape(f, -1)  # (F, C*KH*KW)
    out = cols @ w_mat.T  # (N*OH*OW, F)
    if bias is not None:
        out += bias.data
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: Array) -> None:
        g_cols = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, f)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_cols.sum(axis=0), fresh=True)
        if weight.requires_grad:
            weight._accumulate((g_cols.T @ cols).reshape(weight.shape), fresh=True)
        if x.requires_grad:
            d_cols = g_cols @ w_mat
            # Scatter directly into the unpadded gradient: no padded
            # intermediate, no slice-view copy on accumulation.
            dx = _col2im(d_cols, x.data.shape, kh, kw, stride, oh, ow, padding)
            x._accumulate(dx, fresh=True)

    return Tensor._make(np.ascontiguousarray(out), parents, backward)


# ---------------------------------------------------------------------- #
# pooling
# ---------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW input (general stride, vectorized argmax)."""
    stride = kernel_size if stride is None else stride
    n, c, h, w = x.shape
    if h < kernel_size or w < kernel_size:
        raise ValueError(f"pool kernel {kernel_size} exceeds input {h}x{w}")
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, (kernel_size, kernel_size), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2], windows.shape[3]
    flat = windows.reshape(n, c, oh, ow, -1)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(g: Array) -> None:
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        ki, kj = np.divmod(arg, kernel_size)
        ni, ci, oi, oj = np.indices((n, c, oh, ow), sparse=False)
        rows = oi * stride + ki
        cols_ = oj * stride + kj
        np.add.at(dx, (ni, ci, rows, cols_), g)
        x._accumulate(dx, fresh=True)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW input."""
    stride = kernel_size if stride is None else stride
    n, c, h, w = x.shape
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, (kernel_size, kernel_size), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2], windows.shape[3]
    out = windows.mean(axis=(-1, -2))
    scale = 1.0 / (kernel_size * kernel_size)

    def backward(g: Array) -> None:
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        gs = g * scale
        for i in range(kernel_size):
            for j in range(kernel_size):
                dx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += gs
        x._accumulate(dx, fresh=True)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


# ---------------------------------------------------------------------- #
# dense / classification heads
# ---------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ W.T + b`` with W of shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (differentiable)."""
    shifted_data = x.data - x.data.max(axis=axis, keepdims=True)
    exp_data = np.exp(shifted_data)
    out_data = exp_data / exp_data.sum(axis=axis, keepdims=True)

    def backward(g: Array) -> None:
        if not x.requires_grad:
            return
        # J^T g = s * (g - <g, s>)
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - dot), fresh=True)

    return Tensor._make(out_data, (x,), backward)


def cross_entropy(logits: Tensor, targets: Array | Tensor) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, K) and integer labels (N,).

    Fused log-softmax + NLL with the closed-form backward
    ``(softmax - onehot) / N`` — one pass, no intermediate graph nodes.
    """
    labels = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    labels = labels.astype(np.int64).reshape(-1)
    n, k = logits.shape
    if labels.shape[0] != n:
        raise ValueError(f"batch mismatch: logits {n}, targets {labels.shape[0]}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k}): min={labels.min()} max={labels.max()}")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    loss = -log_probs[np.arange(n), labels].mean()

    def backward(g: Array) -> None:
        if not logits.requires_grad:
            return
        grad = np.exp(log_probs)
        grad[np.arange(n), labels] -= 1.0
        grad *= float(g) / n
        logits._accumulate(grad, fresh=True)

    return Tensor._make(np.asarray(loss, dtype=logits.dtype), (logits,), backward)


def mse_loss(prediction: Tensor, target: Tensor | Array) -> Tensor:
    """Mean squared error (the paper's reconstruction loss)."""
    target = as_tensor(target, dtype=prediction.dtype)
    diff = prediction - target.detach()
    return (diff * diff).mean()


# ---------------------------------------------------------------------- #
# entropy (BranchyNet's exit confidence measure) — non-differentiable
# ---------------------------------------------------------------------- #
def entropy(probs: Array, axis: int = -1, eps: float = 1e-12) -> Array:
    """Shannon entropy of probability vectors, in nats.

    BranchyNet exits early when ``entropy(softmax(branch_logits)) < T``.
    Operates on plain arrays: it is an inference-time decision rule, not a
    training objective.
    """
    p = np.asarray(probs)
    return -(p * np.log(np.clip(p, eps, None))).sum(axis=axis)
