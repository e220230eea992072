"""Shape-specialized kernel steps and the executable inference plan.

A plan is a flat list of steps, each a thin wrapper around one or two
NumPy kernel calls writing into arena buffers (see
:mod:`repro.nn.fastpath.arena`).  Four tricks make this fast:

* **Cached im2col gather indices.**  Unfolding an NCHW batch into the
  (N·OH·OW, C·KH·KW) column matrix is a single ``np.take`` with a
  precomputed index matrix, shared process-wide per
  ``(C, H, W, KH, KW, stride, padding)`` — no ``sliding_window_view``,
  no 6-D transpose, no per-batch index arithmetic.
* **Fused kernels.**  Conv+bias+ReLU and Linear+bias+ReLU run as one
  step: GEMM with ``out=``, in-place bias add, in-place ``np.maximum``.
  No intermediate :class:`~repro.nn.tensor.Tensor` is ever constructed.
* **Weight-major products at serving sizes.**  ``x @ W.T`` makes
  OpenBLAS pack the whole weight matrix on every call, which a call of
  a few dozen rows cannot amortize.  A :class:`LinearStep` call of 8 to
  64 rows, on a layer of at least 2^17 weights, computes ``W @ x.T``
  into a feature-major scratch instead and writes the usual row-major
  output in one pass, the ReLU fused into it: 0.50-0.65x of the
  row-major time on 784x784 at 8-32 rows.  Between 128 and 256 rows
  the transposed write starts to cost more than the packing it saves
  (1.16x at 512), so larger calls stay row-major.  The two products
  agree bit for bit.
* **Live parameters.**  Steps hold references to the layer's
  :class:`~repro.nn.module.Parameter` objects and read ``.data`` at run
  time, so training, pruning masks, or ``load_state_dict`` never leave a
  plan stale — only *shapes* are baked in.

Steps enforce strict float32 discipline: the plan raises on any other
dtype rather than silently upcasting to float64.
"""

from __future__ import annotations

import numpy as np

from repro.nn.fastpath.arena import BufferArena

Array = np.ndarray

__all__ = [
    "InferencePlan",
    "Step",
    "ConvStep",
    "LinearStep",
    "MaxPoolStep",
    "AvgPoolStep",
    "ReLUStep",
    "SoftmaxStep",
    "ScaleStep",
    "FlattenStep",
    "ReshapeStep",
    "FallbackStep",
    "im2col_indices",
]

# Process-wide cache of im2col gather indices, keyed by the geometry that
# determines them.  Indices are dtype intp and read-only; plans of any
# model share entries with the same conv geometry.
_IM2COL_INDEX_CACHE: dict[tuple[int, ...], Array] = {}


def im2col_indices(
    c: int, hp: int, wp: int, kh: int, kw: int, stride: int
) -> Array:
    """K-major gather-index matrix (C·KH·KW, OH·OW) into a flat (C·HP·WP) sample.

    ``cols[n, q, p] = x_flat[n, idx[q, p]]`` — rows ordered (c, kh, kw)
    to match the reshaped weight matrix, columns ordered (oh, ow) so the
    batched GEMM ``W (F,K) @ cols (K,P)`` writes output directly in NCHW
    layout, eliminating the post-GEMM transpose copy.  Scanning a fixed
    kernel offset across output positions reads near-contiguous input
    rows, which is also the cache-friendly direction for the gather.
    """
    key = (c, hp, wp, kh, kw, stride)
    idx = _IM2COL_INDEX_CACHE.get(key)
    if idx is None:
        oh = (hp - kh) // stride + 1
        ow = (wp - kw) // stride + 1
        offs = (
            np.arange(c)[:, None, None] * (hp * wp)
            + np.arange(kh)[None, :, None] * wp
            + np.arange(kw)[None, None, :]
        ).reshape(-1)
        base = (
            np.arange(oh)[:, None] * (stride * wp) + np.arange(ow)[None, :] * stride
        ).reshape(-1)
        idx = np.ascontiguousarray(offs[:, None] + base[None, :]).astype(np.intp)
        idx.setflags(write=False)
        _IM2COL_INDEX_CACHE[key] = idx
    return idx


class Step:
    """One compiled kernel step: ndarray in, arena-owned ndarray out."""

    name = "step"

    def run(self, x: Array) -> Array:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class ConvStep(Step):
    """Fused conv2d (+bias) (+ReLU): cached-index im2col + one batched GEMM.

    Columns are gathered K-major — ``cols (N, C·KH·KW, OH·OW)`` — so the
    batched GEMM ``W (1,F,K) @ cols (N,K,P) -> (N,F,P)`` produces output
    already in NCHW layout; the result is a zero-copy reshape of the GEMM
    buffer.  Small patch widths (K ≤ 32, e.g. single-channel stems) use a
    single 6-D strided-view copy instead of the index gather — measured
    ~2× faster there because the innermost copy runs are whole output
    rows.
    ``np.take(..., mode="clip")`` is deliberate: the default
    ``mode="raise"`` routes through a temporary buffer even with ``out=``
    (indices are precomputed in-range, so clipping never occurs).
    """

    SLICE_FILL_MAX_K = 32

    def __init__(self, conv, in_shape: tuple[int, int, int], capacity: int,
                 arena: BufferArena, tag: str, fuse_relu: bool) -> None:
        c, h, w = in_shape
        k, s, p = conv.kernel_size, conv.stride, conv.padding
        self.conv = conv
        self.fuse_relu = fuse_relu
        self.in_shape = in_shape
        self.kernel, self.stride, self.padding = k, s, p
        self.hp, self.wp = h + 2 * p, w + 2 * p
        self.oh = (self.hp - k) // s + 1
        self.ow = (self.wp - k) // s + 1
        self.f = conv.out_channels
        self.patch = self.oh * self.ow
        self.k_width = c * k * k
        self.slice_fill = self.k_width <= self.SLICE_FILL_MAX_K
        self.idx = None if self.slice_fill else im2col_indices(c, self.hp, self.wp, k, k, s)
        self.pad_buf = (
            arena.alloc(f"{tag}.pad", (capacity, c, self.hp, self.wp), zero=True)
            if p
            else None
        )
        self.cols = arena.alloc(f"{tag}.cols", (capacity, self.k_width, self.patch))
        self.gemm = arena.alloc(f"{tag}.gemm", (capacity, self.f, self.patch))
        fused = "+relu" if fuse_relu else ""
        gather = "slice" if self.slice_fill else "take"
        self.name = (
            f"conv{fused}"
            f"({c}x{h}x{w} -> {self.f}x{self.oh}x{self.ow}, k={k}, s={s}, p={p}, "
            f"gather={gather})"
        )

    def run(self, x: Array) -> Array:
        n = x.shape[0]
        c, h, w = self.in_shape
        if self.pad_buf is not None:
            p = self.padding
            self.pad_buf[:n, :, p : p + h, p : p + w] = x
            src = self.pad_buf[:n]
        else:
            src = x
        cols = self.cols[:n]
        if self.slice_fill:
            k, s = self.kernel, self.stride
            sn, sc, sh, sw = src.strides
            windows = np.lib.stride_tricks.as_strided(
                src,
                shape=(n, c, k, k, self.oh, self.ow),
                strides=(sn, sc, sh, sw, sh * s, sw * s),
            )
            np.copyto(cols.reshape(n, c, k, k, self.oh, self.ow), windows)
        else:
            np.take(src.reshape(n, -1), self.idx, axis=1, out=cols, mode="clip")
        gemm = self.gemm[:n]
        w_mat = self.conv.weight.data.reshape(self.f, self.k_width)
        np.matmul(w_mat[None], cols, out=gemm)
        if self.conv.bias is not None:
            gemm += self.conv.bias.data[:, None]
        if self.fuse_relu:
            np.maximum(gemm, 0.0, out=gemm)
        return gemm.reshape(n, self.f, self.oh, self.ow)


class LinearStep(Step):
    """Fused ``x @ W.T (+ b) (+ReLU)`` writing straight into an arena buffer.

    Two products compute it, chosen per call by shape:

    * **Row-major**, ``np.matmul(x, W.T, out=out)``, then bias and ReLU
      in place.  OpenBLAS packs the whole weight matrix on every call,
      which only many rows amortize.
    * **Weight-major**, ``np.matmul(W, x.T)`` into a feature-major
      ``(out, n)`` scratch plus the bias there, then one fused pass
      writes the step's C-contiguous ``(n, out)`` buffer:
      ``np.maximum(fm.T, 0.0, out=out)`` with ReLU, ``np.copyto``
      without.  The next step reads the same row-major buffer either
      way; handing it the feature-major view instead is not bit-exact.

    A call runs weight-major when its row count is within
    :attr:`WEIGHT_MAJOR_ROWS` and the layer's weight holds at least
    :attr:`WEIGHT_MAJOR_WEIGHTS` entries.  Measured on one OpenBLAS
    thread, weight-major plus its write-back takes 0.50-0.65x of the
    row-major time on 784x784 at 8-32 rows, 0.83x at 64, 0.93x at 128,
    1.02x at 256 and 1.16x at 512, and 0.49-0.85x on 784x384 and
    1280x120 at 8-64 rows.  Below 8 rows those two are up to 1.16x
    slower, and on smaller layers it is slower at most sizes (384->32
    and 144->10 at every size).  The two products agree bit for bit.
    The scratch is allocated at compile time for at most 64 rows, so a
    plan compiled for large batches grows by little.
    """

    #: Fewest and most rows of a call that runs weight-major.
    WEIGHT_MAJOR_ROWS = (8, 64)
    #: Fewest weight entries (in x out) of a layer that runs weight-major.
    WEIGHT_MAJOR_WEIGHTS = 1 << 17

    def __init__(self, layer, capacity: int, arena: BufferArena, tag: str,
                 fuse_relu: bool) -> None:
        self.layer = layer
        self.fuse_relu = fuse_relu
        self.out = arena.alloc(f"{tag}.out", (capacity, layer.out_features))
        lo, hi = self.WEIGHT_MAJOR_ROWS
        hi = min(hi, capacity)
        big = layer.in_features * layer.out_features >= self.WEIGHT_MAJOR_WEIGHTS
        #: The row counts this step runs weight-major (empty: none).
        self.weight_major = range(lo, hi + 1) if big else range(0)
        self.fm = (
            arena.alloc(f"{tag}.fm", (hi * layer.out_features,))
            if self.weight_major
            else None
        )
        self.name = (
            f"linear{'+relu' if fuse_relu else ''}"
            f"({layer.in_features} -> {layer.out_features})"
        )

    def run(self, x: Array) -> Array:
        n = x.shape[0]
        layer, out = self.layer, self.out[:n]
        if n in self.weight_major:
            fm = self.fm[: n * layer.out_features].reshape(layer.out_features, n)
            np.matmul(layer.weight.data, x.T, out=fm)
            if layer.bias is not None:
                fm += layer.bias.data[:, None]
            if self.fuse_relu:
                np.maximum(fm.T, 0.0, out=out)
            else:
                np.copyto(out, fm.T)
            return out
        np.matmul(x, layer.weight.data.T, out=out)
        if layer.bias is not None:
            out += layer.bias.data
        if self.fuse_relu:
            np.maximum(out, 0.0, out=out)
        return out


class MaxPoolStep(Step):
    """Max pooling as KH·KW in-place ``np.maximum`` passes over strided views."""

    def __init__(self, kernel_size: int, stride: int, in_shape: tuple[int, int, int],
                 capacity: int, arena: BufferArena, tag: str) -> None:
        c, h, w = in_shape
        self.k, self.s = kernel_size, stride
        self.oh = (h - kernel_size) // stride + 1
        self.ow = (w - kernel_size) // stride + 1
        self.out = arena.alloc(f"{tag}.out", (capacity, c, self.oh, self.ow))
        self.name = f"maxpool(k={kernel_size}, s={stride}, {c}x{h}x{w} -> {c}x{self.oh}x{self.ow})"

    def run(self, x: Array) -> Array:
        out = self.out[: x.shape[0]]
        s, oh, ow = self.s, self.oh, self.ow
        first = True
        for i in range(self.k):
            for j in range(self.k):
                window = x[:, :, i : i + s * oh : s, j : j + s * ow : s]
                if first:
                    np.copyto(out, window)
                    first = False
                else:
                    np.maximum(out, window, out=out)
        return out


class AvgPoolStep(Step):
    """Average pooling as KH·KW in-place adds plus one scale."""

    def __init__(self, kernel_size: int, stride: int, in_shape: tuple[int, int, int],
                 capacity: int, arena: BufferArena, tag: str) -> None:
        c, h, w = in_shape
        self.k, self.s = kernel_size, stride
        self.oh = (h - kernel_size) // stride + 1
        self.ow = (w - kernel_size) // stride + 1
        self.scale = np.float32(1.0 / (kernel_size * kernel_size))
        self.out = arena.alloc(f"{tag}.out", (capacity, c, self.oh, self.ow))
        self.name = f"avgpool(k={kernel_size}, s={stride}, {c}x{h}x{w} -> {c}x{self.oh}x{self.ow})"

    def run(self, x: Array) -> Array:
        out = self.out[: x.shape[0]]
        s, oh, ow = self.s, self.oh, self.ow
        first = True
        for i in range(self.k):
            for j in range(self.k):
                window = x[:, :, i : i + s * oh : s, j : j + s * ow : s]
                if first:
                    np.copyto(out, window)
                    first = False
                else:
                    np.add(out, window, out=out)
        out *= self.scale
        return out


class ReLUStep(Step):
    """Standalone ReLU (when not fused into the preceding conv/linear)."""

    def __init__(self, feat_shape: tuple[int, ...], capacity: int,
                 arena: BufferArena, tag: str) -> None:
        self.out = arena.alloc(f"{tag}.out", (capacity, *feat_shape))
        self.name = "relu"

    def run(self, x: Array) -> Array:
        out = self.out[: x.shape[0]]
        np.maximum(x, 0.0, out=out)
        return out


class SoftmaxStep(Step):
    """Numerically stable softmax over the last axis, allocation-free."""

    def __init__(self, feat_shape: tuple[int, ...], capacity: int,
                 arena: BufferArena, tag: str) -> None:
        self.out = arena.alloc(f"{tag}.out", (capacity, *feat_shape))
        self.red = arena.alloc(f"{tag}.red", (capacity, *feat_shape[:-1], 1))
        self.name = "softmax(axis=-1)"

    def run(self, x: Array) -> Array:
        n = x.shape[0]
        out, red = self.out[:n], self.red[:n]
        np.max(x, axis=-1, keepdims=True, out=red)
        np.subtract(x, red, out=out)
        np.exp(out, out=out)
        np.sum(out, axis=-1, keepdims=True, out=red)
        out /= red
        return out


class ScaleStep(Step):
    """Multiply by a fixed constant (the autoencoder's Softmax·D head)."""

    def __init__(self, factor: float, feat_shape: tuple[int, ...], capacity: int,
                 arena: BufferArena, tag: str) -> None:
        self.factor = np.float32(factor)
        self.out = arena.alloc(f"{tag}.out", (capacity, *feat_shape))
        self.name = f"scale({factor:g})"

    def run(self, x: Array) -> Array:
        out = self.out[: x.shape[0]]
        np.multiply(x, self.factor, out=out)
        return out


class FlattenStep(Step):
    """Zero-copy view collapse (arena buffers are C-contiguous)."""

    name = "flatten"

    def run(self, x: Array) -> Array:
        return x.reshape(x.shape[0], -1)


class ReshapeStep(Step):
    """Zero-copy view reshape to a fixed per-sample shape."""

    def __init__(self, feat_shape: tuple[int, ...]) -> None:
        self.feat_shape = tuple(feat_shape)
        self.name = f"reshape{self.feat_shape}"

    def run(self, x: Array) -> Array:
        return x.reshape(x.shape[0], *self.feat_shape)


class FallbackStep(Step):
    """Escape hatch: run an uncompilable layer through its normal forward.

    Keeps the compiler total over arbitrary Modules at the cost of one
    Tensor wrap (and whatever the layer allocates).  Anything hot should
    grow a dedicated step instead.
    """

    def __init__(self, module) -> None:
        self.module = module
        self.name = f"fallback({type(module).__name__})"

    def run(self, x: Array) -> Array:
        from repro.nn.autograd import no_grad
        from repro.nn.tensor import Tensor

        with no_grad():
            out = self.module(Tensor(x)).data
        if out.dtype != np.float32:  # fallback layers must not break discipline
            out = out.astype(np.float32)
        return out


class InferencePlan:
    """A compiled, shape-specialized, allocation-free inference program.

    ``run`` accepts any batch up to ``capacity`` with per-sample shape
    ``sample_shape`` — the ragged final micro-batch of a serving run
    reuses the same buffers through leading-axis views.

    .. warning::
       The returned array is **arena-owned**: it is valid until the next
       ``run`` on this plan.  Reduce it (argmax, copy, compare) before
       running the next batch.
    """

    def __init__(self, steps: list[Step], sample_shape: tuple[int, ...],
                 output_shape: tuple[int, ...], capacity: int,
                 arena: BufferArena) -> None:
        self.steps = steps
        self.sample_shape = tuple(sample_shape)
        self.output_shape = tuple(output_shape)
        self.capacity = capacity
        self.arena = arena
        self.runs = 0

    def run(self, x: Array) -> Array:
        x = np.asarray(x)
        if x.dtype != np.float32:
            raise TypeError(
                f"fastpath plans are float32-only, got {x.dtype}; coerce inputs "
                "with np.ascontiguousarray(x, dtype=np.float32) at the boundary"
            )
        if tuple(x.shape[1:]) != self.sample_shape:
            raise ValueError(
                f"plan compiled for sample shape {self.sample_shape}, "
                f"got batch of {tuple(x.shape[1:])}"
            )
        n = x.shape[0]
        if n == 0 or n > self.capacity:
            raise ValueError(f"batch size {n} outside (0, {self.capacity}]")
        x = np.ascontiguousarray(x)
        for step in self.steps:
            x = step.run(x)
        self.runs += 1
        return x

    def describe(self) -> str:
        """Human-readable step listing (used by docs and tests)."""
        header = (
            f"InferencePlan(sample={self.sample_shape}, out={self.output_shape}, "
            f"capacity={self.capacity}, {self.arena!r})"
        )
        return "\n".join([header] + [f"  {i}: {s.describe()}" for i, s in enumerate(self.steps)])

    def __repr__(self) -> str:
        return (
            f"InferencePlan({len(self.steps)} steps, sample={self.sample_shape}, "
            f"capacity={self.capacity})"
        )
