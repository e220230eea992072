"""Microbenchmarks of the NumPy DL substrate's hot kernels.

Not a paper figure — these guard the performance of the kernels every
experiment runs on (im2col conv, GEMM dense, pooling, AE training step,
AE conversion at serving and at batch size), so substrate regressions
surface in benchmark runs rather than as mysteriously slow experiment
reruns.

Inference benchmarks run through the compiled fast path
(:mod:`repro.nn.fastpath`) — the path serving traffic takes — with
``*_reference`` twins pinning the autograd path, so every run measures
the fastpath-vs-reference ratio.
"""

import numpy as np
import pytest

from repro.nn import Tensor, fastpath, functional as F, no_grad
from repro.nn.layers import Conv2d, Linear
from repro.models import BranchyLeNet, ConvertingAutoencoder, LeNet

rng = np.random.default_rng(0)


def test_conv2d_forward(benchmark):
    """Single conv layer through the compiled plan (cached im2col indices,
    fused bias+ReLU-free GEMM, arena buffers)."""
    x = rng.random((64, 4, 12, 12), dtype=np.float32)
    conv = Conv2d(4, 20, kernel_size=5, rng=np.random.default_rng(0))
    plan = fastpath.compile_plan(conv, x.shape)
    with no_grad():
        ref = conv(Tensor(x)).data
    out = benchmark(plan.run, x)
    assert out.shape == (64, 20, 8, 8)
    np.testing.assert_allclose(out, ref, atol=1e-5)


def test_conv2d_forward_reference(benchmark):
    """The seed autograd conv path — the denominator of the speedup claim."""
    x = Tensor(rng.random((64, 4, 12, 12), dtype=np.float32))
    conv = Conv2d(4, 20, kernel_size=5, rng=np.random.default_rng(0))
    with no_grad():
        out = benchmark(conv, x)
    assert out.shape == (64, 20, 8, 8)


def test_conv2d_train_step(benchmark):
    x = Tensor(rng.random((32, 1, 28, 28), dtype=np.float32))
    conv = Conv2d(1, 4, kernel_size=5, rng=np.random.default_rng(0))

    def step():
        conv.zero_grad()
        out = conv(x)
        (out * out).mean().backward()
        return out

    out = benchmark(step)
    assert conv.weight.grad is not None


def test_dense_forward(benchmark):
    x = Tensor(rng.random((256, 784), dtype=np.float32))
    layer = Linear(784, 784, rng=np.random.default_rng(0))
    with no_grad():
        out = benchmark(layer, x)
    assert out.shape == (256, 784)


def test_maxpool_forward(benchmark):
    x = Tensor(rng.random((128, 20, 8, 8), dtype=np.float32))
    with no_grad():
        out = benchmark(F.max_pool2d, x, 2)
    assert out.shape == (128, 20, 4, 4)


def test_lenet_batch_inference(benchmark):
    model = LeNet(rng=0)
    images = rng.random((256, 1, 28, 28), dtype=np.float32)
    preds = benchmark(model.predict, images)
    assert preds.shape == (256,)
    # The two paths reduce GEMMs in different orders, so near-tied logits
    # may flip argmax on some BLAS builds; logits-level equivalence at
    # atol=1e-5 is asserted by tests/nn/test_fastpath.py.
    assert (preds == model.predict(images, fastpath=False)).mean() > 0.99


def test_lenet_batch_inference_reference(benchmark):
    model = LeNet(rng=0)
    images = rng.random((256, 1, 28, 28), dtype=np.float32)
    preds = benchmark(model.predict, images, fastpath=False)
    assert preds.shape == (256,)


@pytest.mark.parametrize("rows", [32, 512])
def test_autoencoder_convert(benchmark, rows):
    """The paper's converting autoencoder through the compiled plan: 32
    rows is a live fleet's full ``predict`` chunk, where the 784x784 and
    784x384 GEMMs run weight-major; 512 is the batch experiments' and
    oracle table's size, where every GEMM runs row-major."""
    ae = ConvertingAutoencoder.for_dataset("mnist", rng=0)
    flat = rng.random((rows, 784), dtype=np.float32)
    out = benchmark(ae.convert, flat)
    assert out.shape == (rows, 784)
    np.testing.assert_allclose(out, ae.convert(flat, fastpath=False), atol=1e-5)


@pytest.mark.parametrize("rows", [32, 512])
def test_autoencoder_convert_reference(benchmark, rows):
    ae = ConvertingAutoencoder.for_dataset("mnist", rng=0)
    flat = rng.random((rows, 784), dtype=np.float32)
    out = benchmark(ae.convert, flat, fastpath=False)
    assert out.shape == (rows, 784)


def test_branchynet_gated_inference(benchmark):
    model = BranchyLeNet(rng=0)
    images = rng.random((256, 1, 28, 28), dtype=np.float32)
    result = benchmark(model.infer, images, 0.5)
    assert result.predictions.shape == (256,)


def test_cross_entropy_backward(benchmark):
    logits_data = rng.standard_normal((512, 10)).astype(np.float32)
    labels = rng.integers(0, 10, 512)

    def step():
        logits = Tensor(logits_data, requires_grad=True)
        F.cross_entropy(logits, labels).backward()
        return logits.grad

    grad = benchmark(step)
    assert grad.shape == (512, 10)


def test_dataset_generation(benchmark):
    from repro.data.synth.digits import render_digits

    labels = np.arange(200) % 10
    images = benchmark(render_digits, labels, np.random.default_rng(0))
    assert images.shape == (200, 28, 28)
