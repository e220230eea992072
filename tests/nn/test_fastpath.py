"""Compiled inference fast path: correctness vs the autograd reference,
buffer-arena reuse, float32 discipline, and plan-cache semantics."""

import numpy as np
import pytest

from repro.models import BranchyLeNet, LeNet
from repro.models.autoencoder import ConvertingAutoencoder
from repro.models.lightweight import LightweightClassifier
from repro.nn import Tensor, no_grad
from repro.nn.fastpath import (
    BufferArena,
    ConvStep,
    FallbackStep,
    LinearStep,
    cached_plan,
    clear_plans,
    compile_plan,
    flatten_modules,
)
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Reshape,
    Scale,
    Softmax,
)
from repro.nn.module import Sequential

rng = np.random.default_rng(7)

ATOL = 1e-5


def reference(modules, x):
    """Run the uncompiled eval-mode forward for comparison."""
    seq = Sequential(*flatten_modules(modules))
    seq.eval()
    with no_grad():
        return seq(Tensor(x)).data


# --------------------------------------------------------------------- #
# property-style kernel correctness
# --------------------------------------------------------------------- #
CONV_CASES = [
    # (n, cin, h, cout, k, stride, padding)
    (4, 1, 28, 4, 5, 1, 0),
    (3, 4, 12, 20, 5, 1, 0),
    (5, 20, 4, 80, 3, 1, 1),
    (2, 3, 9, 8, 3, 2, 1),
    (1, 2, 11, 6, 4, 3, 2),
    (7, 5, 8, 5, 1, 1, 0),
    (6, 1, 7, 3, 3, 2, 0),
]


@pytest.mark.parametrize("n,cin,h,cout,k,stride,padding", CONV_CASES)
def test_conv_step_matches_reference(n, cin, h, cout, k, stride, padding):
    x = rng.standard_normal((n, cin, h, h)).astype(np.float32)
    conv = Conv2d(cin, cout, k, stride=stride, padding=padding, rng=np.random.default_rng(1))
    plan = compile_plan(conv, (max(n, 2), cin, h, h))
    np.testing.assert_allclose(plan.run(x), reference(conv, x), atol=ATOL)


@pytest.mark.parametrize("gather_small", [True, False])
def test_conv_both_gather_strategies(gather_small, monkeypatch):
    """Both the strided-copy and the np.take gather produce identical cols."""
    monkeypatch.setattr(ConvStep, "SLICE_FILL_MAX_K", 10_000 if gather_small else 0)
    x = rng.standard_normal((3, 4, 10, 10)).astype(np.float32)
    conv = Conv2d(4, 6, 3, stride=2, padding=1, rng=np.random.default_rng(2))
    plan = compile_plan(conv, (4, 4, 10, 10))
    assert plan.steps[0].slice_fill is gather_small
    np.testing.assert_allclose(plan.run(x), reference(conv, x), atol=ATOL)


@pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
@pytest.mark.parametrize("k,stride", [(2, None), (2, 1), (3, 2)])
def test_pool_steps_match_reference(pool_cls, k, stride):
    x = rng.standard_normal((5, 3, 9, 9)).astype(np.float32)
    pool = pool_cls(k, stride)
    plan = compile_plan(pool, (8, 3, 9, 9))
    np.testing.assert_allclose(plan.run(x), reference(pool, x), atol=ATOL)


def test_linear_softmax_scale_stack():
    x = rng.standard_normal((9, 32)).astype(np.float32)
    stack = Sequential(
        Linear(32, 48, rng=np.random.default_rng(3)),
        ReLU(),
        Linear(48, 16, rng=np.random.default_rng(4)),
        Softmax(),
        Scale(16.0),
    )
    plan = compile_plan(stack, (16, 32))
    np.testing.assert_allclose(plan.run(x), reference(stack, x), atol=ATOL)


def test_no_op_layers_elided_and_fallback_supported():
    stack = Sequential(
        Identity(),
        Dropout(0.5),
        Linear(12, 8, rng=np.random.default_rng(5)),
        LeakyReLU(0.1),  # no dedicated step -> fallback
        Flatten(),
    )
    stack.eval()
    plan = compile_plan(stack, (4, 12))
    names = [s.describe() for s in plan.steps]
    assert not any("Identity" in n or "Dropout" in n for n in names)
    assert any(isinstance(s, FallbackStep) for s in plan.steps)
    x = rng.standard_normal((4, 12)).astype(np.float32)
    np.testing.assert_allclose(plan.run(x), reference(stack, x), atol=ATOL)


def test_reshape_and_flatten_round_trip():
    stack = Sequential(Flatten(), Reshape(2, 3, 4), Flatten())
    x = rng.standard_normal((3, 2, 3, 4)).astype(np.float32)
    plan = compile_plan(stack, (4, 2, 3, 4))
    np.testing.assert_allclose(plan.run(x), x.reshape(3, -1), atol=0)


@pytest.mark.parametrize("batch", [1, 3, 7, 16])
def test_full_lenet_plan_odd_batches(batch):
    model = LeNet(rng=0)
    model.eval()
    x = rng.standard_normal((batch, 1, 28, 28)).astype(np.float32)
    plan = compile_plan((model.features, model.classifier), (16, 1, 28, 28))
    with no_grad():
        ref = model(Tensor(x)).data
    np.testing.assert_allclose(plan.run(x), ref, atol=ATOL)


# --------------------------------------------------------------------- #
# LinearStep: weight-major and row-major products
# --------------------------------------------------------------------- #
# Every Linear shape of the repo's models: the MNIST autoencoder (Table I),
# the LeNet/BranchyNet trunk, and the branch head the lightweight
# classifier reuses.
MODEL_LINEAR_SHAPES = [
    (784, 784), (784, 384), (384, 32), (32, 784), (1280, 120), (120, 10), (144, 10)
]
LO, HI = LinearStep.WEIGHT_MAJOR_ROWS
CAPACITY = HI + 16  # rows past the window run row-major


def _linear(shape, bias):
    layer = Linear(*shape, bias=bias, rng=np.random.default_rng(sum(shape)))
    if bias:  # a fresh layer's bias is zero; make it count
        layer.bias.data[:] = np.random.default_rng(1).standard_normal(shape[1]) * 0.1
    return layer


def _row_major(layer, x, fuse_relu):
    """``x @ W.T (+ b) (+ReLU)``, the product the step must equal."""
    out = x @ layer.weight.data.T
    if layer.bias is not None:
        out += layer.bias.data
    return np.maximum(out, 0.0) if fuse_relu else out


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("fuse_relu", [True, False], ids=["relu", "linear"])
@pytest.mark.parametrize("shape", MODEL_LINEAR_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_linear_step_is_bit_exact_at_every_row_count(shape, fuse_relu, bias):
    """Both products equal ``x @ W.T (+ b) (+ReLU)`` exactly at every row
    count up to capacity, and a call runs weight-major exactly when its
    rows are within the window on a layer of enough weights."""
    layer = _linear(shape, bias)
    arena = BufferArena()
    step = LinearStep(layer, CAPACITY, arena, "s0", fuse_relu)
    big = shape[0] * shape[1] >= LinearStep.WEIGHT_MAJOR_WEIGHTS
    allocs = arena.allocation_count
    x_all = np.random.default_rng(2).standard_normal((CAPACITY, shape[0])).astype(np.float32)
    for n in range(1, CAPACITY + 1):
        x = x_all[:n]
        if big:
            step.fm[:] = np.nan  # the weight-major product overwrites it
        got = step.run(x)
        assert got.shape == (n, shape[1]) and got.flags.c_contiguous
        assert np.array_equal(got, _row_major(layer, x, fuse_relu)), n
        took_weight_major = big and not np.isnan(step.fm).all()
        assert took_weight_major == (big and LO <= n <= HI), n
        if took_weight_major:  # the pre-activation sum, feature-major
            fm = step.fm[: n * shape[1]].reshape(shape[1], n)
            assert np.array_equal(fm.T, _row_major(layer, x, False)), n
    assert arena.allocation_count == allocs
    # The AE's two large GEMMs and the LeNet trunk's first take it; the rest never.
    assert big == (shape in [(784, 784), (784, 384), (1280, 120)])


@pytest.mark.parametrize("shape", [(784, 784), (784, 384), (144, 10)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_linear_weight_updates_visible_on_both_products(shape):
    """The optimizers' in-place ``p.data -= ...`` and ``load_state_dict``
    (which swaps in a new array) show on the next run of either product."""
    layer = _linear(shape, bias=True)
    stack = Sequential(layer, ReLU())
    plan = compile_plan(stack, (CAPACITY, shape[0]))
    x = np.random.default_rng(3).standard_normal((CAPACITY, shape[0])).astype(np.float32)
    sizes = (1, LO, 32, HI, CAPACITY)

    def check():
        for n in sizes:
            assert np.array_equal(plan.run(x[:n]), _row_major(layer, x[:n], True)), n

    check()
    before = {n: plan.run(x[:n]).copy() for n in sizes}
    layer.weight.data -= 0.05 * np.sign(layer.weight.data)
    layer.bias.data -= 0.01
    check()
    for n in sizes:
        assert not np.array_equal(plan.run(x[:n]), before[n]), n
    stack.load_state_dict({k: v * 1.5 for k, v in stack.state_dict().items()})
    check()


@pytest.mark.parametrize("capacity", [1, LO, HI - 1, HI, 512])
def test_autoencoder_plan_never_allocates_at_run_time(capacity):
    """No row count grows the arena, and the weight-major scratch is
    bounded by the row window, not by the plan's capacity."""
    ae = ConvertingAutoencoder.for_dataset("mnist", rng=0)
    plan = compile_plan((ae.encoder, ae.decoder), (capacity, 784))
    allocs = plan.arena.allocation_count
    x = rng.random((capacity, 784), dtype=np.float32)
    for n in sorted({1, 2, LO - 1, LO, 32, HI - 1, HI, HI + 1, 88, capacity}):
        if n <= capacity:
            plan.run(x[:n])
            assert plan.arena.allocation_count == allocs, n
    scratch = [s.fm.size for s in plan.steps if isinstance(s, LinearStep) and s.fm is not None]
    assert scratch == ([784 * min(capacity, HI), 384 * min(capacity, HI)] if capacity >= LO else [])


# --------------------------------------------------------------------- #
# arena reuse / allocation discipline
# --------------------------------------------------------------------- #
def test_arena_buffer_identity_across_batches():
    """Steady-state batches reuse the exact same buffers (zero allocs)."""
    model = LeNet(rng=0)
    x = rng.standard_normal((32, 1, 28, 28)).astype(np.float32)
    plan = compile_plan((model.features, model.classifier), x.shape)
    out1 = plan.run(x)
    allocs = plan.arena.allocation_count
    conv_cols = [s.cols for s in plan.steps if isinstance(s, ConvStep)]
    out2 = plan.run(x)
    assert plan.arena.allocation_count == allocs
    assert out1.base is out2.base  # same arena buffer, not a fresh array
    for step, cols in zip(
        (s for s in plan.steps if isinstance(s, ConvStep)), conv_cols
    ):
        assert step.cols is cols  # im2col column buffers never reallocate
    # ragged smaller batch: still the same buffers, just shorter views
    out3 = plan.run(x[:5])
    assert plan.arena.allocation_count == allocs
    assert out3.base is out1.base
    assert out3.shape[0] == 5


def test_arena_rejects_shape_conflicts():
    arena = BufferArena()
    arena.alloc("a", (2, 3))
    with pytest.raises(ValueError):
        arena.alloc("a", (3, 2))
    assert "a" in arena and len(arena) == 1 and arena.nbytes == 24


def test_plan_input_validation():
    conv = Conv2d(1, 2, 3, rng=np.random.default_rng(0))
    plan = compile_plan(conv, (4, 1, 8, 8))
    with pytest.raises(TypeError):  # float64 is a dtype-discipline violation
        plan.run(np.zeros((2, 1, 8, 8)))
    with pytest.raises(ValueError):  # wrong sample shape
        plan.run(np.zeros((2, 1, 9, 9), dtype=np.float32))
    with pytest.raises(ValueError):  # over capacity
        plan.run(np.zeros((5, 1, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError):  # empty batch
        plan.run(np.zeros((0, 1, 8, 8), dtype=np.float32))


# --------------------------------------------------------------------- #
# plan cache semantics
# --------------------------------------------------------------------- #
def test_cached_plan_reuse_and_capacity_growth():
    model = LeNet(rng=0)
    p1 = cached_plan(model, (model.features, model.classifier), (8, 1, 28, 28), key="full")
    p2 = cached_plan(model, (model.features, model.classifier), (5, 1, 28, 28), key="full")
    assert p1 is p2  # smaller batch reuses the compiled plan
    p3 = cached_plan(model, (model.features, model.classifier), (16, 1, 28, 28), key="full")
    assert p3 is not p1 and p3.capacity == 16  # larger batch recompiles once
    clear_plans(model)
    assert "_fastpath_plans" not in model.__dict__


def test_plans_read_parameters_live():
    """Weight updates after compilation are visible without invalidation."""
    conv = Conv2d(1, 2, 3, rng=np.random.default_rng(0))
    x = rng.standard_normal((2, 1, 6, 6)).astype(np.float32)
    plan = compile_plan(conv, (2, 1, 6, 6))
    before = plan.run(x).copy()
    conv.weight.data *= 2.0
    conv.bias.data += 1.0
    after = plan.run(x)
    np.testing.assert_allclose(after, reference(conv, x), atol=ATOL)
    assert not np.allclose(before, after)


def test_module_inference_plan_helper():
    model = LeNet(rng=0)
    plan = model.inference_plan((4, 1, 28, 28), modules=(model.features, model.classifier))
    x = rng.standard_normal((4, 1, 28, 28)).astype(np.float32)
    with no_grad():
        ref = model(Tensor(x)).data
    np.testing.assert_allclose(plan.run(x), ref, atol=ATOL)
    model.clear_inference_plans()
    assert "_fastpath_plans" not in model.__dict__


# --------------------------------------------------------------------- #
# model-level equivalence (incl. the early-exit mask split)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.5, 10.0])
def test_branchynet_infer_fastpath_equivalence(threshold):
    model = BranchyLeNet(rng=0)
    images = rng.standard_normal((70, 1, 28, 28)).astype(np.float32)
    fast = model.infer(images, threshold, batch_size=32)  # ragged final batch of 6
    ref = model.infer(images, threshold, batch_size=32, fastpath=False)
    # Argmax can flip between paths only on near-tied logits (different
    # GEMM reduction order); allow <=1% of those, keep everything else exact.
    assert (fast.predictions == ref.predictions).mean() > 0.99
    np.testing.assert_array_equal(fast.exited_early, ref.exited_early)
    np.testing.assert_allclose(fast.branch_entropy, ref.branch_entropy, atol=ATOL)


def test_branch_gate_fastpath_equivalence():
    model = BranchyLeNet(rng=0)
    images = rng.standard_normal((41, 1, 28, 28)).astype(np.float32)
    ent_f, pred_f = model.branch_gate(images, batch_size=16)
    ent_r, pred_r = model.branch_gate(images, batch_size=16, fastpath=False)
    np.testing.assert_allclose(ent_f, ent_r, atol=ATOL)
    assert (pred_f == pred_r).mean() > 0.99  # argmax ties only


def test_lenet_predict_fastpath_equivalence():
    model = LeNet(rng=0)
    images = rng.standard_normal((70, 1, 28, 28)).astype(np.float32)
    agreement = (
        model.predict(images, batch_size=32)
        == model.predict(images, batch_size=32, fastpath=False)
    ).mean()
    assert agreement > 0.99  # argmax ties only


def test_lightweight_predict_fastpath_equivalence():
    model = LightweightClassifier.from_branchynet(BranchyLeNet(rng=3))
    images = rng.standard_normal((23, 1, 28, 28)).astype(np.float32)
    agreement = (
        model.predict(images, batch_size=10)
        == model.predict(images, batch_size=10, fastpath=False)
    ).mean()
    assert agreement > 0.99  # argmax ties only


def test_autoencoder_convert_fastpath_equivalence():
    ae = ConvertingAutoencoder.for_dataset("mnist", rng=0)
    flat = rng.random((37, 784), dtype=np.float32)
    np.testing.assert_allclose(
        ae.convert(flat, batch_size=16),
        ae.convert(flat, batch_size=16, fastpath=False),
        atol=ATOL,
    )


# --------------------------------------------------------------------- #
# float32 discipline
# --------------------------------------------------------------------- #
def test_infer_coerces_float64_input():
    """Inference entry points enforce float32 even for float64 callers."""
    model = BranchyLeNet(rng=0)
    images64 = rng.standard_normal((12, 1, 28, 28))  # float64
    result = model.infer(images64, 0.5, batch_size=8)
    assert result.branch_entropy.dtype == np.float32
    ref = model.infer(images64.astype(np.float32), 0.5, batch_size=8)
    np.testing.assert_array_equal(result.predictions, ref.predictions)


def test_branchynet_infer_all_intermediates_float32():
    """Walk a full BranchyNet infer layer by layer: every intermediate,
    on both the compiled and the reference path, must stay float32."""
    model = BranchyLeNet(rng=0)
    model.eval()
    images = rng.standard_normal((6, 1, 28, 28)).astype(np.float32)

    # Reference path, layer by layer.
    with no_grad():
        shared = Tensor(images)
        for layer in flatten_modules(model.stem):
            shared = layer(shared)
            assert shared.dtype == np.float32, f"{layer!r} upcast to {shared.dtype}"
        for stage in (model.branch, model.trunk):
            x = shared
            for layer in flatten_modules(stage):
                x = layer(x)
                assert x.dtype == np.float32, f"{layer!r} upcast to {x.dtype}"

    # Compiled path: every arena buffer and every step output.
    for key, modules in (("stem", model.stem), ("branch", model.branch)):
        plan = cached_plan(model, modules, images.shape, key=key)
        for name in plan.arena.names():
            assert plan.arena.get(name).dtype == np.float32, name
    stem_out = cached_plan(model, model.stem, images.shape, key="stem").run(images)
    assert stem_out.dtype == np.float32
    branch_out = cached_plan(model, model.branch, stem_out.shape, key="branch").run(stem_out)
    assert branch_out.dtype == np.float32

    # The gate statistic itself.
    result = model.infer(images, 0.5)
    assert result.branch_entropy.dtype == np.float32
