"""Offload deciders and wire codecs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.offload.policies import (
    AlwaysLocal,
    AlwaysRemote,
    DeadlineAware,
    EntropyGated,
    OffloadContext,
    TensorCodec,
)


def _ctx(entropy=0.5, easy=False, local=0.010, remote=0.050) -> OffloadContext:
    return OffloadContext(
        entropy=entropy, easy=easy, est_local_s=local, est_remote_s=remote
    )


class TestDeciders:
    def test_always_local_never_ships(self):
        policy = AlwaysLocal()
        assert not policy.offload(_ctx(easy=True))
        assert not policy.offload(_ctx(easy=False, local=10.0, remote=0.001))
        assert policy.runs_gate and policy.payload == "split"

    def test_always_remote_ships_everything_without_gating(self):
        policy = AlwaysRemote()
        assert policy.offload(_ctx(easy=True))
        assert not policy.runs_gate
        assert policy.payload == "input"

    def test_entropy_gated_uses_the_model_gate(self):
        policy = EntropyGated()
        assert not policy.offload(_ctx(easy=True))
        assert policy.offload(_ctx(easy=False))

    def test_deadline_aware_easy_stays_local(self):
        policy = DeadlineAware(deadline_s=0.1)
        assert not policy.offload(_ctx(easy=True, remote=0.001))

    def test_deadline_aware_ships_while_link_meets_deadline(self):
        policy = DeadlineAware(deadline_s=0.1)
        assert policy.offload(_ctx(easy=False, local=0.010, remote=0.050))

    def test_deadline_aware_falls_back_to_local_on_dead_link(self):
        policy = DeadlineAware(deadline_s=0.1)
        # Remote misses the deadline and is slower than local → stay.
        assert not policy.offload(_ctx(easy=False, local=0.200, remote=5.0))
        # Remote misses the deadline but local is even worse → ship.
        assert policy.offload(_ctx(easy=False, local=10.0, remote=5.0))

    def test_deadline_validation(self):
        with pytest.raises(ValueError, match="deadline"):
            DeadlineAware(deadline_s=0.0)


class TestTensorCodec:
    def test_wire_bytes_per_dtype(self):
        n = 576
        assert TensorCodec("float32").wire_bytes(n) == 4 * n
        assert TensorCodec("float16").wire_bytes(n) == 2 * n
        assert TensorCodec("uint8").wire_bytes(n) == n + 8
        assert TensorCodec("kmeans8").wire_bytes(n) == n + 1024

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="codec dtype"):
            TensorCodec("int4")

    def test_negative_elems_rejected(self):
        with pytest.raises(ValueError, match="n_elems"):
            TensorCodec().wire_bytes(-1)

    def test_float32_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 12, 12)).astype(np.float32)
        out = TensorCodec("float32").decode(x)
        np.testing.assert_array_equal(out, x)
        assert out.dtype == np.float32 and out.flags["C_CONTIGUOUS"]

    def test_float16_roundtrip_error_is_bounded(self):
        x = np.random.default_rng(1).normal(size=(256,)).astype(np.float32)
        out = TensorCodec("float16").decode(x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, x, rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("dtype", ["uint8", "kmeans8"])
    def test_quantized_roundtrip_error_is_bounded(self, dtype):
        x = np.random.default_rng(2).uniform(-1, 1, size=(1000,)).astype(np.float32)
        out = TensorCodec(dtype).decode(x)
        assert out.dtype == np.float32
        # 256 levels over a range of 2 → worst-case error ~ half a step.
        assert np.abs(out - x).max() < 2.5 * (2.0 / 255)

    def test_constant_tensor_quantizes_exactly(self):
        x = np.full((64,), 0.7, dtype=np.float32)
        np.testing.assert_allclose(TensorCodec("uint8").decode(x), x)

    def test_decode_is_deterministic(self):
        x = np.random.default_rng(3).normal(size=(500,)).astype(np.float32)
        for dtype in ("float16", "uint8", "kmeans8"):
            a = TensorCodec(dtype).decode(x)
            b = TensorCodec(dtype).decode(x)
            np.testing.assert_array_equal(a, b)
