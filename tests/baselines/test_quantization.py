"""Unit tests for k-means weight quantization."""

import numpy as np
import pytest

from repro.baselines.quantization import kmeans_quantize, quantize_model
from repro.models import LeNet


class TestKmeansQuantize:
    def test_codebook_size_bounded(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((50, 50))
        q, codebook = kmeans_quantize(w, bits=4, rng=0)
        assert codebook.size <= 16
        assert set(np.unique(q).tolist()) <= set(codebook.tolist())

    def test_quantized_close_to_original(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((100,))
        q, _ = kmeans_quantize(w, bits=8, rng=0)
        assert np.abs(q - w).max() < 0.2

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((500,))
        e = []
        for bits in (2, 4, 8):
            q, _ = kmeans_quantize(w, bits=bits, rng=0)
            e.append(np.abs(q - w).mean())
        assert e[0] > e[1] > e[2]

    def test_constant_weights(self):
        q, codebook = kmeans_quantize(np.full((4, 4), 2.5), bits=3, rng=0)
        assert np.allclose(q, 2.5)
        assert codebook.size == 1

    def test_invalid_bits_raise(self):
        with pytest.raises(ValueError):
            kmeans_quantize(np.ones(4), bits=0)
        with pytest.raises(ValueError):
            kmeans_quantize(np.ones(4), bits=20)


class TestQuantizeModel:
    def test_weight_value_counts_shrink(self):
        model = LeNet(rng=0)
        sizes = quantize_model(model, bits=4, rng=0)
        for name, p in model.named_parameters():
            if name.endswith("bias"):
                continue
            assert np.unique(p.data).size <= 16, name
        assert all(s <= 16 for s in sizes.values())

    def test_model_accuracy_survives_8bit(self, trained_lenet, tiny_mnist):
        import copy

        from repro.core.trainer import evaluate_accuracy

        model = copy.deepcopy(trained_lenet)
        base = evaluate_accuracy(model, tiny_mnist["test"])
        quantize_model(model, bits=8, rng=0)
        quant = evaluate_accuracy(model, tiny_mnist["test"])
        assert quant >= base - 0.05
