"""Property-based tests for k-means weight quantization."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.quantization import kmeans_quantize

_weights = hnp.arrays(
    np.float64,
    st.integers(4, 200),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@settings(max_examples=25, deadline=None)
@given(_weights, st.integers(1, 8))
def test_quantize_codebook_bound_and_range(w, bits):
    q, codebook = kmeans_quantize(w, bits=bits, rng=0)
    assert codebook.size <= 2**bits
    assert q.shape == w.shape
    # Quantized values never leave the original range.
    assert q.min() >= w.min() - 1e-5
    assert q.max() <= w.max() + 1e-5


@settings(max_examples=25, deadline=None)
@given(_weights, st.integers(1, 8))
def test_quantize_deterministic(w, bits):
    """Same weights + same bit width → identical quantization."""
    q1, c1 = kmeans_quantize(w, bits=bits, rng=0)
    q2, c2 = kmeans_quantize(w, bits=bits, rng=99)  # rng unused by Lloyd init
    assert np.array_equal(q1, q2)
    assert np.array_equal(c1, c2)
