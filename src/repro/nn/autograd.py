"""Autograd mode control and numerical gradient checking.

``no_grad()`` suppresses graph construction — essential for the inference
benchmarks, where building backward closures would inflate both latency
and memory for no benefit.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator

import numpy as np

__all__ = ["grad_enabled", "no_grad", "numerical_gradient", "gradcheck"]

_state = threading.local()


def grad_enabled() -> bool:
    """True when autograd graph construction is active (the default)."""
    return getattr(_state, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling autograd (inference mode)."""
    previous = grad_enabled()
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = previous


def numerical_gradient(
    fn: Callable[[np.ndarray], float],
    x: np.ndarray,
    eps: float = 1e-4,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` at ``x`` (float64)."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(x)
        flat[i] = orig - eps
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., "object"],
    *inputs: np.ndarray,
    eps: float = 1e-4,
    atol: float = 1e-3,
    rtol: float = 1e-2,
) -> bool:
    """Compare analytic autograd gradients against central differences.

    ``fn`` takes :class:`~repro.nn.tensor.Tensor` arguments and returns a
    scalar Tensor.  Raises ``AssertionError`` with a diagnostic on mismatch;
    returns True on success (so it can sit inside ``assert gradcheck(...)``).
    """
    from repro.nn.tensor import Tensor

    tensors = [Tensor(x.astype(np.float64), requires_grad=True, dtype=np.float64) for x in inputs]
    out = fn(*tensors)
    out.backward()

    for idx, (t, x) in enumerate(zip(tensors, inputs)):
        def scalar_fn(values: np.ndarray, _idx: int = idx) -> float:
            probe = [
                Tensor(values if j == _idx else other.astype(np.float64), dtype=np.float64)
                for j, other in enumerate(inputs)
            ]
            return float(fn(*probe).data)

        numeric = numerical_gradient(scalar_fn, x.astype(np.float64), eps=eps)
        analytic = t.grad
        assert analytic is not None, f"input {idx} received no gradient"
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradcheck failed for input {idx}: max abs err {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
