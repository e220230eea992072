"""Optimizers and gradient clipping."""

from repro.nn.optim.base import Optimizer, clip_grad_norm
from repro.nn.optim.sgd import SGD
from repro.nn.optim.adam import Adam

__all__ = [
    "Optimizer",
    "clip_grad_norm",
    "SGD",
    "Adam",
]
