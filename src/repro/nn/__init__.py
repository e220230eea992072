"""`repro.nn` — a from-scratch NumPy deep-learning framework.

This is substrate #1 from DESIGN.md: the paper's models were built on
Keras/BranchyNet; this package provides the equivalent capability
(autograd tensors, conv/dense layers, losses, optimizers, compiled
inference plans) with no dependencies beyond NumPy.
"""

from repro.nn.autograd import no_grad, grad_enabled, gradcheck
from repro.nn.tensor import Tensor, as_tensor
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.losses import JointExitLoss
from repro.nn import functional
from repro.nn import init
from repro.nn import layers
from repro.nn import optim
from repro.nn import fastpath

__all__ = [
    "Tensor",
    "as_tensor",
    "Module",
    "Parameter",
    "Sequential",
    "JointExitLoss",
    "functional",
    "init",
    "layers",
    "optim",
    "fastpath",
    "no_grad",
    "grad_enabled",
    "gradcheck",
]
