"""`repro.models` — the paper's model zoo.

* :class:`LeNet` — the baseline (3 conv + 2 FC, classic LeNet-5 layout).
* :class:`BranchyLeNet` — BranchyNet-LeNet: LeNet main network plus one
  early-exit branch (1 conv + 1 FC) after the first conv layer.
* :class:`ConvertingAutoencoder` — the paper's contribution, Table I.
* :class:`LightweightClassifier` — the early-exit branch truncated out of
  a trained BranchyNet (2 conv + 1 FC).
"""

from repro.models.lenet import LeNet
from repro.models.branchynet import BranchyLeNet, BranchyInferenceResult
from repro.models.autoencoder import (
    ConvertingAutoencoder,
    AutoencoderSpec,
    TABLE1_SPECS,
)
from repro.models.lightweight import LightweightClassifier

__all__ = [
    "LeNet",
    "BranchyLeNet",
    "BranchyInferenceResult",
    "ConvertingAutoencoder",
    "AutoencoderSpec",
    "TABLE1_SPECS",
    "LightweightClassifier",
]
