"""Loss functions, including the paper's joint multi-exit objective."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["JointExitLoss"]


class JointExitLoss(Module):
    """BranchyNet's joint training objective.

    L = Σ_i w_i · CE(exit_i_logits, y).  Teerapittayanon et al. weight every
    exit equally by default; the weights are exposed so the ablation bench
    can sweep them.
    """

    def __init__(self, weights: Sequence[float] | None = None) -> None:
        super().__init__()
        self.weights = tuple(weights) if weights is not None else None

    def forward(self, exit_logits: Sequence[Tensor], targets: np.ndarray) -> Tensor:
        if not exit_logits:
            raise ValueError("JointExitLoss needs at least one exit")
        weights = self.weights or tuple(1.0 for _ in exit_logits)
        if len(weights) != len(exit_logits):
            raise ValueError(
                f"{len(exit_logits)} exits but {len(weights)} loss weights configured"
            )
        total: Tensor | None = None
        for w, logits in zip(weights, exit_logits):
            term = F.cross_entropy(logits, targets) * w
            total = term if total is None else total + term
        assert total is not None
        return total

    def __repr__(self) -> str:
        return f"JointExitLoss(weights={self.weights})"
