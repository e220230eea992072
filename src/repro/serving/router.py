"""Easy/hard request routing on branch entropy (the serving-layer gate).

The paper's entropy gate lives *inside* BranchyNet: a sample whose
branch-softmax entropy clears the threshold exits early, the rest pay
the trunk.  At the serving layer the same statistic becomes a *router*:
a micro-batch runs the shared stem + branch once, and only the
entropy-flagged hard sub-batch is sent down the full-exit (trunk) path.
The router also powers the hybrid backend, where hard inputs are instead
converted by the CBNet autoencoder (hard→easy) and re-classified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RouteDecision", "EntropyRouter"]


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of routing one micro-batch.

    ``predictions`` carries the branch-exit labels computed during the
    same stem+branch forward pass that produced the gate statistic, so
    backends can reuse them instead of re-running the shared stem.
    """

    easy: np.ndarray  # (N,) bool — True where the early path suffices
    entropy: np.ndarray  # (N,) branch-softmax entropy (gate statistic)
    predictions: np.ndarray | None = None  # (N,) branch-exit labels

    @property
    def n_easy(self) -> int:
        return int(self.easy.sum())

    @property
    def n_hard(self) -> int:
        return int((~self.easy).sum())

    @property
    def hard_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.easy)

    @property
    def easy_indices(self) -> np.ndarray:
        return np.flatnonzero(self.easy)


class EntropyRouter:
    """Split micro-batches into easy/hard sub-batches by branch entropy.

    Parameters
    ----------
    branchynet:
        A trained :class:`~repro.models.branchynet.BranchyLeNet` whose
        stem + branch produce the gate statistic, against the model's
        own ``entropy_threshold`` (set during pipeline construction).
    """

    def __init__(self, branchynet) -> None:
        self.branchynet = branchynet
        self.threshold = float(branchynet.entropy_threshold)
        if not self.threshold >= 0:  # false for NaN too
            raise ValueError(f"entropy threshold must be >= 0, got {self.threshold}")

    def split(self, images: np.ndarray) -> RouteDecision:
        """Route one image batch: easy where entropy < threshold.

        An empty batch short-circuits to an empty decision without
        touching the model — no zero-sample plan is ever traced.
        """
        images = np.asarray(images)
        if images.shape[0] == 0:
            return RouteDecision(
                easy=np.zeros(0, dtype=bool),
                entropy=np.zeros(0, dtype=np.float32),
                predictions=np.zeros(0, dtype=np.int64),
            )
        entropy, preds = self.branchynet.branch_gate(images)
        return RouteDecision(
            easy=entropy < self.threshold, entropy=entropy, predictions=preds
        )
