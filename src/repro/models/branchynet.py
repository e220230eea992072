"""BranchyNet-LeNet (Teerapittayanon et al., 2016) with one early exit.

Per the paper (§IV-B): "BranchyNet consists of three convolutional layers
and two fully-connected layers in the main network.  It has one early-exit
branch consisting of one convolutional layer and one fully-connected
layer after the first convolutional layer of the main network."

At inference, a sample exits at the branch when the entropy of the branch
softmax falls below the dataset-specific threshold (0.05 MNIST / 0.5
FMNIST / 0.025 KMNIST in the paper's experiments); otherwise it continues
through the remaining main-network layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import functional as F
from repro.nn import no_grad
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.module import Module, Sequential
from repro.nn.tensor import Tensor
from repro.utils.rng import as_generator

__all__ = ["BranchyLeNet", "BranchyInferenceResult"]


@dataclass
class BranchyInferenceResult:
    """Outcome of threshold-gated BranchyNet inference over a batch.

    Attributes
    ----------
    predictions:
        (N,) predicted labels.
    exited_early:
        (N,) bool — True where the sample left at the branch exit.
    branch_entropy:
        (N,) entropy of the branch softmax (the exit-gate statistic).
    """

    predictions: np.ndarray
    exited_early: np.ndarray
    branch_entropy: np.ndarray

    @property
    def early_exit_rate(self) -> float:
        return float(self.exited_early.mean()) if self.exited_early.size else 0.0


class BranchyLeNet(Module):
    """LeNet-5 main network + one early-exit branch after conv1.

    Stages
    ------
    ``stem``    conv1 + pool (shared by both exits): 1x28x28 → 4x12x12
    ``branch``  pool + conv_b 4@3x3 + FC → logits    (exit 1)
    ``trunk``   conv2, conv3, fc1, fc2 → logits      (exit 2 / final)

    The stem + trunk is exactly the :class:`~repro.models.lenet.LeNet`
    architecture (the "main network"); the branch adds one conv and one
    FC layer, matching the paper's description.  The branch downsamples
    first so the early-exit path stays cheap relative to the trunk —
    mirroring the latency split the paper measures.
    """

    IN_SHAPE = (1, 28, 28)

    def __init__(
        self,
        num_classes: int = 10,
        rng: np.random.Generator | int | None = None,
        entropy_threshold: float = 0.05,
    ) -> None:
        entropy_threshold = float(entropy_threshold)
        if not entropy_threshold >= 0:  # false for NaN too
            raise ValueError(f"entropy threshold must be >= 0, got {entropy_threshold}")
        super().__init__()
        rng = as_generator(rng)
        self.num_classes = num_classes
        self.entropy_threshold = entropy_threshold
        self.stem = Sequential(
            Conv2d(1, 4, kernel_size=5, rng=rng),
            ReLU(),
            MaxPool2d(2),
        )
        self.branch = Sequential(
            MaxPool2d(2),
            Conv2d(4, 4, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Flatten(),
            Linear(4 * 6 * 6, num_classes, rng=rng),
        )
        self.trunk = Sequential(
            Conv2d(4, 20, kernel_size=5, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(20, 80, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Flatten(),
            Linear(80 * 4 * 4, 120, rng=rng),
            ReLU(),
            Linear(120, num_classes, rng=rng),
        )

    # ------------------------------------------------------------------ #
    # training path
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> list[Tensor]:
        """Return logits from every exit (joint-training path)."""
        shared = self.stem(x)
        return [self.branch(shared), self.trunk(shared)]

    # ------------------------------------------------------------------ #
    # inference path
    # ------------------------------------------------------------------ #
    def infer(
        self,
        images: np.ndarray,
        threshold: float | None = None,
        batch_size: int = 256,
        fastpath: bool = True,
    ) -> BranchyInferenceResult:
        """Threshold-gated early-exit inference over a raw image array.

        Vectorized gating: the whole batch runs the stem + branch; only
        the sub-batch whose branch entropy clears the threshold continues
        through the trunk.  (On a real device samples arrive one at a
        time; the latency model in :mod:`repro.hw.latency` accounts for
        per-sample costs — here we only need predictions and exit masks.)

        With ``fastpath=True`` (default) each stage runs through a
        compiled :class:`~repro.nn.fastpath.InferencePlan` — lazily
        traced per batch shape, reused across batches (including the
        ragged final one and variable-size hard sub-batches).  Set
        ``fastpath=False`` to run the reference autograd path (used by
        the equivalence tests).
        """
        threshold = self.entropy_threshold if threshold is None else float(threshold)
        self.eval()
        images = np.ascontiguousarray(images, dtype=np.float32)
        preds = np.empty(images.shape[0], dtype=np.int64)
        exited = np.empty(images.shape[0], dtype=bool)
        entropies = np.empty(images.shape[0], dtype=np.float32)
        with no_grad():
            for start in range(0, images.shape[0], batch_size):
                sl = slice(start, start + batch_size)
                batch = images[sl]
                if fastpath:
                    shared = self.inference_plan(batch.shape, self.stem, key="stem").run(batch)
                    branch_logits = self.inference_plan(
                        shared.shape, self.branch, key="branch"
                    ).run(shared)
                else:
                    shared = self.stem(Tensor(batch)).data
                    branch_logits = self.branch(Tensor(shared)).data
                probs = _softmax_np(branch_logits)
                ent = F.entropy(probs, axis=1)
                take_early = ent < threshold
                batch_preds = probs.argmax(axis=1)
                if not take_early.all():
                    if take_early.any():
                        hard_idx = np.flatnonzero(~take_early)
                        hard = shared[hard_idx]  # fancy indexing: fresh contiguous copy
                    else:
                        # All-hard batch: the whole stem output continues —
                        # skip the pointless gather copy (and the empty
                        # easy sub-batch it would leave behind).
                        hard_idx = slice(None)
                        hard = shared
                    if fastpath:
                        trunk_logits = self.inference_plan(
                            hard.shape, self.trunk, key="trunk"
                        ).run(hard)
                    else:
                        trunk_logits = self.trunk(Tensor(hard)).data
                    batch_preds[hard_idx] = trunk_logits.argmax(axis=1)
                preds[sl] = batch_preds
                exited[sl] = take_early
                entropies[sl] = ent
        return BranchyInferenceResult(preds, exited, entropies)

    def branch_entropies(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Entropy of the branch softmax per sample (no trunk execution)."""
        return self.branch_gate(images, batch_size)[0]

    def branch_gate(
        self, images: np.ndarray, batch_size: int = 256, fastpath: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """One stem+branch pass → (entropies, branch predictions).

        The serving-layer router needs both the gate statistic and the
        early-exit labels; computing them together avoids a second
        forward pass over the shared stem.  Runs through the compiled
        stem/branch plans (shared with :meth:`infer`) by default.
        """
        self.eval()
        images = np.ascontiguousarray(images, dtype=np.float32)
        entropies = np.empty(images.shape[0], dtype=np.float32)
        preds = np.empty(images.shape[0], dtype=np.int64)
        with no_grad():
            for start in range(0, images.shape[0], batch_size):
                sl = slice(start, start + batch_size)
                batch = images[sl]
                if fastpath:
                    shared = self.inference_plan(batch.shape, self.stem, key="stem").run(batch)
                    logits = self.inference_plan(
                        shared.shape, self.branch, key="branch"
                    ).run(shared)
                else:
                    logits = self.branch(self.stem(Tensor(batch))).data
                probs = _softmax_np(logits)
                entropies[sl] = F.entropy(probs, axis=1)
                preds[sl] = probs.argmax(axis=1)
        return entropies, preds

    def stem_features(
        self, images: np.ndarray, batch_size: int = 256, fastpath: bool = True
    ) -> np.ndarray:
        """Shared-stem activations for a raw image batch.

        This is the tensor an edge device ships upstream when it
        offloads a hard sample (:mod:`repro.offload`): the cloud replica
        resumes from the stem output and runs only the trunk.  Runs the
        same compiled stem plan as :meth:`infer`/:meth:`branch_gate`.
        """
        self.eval()
        images = np.ascontiguousarray(images, dtype=np.float32)
        out: np.ndarray | None = None
        with no_grad():
            for start in range(0, images.shape[0], batch_size):
                batch = images[start : start + batch_size]
                if fastpath:
                    shared = self.inference_plan(batch.shape, self.stem, key="stem").run(batch)
                else:
                    shared = self.stem(Tensor(batch)).data
                if out is None:
                    out = np.empty((images.shape[0], *shared.shape[1:]), dtype=np.float32)
                out[start : start + batch.shape[0]] = shared
        if out is None:  # empty input batch: derive the stem shape cheaply
            probe = self.stem(Tensor(np.zeros((1, *images.shape[1:]), dtype=np.float32))).data
            out = np.empty((0, *probe.shape[1:]), dtype=np.float32)
        return out

    def stages(self) -> list[tuple[str, Sequential]]:
        """Named stages for the FLOPs/latency models."""
        return [("stem", self.stem), ("branch", self.branch), ("trunk", self.trunk)]


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    """Plain-array stable softmax (inference hot path, no autograd)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
