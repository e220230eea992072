"""CBNet: converting autoencoder + lightweight classifier (paper Fig. 2).

Inference = AE hard→easy conversion followed by the truncated early-exit
classifier.  When the AE uses the paper's Softmax reconstruction head,
its outputs are probability images; :meth:`CBNet.predict` rescales them
back to peak-1 before classification (see
:mod:`repro.models.autoencoder`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.transforms import from_unit_sum, unflatten
from repro.models.autoencoder import ConvertingAutoencoder
from repro.models.lightweight import LightweightClassifier

__all__ = ["CBNet"]


@dataclass
class CBNet:
    """The deployable CBNet inference pipeline.

    Attributes
    ----------
    autoencoder:
        Trained converting autoencoder (Table I architecture).
    classifier:
        Trained lightweight classifier (truncated BranchyNet branch).
    image_shape:
        Per-sample (C, H, W); used to reshape AE outputs for the conv
        classifier.
    """

    autoencoder: ConvertingAutoencoder
    classifier: LightweightClassifier
    image_shape: tuple[int, int, int] = (1, 28, 28)

    def convert(self, images: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Run only the conversion stage → NCHW easy-image batch."""
        flat = self.autoencoder.convert(images, batch_size=batch_size)
        nchw = unflatten(flat, self.image_shape)
        if self.autoencoder.spec.output_activation == "softmax":
            nchw = from_unit_sum(nchw)
        return nchw

    def predict(self, images: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Full CBNet inference: labels for a raw NCHW (or flat) array."""
        converted = self.convert(images, batch_size=batch_size)
        return self.classifier.predict(converted, batch_size=batch_size)

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy of the full pipeline."""
        return float((self.predict(images) == np.asarray(labels)).mean())

    def stages(self):
        """Named stages for the FLOPs/latency models: AE then classifier."""
        return self.autoencoder.stages() + self.classifier.stages()
