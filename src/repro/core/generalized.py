"""Generalized CBNet — the paper's future-work directions (§V), implemented.

The conclusion sketches two extensions:

1. **"extending the applicability of converting autoencoders to
   non-early-exiting DNNs ... eliminating the dependency on branchynet
   for easy-hard classification"** — :func:`build_generalized_cbnet`
   builds the entire pipeline from a *plain* LeNet: the lightweight
   classifier is a truncation of the first ``k`` feature layers
   (§III-B's "layer 1 through k < N" recipe) with a fresh head, and the
   easy/hard labels come from that truncated classifier's own prediction
   entropy instead of a BranchyNet exit gate.

2. **"removing the decoder block"** — :class:`EncoderOnlyCBNet` drops
   the 784-wide decoder: the encoder's bottleneck code feeds a small
   dense classifier directly.  The reconstruction stage disappears from
   the latency budget entirely (the code classifier costs a few
   thousand MACs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cbnet import CBNet
from repro.core.config import TrainConfig
from repro.core.labeling import LabelingResult
from repro.core.pairing import build_conversion_targets
from repro.core.trainer import fit_autoencoder, fit_classifier
from repro.data.dataset import ArrayDataset
from repro.data.transforms import flatten, to_unit_sum
from repro.models.autoencoder import ConvertingAutoencoder
from repro.models.branchynet import _softmax_np
from repro.models.lenet import LeNet
from repro.models.lightweight import LightweightClassifier
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.layers import Linear, ReLU
from repro.nn.module import Module, Sequential
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator, derive_seed

__all__ = [
    "classifier_entropy",
    "label_by_classifier_entropy",
    "build_generalized_cbnet",
    "GeneralizedArtifacts",
    "EncoderOnlyCBNet",
    "build_encoder_only_cbnet",
]

logger = get_logger("core.generalized")


def classifier_entropy(
    classifier: Module, images: np.ndarray, batch_size: int = 512
) -> np.ndarray:
    """Prediction entropy of any logits-producing classifier."""
    classifier.eval()
    out = np.empty(images.shape[0], dtype=np.float32)
    with no_grad():
        for start in range(0, images.shape[0], batch_size):
            sl = slice(start, start + batch_size)
            logits = classifier(Tensor(images[sl])).data
            out[sl] = F.entropy(_softmax_np(logits), axis=1)
    return out


def label_by_classifier_entropy(
    classifier: Module,
    images: np.ndarray,
    threshold: float | None = None,
    easy_quantile: float = 0.8,
) -> LabelingResult:
    """Easy/hard labels without a BranchyNet.

    A sample is *easy* when the (truncated) classifier itself is already
    confident about it.  With ``threshold=None`` the gate is set at the
    ``easy_quantile`` of the entropy distribution — a data-driven default
    that needs no per-dataset hand-tuning (addressing the paper's reliance
    on tuned thresholds).
    """
    entropy = classifier_entropy(classifier, images)
    if threshold is None:
        threshold = float(np.quantile(entropy, easy_quantile))
    return LabelingResult(easy=entropy < threshold, entropy=entropy, threshold=threshold)


@dataclass
class GeneralizedArtifacts:
    """Products of the BranchyNet-free CBNet build."""

    cbnet: CBNet
    labeling: LabelingResult
    source_model: LeNet
    keep_layers: int


def build_generalized_cbnet(
    lenet: LeNet,
    train_ds: ArrayDataset,
    dataset_name: str,
    keep_layers: int = 3,
    seed: int = 0,
    head_train: TrainConfig | None = None,
    ae_train: TrainConfig | None = None,
    easy_quantile: float = 0.8,
    finetune: bool = True,
) -> GeneralizedArtifacts:
    """CBNet from a plain (non-early-exit) trained LeNet.

    Steps (paper §III-B generalization + §V):

    1. truncate ``lenet.features[:keep_layers]``, attach a fresh head,
       train the head briefly (the trunk stays frozen in effect — its
       gradients flow but one epoch barely moves it);
    2. label easy/hard by the truncated classifier's own entropy;
    3. train the Table-I converting autoencoder on same-class easy targets;
    4. optional recovery fine-tune on converted images (as in the main
       pipeline).
    """
    rng = as_generator(derive_seed(seed, dataset_name, "generalized"))
    head_train = head_train or TrainConfig(epochs=4, batch_size=128, lr=1e-3)
    ae_train = ae_train or TrainConfig(epochs=10, batch_size=128, lr=1e-3)

    # -- 1. truncated classifier from the plain DNN ---------------------- #
    lightweight = LightweightClassifier.truncate_lenet(
        lenet, keep_layers=keep_layers, rng=rng
    )
    logger.info("[%s] training truncated head (k=%d)", dataset_name, keep_layers)
    fit_classifier(lightweight, train_ds, head_train, rng=rng)

    # -- 2. BranchyNet-free easy/hard labels ------------------------------ #
    labeling = label_by_classifier_entropy(
        lightweight, train_ds.images, easy_quantile=easy_quantile
    )
    logger.info(
        "[%s] entropy gate %.4g → easy %.1f%%",
        dataset_name,
        labeling.threshold,
        100 * labeling.easy_fraction,
    )

    # -- 3. converting autoencoder ---------------------------------------- #
    autoencoder = ConvertingAutoencoder.for_dataset(dataset_name, rng=rng)
    inputs = flatten(train_ds.images)
    target_images = build_conversion_targets(
        train_ds.images, train_ds.labels, labeling.easy, rng=rng, entropy=labeling.entropy
    )
    targets = flatten(to_unit_sum(target_images)) * np.float32(
        autoencoder.spec.input_dim
    )
    fit_autoencoder(autoencoder, inputs, targets, ae_train, rng=rng)

    cbnet = CBNet(autoencoder=autoencoder, classifier=lightweight)

    # -- 4. recovery fine-tune -------------------------------------------- #
    if finetune:
        converted = cbnet.convert(train_ds.images)
        fit_classifier(
            lightweight,
            ArrayDataset(converted, train_ds.labels),
            TrainConfig(epochs=3, batch_size=128, lr=5e-4),
            rng=rng,
        )

    return GeneralizedArtifacts(
        cbnet=cbnet,
        labeling=labeling,
        source_model=lenet,
        keep_layers=keep_layers,
    )


# ---------------------------------------------------------------------- #
# decoder-free variant
# ---------------------------------------------------------------------- #
@dataclass
class EncoderOnlyCBNet:
    """CBNet without the decoder: encoder code → dense classifier.

    The decoder exists only to produce an image for a *conv* classifier;
    if the classifier consumes the bottleneck code directly, the 784-wide
    reconstruction layer (the AE's single most expensive GEMM after FC1)
    is gone from the inference budget.
    """

    encoder: Sequential
    code_classifier: Sequential
    input_dim: int = 784

    def predict(self, images: np.ndarray, batch_size: int = 512) -> np.ndarray:
        flat = images.reshape(images.shape[0], -1).astype(np.float32)
        out = np.empty(flat.shape[0], dtype=np.int64)
        self.encoder.eval()
        self.code_classifier.eval()
        with no_grad():
            for start in range(0, flat.shape[0], batch_size):
                sl = slice(start, start + batch_size)
                code = self.encoder(Tensor(flat[sl]))
                out[sl] = self.code_classifier(code).data.argmax(axis=1)
        return out

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(images) == np.asarray(labels)).mean())

    def stages(self) -> list[tuple[str, Sequential]]:
        return [("encoder", self.encoder), ("code_classifier", self.code_classifier)]


def build_encoder_only_cbnet(
    autoencoder: ConvertingAutoencoder,
    train_ds: ArrayDataset,
    num_classes: int = 10,
    hidden: int = 64,
    seed: int = 0,
    train: TrainConfig | None = None,
) -> EncoderOnlyCBNet:
    """Drop the decoder of a trained converting AE; classify its codes.

    The donor autoencoder is left untouched: the encoder is *deep-copied*
    before the head training (gradients flow through the copy, adapting
    the code space to classification without corrupting the original
    AE's encoder-decoder alignment).
    """
    import copy

    rng = as_generator(derive_seed(seed, "encoder-only"))
    train = train or TrainConfig(epochs=6, batch_size=128, lr=1e-3)
    autoencoder = copy.deepcopy(autoencoder)
    code_width = autoencoder.spec.layer_sizes[-1]
    head = Sequential(
        Linear(code_width, hidden, rng=rng),
        ReLU(),
        Linear(hidden, num_classes, rng=rng),
    )

    class _CodeModel(Module):
        def __init__(self, encoder: Sequential, head: Sequential) -> None:
            super().__init__()
            self.encoder = encoder
            self.head = head

        def forward(self, x: Tensor) -> Tensor:
            return self.head(self.encoder(x.flatten_batch()))

    model = _CodeModel(autoencoder.encoder, head)
    flat_ds = ArrayDataset(train_ds.images, train_ds.labels, train_ds.meta)
    fit_classifier(model, flat_ds, train, rng=rng)
    return EncoderOnlyCBNet(
        encoder=autoencoder.encoder,
        code_classifier=head,
        input_dim=autoencoder.spec.input_dim,
    )
