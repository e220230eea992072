"""End-to-end CBNet construction (paper §III, Fig. 4) with disk caching.

``build_cbnet_pipeline(config)`` performs the full recipe — train
BranchyNet, label easy/hard, train the converting autoencoder, truncate
the lightweight classifier — and returns every artifact the experiments
need.  Results are cached by configuration hash so the benchmark suite
trains each pipeline once.  The hash also covers the BLAS thread
setting: a model trained on one thread differs in the last digits from
one trained on several, and those digits reach the committed results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.cbnet import CBNet
from repro.core.config import PipelineConfig, TrainConfig
from repro.core.labeling import LabelingResult, label_easy_hard
from repro.core.pairing import build_conversion_targets
from repro.core.thresholds import PAPER_THRESHOLDS, tune_threshold
from repro.core.trainer import TrainHistory, fit_autoencoder, fit_classifier
from repro.data import load_dataset
from repro.data.dataset import ArrayDataset
from repro.data.transforms import flatten, to_unit_sum
from repro.models.autoencoder import ConvertingAutoencoder
from repro.models.branchynet import BranchyLeNet
from repro.models.lenet import LeNet
from repro.models.lightweight import LightweightClassifier
from repro.utils.cache import ArtifactCache
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator, derive_seed

__all__ = ["PipelineArtifacts", "build_cbnet_pipeline", "train_baseline_lenet"]

logger = get_logger("core.pipeline")


@dataclass
class PipelineArtifacts:
    """Everything produced by one CBNet build."""

    config: PipelineConfig
    branchynet: BranchyLeNet
    cbnet: CBNet
    labeling: LabelingResult
    entropy_threshold: float
    branchy_history: TrainHistory
    autoencoder_history: TrainHistory
    datasets: dict[str, ArrayDataset] = field(repr=False, default_factory=dict)

    @property
    def autoencoder(self) -> ConvertingAutoencoder:
        return self.cbnet.autoencoder

    @property
    def lightweight(self) -> LightweightClassifier:
        return self.cbnet.classifier


def build_cbnet_pipeline(
    config: PipelineConfig,
    datasets: dict[str, ArrayDataset] | None = None,
    ae_spec=None,
) -> PipelineArtifacts:
    """Run (or load from cache) the full CBNet build for one dataset.

    ``ae_spec`` overrides the Table-I autoencoder architecture (used by
    the ablation experiments); ``None`` selects the paper's spec for the
    dataset.
    """
    if config.cache and datasets is None:
        key = {
            "kind": "cbnet-pipeline",
            "config": config.to_dict(),
            "ae_spec": None if ae_spec is None else vars(ae_spec),
            "dataset_spec": _dataset_fingerprint(config.dataset),
            "threads": _thread_setting(),
            "version": 4,
        }
        return ArtifactCache().get_or_compute(key, lambda: _build(config, None, ae_spec))
    return _build(config, datasets, ae_spec)


def _thread_setting() -> dict:
    """The environment that picks the BLAS thread count at start-up; the
    CPU count is the default when none of the variables is set."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    setting = {name: os.environ.get(name) for name in names}
    setting["cpu_count"] = os.cpu_count()
    return setting


def _dataset_fingerprint(name: str) -> dict:
    """Generation-recipe identity: a pipeline trained on a dataset must be
    invalidated when that dataset's difficulty knobs change."""
    from repro.data.synth.registry import DATASET_SPECS

    spec = DATASET_SPECS.get(name)
    if spec is None:
        return {"name": name}
    return {
        "name": name,
        "jitter": spec.jitter,
        "severity_range": list(spec.severity_range),
        "ops_per_sample": list(spec.ops_per_sample),
        "corruption_ops": list(spec.corruption_ops) if spec.corruption_ops else None,
        "hard_fraction": spec.hard_fraction,
    }


def _build(
    config: PipelineConfig,
    datasets: dict[str, ArrayDataset] | None,
    ae_spec=None,
) -> PipelineArtifacts:
    if datasets is None:
        datasets = load_dataset(
            config.dataset,
            n_train=config.n_train,
            n_test=config.n_test,
            seed=config.seed,
            cache=config.cache,
        )
    train_ds, test_ds = datasets["train"], datasets["test"]

    # -- 1. BranchyNet, jointly trained over both exits ------------------ #
    rng = as_generator(derive_seed(config.seed, config.dataset, "branchy"))
    branchy = BranchyLeNet(num_classes=10, rng=rng)
    logger.info("[%s] training BranchyNet (%d samples)", config.dataset, len(train_ds))
    branchy_history = fit_classifier(
        branchy, train_ds, config.classifier_train, rng=rng, eval_dataset=test_ds
    )

    # -- 2. entropy threshold -------------------------------------------- #
    if config.entropy_threshold is not None:
        threshold = float(config.entropy_threshold)
    elif config.dataset in PAPER_THRESHOLDS:
        threshold = PAPER_THRESHOLDS[config.dataset]
    else:
        threshold = tune_threshold(branchy, train_ds.images, train_ds.labels)
    branchy.entropy_threshold = threshold

    # -- 3. easy/hard labels over the training set ----------------------- #
    labeling = label_easy_hard(branchy, train_ds.images, threshold)
    logger.info(
        "[%s] threshold=%.4g easy=%.1f%%",
        config.dataset,
        threshold,
        100 * labeling.easy_fraction,
    )

    # -- 4. converting autoencoder ---------------------------------------- #
    ae_rng = as_generator(derive_seed(config.seed, config.dataset, "autoencoder"))
    if ae_spec is not None:
        autoencoder = ConvertingAutoencoder(ae_spec, rng=ae_rng)
    else:
        autoencoder = ConvertingAutoencoder.for_dataset(config.dataset, rng=ae_rng)
    inputs = flatten(train_ds.images)
    target_images = build_conversion_targets(
        train_ds.images,
        train_ds.labels,
        labeling.easy,
        rng=ae_rng,
        entropy=labeling.entropy,
    )
    targets = flatten(target_images)
    if autoencoder.spec.output_activation == "softmax":
        # Probability-image targets on the decoder's scale (sum = D, mean
        # pixel ~1) — matches the Softmax+Scale reconstruction head.
        targets = flatten(to_unit_sum(target_images)) * np.float32(
            autoencoder.spec.input_dim
        )
    ae_history = fit_autoencoder(
        autoencoder, inputs, targets, config.autoencoder_train, rng=ae_rng
    )

    # -- 5. truncate the lightweight classifier --------------------------- #
    lightweight = LightweightClassifier.from_branchynet(branchy).detached()
    cbnet = CBNet(autoencoder=autoencoder, classifier=lightweight)

    # -- 6. optional fine-tune on converted images (off by default: the
    #       paper uses the truncated branch weights as-is) ----------------- #
    if config.finetune_lightweight:
        converted = cbnet.convert(train_ds.images)
        ft_ds = ArrayDataset(converted, train_ds.labels)
        ft_rng = as_generator(derive_seed(config.seed, config.dataset, "finetune"))
        fit_classifier(lightweight, ft_ds, config.finetune_train, rng=ft_rng)

    return PipelineArtifacts(
        config=config,
        branchynet=branchy,
        cbnet=cbnet,
        labeling=labeling,
        entropy_threshold=threshold,
        branchy_history=branchy_history,
        autoencoder_history=ae_history,
        datasets=datasets,
    )


def train_baseline_lenet(
    dataset_name: str,
    datasets: dict[str, ArrayDataset] | None = None,
    config: TrainConfig | None = None,
    seed: int = 0,
    cache: bool = True,
    n_train: int | None = None,
    n_test: int | None = None,
) -> tuple[LeNet, TrainHistory]:
    """Train the plain LeNet baseline used throughout the evaluation."""
    config = config or TrainConfig()

    def build() -> tuple[LeNet, TrainHistory]:
        ds = datasets or load_dataset(
            dataset_name, n_train=n_train, n_test=n_test, seed=seed, cache=cache
        )
        rng = as_generator(derive_seed(seed, dataset_name, "lenet"))
        model = LeNet(num_classes=10, rng=rng)
        logger.info("[%s] training baseline LeNet", dataset_name)
        history = fit_classifier(
            model, ds["train"], config, rng=rng, eval_dataset=ds["test"]
        )
        return model, history

    if cache and datasets is None:
        key = {
            "kind": "baseline-lenet",
            "dataset": dataset_name,
            "train": config.to_dict(),
            "seed": seed,
            "n_train": n_train,
            "n_test": n_test,
            "dataset_spec": _dataset_fingerprint(dataset_name),
            "threads": _thread_setting(),
            "version": 3,
        }
        return ArtifactCache().get_or_compute(key, build)
    return build()
