"""Ablation studies for the design choices DESIGN.md §5 calls out.

These go beyond the paper's own evaluation: they quantify how sensitive
CBNet is to (a) the AE bottleneck width, (b) the reconstruction head,
(c) the entropy threshold, and (d) the dataset's hard-image fraction —
the axis Fig. 3 only samples at two points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import PipelineConfig, TrainConfig
from repro.core.pipeline import build_cbnet_pipeline
from repro.core.thresholds import sweep_thresholds
from repro.data import load_dataset
from repro.eval.tables import Table
from repro.experiments.common import pipeline_for, lenet_for, scale_for
from repro.hw.devices import raspberry_pi4
from repro.hw.latency import branchynet_expected_latency, cbnet_latency, lenet_latency
from repro.models.autoencoder import TABLE1_SPECS
from repro.utils.rng import derive_seed

__all__ = [
    "AblationRow",
    "AblationResult",
    "run_bottleneck_ablation",
    "run_activation_ablation",
    "run_threshold_sweep",
    "run_hard_fraction_sweep",
]


@dataclass(frozen=True)
class AblationRow:
    setting: str
    metrics: dict


@dataclass
class AblationResult:
    name: str
    rows: list[AblationRow] = field(default_factory=list)

    def render(self) -> str:
        if not self.rows:
            return f"{self.name}: (no rows)"
        headers = ["setting", *self.rows[0].metrics.keys()]
        table = Table(headers=headers, title=self.name)
        for row in self.rows:
            table.add_row(row.setting, *row.metrics.values())
        return table.render()


def _small_pipeline(dataset: str, seed: int, **spec_overrides) -> PipelineConfig:
    """A reduced-cost pipeline config for ablation grids.

    Sized so the BranchyNet branch becomes genuinely confident on clean
    samples (the exit-rate dynamics the ablations probe need a trained
    gate, not a warm-up checkpoint).
    """
    return PipelineConfig(
        dataset=dataset,
        seed=seed,
        n_train=3000,
        n_test=600,
        classifier_train=TrainConfig(epochs=16),
        autoencoder_train=TrainConfig(epochs=8, batch_size=128),
        cache=True,
    )


def run_bottleneck_ablation(
    dataset: str = "mnist",
    widths: tuple[int, ...] = (8, 32, 128, 384),
    seed: int = 0,
) -> AblationResult:
    """AE bottleneck width (Table I uses 32 for MNIST, 128 for FMNIST)."""
    result = AblationResult(name=f"Ablation: AE bottleneck width ({dataset})")
    device = raspberry_pi4()
    base_spec = TABLE1_SPECS[dataset]
    for width in widths:
        spec = replace(
            base_spec,
            layer_sizes=(*base_spec.layer_sizes[:-1], width),
            name=f"{dataset}-b{width}",
        )
        config = _small_pipeline(dataset, seed)
        artifacts = _pipeline_with_spec(config, spec)
        test = artifacts.datasets["test"]
        lat = cbnet_latency(artifacts.cbnet, device)
        result.rows.append(
            AblationRow(
                setting=f"bottleneck={width}",
                metrics={
                    "cbnet acc (%)": round(
                        100 * artifacts.cbnet.accuracy(test.images, test.labels), 2
                    ),
                    "ae latency (ms)": round(lat.autoencoder * 1e3, 4),
                    "total latency (ms)": round(lat.total * 1e3, 4),
                },
            )
        )
    return result


def run_activation_ablation(dataset: str = "mnist", seed: int = 0) -> AblationResult:
    """Softmax (paper) vs sigmoid reconstruction head."""
    result = AblationResult(name=f"Ablation: AE output activation ({dataset})")
    for activation in ("softmax", "sigmoid"):
        spec = replace(
            TABLE1_SPECS[dataset],
            output_activation=activation,
            name=f"{dataset}-{activation}",
        )
        config = _small_pipeline(dataset, seed)
        artifacts = _pipeline_with_spec(config, spec)
        test = artifacts.datasets["test"]
        result.rows.append(
            AblationRow(
                setting=f"head={activation}",
                metrics={
                    "cbnet acc (%)": round(
                        100 * artifacts.cbnet.accuracy(test.images, test.labels), 2
                    ),
                    "final AE loss": round(artifacts.autoencoder_history.final_loss, 5),
                },
            )
        )
    return result


def _pipeline_with_spec(config: PipelineConfig, spec):
    """Build a CBNet pipeline with a custom autoencoder spec (cached)."""
    return build_cbnet_pipeline(config, ae_spec=spec)


def run_threshold_sweep(
    dataset: str = "fmnist",
    fast: bool = True,
    seed: int = 0,
) -> AblationResult:
    """Accuracy/exit-rate/latency trade-off across entropy thresholds."""
    scale = scale_for(fast)
    artifacts = pipeline_for(dataset, scale, seed=seed)
    lenet = lenet_for(dataset, scale, seed=seed)
    device = raspberry_pi4()
    test = artifacts.datasets["test"]
    t_lenet = lenet_latency(lenet, device)

    result = AblationResult(name=f"Ablation: entropy threshold sweep ({dataset})")
    grid = (0.005, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0)
    for point in sweep_thresholds(artifacts.branchynet, test.images, test.labels, grid):
        t_b = branchynet_expected_latency(
            artifacts.branchynet, device, point.exit_rate
        ).expected
        result.rows.append(
            AblationRow(
                setting=f"T={point.threshold:g}",
                metrics={
                    "exit rate (%)": round(100 * point.exit_rate, 1),
                    "branchy acc (%)": round(100 * point.accuracy, 2),
                    "branchy speedup": round(t_lenet / t_b, 2),
                },
            )
        )
    return result


def run_hard_fraction_sweep(
    dataset: str = "mnist",
    fractions: tuple[float, ...] = (0.05, 0.2, 0.4, 0.6),
    seed: int = 0,
) -> AblationResult:
    """Generalized Fig. 3: BranchyNet vs CBNet as hardness grows.

    The paper samples this axis at two datasets; here the *same* dataset
    family is regenerated at increasing hard fractions so the crossover
    is visible on one curve.
    """
    device = raspberry_pi4()
    result = AblationResult(name=f"Ablation: hard-fraction sweep ({dataset})")
    for hf in fractions:
        config = PipelineConfig(
            dataset=dataset,
            seed=derive_seed(seed, "hardfrac", int(hf * 100)),
            n_train=3000,
            n_test=600,
            classifier_train=TrainConfig(epochs=16),
            autoencoder_train=TrainConfig(epochs=8, batch_size=128),
            cache=True,
        )
        data = load_dataset(
            dataset,
            n_train=config.n_train,
            n_test=config.n_test,
            seed=config.seed,
            hard_fraction=hf,
        )
        artifacts = build_cbnet_pipeline(config, datasets=data)
        test = data["test"]
        res = artifacts.branchynet.infer(test.images)
        t_b = branchynet_expected_latency(
            artifacts.branchynet, device, res.early_exit_rate
        ).expected
        t_c = cbnet_latency(artifacts.cbnet, device).total
        result.rows.append(
            AblationRow(
                setting=f"hard={hf:.0%}",
                metrics={
                    "exit rate (%)": round(100 * res.early_exit_rate, 1),
                    "branchy lat (ms)": round(t_b * 1e3, 3),
                    "cbnet lat (ms)": round(t_c * 1e3, 3),
                    "branchy acc (%)": round(
                        100 * float((res.predictions == test.labels).mean()), 2
                    ),
                    "cbnet acc (%)": round(
                        100 * artifacts.cbnet.accuracy(test.images, test.labels), 2
                    ),
                },
            )
        )
    return result
