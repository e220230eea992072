"""Figs. 6-8 — scalability analysis: accuracy and total inference time
versus dataset-size ratio (0.1 ... 1.0), for BranchyNet and CBNet on each
hardware platform.

Protocol (paper §IV-F): subsets are stratified on (class x hard-flag) so
"the proportion of hard test images used in each experiment remained
roughly the same"; accuracy is measured by running the real models on
each subset; total time = per-image simulated latency x subset size at
the subset's measured early-exit rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.splits import stratified_subset
from repro.eval.figures import Series, ascii_line_chart
from repro.eval.metrics import accuracy
from repro.eval.tables import Table
from repro.experiments.common import pipeline_for, scale_for
from repro.hw.devices import device_profiles
from repro.hw.latency import branchynet_expected_latency, cbnet_latency
from repro.utils.rng import as_generator, derive_seed

__all__ = ["ScalabilityPoint", "ScalabilityResult", "run_scalability"]

RATIOS = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass(frozen=True)
class ScalabilityPoint:
    ratio: float
    n_samples: int
    branchy_accuracy_pct: float
    cbnet_accuracy_pct: float
    exit_rate: float
    branchy_total_s: dict[str, float]
    cbnet_total_s: dict[str, float]


@dataclass
class ScalabilityResult:
    dataset: str
    points: list[ScalabilityPoint] = field(default_factory=list)

    def render(self, device: str = "raspberry-pi4") -> str:
        table = Table(
            headers=[
                "ratio",
                "n",
                "BranchyNet acc (%)",
                "CBNet acc (%)",
                f"BranchyNet time@{device} (s)",
                f"CBNet time@{device} (s)",
            ],
            title=f"Figs 6-8: scalability on {self.dataset}",
        )
        for p in self.points:
            table.add_row(
                p.ratio,
                p.n_samples,
                f"{p.branchy_accuracy_pct:.2f}",
                f"{p.cbnet_accuracy_pct:.2f}",
                f"{p.branchy_total_s[device]:.3f}",
                f"{p.cbnet_total_s[device]:.3f}",
            )
        chart = ascii_line_chart(
            [
                Series(
                    "BranchyNet time",
                    tuple(p.ratio for p in self.points),
                    tuple(p.branchy_total_s[device] for p in self.points),
                ),
                Series(
                    "CBNet time",
                    tuple(p.ratio for p in self.points),
                    tuple(p.cbnet_total_s[device] for p in self.points),
                ),
            ],
            title=f"total inference time vs dataset ratio ({self.dataset}, {device})",
            y_label="seconds",
        )
        return table.render() + "\n\n" + chart


def run_scalability(
    dataset: str,
    fast: bool = True,
    ratios: tuple[float, ...] = RATIOS,
    seed: int = 0,
    artifacts=None,
) -> ScalabilityResult:
    """Regenerate one of Figs 6-8 for ``dataset`` across all devices.

    ``artifacts`` short-circuits pipeline training (used by tests that
    inject a pre-built small pipeline).
    """
    if artifacts is None:
        scale = scale_for(fast)
        artifacts = pipeline_for(dataset, scale, seed=seed)
    test = artifacts.datasets["test"]
    devices = device_profiles()
    rng = as_generator(derive_seed(seed, dataset, "scalability"))

    result = ScalabilityResult(dataset=dataset)
    for ratio in ratios:
        subset = (
            test
            if ratio >= 1.0
            else stratified_subset(test, ratio, rng=rng, by="is_hard")
        )
        images, labels = subset.images, subset.labels
        branchy_res = artifacts.branchynet.infer(images)
        cb_preds = artifacts.cbnet.predict(images)
        exit_rate = branchy_res.early_exit_rate

        branchy_total: dict[str, float] = {}
        cbnet_total: dict[str, float] = {}
        for dev_name, device in devices.items():
            t_b = branchynet_expected_latency(
                artifacts.branchynet, device, exit_rate
            ).expected
            t_c = cbnet_latency(artifacts.cbnet, device).total
            branchy_total[dev_name] = t_b * len(subset)
            cbnet_total[dev_name] = t_c * len(subset)

        result.points.append(
            ScalabilityPoint(
                ratio=ratio,
                n_samples=len(subset),
                branchy_accuracy_pct=100 * accuracy(branchy_res.predictions, labels),
                cbnet_accuracy_pct=100 * accuracy(cb_preds, labels),
                exit_rate=exit_rate,
                branchy_total_s=branchy_total,
                cbnet_total_s=cbnet_total,
            )
        )
    return result


if __name__ == "__main__":
    for name in ("mnist", "fmnist", "kmnist"):
        print(run_scalability(name).render())
        print()
