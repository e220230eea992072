"""Fig. 3 — BranchyNet's speedup over LeNet shrinks as the hard-sample
fraction grows (MNIST vs FMNIST, Raspberry Pi 4).

The paper's bars: ~5.5x speedup on MNIST (5% hard) dropping to ~1.7x on
FMNIST (23% hard).  We reproduce both bars plus the hard-sample
percentages, using the measured early-exit rates of the trained
BranchyNets and the calibrated Pi 4 latency model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.figures import ascii_bar_chart
from repro.eval.tables import Table
from repro.experiments.common import lenet_for, pipeline_for, scale_for
from repro.hw.devices import raspberry_pi4
from repro.hw.latency import branchynet_expected_latency, lenet_latency

__all__ = ["Fig3Point", "Fig3Result", "run_fig3"]


@dataclass(frozen=True)
class Fig3Point:
    dataset: str
    speedup: float
    hard_sample_pct: float
    exit_rate: float


@dataclass
class Fig3Result:
    points: list[Fig3Point]

    def render(self) -> str:
        table = Table(
            headers=["dataset", "BranchyNet speedup over LeNet", "hard samples (%)"],
            title="Fig. 3: BranchyNet speedup vs hard-sample fraction (Raspberry Pi 4)",
        )
        for p in self.points:
            table.add_row(p.dataset, f"{p.speedup:.2f}x", f"{p.hard_sample_pct:.1f}")
        chart = ascii_bar_chart(
            [p.dataset for p in self.points],
            [p.speedup for p in self.points],
            title="speedup over LeNet",
            unit="x",
        )
        return table.render() + "\n\n" + chart


def run_fig3(
    fast: bool = True,
    datasets: tuple[str, ...] = ("mnist", "fmnist"),
    seed: int = 0,
) -> Fig3Result:
    """Measure exit rates on real models; map to Pi-4 latency."""
    scale = scale_for(fast)
    device = raspberry_pi4()
    points: list[Fig3Point] = []
    for name in datasets:
        artifacts = pipeline_for(name, scale, seed=seed)
        lenet = lenet_for(name, scale, seed=seed)
        test = artifacts.datasets["test"]
        result = artifacts.branchynet.infer(test.images)
        t_lenet = lenet_latency(lenet, device)
        t_branchy = branchynet_expected_latency(
            artifacts.branchynet, device, result.early_exit_rate
        ).expected
        points.append(
            Fig3Point(
                dataset=name,
                speedup=t_lenet / t_branchy,
                hard_sample_pct=100.0 * (1.0 - result.early_exit_rate),
                exit_rate=result.early_exit_rate,
            )
        )
    return Fig3Result(points=points)


if __name__ == "__main__":
    print(run_fig3().render())
