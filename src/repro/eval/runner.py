"""The Table-II engine: evaluate LeNet / BranchyNet / CBNet on one
dataset across all simulated devices.

Accuracy and early-exit rates come from *running the real models* on the
synthetic test set; latency and energy come from the calibrated device
simulator at the measured operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import PipelineArtifacts
from repro.eval.metrics import accuracy, speedup
from repro.hw.device import DeviceProfile
from repro.hw.devices import device_profiles
from repro.hw.energy import energy_joules, energy_savings_percent
from repro.hw.latency import branchynet_expected_latency, cbnet_latency, lenet_latency
from repro.models.lenet import LeNet

__all__ = ["ModelDeviceResult", "DatasetEvaluation", "evaluate_dataset"]


@dataclass(frozen=True)
class ModelDeviceResult:
    """One (dataset, model, device) cell of Table II."""

    dataset: str
    model: str
    device: str
    latency_ms: float
    energy_mj: float
    accuracy_pct: float
    energy_savings_vs_lenet_pct: float | None = None
    speedup_vs_lenet: float | None = None


@dataclass
class DatasetEvaluation:
    """All Table-II cells for one dataset, plus operating-point stats."""

    dataset: str
    early_exit_rate: float
    ae_latency_share: dict[str, float] = field(default_factory=dict)
    results: list[ModelDeviceResult] = field(default_factory=list)

    def cell(self, model: str, device: str) -> ModelDeviceResult:
        for r in self.results:
            if r.model == model and r.device == device:
                return r
        raise KeyError(f"no result for model={model!r} device={device!r}")

    def models(self) -> list[str]:
        seen: list[str] = []
        for r in self.results:
            if r.model not in seen:
                seen.append(r.model)
        return seen


def evaluate_dataset(
    artifacts: PipelineArtifacts,
    lenet: LeNet,
    devices: dict[str, DeviceProfile] | None = None,
) -> DatasetEvaluation:
    """Produce every Table-II cell for one dataset."""
    devices = devices or device_profiles()
    test = artifacts.datasets["test"]
    images, labels = test.images, test.labels
    name = artifacts.config.dataset

    # --- behavioural measurements (device-independent) ------------------ #
    lenet_acc = accuracy(lenet.predict(images), labels)
    branchy_res = artifacts.branchynet.infer(images)
    branchy_acc = accuracy(branchy_res.predictions, labels)
    exit_rate = branchy_res.early_exit_rate
    cbnet_acc = accuracy(artifacts.cbnet.predict(images), labels)

    evaluation = DatasetEvaluation(dataset=name, early_exit_rate=exit_rate)

    # --- simulated latency & energy per device --------------------------- #
    for dev_name, device in devices.items():
        t_lenet = lenet_latency(lenet, device)
        t_branchy = branchynet_expected_latency(
            artifacts.branchynet, device, exit_rate
        ).expected
        cb = cbnet_latency(artifacts.cbnet, device)
        evaluation.ae_latency_share[dev_name] = cb.autoencoder_share

        e_lenet = energy_joules(device, t_lenet)
        e_branchy = energy_joules(device, t_branchy)
        e_cbnet = energy_joules(device, cb.total)

        evaluation.results.extend(
            [
                ModelDeviceResult(
                    dataset=name,
                    model="lenet",
                    device=dev_name,
                    latency_ms=t_lenet * 1e3,
                    energy_mj=e_lenet * 1e3,
                    accuracy_pct=100 * lenet_acc,
                ),
                ModelDeviceResult(
                    dataset=name,
                    model="branchynet",
                    device=dev_name,
                    latency_ms=t_branchy * 1e3,
                    energy_mj=e_branchy * 1e3,
                    accuracy_pct=100 * branchy_acc,
                    energy_savings_vs_lenet_pct=energy_savings_percent(e_lenet, e_branchy),
                    speedup_vs_lenet=speedup(t_lenet, t_branchy),
                ),
                ModelDeviceResult(
                    dataset=name,
                    model="cbnet",
                    device=dev_name,
                    latency_ms=cb.total * 1e3,
                    energy_mj=e_cbnet * 1e3,
                    accuracy_pct=100 * cbnet_acc,
                    energy_savings_vs_lenet_pct=energy_savings_percent(e_lenet, e_cbnet),
                    speedup_vs_lenet=speedup(t_lenet, cb.total),
                ),
            ]
        )
    return evaluation
