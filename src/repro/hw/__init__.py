"""`repro.hw` — edge-device simulator.

The paper's testbeds (Raspberry Pi 4, Google Cloud N1 instance, GCI +
Tesla K80) are unavailable offline, so latency and energy are *modelled*:

* latency — a calibrated per-layer cost model (:mod:`repro.hw.latency`):
  conv layers, dense layers, and memory-bound layers each get a
  device-specific effective throughput, fitted once per device to the
  paper's Table II LeNet/BranchyNet/CBNet measurements on MNIST
  (:mod:`repro.hw.devices`).
* power — the *paper's own* analytical models reproduced exactly:
  Eq. 1 (GCI CPU), Eq. 2 (PowerPi) and the reported constant GPU/CPU
  draw for the K80 instance (:mod:`repro.hw.power`).
* energy — E = P · Δt (:mod:`repro.hw.energy`), as in §IV-C.
* network — the edge-to-cloud link presets (wifi / LTE / ethernet) the
  offload layer ships tensors over (:mod:`repro.hw.network`).
"""

from repro.hw.flops import LayerCost, StageCost, layer_cost, stage_cost, model_cost
from repro.hw.device import DeviceProfile
from repro.hw.devices import (
    device_profiles,
    raspberry_pi4,
    gci_cpu,
    gci_gpu,
    calibrate_device,
)
from repro.hw.network import (
    BandwidthTrace,
    NetworkLink,
    ethernet,
    wifi,
    lte,
    network_links,
)
from repro.hw.latency import (
    latency_of_stages,
    model_latency,
    branchynet_expected_latency,
    cbnet_latency,
    lenet_latency,
)
from repro.hw.power import gci_cpu_power, raspberry_pi_power, PowerModel
from repro.hw.energy import energy_joules, energy_savings_percent


__all__ = [
    "LayerCost",
    "StageCost",
    "layer_cost",
    "stage_cost",
    "model_cost",
    "DeviceProfile",
    "device_profiles",
    "raspberry_pi4",
    "gci_cpu",
    "gci_gpu",
    "calibrate_device",
    "BandwidthTrace",
    "NetworkLink",
    "ethernet",
    "wifi",
    "lte",
    "network_links",
    "latency_of_stages",
    "model_latency",
    "branchynet_expected_latency",
    "cbnet_latency",
    "lenet_latency",
    "gci_cpu_power",
    "raspberry_pi_power",
    "PowerModel",
    "energy_joules",
    "energy_savings_percent",
]
