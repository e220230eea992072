"""Every numeric setting of a public constructor fails at construction.

The sweep walks the public classes of the simulator's packages, sets one
numeric argument at a time to NaN, +inf and -inf, and requires the
constructor itself to raise a ``ValueError``, not a run halfway through
(and not the ``TypeError``/``OverflowError`` of an integer conversion,
which does not say which setting was wrong).  An infinite value that
means something is allow-listed below, with its meaning.  Required
arguments come from a small fixture table.  Settings that take a whole
number (a count, a seed) must also refuse a fraction, by name.
"""

from __future__ import annotations

import importlib
import inspect
import math

import numpy as np
import pytest

PACKAGES = (
    "repro.cluster",
    "repro.faults",
    "repro.netsim",
    "repro.obs",
    "repro.offload",
    "repro.serving",
    "repro.sim",
    "repro.hw",
)

#: Result records and run state.  Their numeric fields hold what a run
#: measured (an accuracy of NaN means "no labels"), not settings.
RECORDS = {
    "ClassReport",
    "ClusterReport",
    "CutPoint",
    "DeviceStats",
    "FleetNetReport",
    "InFlightBatch",
    "LayerCost",
    "OffloadContext",
    "OffloadReport",
    "PhaseStat",
    "SLOAlert",
    "SessionTransfer",
    "SplitPlan",
}

#: (class, argument, value) -> what that value means.
ALLOWED = {
    ("ResilienceConfig", "timeout_s", math.inf): "no timeout: an attempt waits for its answer",
    ("SLOMonitor", "threshold", math.inf): "never alert",
    ("RetryPolicy", "max_backoff_s", math.inf): "no cap on the backoff",
}

#: What a constructor may raise for a bad number.
REJECTIONS = (ValueError,)

#: (class, argument) pairs that take a whole number: 2.5 must fail with a
#: ValueError that names the argument, not be truncated to 2.
INTEGER_SETTINGS = (
    ("AdmissionController", "max_outstanding"),
    ("Cluster", "cache_capacity"),
    ("Cluster", "max_batch_size"),
    ("Cluster", "rng"),
    ("EdgeTier", "rng"),
    ("LRUResultCache", "capacity"),
    ("MicroBatcher", "max_batch_size"),
    ("PriorityBatcher", "max_batch_size"),
    ("Replica", "max_batch_size"),
    ("WeightedFairAdmission", "max_outstanding"),
)


def _backend():
    from repro.serving.backends import BatchTiming, InferenceBackend

    class Flat(InferenceBackend):
        name = "flat"

        def predict(self, images, decision=None):
            return np.zeros(images.shape[0], dtype=np.int64)

    return Flat(BatchTiming(overhead_s=0.001, per_item_s=0.001))


def _branchy():
    from repro.models.branchynet import BranchyLeNet

    return BranchyLeNet(rng=0, entropy_threshold=1.0)


def _classes():
    from repro.serving.classes import default_classes

    return default_classes(slo_s=0.05)


def _shared_link():
    from repro.netsim import SharedLink

    return SharedLink("toy", uplink_mbps=10.0, downlink_mbps=10.0, rtt_s=0.01)


def _edge_tier_args():
    from repro.hw.devices import gci_cpu, raspberry_pi4
    from repro.hw.network import wifi
    from repro.offload.engine import cloud_server_for
    from repro.offload.policies import EntropyGated

    branchy, policy = _branchy(), EntropyGated()
    return {
        "branchynet": branchy,
        "edge_device": raspberry_pi4(),
        "link": wifi(),
        "cloud": cloud_server_for(policy, branchy, gci_cpu()),
        "policy": policy,
    }


def _cbnet():
    from repro.core.cbnet import CBNet
    from repro.models.autoencoder import ConvertingAutoencoder
    from repro.models.lightweight import LightweightClassifier

    return CBNet(
        autoencoder=ConvertingAutoencoder.for_dataset("mnist", rng=0),
        classifier=LightweightClassifier.from_branchynet(_branchy()),
    )


def _device():
    from repro.hw.devices import raspberry_pi4

    return raspberry_pi4()


#: Class name -> the required arguments, built when a case runs.
REQUIRED = {
    "Cluster": lambda: {"backends": [_backend()]},
    "Replica": lambda: {"replica_id": 0, "backend": _backend()},
    "AdmissionController": lambda: {"max_outstanding": 10},
    "WeightedFairAdmission": lambda: {"classes": _classes(), "max_outstanding": 10},
    "AutoscalerConfig": lambda: {"slo_s": 0.05},
    "Fault": lambda: {"time_s": 1.0, "replica_id": 0, "kind": "slowdown", "magnitude": 2.0},
    "LinkFault": lambda: {"kind": "degrade", "start_s": 0.0, "end_s": 1.0},
    "LinkSession": lambda: {"link": _shared_link()},
    "SharedLink": lambda: {
        "name": "toy",
        "uplink_mbps": 10.0,
        "downlink_mbps": 10.0,
        "rtt_s": 0.01,
    },
    "SessionTransport": lambda: {"link": _shared_link()},
    "FleetDevice": lambda: {"rate_hz": 10.0, "n_requests": 5, "up_bytes": 100},
    "P2Quantile": lambda: {"q": 0.5},
    "WindowSeries": lambda: {"window_s": 0.1},
    "SLOMonitor": lambda: {"deadlines": {0: 0.05}},
    "ResourceTimelines": lambda: {"window_s": 0.1},
    "NetworkLink": lambda: {
        "name": "toy",
        "uplink_mbps": 10.0,
        "downlink_mbps": 10.0,
        "rtt_s": 0.01,
    },
    "EdgeTier": _edge_tier_args,
    "DeadlineAware": lambda: {"deadline_s": 0.2},
    "RequestClass": lambda: {"name": "x", "priority": 0, "deadline_s": 0.1, "weight": 1.0},
    "PriorityBatcher": lambda: {"classes": _classes()},
    "EntropyRouter": lambda: {"branchynet": _branchy()},
    "BatchTiming": lambda: {"overhead_s": 0.001, "per_item_s": 0.001},
    "BranchyNetBackend": lambda: {"branchynet": _branchy(), "device": _device()},
    "HybridBackend": lambda: {
        "cbnet": _cbnet(),
        "branchynet": _branchy(),
        "device": _device(),
    },
    "DeviceProfile": lambda: {
        "name": "toy",
        "conv_gmacs": 1.0,
        "dense_gmacs": 1.0,
        "mem_bandwidth_gbs": 1.0,
        "layer_overhead_s": 1e-6,
        "inference_overhead_s": 1e-4,
        "power": _device().power,
    },
    "PowerModel": lambda: {"kind": "gpu", "gpu_watts": 10.0},
}


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric_settings(cls) -> list[str]:
    """Arguments whose default or fixture is a number, or whose type is
    ``float``/``int`` (optionally ``| None``)."""
    fixture = REQUIRED[cls.__name__]() if cls.__name__ in REQUIRED else {}
    names = []
    for p in inspect.signature(cls).parameters.values():
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        value = fixture.get(p.name, p.default)
        ann = str(p.annotation).replace(" ", "")
        if _is_numeric(value) or ann in ("float", "int", "float|None", "int|None"):
            names.append(p.name)
    return names


def _public_classes():
    seen = {}
    for package in PACKAGES:
        mod = importlib.import_module(package)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj) and name not in RECORDS and obj not in seen.values():
                seen[name] = obj
    return [seen[name] for name in sorted(seen)]


def _cases():
    cases = []
    for cls in _public_classes():
        for arg in _numeric_settings(cls):
            for value, tag in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
                cases.append(pytest.param(cls, arg, value, id=f"{cls.__name__}-{arg}-{tag}"))
    return cases


CASES = _cases()


@pytest.mark.parametrize("cls, arg, value", CASES)
def test_non_finite_setting_fails_at_construction(cls, arg, value):
    kwargs = REQUIRED[cls.__name__]() if cls.__name__ in REQUIRED else {}
    kwargs[arg] = value
    if (cls.__name__, arg, value) in ALLOWED:
        cls(**kwargs)  # an allowed value constructs
        return
    with pytest.raises(REJECTIONS):
        cls(**kwargs)


@pytest.mark.parametrize(
    "name, arg", INTEGER_SETTINGS, ids=[f"{name}-{arg}" for name, arg in INTEGER_SETTINGS]
)
def test_fractional_count_fails_at_construction(name, arg):
    cls = {c.__name__: c for c in _public_classes()}[name]
    kwargs = REQUIRED[name]() if name in REQUIRED else {}
    kwargs[arg] = 2.5
    with pytest.raises(ValueError, match=arg):
        cls(**kwargs)


def test_sweep_covers_every_package():
    """Each swept package contributes cases, and every allow-list entry
    and fixture names a class the sweep still reaches."""
    swept = {c.values[0] for c in CASES}
    assert {cls.__module__.split(".")[1] for cls in swept} == {
        p.split(".")[1] for p in PACKAGES if p != "repro.sim"
    }
    names = {cls.__name__ for cls in _public_classes()}
    assert {name for name, _, _ in ALLOWED} <= {c.__name__ for c in swept}
    assert set(REQUIRED) <= names
