"""Public API surface tests: everything exported must import and work."""

import dataclasses
import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.nn.layers",
    "repro.nn.optim",
    "repro.data",
    "repro.data.synth",
    "repro.models",
    "repro.core",
    "repro.baselines",
    "repro.hw",
    "repro.parallel",
    "repro.serving",
    "repro.sim",
    "repro.cluster",
    "repro.faults",
    "repro.netsim",
    "repro.offload",
    "repro.eval",
    "repro.experiments",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    importlib.import_module(package)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{package}.__all__ lists missing name {name!r}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_top_level_workflow_symbols():
    from repro import (
        CBNet,
        BranchyLeNet,
        ConvertingAutoencoder,
        LeNet,
        LightweightClassifier,
        PipelineConfig,
        TrainConfig,
        build_cbnet_pipeline,
        load_dataset,
        train_baseline_lenet,
    )

    # Construction-level sanity only (training covered elsewhere).
    assert PipelineConfig(dataset="mnist").dataset == "mnist"
    assert TrainConfig().epochs > 0


def test_constructors_take_settings_not_runtime_state():
    """Counters, clocks and fault state start in ``__post_init__``: a
    caller cannot pass them, and each lives on the instance, so hot
    reads never fall through to a class attribute."""
    from repro.cluster import Replica
    from repro.faults import CircuitBreaker, DegradationController

    def params(cls):
        return tuple(inspect.signature(cls).parameters)

    assert params(Replica) == (
        "replica_id",
        "backend",
        "max_batch_size",
        "max_wait_s",
        "state",
        "classes",
        "scheduler",
    )
    assert params(CircuitBreaker) == ("config",)
    assert params(DegradationController) == ("config",)
    for obj in (Replica(0, None), CircuitBreaker(), DegradationController()):
        state = {f.name for f in dataclasses.fields(obj) if not f.init}
        assert state <= vars(obj).keys(), type(obj).__name__


def test_run_fleet_net_takes_no_observer():
    """``run_fleet_net`` records no telemetry.  ``EdgeTier`` takes the
    observer on the shared device loop, and finalizes and guards it."""
    from repro.netsim import run_fleet_net

    assert tuple(inspect.signature(run_fleet_net).parameters) == (
        "link",
        "devices",
        "policy_for",
        "deadline_s",
        "rng",
        "aimd",
        "max_attempts",
    )
