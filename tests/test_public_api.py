"""Public API surface tests: everything exported must import and work."""

import ast
import dataclasses
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

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


#: Exports that only tests use, kept on purpose: name -> why.
TEST_SUPPORT = {
    "constant_arrivals": "tests' fixed-rate arrival traces",
    "clear_oracle_cache": "resets the oracle memo between tests",
    "DEFAULT_CLASSES": "tests' three-class fixture",
    "gradcheck": "the autograd tests' numerical reference",
    "plan_batches": "the micro-batcher tests' offline reference",
}

_ROOT = Path(__file__).resolve().parents[1]
_WORD = re.compile(r"\w+")


def _program_words():
    """Word counts over every program file, and per top-level name the
    words of its own definitions, which do not count as a use.

    Programs are the sources under ``src/`` with ``__all__`` lists and
    package re-export imports left out, and everything under
    ``benchmarks/`` (but the harness self-test), ``examples/`` and
    ``tools/``.
    """
    total, own = Counter(), {}
    for path in sorted((_ROOT / "src").rglob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            span = lines[node.lineno - 1 : node.end_lineno]
            names = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
            if "__all__" in names or (
                path.name == "__init__.py" and isinstance(node, ast.ImportFrom)
            ):
                lines[node.lineno - 1 : node.end_lineno] = [""] * len(span)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign)):
                for name in names + [getattr(node, "name", None)]:
                    if name:
                        own.setdefault(name, Counter()).update(_WORD.findall("\n".join(span)))
        total.update(_WORD.findall("\n".join(lines)))
    for folder in ("benchmarks", "examples", "tools"):
        for path in sorted((_ROOT / folder).rglob("*.py")):
            if path.name != "test_harness.py":
                total.update(_WORD.findall(path.read_text()))
    return total, own


def test_every_export_is_reached_by_a_program():
    """An export that no program mentions is dead weight that tests keep
    alive; delete it with its tests, or list it in ``TEST_SUPPORT``.
    One level deep: a caller that is itself unreached still counts."""
    total, own = _program_words()
    unreached = sorted(
        f"{package}.{name}"
        for package in PACKAGES
        for name in getattr(importlib.import_module(package), "__all__", [])
        if name not in TEST_SUPPORT
        and total[name] - own.get(name, Counter())[name] <= 0
    )
    assert not unreached, f"exports no program reaches: {unreached}"
    exported = {
        name for package in PACKAGES for name in importlib.import_module(package).__all__
    }
    assert set(TEST_SUPPORT) <= exported


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
    # The model classes and workflow functions resolve to their home
    # modules, not to stand-ins.
    homes = {
        CBNet: "repro.core.cbnet",
        BranchyLeNet: "repro.models.branchynet",
        ConvertingAutoencoder: "repro.models.autoencoder",
        LeNet: "repro.models.lenet",
        LightweightClassifier: "repro.models.lightweight",
        build_cbnet_pipeline: "repro.core.pipeline",
        load_dataset: "repro.data.synth.registry",
        train_baseline_lenet: "repro.core.pipeline",
    }
    for obj, home in homes.items():
        assert obj.__module__ == home, obj.__name__
    assert all(inspect.isclass(obj) for obj in list(homes)[:5])
    assert all(inspect.isfunction(obj) for obj in list(homes)[5:])


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
