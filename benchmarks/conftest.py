"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure (printed to stdout and
written under ``benchmarks/results/``) and times a representative slice
of the underlying computation with pytest-benchmark.

First invocation trains the fast-scale pipelines (a few minutes); all
artifacts are disk-cached, so subsequent runs are seconds.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.common import FAST, lenet_for, pipeline_for

RESULTS_DIR = Path(__file__).parent / "results"
#: Host timings, which change on every run, go to this ignored directory:
#: ``results/`` keeps only what the program and its seeds determine.
TIMINGS_DIR = Path(__file__).parent.parent / ".bench_build" / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def timings_dir() -> Path:
    TIMINGS_DIR.mkdir(parents=True, exist_ok=True)
    return TIMINGS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a rendered table/figure and persist it."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def mnist_artifacts():
    return pipeline_for("mnist", FAST, seed=0)


@pytest.fixture(scope="session")
def fmnist_artifacts():
    return pipeline_for("fmnist", FAST, seed=0)


@pytest.fixture(scope="session")
def kmnist_artifacts():
    return pipeline_for("kmnist", FAST, seed=0)


@pytest.fixture(scope="session")
def mnist_lenet():
    return lenet_for("mnist", FAST, seed=0)
