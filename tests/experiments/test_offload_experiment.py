"""Offload experiment smoke: sweep + rendering without training.

The full trained-pipeline study is asserted in
``benchmarks/test_offload_split.py``; here the sweep helper and the
study container run on untrained models so the experiment path stays
covered by the tier-1 suite.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.cbnet import CBNet
from repro.data.dataset import ArrayDataset
from repro.experiments import offload as offload_experiment
from repro.experiments.offload import OFFLOAD_CODECS, OffloadStudy, _split_sweep
from repro.hw.devices import gci_cpu, raspberry_pi4
from repro.models.autoencoder import ConvertingAutoencoder
from repro.models.branchynet import BranchyLeNet
from repro.models.lenet import LeNet
from repro.models.lightweight import LightweightClassifier
from repro.offload.engine import OffloadReport


def _toy_report(policy: str, p95: float) -> OffloadReport:
    return OffloadReport(
        policy=policy,
        link="lte",
        codec="float32",
        scenario="steady",
        n_requests=100,
        n_local_easy=90,
        n_local_hard=0,
        n_offloaded=10,
        n_unserved=0,
        uplink_bytes=10 * 2304,
        duration_s=1.0,
        throughput_rps=100.0,
        arrival_rate_hz=100.0,
        mean_s=0.01,
        p50_s=0.005,
        p95_s=p95,
        p99_s=2 * p95,
        max_s=3 * p95,
        edge_mean_s=0.002,
        network_mean_s=0.04,
        cloud_mean_s=0.001,
        edge_utilization=0.5,
        edge_energy_j=0.1,
        radio_energy_j=0.05,
        accuracy=0.99,
    )


class TestSplitSweep:
    def test_sweep_covers_models_and_links(self):
        tables, lines = _split_sweep(
            {"lenet": LeNet(rng=0), "branchynet": BranchyLeNet(rng=0)},
            raspberry_pi4(),
            gci_cpu(),
        )
        assert len(tables) == 2
        rendered = "\n".join(t.render() for t in tables)
        assert "lenet split sweep" in rendered
        assert "branchynet split sweep" in rendered
        for link in ("ethernet", "wifi", "lte"):
            assert f"{link} (ms)" in rendered
        # One best-split breakdown line per (model, link) + the header.
        assert len(lines) == 1 + 2 * 3


class TestStudyContainer:
    def _study(self) -> OffloadStudy:
        tables, lines = _split_sweep({"lenet": LeNet(rng=0)}, raspberry_pi4(), gci_cpu())
        return OffloadStudy(
            dataset="mnist",
            edge="raspberry-pi4",
            cloud="gci-cpu",
            link="lte",
            n_requests=100,
            exit_rate=0.9,
            arrival_rate_hz=400.0,
            gate_s=0.0018,
            local_mean_s=0.0026,
            uplink_occupancy_s=0.0021,
            sweep_tables=tables,
            breakdown_lines=lines,
            policy_reports=[
                _toy_report("always-local", 0.5),
                _toy_report("entropy-gated", 0.05),
            ],
            codec_reports=[_toy_report("entropy-gated", 0.05) for _ in OFFLOAD_CODECS],
        )

    def test_render_contains_every_section(self):
        text = self._study().render()
        assert "lenet split sweep" in text
        assert "Offload policies (mnist, raspberry-pi4 -> gci-cpu over lte)" in text
        assert "Wire codecs" in text
        assert "accuracy delta" in text

    def test_report_for_lookup(self):
        study = self._study()
        assert study.report_for("entropy-gated").p95_s == pytest.approx(0.05)
        with pytest.raises(KeyError, match="no report"):
            study.report_for("nonexistent")

    def test_toy_report_invariants(self):
        r = _toy_report("always-local", 0.5)
        assert r.offload_rate == pytest.approx(0.1)
        assert r.uplink_mb == pytest.approx(10 * 2304 / 1e6)
        assert r.total_energy_j == pytest.approx(0.15)
        assert np.isfinite(r.energy_mj_per_request)
        assert r.summary().startswith("[always-local/lte/steady]")


def test_jobs_grid_matches_serial(monkeypatch):
    """``jobs=2`` fans the policy/codec grid over a process pool; each
    cell derives its own seed, so the reports equal the serial run's."""
    rng = np.random.default_rng(0)
    images = rng.random((64, 1, 28, 28)).astype(np.float32)
    labels = rng.integers(0, 10, 64)
    branchy = BranchyLeNet(rng=0, entropy_threshold=1.0)
    artifacts = SimpleNamespace(
        branchynet=branchy,
        cbnet=CBNet(
            autoencoder=ConvertingAutoencoder.for_dataset("mnist", rng=0),
            classifier=LightweightClassifier.from_branchynet(branchy),
        ),
        datasets={"test": ArrayDataset(images, labels)},
    )
    # Untrained stand-ins for the cached trained models.
    monkeypatch.setattr(offload_experiment, "pipeline_for", lambda *a, **k: artifacts)
    monkeypatch.setattr(offload_experiment, "lenet_for", lambda *a, **k: LeNet(rng=0))

    def study(jobs):
        return offload_experiment.run_offload_study(n_requests=200, codecs=("uint8",), jobs=jobs)

    serial, parallel = study(1), study(2)
    assert len(serial.policy_reports) == 4 and len(serial.codec_reports) == 1
    # repr compares every float exactly, NaN columns included.
    for field in ("policy_reports", "codec_reports"):
        assert repr(getattr(parallel, field)) == repr(getattr(serial, field))
