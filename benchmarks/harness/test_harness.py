"""Self-test of the layered benchmark harness (toy sizes, ~15 s).

Every workload runs through the same set-up, measure and trace code the
benchmark's child processes run, at ``--smoke`` sizes, in this process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import layers
import run
import workloads
from repro.utils.cache import default_cache_dir


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Measure + trace every workload once at smoke size."""
    out_dir = tmp_path_factory.mktemp("traces")
    runs = {}
    for name in workloads.NAMES:
        wl, _, _ = child.setup(name, 0, smoke=True)
        measured = child.measure(wl, seconds=0.0)
        saved = {(t.cls, t.method): t.cls.__dict__.get(t.method) for t in layers.targets()}
        traced = child.trace(wl, out_dir)
        restored = all(
            cls.__dict__.get(method) is original for (cls, method), original in saved.items()
        )
        runs[name] = (wl, measured, traced, restored)
    return runs


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_workload_passes_every_check(smoke_runs, name):
    _, measured, traced, _ = smoke_runs[name]
    assert measured["failed"] == 0 and traced["failed"] == 0, (
        measured["failures"] + traced["failures"]
    )
    assert measured["attempted"] == child.MIN_REPLAYS
    assert traced["sim_digest"] == measured["sim_digest"]
    assert Path(traced["trace_file"]).is_file()
    assert {"trace_overhead", "layer_coverage"} <= traced["per_layer"].keys()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_trace_restores_the_wrappers(smoke_runs, name):
    wl, measured, _, restored = smoke_runs[name]
    assert restored
    assert wl.replay().digest == measured["sim_digest"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_self_time_fits_in_the_replay(smoke_runs, name):
    _, _, traced, _ = smoke_runs[name]
    assert 0 < traced["self_ns_total"] <= traced["traced_s"] * 1e9


def test_layer_contrasts(smoke_runs):
    per_layer = {name: run[2]["per_layer"] for name, run in smoke_runs.items()}
    key = "cluster.replica.next_deadline_calls_per_req"
    assert per_layer["fleet_64"][key] >= 10 * per_layer["cluster_cached"][key]
    assert per_layer["cluster_cached"]["serving.cache.hit_ratio"] >= 0.8
    for name, metrics in per_layer.items():
        assert ("serving.cache.get_ns" in metrics) == (name == "cluster_cached")
        assert ("models.convert_us_per_image" in metrics) == (name == "live_cbnet")
        assert ("faults.breaker_ns" in metrics) == (name == "chaos_resilient")
        assert ("netsim.advance_ns" in metrics) == (name == "lte_storm")


def _dist(*values):
    return run.dist(list(values))


def test_compare_classifies_synthetic_results():
    base = _dist(100, 101, 99, 100, 102)
    assert run.classify(base, _dist(80, 81, 79, 80, 82), "higher", 0.1) == "worse"
    assert run.classify(base, _dist(120, 121, 119, 120, 122), "higher", 0.1) == "better"
    assert run.classify(base, _dist(102, 103, 101, 102, 104), "higher", 0.1) == "unchanged"
    assert run.classify(base, _dist(80, 81, 79, 80, 82), "lower", 0.1) == "better"
    wide = _dist(60, 80, 100, 120, 140)
    assert run.classify(wide, _dist(70, 90, 110, 130, 150), "higher", 0.1) == "unresolved"
    assert run.classify(wide, _dist(150, 160, 170, 180, 190), "higher", 0.1) == "better"
    assert run.classify(_dist(2.0), _dist(2.0), "lower", 0.0) == "unchanged"
    assert run.classify(_dist(2.0), _dist(2.1), "lower", 0.0) == "changed"
    assert run.classify(_dist(2.0), _dist(1.9), "lower", 0.0) == "changed"


def test_compare_exits_nonzero_on_worse_or_changed(tmp_path, capsys):
    def result(rps: float, p99: float, digest: str) -> dict:
        e2e = {
            "sim_rps": {"value": rps, "unit": "req/s", **_dist(rps, rps * 1.01, rps * 0.99)},
            "sim_p99_ms": {"value": p99, "unit": "ms", **_dist(p99)},
        }
        return {"workloads": {"w": {"end_to_end": e2e, "sim_digest": digest}}}

    cases = {
        "base": (100.0, 2.0, "d"),
        "same": (101.0, 2.0, "d"),
        "slow": (50.0, 2.0, "d"),
        "lower_p99": (101.0, 1.5, "d"),
        "new_digest": (101.0, 2.0, "e"),
    }
    paths = {}
    for label, args in cases.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(result(*args)))

    def verdicts(label: str) -> tuple[int, set[str]]:
        code = run.compare(paths["base"], paths[label])
        rows = capsys.readouterr().out.splitlines()[1:]
        return code, {row.split()[-1] for row in rows}

    assert verdicts("same") == (0, {"unchanged"})
    assert verdicts("slow") == (1, {"worse", "unchanged"})
    assert verdicts("lower_p99") == (1, {"changed", "unchanged"})
    assert verdicts("new_digest") == (1, {"changed", "unchanged"})


def test_benchmark_json_matches_the_harness():
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.HOST_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_one_workload_prints_a_json_result_line():
    env = {**os.environ, "REPRO_CACHE_DIR": str(default_cache_dir())}
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "cluster_cached",
         "--seed", "0", "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.HOST_METRICS)


def test_refuses_to_run_without_the_simulator(tmp_path):
    harness = tmp_path / "benchmarks" / "harness"
    shutil.copytree(run.HERE, harness, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCHMARK_JSON, tmp_path)
    done = subprocess.run(
        [sys.executable, str(harness / "run.py"), "--workload", "cluster_cached"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
