"""Observer facade: hooks, finalize semantics, engine integration, export."""

import json

import numpy as np
import pytest
from conftest import SumBackend, make_scenario, run_traced

from repro.cluster import Cluster
from repro.obs import Observer
from repro.obs.spans import (
    EV_BATCH_FAIL,
    EV_CRASH,
    EV_TIMEOUT,
    NO_PARENT,
    SPAN_BATCH,
    SPAN_CLOUD,
    SPAN_DOWNLINK,
    SPAN_REQUEST,
    SPAN_UPLINK,
    SpanLog,
)
from repro.serving.arrivals import poisson_arrivals


class TestFinalize:
    def test_single_use_keeps_first_result(self):
        obs = Observer()
        obs.on_batch(0.0, 0.01, 0, 4)
        obs.finalize_arrays(np.array([0.0]), np.array([0.02]))
        first = obs.spans
        # Spans build lazily on first read and cache; a second finalize
        # with different columns is a no-op.
        obs.finalize_arrays(np.array([5.0, 6.0]), np.array([6.0, 7.0]))
        assert obs.spans is first
        assert first.count(SPAN_REQUEST) == 1

    def test_finalized_is_a_read_only_flag_of_a_finished_run(self):
        obs = Observer()
        obs.on_batch(0.0, 0.01, 0, 4)
        assert not obs.finalized  # hooks alone do not finish a run
        obs.finalize_arrays(np.array([0.0]), np.array([0.02]))
        assert obs.finalized
        with pytest.raises(AttributeError):
            obs.finalized = False

    def test_spans_build_lazily_after_finalize(self):
        obs = Observer()
        assert obs.spans is None
        obs.finalize_arrays(np.array([0.0]), np.array([0.02]))
        assert obs.tracer._log is None  # not yet materialized
        assert obs.spans.count(SPAN_REQUEST) == 1

    def test_incomplete_requests_get_no_root(self):
        obs = Observer()
        obs.finalize_arrays(np.array([0.0, 1.0]), np.array([0.5, np.nan]))
        spans = obs.spans
        assert spans.count(SPAN_REQUEST) == 1
        assert spans.req[spans.mask(SPAN_REQUEST)].tolist() == [0]

    def test_offload_legs_parent_to_their_request(self):
        obs = Observer()
        for kind, lo, hi in (
            (SPAN_UPLINK, 0.1, 0.2),
            (SPAN_CLOUD, 0.2, 0.3),
            (SPAN_DOWNLINK, 0.3, 0.4),
        ):
            obs.on_leg(kind, 0, lo, hi)
        obs.finalize_arrays(np.array([0.0]), np.array([0.5]))
        spans = obs.spans
        leg_kinds = np.isin(spans.kind, (SPAN_UPLINK, SPAN_CLOUD, SPAN_DOWNLINK))
        legs = spans.parent[leg_kinds]
        assert legs.shape == (3,)
        assert (legs >= 0).all()
        assert (spans.kind[legs] == SPAN_REQUEST).all()

    def test_symptom_events_drive_suspicion_injections_do_not(self):
        obs = Observer()
        obs.on_batch(0.0, 0.01, 0, 4)
        obs.on_batch(0.0, 0.01, 1, 4)
        obs.on_event(EV_TIMEOUT, 0.1, replica=1)
        obs.on_event(EV_BATCH_FAIL, 0.2, replica=1)
        # Injected markers must not tilt the ranking: localization has
        # to work from what a production fleet could actually observe.
        obs.on_event(EV_CRASH, 0.3, replica=0)
        assert obs.suspect_replicas(top=2) == [1, 0]
        assert obs.replica_stats[1][2] == 2
        assert obs.replica_stats[0][2] == 0

    def test_alert_rows_land_in_the_span_log(self):
        obs = Observer()
        arrival = np.array([0.1, 0.2])
        completion = np.array([0.51, 0.52])  # both late, in one 0.1 s window
        obs.finalize_arrays(arrival, completion, slo_s=0.05)
        from repro.obs.spans import EV_ALERT

        assert obs.spans.count(EV_ALERT) == len(obs.alerts) == 1

    def test_summary_reports_spans_and_burn(self):
        obs = Observer()
        obs.finalize_arrays(np.array([0.0]), np.array([0.01]), slo_s=0.05)
        summary = obs.summary()
        assert summary["requests"] == 1.0
        assert summary["completed"] == 1.0
        assert summary["spans"] >= 1.0
        assert "worst_burn" in summary and "alerts" in summary


class TestSingleNodeIntegration:
    def test_one_replica_records_batches_and_finalizes(self):
        rng = np.random.default_rng(0)
        images = rng.random((64, 1, 4, 4)).astype(np.float32)
        arrival = poisson_arrivals(400.0, 200, rng=rng)
        obs = Observer()
        node = Cluster([SumBackend()], max_batch_size=8, max_wait_s=0.004, obs=obs)
        _, log = node.serve_log(images[rng.integers(0, 64, 200)], arrival)
        assert obs.spans is not None
        assert obs.spans.count(SPAN_REQUEST) == int(log.done.sum())
        assert obs.spans.count(SPAN_BATCH) == obs.metrics["batches"].value > 0

    def test_disabled_by_default(self):
        assert Cluster([SumBackend()]).obs is None

    def test_reused_observer_raises_and_keeps_the_first_run(self):
        """A second cluster handed a finished observer would merge both
        runs' batches and spans into one telemetry, so it raises before
        recording anything."""
        images = np.random.default_rng(0).random((50, 1, 4, 4)).astype(np.float32)
        arrival = poisson_arrivals(400.0, 50, rng=1)

        def serve(obs):
            Cluster([SumBackend()], max_batch_size=8, max_wait_s=0.004, obs=obs).serve(
                images, arrival
            )

        obs, once = Observer(), Observer()
        serve(obs)
        serve(once)
        with pytest.raises(RuntimeError, match="finished run"):
            serve(obs)
        assert obs.finalized
        assert obs.summary() == once.summary()
        assert obs.metrics["batched_requests"].value == 50

    def test_finished_observer_is_refused_before_the_cluster_starts(self):
        """The refusal comes before the cluster marks its one trace as
        served, so the same cluster still replays it with a fresh observer."""

        images = np.random.default_rng(2).random((50, 1, 4, 4)).astype(np.float32)
        arrival = poisson_arrivals(400.0, 50, rng=3)
        obs = Observer()
        Cluster([SumBackend()], max_batch_size=8, obs=obs).serve(images, arrival)
        rows = obs.tracer.n_rows
        cluster = Cluster([SumBackend()], max_batch_size=8, obs=obs)
        with pytest.raises(RuntimeError, match="finished run"):
            cluster.serve(images, arrival)
        assert obs.tracer.n_rows == rows
        cluster.obs = fresh = Observer()
        assert cluster.serve(images, arrival).n_served == 50
        assert fresh.summary() == obs.summary()


class TestChromeExport:
    def test_trace_is_valid_chrome_json(self, tmp_path):
        sc = make_scenario(3)
        _, _, obs = run_traced(sc)
        path = tmp_path / "trace.json"
        n = obs.chrome_trace(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == n
        phases = {e["ph"] for e in events}
        assert phases >= {"M", "X"}
        # Three process lanes: replicas (0), requests (1), resources (2).
        assert {e["pid"] for e in events} == {0, 1, 2}
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0.0

    def test_counters_optional(self, tmp_path):
        sc = make_scenario(3)
        _, _, obs = run_traced(sc)
        path = tmp_path / "no_counters.json"
        obs.chrome_trace(path, counters=False)
        events = json.loads(path.read_text())["traceEvents"]
        assert {e["pid"] for e in events} == {0, 1}

    def test_request_lane_capped(self, tmp_path):
        sc = make_scenario(4)
        _, _, obs = run_traced(sc)
        path = tmp_path / "capped.json"
        obs.chrome_trace(path, max_requests=5)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        request_tids = {e["tid"] for e in events if e.get("pid") == 1 and e["ph"] == "X"}
        assert len(request_tids) <= 5
        # The cap is accounted for in the export metadata, not silent.
        meta = doc["metadata"]
        assert meta["max_requests"] == 5
        assert meta["request_lanes_kept"] == len(request_tids)
        assert meta["request_lanes_dropped"] > 0
        assert meta["events_dropped"] >= meta["request_lanes_dropped"]

    def test_export_before_finalize_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="finalize"):
            Observer().chrome_trace(tmp_path / "x.json")


class TestSpanLogValidation:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="length"):
            SpanLog([0], [0, 1], [0.0], [0.0], [0], [NO_PARENT])

    def test_empty_log(self):
        log = SpanLog.empty()
        assert len(log) == 0
        assert log.durations().shape == (0,)
