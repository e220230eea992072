"""Single-node serving semantics on a synthetic backend (no training
needed): one backend on a one-replica ``Cluster``."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.eval.metrics import latency_percentiles
from repro.experiments.serve import ServingComparison
from repro.serving.arrivals import constant_arrivals, poisson_arrivals
from repro.serving.backends import BatchTiming, InferenceBackend
from repro.serving.classes import DEFAULT_CLASSES
from repro.serving.router import RouteDecision
from repro.sim.records import (
    ROUTE_BATCHED,
    ROUTE_CACHED,
    ROUTE_EASY,
    ROUTE_HARD,
    ROUTE_SHED,
)


class SumBackend(InferenceBackend):
    """Deterministic toy model: label = pixel-sum mod 10, 1 ms/item."""

    name = "sum"

    def __init__(self, overhead_s=0.001, per_item_s=0.001):
        super().__init__(BatchTiming(overhead_s=overhead_s, per_item_s=per_item_s))

    def predict(self, images, decision=None):
        return (images.reshape(images.shape[0], -1).sum(axis=1)).astype(np.int64) % 10


class RoutedSumBackend(SumBackend):
    """Toy dynamic backend: images with mean > 0.5 are 'hard'."""

    name = "routed-sum"

    def __init__(self):
        super().__init__()
        self.timing = BatchTiming(
            overhead_s=0.001, per_item_s=0.001, gate_s=0.0005, per_hard_extra_s=0.004
        )

    def route(self, images):
        means = images.reshape(images.shape[0], -1).mean(axis=1)
        return RouteDecision(easy=means <= 0.5, entropy=means)


def make_images(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 1, 4, 4)).astype(np.float32)


class TestServeBasics:
    def test_all_requests_complete_with_real_predictions(self):
        images = make_images(64)
        labels = (images.reshape(64, -1).sum(axis=1)).astype(np.int64) % 10
        report = Cluster([SumBackend()], max_batch_size=8, max_wait_s=0.002).serve(
            images, poisson_arrivals(200.0, 64, rng=0), labels=labels
        )
        assert report.n_requests == 64
        assert report.accuracy == 1.0  # predictions really ran
        assert report.p50_s <= report.p95_s <= report.p99_s <= report.max_s
        assert 0.0 < report.utilization <= 1.0

    def test_sojourn_includes_batching_delay(self):
        # A lone request must wait out the full deadline before service.
        images = make_images(1)
        report = Cluster([SumBackend()], max_batch_size=8, max_wait_s=0.05).serve(
            images, np.array([0.0])
        )
        assert report.mean_s == pytest.approx(0.05 + 0.002, rel=1e-6)

    def test_unbatched_fifo_when_wait_is_zero(self):
        images = make_images(20)
        report, log = Cluster([SumBackend()], max_batch_size=8, max_wait_s=0.0).serve_log(
            images, constant_arrivals(100.0, 20)
        )
        assert report.mean_batch_size == 1.0
        assert (log.batch_size == 1).all()

    def test_batch_histogram_counts_batches(self):
        images = make_images(12)
        # All arrive together → size trigger fires at 4, three times.
        report, log = Cluster([SumBackend()], max_batch_size=4, max_wait_s=1.0).serve_log(
            images, np.zeros(12)
        )
        assert (log.batch_size == 4).all()
        assert len(np.unique(log.dispatch_s)) == 3
        assert report.mean_batch_size == 4.0

    def test_batching_amortizes_overhead_under_pressure(self):
        """Same overloaded stream: dynamic batching sustains a higher
        throughput than unbatched FIFO (the overhead amortization win)."""
        images = make_images(400)
        arrivals = poisson_arrivals(2000.0, 400, rng=1)  # past FIFO capacity
        fifo = Cluster([SumBackend()], max_batch_size=1, max_wait_s=0.0).serve(
            images, arrivals
        )
        batched = Cluster([SumBackend()], max_batch_size=32, max_wait_s=0.005).serve(
            images, arrivals
        )
        assert batched.throughput_rps > fifo.throughput_rps
        assert batched.mean_batch_size > 2.0


class TestCacheIntegration:
    def test_repeated_images_hit_after_first_completion(self):
        base = make_images(4)
        images = np.concatenate([base, base, base])  # 3 waves of the same 4
        # Wave spacing far exceeds service time → later waves all hit.
        arrivals = np.sort(np.concatenate([np.full(4, t) for t in (0.0, 1.0, 2.0)]))
        report = Cluster(
            [SumBackend()], max_batch_size=4, max_wait_s=0.001, cache_capacity=16
        ).serve(images, arrivals)
        assert report.n_cached == 8
        assert report.cache_hit_rate == pytest.approx(8 / 12)

    def test_no_hit_before_source_completes(self):
        base = make_images(1)
        images = np.concatenate([base, base])
        # Second copy arrives while the first is still queued/in service.
        report = Cluster(
            [SumBackend()], max_batch_size=1, max_wait_s=0.0, cache_capacity=16
        ).serve(images, np.array([0.0, 1e-5]))
        assert report.n_cached == 0

    def test_cached_requests_copy_source_prediction(self):
        base = make_images(3, seed=3)
        images = np.concatenate([base, base])
        labels = (images.reshape(6, -1).sum(axis=1)).astype(np.int64) % 10
        report = Cluster(
            [SumBackend()], max_batch_size=3, max_wait_s=0.001, cache_capacity=16
        ).serve(images, np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0]), labels=labels)
        assert report.n_cached == 3
        assert report.accuracy == 1.0

    def test_cache_disabled_by_default(self):
        base = make_images(2)
        images = np.concatenate([base] * 5)
        report = Cluster([SumBackend()], max_batch_size=2, max_wait_s=0.001).serve(
            images, np.arange(10, dtype=np.float64)
        )
        assert report.n_cached == 0
        assert report.cache_hit_rate == 0.0


class TestRoutingIntegration:
    def test_easy_hard_labels_and_timing(self):
        rng = np.random.default_rng(4)
        easy = rng.random((8, 1, 4, 4)).astype(np.float32) * 0.2  # mean <= 0.5
        hard = 0.8 + rng.random((8, 1, 4, 4)).astype(np.float32) * 0.2
        images = np.concatenate([easy, hard])
        _, log = Cluster([RoutedSumBackend()], max_batch_size=4, max_wait_s=0.001).serve_log(
            images, np.arange(16, dtype=np.float64) * 0.001
        )
        assert log.route_count(ROUTE_EASY) == 8
        assert log.route_count(ROUTE_HARD) == 8
        np.testing.assert_array_equal(log.route, [ROUTE_EASY] * 8 + [ROUTE_HARD] * 8)

    def test_hard_heavy_stream_is_slower(self):
        rng = np.random.default_rng(5)
        easy = (rng.random((64, 1, 4, 4)) * 0.2).astype(np.float32)
        hard = (0.8 + rng.random((64, 1, 4, 4)) * 0.2).astype(np.float32)
        arrivals = poisson_arrivals(300.0, 64, rng=6)

        def mean_s(images):
            node = Cluster([RoutedSumBackend()], max_batch_size=8, max_wait_s=0.002)
            return node.serve(images, arrivals).mean_s

        assert mean_s(hard) > mean_s(easy)


class TestValidationAndRendering:
    def test_invalid_inputs_rejected(self):
        """Refused traces leave the node usable: one node takes every
        bad call, then serves a good trace."""
        node = Cluster([SumBackend()])
        with pytest.raises(ValueError):
            node.serve(make_images(2), np.array([0.0]))  # length mismatch
        with pytest.raises(ValueError):
            node.serve(make_images(0), np.array([]))  # empty stream
        with pytest.raises(ValueError):
            node.serve(make_images(2), np.array([1.0, 0.5]))  # unsorted
        assert node.serve(make_images(2), np.array([0.0, 0.5])).n_served == 2

    def test_summary_and_table_render(self):
        """The serving comparison renders one row per backend, its "hard"
        column the routed share the log's route counts give."""
        images = make_images(16)
        runs = {
            backend.name: Cluster([backend], max_batch_size=4, max_wait_s=0.001).serve_log(
                images, poisson_arrivals(100.0, 16, rng=7)
            )
            for backend in (SumBackend(), RoutedSumBackend())
        }
        report, log = runs["routed-sum"]
        assert "p99" in report.summary()
        comp = ServingComparison("toy", "dev", 16, 0.5, runs={"steady": runs})
        assert comp.report_for("steady", "routed-sum") is report
        with pytest.raises(KeyError, match="no report for backend"):
            comp.report_for("steady", "missing")
        text = comp.render()
        assert "toy, dev) — steady" in text
        rows = {line.split()[0]: line.split() for line in text.splitlines()[3:]}
        assert rows.keys() == {"sum", "routed-sum"}
        hard = log.route_count(ROUTE_HARD) / (16 - log.route_count(ROUTE_CACHED))
        assert rows["routed-sum"][7] == f"{hard:.0%}" and rows["sum"][7] == "0%"

    def test_route_constants_cover_engine_routes(self):
        """Every route the engine writes is one of the ``ROUTE_*`` codes,
        which are distinct small ints that fit the ``int8`` column."""
        base = make_images(16)
        images = np.concatenate([base, base])  # the second wave hits the cache
        arrivals = np.concatenate([np.zeros(16), np.ones(16)])
        written = set()
        for backend in (SumBackend(), RoutedSumBackend()):
            node = Cluster([backend], max_batch_size=8, max_wait_s=0.001, cache_capacity=32)
            _, log = node.serve_log(images, arrivals)
            written |= set(np.unique(log.route).tolist())
        assert written == {ROUTE_BATCHED, ROUTE_CACHED, ROUTE_EASY, ROUTE_HARD}
        codes = (ROUTE_BATCHED, ROUTE_CACHED, ROUTE_EASY, ROUTE_HARD, ROUTE_SHED)
        assert sorted(codes) == list(range(len(codes)))

    def test_report_percentiles_follow_latency_percentiles(self):
        """The report and its per-class slices reduce the log's served
        sojourns with one percentile convention."""
        images = make_images(300)
        arrivals = poisson_arrivals(800.0, 300, rng=3)
        codes = np.random.default_rng(4).integers(0, len(DEFAULT_CLASSES), 300)
        node = Cluster([SumBackend()], max_batch_size=8, classes=DEFAULT_CLASSES)
        report, log = node.serve_log(images, arrivals, request_classes=codes)
        got = (report.p50_s, report.p95_s, report.p99_s)
        assert got == latency_percentiles(log.sojourn_s[log.done])
        assert len(report.class_reports) == len(DEFAULT_CLASSES)
        for code, cr in enumerate(report.class_reports):
            served = log.done & (log.req_class == code)
            got = (cr.p50_s, cr.p95_s, cr.p99_s)
            assert got == latency_percentiles(log.sojourn_s[served]), cr.name

    def test_request_classes_without_a_class_set_rejected(self):
        node = Cluster([SumBackend()])
        with pytest.raises(ValueError, match="requires Cluster\\(classes=...\\)"):
            node.serve(make_images(4), np.zeros(4), request_classes=np.zeros(4, np.int8))
        report = node.serve(make_images(4), np.zeros(4))
        assert report.class_reports == ()
