"""Serving engine semantics on a synthetic backend (no training needed)."""

import numpy as np
import pytest

from repro.serving.arrivals import constant_arrivals, poisson_arrivals
from repro.serving.backends import BatchTiming, InferenceBackend
from repro.serving.engine import Server, comparison_table
from repro.serving.request import Route
from repro.serving.router import RouteDecision


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
        report = Server(SumBackend(), max_batch_size=8, max_wait_s=0.002).serve(
            images, poisson_arrivals(200.0, 64, rng=0), labels=labels
        )
        assert report.n_requests == 64
        assert report.accuracy == 1.0  # predictions really ran
        assert report.p50_s <= report.p95_s <= report.p99_s <= report.max_s
        assert 0.0 < report.utilization <= 1.0

    def test_sojourn_includes_batching_delay(self):
        # A lone request must wait out the full deadline before service.
        images = make_images(1)
        report = Server(SumBackend(), max_batch_size=8, max_wait_s=0.05).serve(
            images, np.array([0.0])
        )
        assert report.mean_s == pytest.approx(0.05 + 0.002, rel=1e-6)

    def test_unbatched_fifo_when_wait_is_zero(self):
        images = make_images(20)
        report = Server(SumBackend(), max_batch_size=8, max_wait_s=0.0).serve(
            images, constant_arrivals(100.0, 20)
        )
        assert report.mean_batch_size == 1.0
        assert report.batch_histogram == {1: 20}

    def test_batch_histogram_counts_batches(self):
        images = make_images(12)
        # All arrive together → size trigger fires at 4, three times.
        report = Server(SumBackend(), max_batch_size=4, max_wait_s=1.0).serve(
            images, np.zeros(12)
        )
        assert report.batch_histogram == {4: 3}
        assert report.mean_batch_size == 4.0

    def test_batching_amortizes_overhead_under_pressure(self):
        """Same overloaded stream: dynamic batching sustains a higher
        throughput than unbatched FIFO (the overhead amortization win)."""
        images = make_images(400)
        arrivals = poisson_arrivals(2000.0, 400, rng=1)  # past FIFO capacity
        fifo = Server(SumBackend(), max_batch_size=1, max_wait_s=0.0).serve(
            images, arrivals
        )
        batched = Server(SumBackend(), max_batch_size=32, max_wait_s=0.005).serve(
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
        report = Server(
            SumBackend(), max_batch_size=4, max_wait_s=0.001, cache_capacity=16
        ).serve(images, arrivals)
        assert report.n_cached == 8
        assert report.cache_hit_rate == pytest.approx(8 / 12)

    def test_no_hit_before_source_completes(self):
        base = make_images(1)
        images = np.concatenate([base, base])
        # Second copy arrives while the first is still queued/in service.
        report = Server(
            SumBackend(), max_batch_size=1, max_wait_s=0.0, cache_capacity=16
        ).serve(images, np.array([0.0, 1e-5]))
        assert report.n_cached == 0

    def test_cached_requests_copy_source_prediction(self):
        base = make_images(3, seed=3)
        images = np.concatenate([base, base])
        labels = (images.reshape(6, -1).sum(axis=1)).astype(np.int64) % 10
        report = Server(
            SumBackend(), max_batch_size=3, max_wait_s=0.001, cache_capacity=16
        ).serve(images, np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0]), labels=labels)
        assert report.n_cached == 3
        assert report.accuracy == 1.0

    def test_cache_disabled_by_default(self):
        base = make_images(2)
        images = np.concatenate([base] * 5)
        report = Server(SumBackend(), max_batch_size=2, max_wait_s=0.001).serve(
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
        report = Server(RoutedSumBackend(), max_batch_size=4, max_wait_s=0.001).serve(
            images, np.arange(16, dtype=np.float64) * 0.001
        )
        assert report.n_easy == 8
        assert report.n_hard == 8
        assert report.hard_fraction == pytest.approx(0.5)

    def test_hard_heavy_stream_is_slower(self):
        rng = np.random.default_rng(5)
        easy = (rng.random((64, 1, 4, 4)) * 0.2).astype(np.float32)
        hard = (0.8 + rng.random((64, 1, 4, 4)) * 0.2).astype(np.float32)
        arrivals = poisson_arrivals(300.0, 64, rng=6)
        srv = Server(RoutedSumBackend(), max_batch_size=8, max_wait_s=0.002)
        assert srv.serve(hard, arrivals).mean_s > srv.serve(easy, arrivals).mean_s


class TestValidationAndRendering:
    def test_invalid_inputs_rejected(self):
        srv = Server(SumBackend())
        with pytest.raises(ValueError):
            srv.serve(make_images(2), np.array([0.0]))  # length mismatch
        with pytest.raises(ValueError):
            srv.serve(make_images(0), np.array([]))  # empty stream
        with pytest.raises(ValueError):
            srv.serve(make_images(2), np.array([1.0, 0.5]))  # unsorted

    def test_summary_and_table_render(self):
        images = make_images(16)
        report = Server(SumBackend(), max_batch_size=4, max_wait_s=0.001).serve(
            images, poisson_arrivals(100.0, 16, rng=7)
        )
        assert "p99" in report.summary()
        text = comparison_table([report], "title").render()
        assert "sum" in text and "title" in text

    def test_route_constants_cover_engine_routes(self):
        assert {Route.BATCHED, Route.CACHED, Route.EASY, Route.HARD} <= set(Route.ALL)
