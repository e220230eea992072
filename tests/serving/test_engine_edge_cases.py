"""Single-node edge cases, on a one-replica ``Cluster``.

Pinned before the balancer was wired on top (see `repro.cluster`): the
fleet engine builds on these exact behaviours — empty traces are
rejected loudly, batches still in flight when the trace ends complete
on the virtual clock, and cache visibility is causal down to the exact
completion instant.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.serving.backends import BatchTiming, InferenceBackend


class SumBackend(InferenceBackend):
    """Deterministic toy model: label = pixel-sum mod 10."""

    name = "sum"

    def __init__(self, overhead_s=0.001, per_item_s=0.001):
        super().__init__(BatchTiming(overhead_s=overhead_s, per_item_s=per_item_s))

    def predict(self, images, decision=None):
        return (images.reshape(images.shape[0], -1).sum(axis=1)).astype(np.int64) % 10


def make_images(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 1, 4, 4)).astype(np.float32)


class TestZeroArrivalTrace:
    def test_empty_stream_is_rejected_loudly(self):
        node = Cluster([SumBackend()])
        with pytest.raises(ValueError, match="empty request stream"):
            node.serve(make_images(0), np.array([]))

    def test_empty_stream_rejected_even_with_cache_and_workers(self):
        node = Cluster([SumBackend()], cache_capacity=64)
        with pytest.raises(ValueError, match="empty request stream"):
            node.serve(np.zeros((0, 1, 4, 4), dtype=np.float32), np.array([]))


class TestTraceEndsWithBatchesInFlight:
    def test_final_partial_batch_completes_after_last_arrival(self):
        # 10 requests, batch size 8: the trailing 2 are still pending when
        # the trace ends and must flush at their deadline, not be dropped.
        images = make_images(10)
        report, log = Cluster([SumBackend()], max_batch_size=8, max_wait_s=0.05).serve_log(
            images, np.zeros(10)
        )
        assert report.n_requests == 10
        assert log.batch_size.tolist() == [8] * 8 + [2] * 2
        # Makespan extends past the last arrival by at least the trailing
        # batch's deadline wait plus its service time.
        assert report.duration_s >= 0.05 + 0.001 + 2 * 0.001

    def test_every_request_of_an_abruptly_ending_trace_completes(self):
        # Arrivals stop mid-burst while several batches are queued behind
        # one worker; the engine must drain everything it admitted.
        images = make_images(64)
        arrivals = np.sort(np.concatenate([np.zeros(32), np.full(32, 1e-4)]))
        report, log = Cluster(
            [SumBackend(per_item_s=0.004)], max_batch_size=4, max_wait_s=0.01
        ).serve_log(images, arrivals)
        assert report.n_requests == report.n_served == 64
        assert (log.batch_size == 4).all()
        assert report.max_s > 0.0

    def test_completions_monotone_per_worker_after_trace_end(self):
        images = make_images(12)
        node = Cluster([SumBackend(per_item_s=0.003)], max_batch_size=4, max_wait_s=0.002)
        report = node.serve(images, np.zeros(12))
        # Three size-4 batches on one worker: service strictly serializes,
        # so the makespan is at least 3 sequential batch services.
        assert report.duration_s >= 3 * (0.001 + 4 * 0.003)


class TestCacheCompletionRaces:
    def test_hit_exactly_at_completion_instant(self):
        # A repeat arriving at the *exact* virtual instant its source
        # completes must hit: results become visible at completion time.
        images = np.concatenate([make_images(1)] * 2)
        # batch of 1 flushes immediately at t=0; service = overhead+item.
        completion = 0.001 + 0.001
        report = Cluster(
            [SumBackend()], max_batch_size=1, max_wait_s=0.0, cache_capacity=4
        ).serve(images, np.array([0.0, completion]))
        assert report.n_cached == 1

    def test_miss_one_tick_before_completion(self):
        images = np.concatenate([make_images(1)] * 2)
        completion = 0.001 + 0.001
        report = Cluster(
            [SumBackend()], max_batch_size=1, max_wait_s=0.0, cache_capacity=4
        ).serve(images, np.array([0.0, completion - 1e-9]))
        assert report.n_cached == 0

    def test_burst_of_identical_images_only_first_wave_misses(self):
        # All copies arriving before the first completes are misses and
        # ride batches; copies arriving after it completes all hit.
        base = make_images(1, seed=5)
        images = np.concatenate([base] * 6)
        arrivals = np.array([0.0, 1e-6, 2e-6, 1.0, 1.0, 1.0])
        report = Cluster(
            [SumBackend()], max_batch_size=4, max_wait_s=0.001, cache_capacity=4
        ).serve(images, arrivals)
        assert report.n_cached == 3
        assert report.n_requests - report.n_cached == 3
