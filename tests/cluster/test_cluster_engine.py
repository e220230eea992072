"""Fleet engine semantics: balancing, shedding, failures, caching, drains,
inference chunks."""

import copy
import math

import numpy as np
import pytest

from repro.cluster import AdmissionController, Cluster, fleet_comparison_table
from repro.faults import (
    CRASH,
    RECOVER,
    Fault,
    FaultPlan,
    ResilienceConfig,
    crash_window,
    partition_window,
)
from repro.hw.devices import gci_cpu
from repro.serving.arrivals import constant_arrivals, poisson_arrivals
from repro.serving.backends import CBNetBackend
from repro.serving.batcher import MicroBatcher
from repro.serving.classes import DEFAULT_CLASSES, RequestClass
from repro.serving.priority import PriorityBatcher
from repro.sim.records import ROUTE_CACHED, ROUTE_EASY, ROUTE_HARD, ROUTE_SHED

from conftest import RoutedSumBackend, SumBackend, labels_for, make_images


class TestBasics:
    def test_all_requests_served_with_real_predictions(self, images100):
        labels = labels_for(images100)
        report = Cluster([SumBackend(), SumBackend()], policy="round-robin").serve(
            images100, poisson_arrivals(300.0, 100, rng=0), labels=labels
        )
        assert report.n_served == report.n_requests == 100
        assert report.accuracy == 1.0  # predictions really ran
        assert report.n_shed == report.n_unserved == 0
        assert report.availability == 1.0
        assert report.p50_s <= report.p95_s <= report.p99_s <= report.max_s

    def test_heterogeneous_fleet_separates_rr_from_lor(self):
        images = make_images(400)
        arrivals = poisson_arrivals(900.0, 400, rng=1)
        fast_slow = lambda: [SumBackend(0.0005), SumBackend(0.004)]
        rr = Cluster(fast_slow(), policy="round-robin").serve(images, arrivals)
        lor = Cluster(fast_slow(), policy="least-outstanding").serve(images, arrivals)
        assert lor.p99_s < rr.p99_s

    def test_replica_seconds_bill_whole_fleet_to_makespan(self, images100):
        report = Cluster([SumBackend(), SumBackend()], policy="round-robin").serve(
            images100, constant_arrivals(200.0, 100)
        )
        assert report.replica_seconds == pytest.approx(2 * report.duration_s)

    def test_single_use_guard(self, images100):
        cluster = Cluster([SumBackend()])
        cluster.serve(images100, constant_arrivals(200.0, 100))
        with pytest.raises(RuntimeError):
            cluster.serve(images100, constant_arrivals(200.0, 100))

    def test_invalid_inputs_rejected(self, images100):
        cluster = Cluster([SumBackend()])
        with pytest.raises(ValueError):
            cluster.serve(images100, np.zeros(3))  # length mismatch
        with pytest.raises(ValueError):
            Cluster([])
        with pytest.raises(ValueError):
            Cluster([SumBackend()], slo_s=0.0)
        with pytest.raises(ValueError):
            Cluster([SumBackend()], faults=FaultPlan((Fault(0.1, 5, CRASH),)))
        # Bad cache settings fail at construction, before any serving.
        with pytest.raises(ValueError, match="cache_capacity"):
            Cluster([SumBackend()], cache_capacity=-1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Cluster([SumBackend()], slo_s=np.nan),
            lambda: Cluster([SumBackend()], recover_warmup_s=np.nan),
            lambda: Cluster([SumBackend()], max_wait_s=np.nan),
            lambda: MicroBatcher(max_wait_s=np.nan),
            lambda: PriorityBatcher(DEFAULT_CLASSES, max_wait_s=np.nan),
            lambda: RequestClass("x", 0, deadline_s=np.nan, weight=1.0),
            lambda: RequestClass("x", 0, deadline_s=0.1, weight=np.nan),
            lambda: RequestClass("x", 0, deadline_s=0.1, weight=1.0, max_wait_s=np.nan),
        ],
        ids=[
            "cluster-slo_s",
            "cluster-recover_warmup_s",
            "cluster-max_wait_s",
            "microbatcher-max_wait_s",
            "prioritybatcher-max_wait_s",
            "class-deadline_s",
            "class-weight",
            "class-max_wait_s",
        ],
    )
    def test_nan_settings_rejected_at_construction(self, build):
        """``x < 0`` and ``x <= 0`` are false for NaN, so these used to pass."""
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Cluster([SumBackend()], max_batch_size=4, max_wait_s=math.inf),
            lambda: MicroBatcher(max_wait_s=math.inf),
            lambda: PriorityBatcher(DEFAULT_CLASSES, max_wait_s=math.inf),
            lambda: RequestClass("x", 1, deadline_s=0.1, weight=1.0, max_wait_s=math.inf),
        ],
        ids=["cluster", "microbatcher", "prioritybatcher", "class"],
    )
    def test_infinite_wait_caps_rejected_at_construction(self, build):
        """An infinite cap never flushes a partial batch: the end-of-trace
        flush at ``inf`` skips an ``inf`` deadline, so its requests used
        to end the trace silently unserved (a one-replica fleet batching
        4 served 8 of 10 requests 10 ms apart)."""
        with pytest.raises(ValueError, match="max_wait_s"):
            build()

    def test_report_renders(self, images100):
        report = Cluster([SumBackend()]).serve(
            images100, poisson_arrivals(200.0, 100, rng=2)
        )
        assert "p99" in report.summary()
        text = fleet_comparison_table([report], "fleet title").render()
        assert "fleet title" in text and report.policy in text


class TestAdmission:
    def test_reject_sheds_and_bounds_queue(self):
        images = make_images(300)
        # Far past one replica's capacity: unbounded queueing otherwise.
        arrivals = poisson_arrivals(5000.0, 300, rng=3)
        bounded = Cluster(
            [SumBackend()],
            admission=AdmissionController(max_outstanding=10),
        ).serve(images, arrivals)
        unbounded = Cluster([SumBackend()]).serve(images, arrivals)
        assert bounded.n_shed > 0
        assert bounded.shed_rate == bounded.n_shed / 300
        assert bounded.availability < 1.0
        assert bounded.p99_s < unbounded.p99_s  # shedding protects the tail

    def test_shed_requests_are_marked_not_served(self):
        images = make_images(50)
        report = Cluster(
            [SumBackend(per_item_s=0.01)],
            admission=AdmissionController(max_outstanding=1),
        ).serve(images, np.zeros(50))
        assert report.n_shed > 0
        assert report.n_served + report.n_shed == 50

    def test_degrade_forces_early_exit_path(self):
        rng = np.random.default_rng(4)
        hard = (0.8 + rng.random((200, 1, 4, 4)) * 0.2).astype(np.float32)  # all hard
        arrivals = poisson_arrivals(2000.0, 200, rng=5)
        strict = Cluster([RoutedSumBackend()]).serve(hard, arrivals)
        degrade = Cluster(
            [RoutedSumBackend()],
            admission=AdmissionController(max_outstanding=8, policy="degrade"),
        ).serve(hard, arrivals)
        assert strict.n_served == degrade.n_served == 200  # degrade never rejects
        assert degrade.n_degraded > 0
        # Forced-easy requests skip the 4x hard path: the tail must drop.
        assert degrade.p99_s < strict.p99_s
        easy_served = degrade.n_served - degrade.n_shed
        assert easy_served == 200

    def test_admission_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_outstanding=-1)
        with pytest.raises(ValueError):
            AdmissionController(max_outstanding=1, policy="drop-everything")


class TestFailures:
    def test_crash_retries_requests_on_survivors(self):
        images = make_images(300)
        arrivals = poisson_arrivals(600.0, 300, rng=6)
        report = Cluster(
            [SumBackend(), SumBackend()],
            policy="least-outstanding",
            # Never recovers in-trace.
            faults=FaultPlan(crash_window(1, at_s=0.05, duration_s=10.0)),
        ).serve(images, arrivals, labels=labels_for(images))
        assert report.n_crashes == 1
        assert report.n_retried > 0
        assert report.n_served == 300  # survivor absorbed everything
        assert report.accuracy == 1.0  # retried requests still predicted for real

    def test_crash_of_sole_replica_strands_until_recover(self):
        images = make_images(60)
        arrivals = constant_arrivals(600.0, 60)
        report = Cluster(
            [SumBackend()],
            faults=FaultPlan(crash_window(0, at_s=0.02, duration_s=0.05)),
        ).serve(images, arrivals, labels=labels_for(images))
        assert report.n_crashes == 1
        assert report.n_served == 60  # stranded requests drained after recovery
        # Everything arriving during the outage completes only after the
        # replica returns: their sojourn covers the outage window.
        assert report.max_s > 0.05

    def test_unrecovered_outage_leaves_requests_unserved(self):
        images = make_images(40)
        report = Cluster(
            [SumBackend()],
            faults=FaultPlan((Fault(0.02, 0, CRASH),)),
        ).serve(images, constant_arrivals(400.0, 40))
        assert report.n_unserved > 0
        assert report.availability < 1.0
        assert report.slo_attainment < 1.0

    def test_crash_rolls_back_unexecuted_busy_time(self):
        # A long batch is cancelled mid-service and re-run after recovery:
        # only executed work may count as busy, so utilization stays <= 1.
        images = make_images(8)
        report = Cluster(
            [SumBackend(per_item_s=0.1)],
            faults=FaultPlan(crash_window(0, at_s=0.05, duration_s=0.1)),
            max_batch_size=8,
            max_wait_s=0.001,
        ).serve(images, np.zeros(8))
        assert report.n_served == 8
        assert 0.0 < report.utilization <= 1.0

    def test_stale_warmup_event_cannot_cut_second_warmup_short(self):
        # crash/recover twice in quick succession: the first recovery's
        # warm-up-complete event must not promote the re-provisioned
        # replica early.  With recover_warmup_s=0.1, the second recovery
        # at t=0.06 makes the replica servable only at t=0.16.
        images = make_images(8)
        arrivals = np.full(8, 0.1)  # arrive mid-second-warm-up → stranded
        plan = FaultPlan(
            (
                Fault(0.01, 0, CRASH),
                Fault(0.02, 0, RECOVER),
                Fault(0.05, 0, CRASH),
                Fault(0.06, 0, RECOVER),
            )
        )
        report = Cluster([SumBackend()], faults=plan, recover_warmup_s=0.1).serve(
            images, arrivals
        )
        assert report.n_served == 8
        # Requests arrived at t=0.1 and were servable only at t=0.16:
        # every sojourn spans at least the remaining warm-up.  A stale
        # first-recovery event would have served them at t=0.12.
        assert report.p50_s >= 0.06

    def test_lost_batches_never_fill_predictions_twice(self):
        # Crash cancels in-flight work; re-dispatch must produce exactly
        # one final prediction per request.
        images = make_images(100)
        labels = labels_for(images)
        report = Cluster(
            [SumBackend(per_item_s=0.002), SumBackend(per_item_s=0.002)],
            policy="round-robin",
            faults=FaultPlan(crash_window(0, at_s=0.03, duration_s=0.1)),
        ).serve(images, poisson_arrivals(500.0, 100, rng=7), labels=labels)
        assert report.n_served == 100
        assert report.accuracy == 1.0


class TestClusterCache:
    def test_repeats_hit_after_completion_and_copy_predictions(self):
        base = make_images(4)
        images = np.concatenate([base, base, base])
        labels = labels_for(images)
        arrivals = np.sort(np.concatenate([np.full(4, t) for t in (0.0, 1.0, 2.0)]))
        report = Cluster(
            [SumBackend()], cache_capacity=16, max_batch_size=4, max_wait_s=0.001
        ).serve(images, arrivals, labels=labels)
        assert report.n_cached == 8
        assert report.cache_hit_rate == pytest.approx(8 / 12)
        assert report.accuracy == 1.0

    def test_no_hit_while_source_in_flight(self):
        base = make_images(1)
        images = np.concatenate([base, base])
        report = Cluster(
            [SumBackend()], cache_capacity=16, max_batch_size=1, max_wait_s=0.0
        ).serve(images, np.array([0.0, 1e-5]))
        assert report.n_cached == 0

    def test_crash_cancelled_result_is_not_cached(self):
        # The only copy of the image is dispatched, then its replica
        # crashes before completion; a repeat arriving before the retry
        # completes must MISS (the cancelled completion may not populate
        # the cache).
        base = make_images(1, seed=8)
        images = np.concatenate([base, base])
        # First copy dispatches immediately (batch=1); crash at t=0.001
        # cancels it mid-service (service = 0.002 + 0.01). Retry runs on
        # the recovered replica much later.
        report = Cluster(
            [SumBackend(per_item_s=0.01, overhead_s=0.002)],
            cache_capacity=16,
            max_batch_size=1,
            max_wait_s=0.0,
            faults=FaultPlan(crash_window(0, at_s=0.001, duration_s=0.05)),
        ).serve(images, np.array([0.0, 0.01]))
        assert report.n_cached == 0
        assert report.n_retried >= 1
        assert report.n_served == 2


class TestLogColumns:
    """The engine writes each column as ``RequestLog`` documents it."""

    def test_shed_rows_keep_the_never_served_values(self):
        images = make_images(50)
        report, log = Cluster(
            [SumBackend(per_item_s=0.01)],
            admission=AdmissionController(max_outstanding=1),
        ).serve_log(images, np.zeros(50), labels=labels_for(images))
        shed = log.route == ROUTE_SHED
        assert int(shed.sum()) == report.n_shed > 0
        assert (log.requested_route[shed] == ROUTE_SHED).all()
        assert np.isnan(log.completion_s[shed]).all()
        assert np.isnan(log.dispatch_s[shed]).all()
        for column in ("prediction", "source_id", "replica_id"):
            assert (getattr(log, column)[shed] == -1).all(), column
        assert (log.batch_size[shed] == 0).all()

    def test_cache_hits_name_a_served_source(self):
        base = make_images(6)
        images = np.concatenate([base, base, base])
        arrivals = np.sort(np.concatenate([np.full(6, t) for t in (0.0, 1.0, 2.0)]))
        report, log = Cluster(
            [SumBackend(), SumBackend()], cache_capacity=16, max_batch_size=4
        ).serve_log(images, arrivals, labels=labels_for(images))
        hits = np.flatnonzero(log.route == ROUTE_CACHED)
        assert hits.size == report.n_cached == 12
        src = log.source_id[hits]
        assert (src < hits).all() and (log.route[src] != ROUTE_CACHED).all()
        np.testing.assert_array_equal(log.prediction[hits], log.prediction[src])
        np.testing.assert_array_equal(log.dispatch_s[hits], log.arrival_s[hits])
        assert (log.batch_size[hits] == 0).all()
        assert (log.source_id[log.route != ROUTE_CACHED] == -1).all()

    def test_requested_route_differs_only_on_degraded_rows(self):
        rng = np.random.default_rng(4)
        hard = (0.8 + rng.random((200, 1, 4, 4)) * 0.2).astype(np.float32)
        report, log = Cluster(
            [RoutedSumBackend()],
            admission=AdmissionController(max_outstanding=8, policy="degrade"),
        ).serve_log(hard, poisson_arrivals(2000.0, 200, rng=5))
        degraded = log.degraded
        assert int(degraded.sum()) == report.n_degraded > 0
        assert (log.requested_route == ROUTE_HARD).all()  # the gate's own verdict
        assert (log.route[degraded] == ROUTE_EASY).all()
        np.testing.assert_array_equal(log.route[~degraded], log.requested_route[~degraded])


class TestAutoscalerIntegration:
    def test_scale_up_under_pressure_and_down_when_idle(self):
        from repro.cluster import Autoscaler, AutoscalerConfig

        images = make_images(600)
        # Front-loaded pressure, then a long quiet tail.
        burst = poisson_arrivals(3000.0, 500, rng=9)
        quiet = burst[-1] + 0.05 + np.arange(100) * 0.01
        arrivals = np.concatenate([burst, quiet])
        auto = Autoscaler(
            AutoscalerConfig(
                slo_s=0.03,
                interval_s=0.02,
                window_s=0.06,
                scale_up_queue=6,
                scale_down_queue=1,
                min_replicas=1,
                max_replicas=4,
                warmup_s=0.01,
                cooldown_s=0.02,
            ),
            spawn_backend=lambda: SumBackend(),
        )
        report = Cluster(
            [SumBackend()], policy="least-outstanding", autoscaler=auto
        ).serve(images, arrivals)
        assert report.scale_ups > 0
        assert report.scale_downs > 0
        assert report.peak_replicas > 1
        assert report.n_served == 600
        # Spawned replicas cost replica-seconds only while provisioned.
        assert report.replica_seconds < report.peak_replicas * report.duration_s

    def test_warmup_delays_new_capacity(self):
        from repro.cluster import Autoscaler, AutoscalerConfig

        def run(warmup_s):
            images = make_images(400)
            arrivals = poisson_arrivals(2500.0, 400, rng=10)
            auto = Autoscaler(
                AutoscalerConfig(
                    slo_s=0.03,
                    interval_s=0.02,
                    window_s=0.06,
                    scale_up_queue=4,
                    scale_down_queue=1,
                    min_replicas=1,
                    max_replicas=4,
                    warmup_s=warmup_s,
                    cooldown_s=0.02,
                ),
                spawn_backend=lambda: SumBackend(),
            )
            return Cluster(
                [SumBackend()], policy="least-outstanding", autoscaler=auto
            ).serve(images, arrivals)

        instant, slow = run(0.0), run(0.3)
        assert instant.p99_s < slow.p99_s  # warm-up lag is visible in the tail


class TestDrainSemantics:
    def test_draining_replica_finishes_queue_then_goes_down(self):
        from repro.cluster import ReplicaState

        images = make_images(40)
        cluster = Cluster(
            [SumBackend(), SumBackend()],
            policy="round-robin",
            max_batch_size=4,
            max_wait_s=0.01,
        )

        # Drain replica 1 mid-trace via a one-shot autoscaler-style hook:
        # easiest deterministic way is to drain before serving starts.
        cluster.drain_replica(cluster.replicas[1], 0.0)
        report = cluster.serve(images, constant_arrivals(400.0, 40))
        assert report.n_served == 40
        assert cluster.replicas[1].state == ReplicaState.DOWN
        # The drained replica received nothing: all batches ran on replica 0.
        assert cluster.replicas[1].n_requests == 0

    def test_cache_hits_race_a_replica_drain(self):
        """Repeats of an image served by a now-draining replica must still
        hit the cluster cache (results outlive the replica that produced
        them), while fresh misses route around the drain."""
        from repro.cluster import Autoscaler, AutoscalerConfig, ReplicaState

        hot = make_images(1, seed=11)
        cold = make_images(8, seed=12)
        # Wave 1: the hot image is served (cached at completion).  A long
        # quiet gap lets the autoscaler drain one replica.  Wave 2: hot
        # repeats (hits) interleaved with cold misses.
        images = np.concatenate([hot, cold[:4], np.concatenate([hot] * 4), cold[4:]])
        arrivals = np.concatenate(
            [np.array([0.0]), np.full(4, 0.001), np.full(4, 2.0), np.full(4, 2.001)]
        )
        auto = Autoscaler(
            AutoscalerConfig(
                slo_s=0.05,
                interval_s=0.05,
                window_s=0.2,
                scale_up_queue=50,
                scale_down_queue=5,
                min_replicas=1,
                max_replicas=2,
                warmup_s=0.01,
                cooldown_s=0.05,
            ),
            spawn_backend=lambda: SumBackend(),
        )
        cluster = Cluster(
            [SumBackend(), SumBackend()],
            policy="least-outstanding",
            autoscaler=auto,
            cache_capacity=16,
            max_batch_size=4,
            max_wait_s=0.001,
        )
        report = cluster.serve(images, arrivals, labels=labels_for(images))
        assert report.scale_downs >= 1  # the quiet gap drained a replica
        assert ReplicaState.DOWN in {r.state for r in cluster.replicas}
        assert report.n_cached == 4  # hot repeats hit despite the drain
        assert report.n_served == len(images)
        assert report.accuracy == 1.0  # cached answers copied real predictions


class TestLoadSignals:
    def test_hedged_request_counts_both_live_copies(self):
        """Load signals count request copies, not requests: while a hedge
        twin races its partitioned primary, one request reads as two.
        Reads ahead of the clock drop the copies whose batches will have
        completed by then (the twin's at 0.022 s, the primary's at the
        1.0 s heal)."""
        seen = []

        class Probe(Cluster):
            def _handle_hedge(self, payload, now):
                super()._handle_hedge(payload, now)
                seen.append(
                    (now, self.outstanding_total(now), [r.outstanding(now) for r in self.replicas])
                )
                seen.append([self.outstanding_total(t) for t in (0.5, 1.0)])

        cluster = Probe(
            [SumBackend(), SumBackend()],
            policy="least-outstanding",
            faults=FaultPlan(faults=partition_window(0, 0.0, 1.0)),
            resilience=ResilienceConfig(timeout_s=0.1, hedge_delay_s=0.02),
            max_batch_size=1,
            max_wait_s=0.0,
        )
        report = cluster.serve(make_images(1), np.zeros(1))
        assert seen == [(0.02, 2, [1, 1]), [1, 0]]
        assert report.n_hedged == 1 and report.n_served == 1

    def test_request_classes_without_a_class_set_rejected(self):
        """Class codes need ``Cluster(classes=...)``, the mirror of
        classes needing codes: the replicas' batchers are chosen at
        construction, so codes alone cannot switch to class mode."""
        cluster = Cluster([SumBackend(), SumBackend()], policy="least-outstanding")
        codes = np.zeros(8, dtype=np.int8)
        with pytest.raises(ValueError, match="requires Cluster\\(classes=...\\)"):
            cluster.serve_log(make_images(8), np.zeros(8), request_classes=codes)
        assert cluster.classes is None
        assert all(isinstance(r.batcher, MicroBatcher) for r in cluster.replicas)


class _SpySumBackend(SumBackend):
    """SumBackend recording the row count of every ``predict`` call."""

    def __init__(self, per_item_s=0.001):
        super().__init__(per_item_s=per_item_s)
        self.calls = []

    def predict(self, images, decision=None):
        self.calls.append(images.shape[0])
        return super().predict(images, decision)


def _warm_spies(images, *per_item_s):
    """Spy backends warmed at batch size 16, the warmup's calls dropped."""
    backends = [_SpySumBackend(p) for p in per_item_s]
    for backend in backends:
        backend.warmup(16, sample_shape=images.shape[1:])
        backend.calls.clear()
    return backends


def _plan_state(cbnet):
    """(capacity, arena allocations) of every cached fastpath plan."""
    return {
        (owner, key): (plan.capacity, plan.arena.allocation_count)
        for owner in ("autoencoder", "classifier")
        for key, plan in getattr(cbnet, owner).__dict__.get("_fastpath_plans", {}).items()
    }


class TestPredictChunks:
    """Inference after the timeline: one ``predict`` per chunk of each
    backend's finished batches, every chunk but a backend's last filled
    to exactly ``max_batch_size`` rows."""

    def test_small_batches_share_bounded_predict_calls(self):
        """Each backend makes ``ceil(rows / 16)`` calls, all of 16 rows
        but its last, so batches straddle calls."""
        images = make_images(600)
        backends = _warm_spies(images, 0.001, 0.001)
        cluster = Cluster(backends, policy="round-robin", max_batch_size=16)
        report = cluster.serve(
            images, poisson_arrivals(150.0, 600, rng=3), labels=labels_for(images)
        )
        assert report.mean_batch_size < 2
        for backend, replica in zip(backends, cluster.replicas):
            rows = replica.n_requests  # each request predicted once
            full, rest = divmod(rows, 16)
            assert backend.calls == [16] * full + ([rest] if rest else []), rows
        assert sum(replica.n_requests for replica in cluster.replicas) == 600
        assert report.n_served == 600 and report.accuracy == 1.0

    def test_cancelled_copies_are_never_predicted(self):
        """A hedge's losing copy still finishes its batch on the slow
        replica; only the winning copy's row reaches ``predict``."""
        images = make_images(40)
        backends = _warm_spies(images, 0.02, 0.001)
        report = Cluster(
            backends,
            policy="round-robin",
            resilience=ResilienceConfig(timeout_s=0.2, hedge_delay_s=0.01),
        ).serve(images, constant_arrivals(20.0, 40), labels=labels_for(images))
        assert report.n_hedged > 0
        assert report.n_served == 40 and report.accuracy == 1.0
        assert sum(sum(backend.calls) for backend in backends) == 40

    def test_live_chunks_reuse_the_warmed_plans(self, trained_pipeline):
        """Chunks fit the plans ``serve`` warms at ``max_batch_size``:
        no plan recompiles at a larger capacity and no arena grows."""
        cbnet = copy.deepcopy(trained_pipeline.cbnet)
        cbnet.autoencoder.clear_inference_plans()
        cbnet.classifier.clear_inference_plans()
        backends = [CBNetBackend(cbnet, gci_cpu()) for _ in range(2)]
        pool = trained_pipeline.datasets["test"].images
        images = pool[np.random.default_rng(0).integers(0, len(pool), 500)]
        for backend in backends:
            backend.warmup(16, sample_shape=images.shape[1:])
        warmed = _plan_state(cbnet)
        assert warmed and all(cap == 16 for cap, _ in warmed.values()), warmed
        unit = backends[0].batch_service_s(16) / 16
        cluster = Cluster(backends, policy="round-robin", max_batch_size=16)
        report = cluster.serve(images, poisson_arrivals(0.3 * 2 / unit, 500, rng=4))
        assert report.n_served == 500
        assert report.mean_batch_size < 8  # ragged batches: chunks pack several
        assert _plan_state(cbnet) == warmed
