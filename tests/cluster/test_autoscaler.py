"""Autoscaler unit behaviour (config validation, signals, warm-up probe)."""

import pytest

from repro.cluster import Autoscaler, AutoscalerConfig, Cluster
from repro.serving.arrivals import poisson_arrivals

from conftest import SumBackend, make_images


def config(**overrides):
    base = dict(
        slo_s=0.03,
        interval_s=0.02,
        window_s=0.06,
        scale_up_queue=6,
        scale_down_queue=1,
        min_replicas=1,
        max_replicas=4,
        warmup_s=0.01,
        cooldown_s=0.02,
    )
    base.update(overrides)
    return AutoscalerConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            config(slo_s=0.0)
        with pytest.raises(ValueError):
            config(min_replicas=5, max_replicas=4)
        with pytest.raises(ValueError):
            config(min_replicas=0)
        with pytest.raises(ValueError):
            config(scale_down_queue=6, scale_up_queue=6)
        with pytest.raises(ValueError):
            config(warmup_s=-0.1)
        with pytest.raises(ValueError):
            config(interval_s=0.0)

    def test_valid_config_freezes(self):
        cfg = config()
        with pytest.raises(AttributeError):
            cfg.slo_s = 1.0


class TestTickBehaviour:
    def test_respects_max_replicas(self):
        images = make_images(500)
        auto = Autoscaler(config(max_replicas=2), spawn_backend=lambda: SumBackend())
        report = Cluster(
            [SumBackend()], policy="least-outstanding", autoscaler=auto
        ).serve(images, poisson_arrivals(5000.0, 500, rng=0))
        assert report.peak_replicas <= 2

    def test_never_drains_below_min(self):
        images = make_images(200)
        auto = Autoscaler(config(min_replicas=2), spawn_backend=lambda: SumBackend())
        cluster = Cluster(
            [SumBackend(), SumBackend()], policy="least-outstanding", autoscaler=auto
        )
        report = cluster.serve(images, poisson_arrivals(100.0, 200, rng=1))
        assert report.n_replicas_end >= 2
        assert report.scale_downs == 0

    def test_cooldown_limits_action_rate(self):
        images = make_images(400)
        arrivals = poisson_arrivals(5000.0, 400, rng=2)
        patient = Autoscaler(
            config(cooldown_s=10.0), spawn_backend=lambda: SumBackend()
        )
        eager = Autoscaler(config(cooldown_s=0.0), spawn_backend=lambda: SumBackend())
        slow = Cluster(
            [SumBackend()], policy="least-outstanding", autoscaler=patient
        ).serve(images, arrivals)
        fast = Cluster(
            [SumBackend()], policy="least-outstanding", autoscaler=eager
        ).serve(images, arrivals)
        assert slow.scale_ups <= 1  # one action, then the cooldown gags it
        assert fast.scale_ups > slow.scale_ups


class TestLiveness:
    def test_unrecovered_outage_terminates_with_autoscaler_attached(self):
        # All replicas crash with no recovery scheduled: the tick loop
        # must drain (not reschedule forever) and report the stranded
        # requests as unserved.
        from repro.faults import CRASH, Fault, FaultPlan

        images = make_images(20)
        auto = Autoscaler(config(), spawn_backend=lambda: SumBackend())
        report = Cluster(
            [SumBackend()],
            autoscaler=auto,
            faults=FaultPlan((Fault(0.01, 0, CRASH),)),
        ).serve(images, poisson_arrivals(400.0, 20, rng=3))
        assert report.n_unserved > 0
        assert report.availability < 1.0

    def test_lost_requests_terminate_with_autoscaler_attached(self):
        # An unhealed partition fails every batch, so every request is
        # lost while the replica stays UP and idle: nothing can change
        # any more, and the tick loop must stop instead of waiting for
        # those requests forever.
        from repro.faults import PARTITION, Fault, FaultPlan

        images = make_images(20)
        auto = Autoscaler(config(), spawn_backend=lambda: SumBackend())
        report = Cluster(
            [SumBackend()],
            autoscaler=auto,
            faults=FaultPlan(faults=(Fault(0.0, 0, PARTITION),)),
        ).serve(images, poisson_arrivals(400.0, 20, rng=3))
        assert report.n_unserved == 20
        assert report.n_batch_failures > 0

    def test_scale_down_never_drains_last_up_replica(self):
        # Aggressive drain settings on a quiet trace: one replica may
        # drain, but a second drain while the first is still finishing
        # its queue must not take the only remaining UP replica.
        images = make_images(300)
        auto = Autoscaler(
            config(
                cooldown_s=0.0,
                interval_s=0.005,
                scale_down_queue=50,  # always "relaxed"
                scale_up_queue=51,
                min_replicas=1,
            ),
            spawn_backend=lambda: SumBackend(),
        )
        report = Cluster(
            [SumBackend(per_item_s=0.01), SumBackend(per_item_s=0.01)],
            policy="round-robin",
            autoscaler=auto,
        ).serve(images, poisson_arrivals(50.0, 300, rng=4))
        assert report.n_served == 300
        assert report.n_unserved == 0
        assert report.n_replicas_end >= 1

