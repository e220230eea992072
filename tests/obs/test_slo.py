"""SLO burn-rate monitor: the arithmetic, the alerts, the class plumbing."""

import numpy as np
import pytest

from repro.obs.slo import SLOAlert, SLOMonitor
from repro.obs.spans import EV_ALERT, Tracer
from repro.serving.classes import default_classes


def monitor(**kwargs) -> SLOMonitor:
    base = dict(deadlines={0: 0.05}, objective=0.99, threshold=2.0, window_s=1.0)
    base.update(kwargs)
    return SLOMonitor(**base)


class TestBurnRates:
    def test_burn_is_miss_fraction_over_budget(self):
        # 3 of 10 requests in window [0, 1) miss a 50 ms deadline with a
        # 1% budget: burn = 0.3 / 0.01 = 30x.
        m = monitor()
        completion = np.linspace(0.1, 0.9, 10)
        sojourn = np.full(10, 0.01)
        sojourn[:3] = 0.2
        m.observe_many(completion, sojourn)
        t, burn = m.burn_rates(0)
        assert np.array_equal(t, [0.0])
        assert burn[0] == pytest.approx(30.0)
        assert m.worst_burn() == pytest.approx(30.0)
        assert m.attainment() == pytest.approx(0.7)

    def test_healthy_windows_do_not_burn(self):
        m = monitor()
        m.observe_many(np.array([0.5, 1.5]), np.array([0.01, 0.01]))
        _, burn = m.burn_rates(0)
        assert np.array_equal(burn, [0.0, 0.0])
        assert m.scan() == []

    def test_nan_completions_are_ignored(self):
        m = monitor()
        m.observe_many(np.array([0.5, np.nan]), np.array([0.2, np.nan]))
        t, _ = m.burn_rates(0)
        assert len(t) == 1
        assert m._tallies[0][0] == [1, 1]


class TestAlerts:
    def test_scan_fires_above_threshold_with_full_evidence(self):
        m = monitor()
        m.observe_many(np.array([0.5, 0.6]), np.array([0.2, 0.01]))
        fired = m.scan()
        assert len(fired) == 1
        alert = fired[0]
        assert isinstance(alert, SLOAlert)
        assert alert.time_s == 0.0
        assert alert.class_name == "default"
        assert alert.burn_rate == pytest.approx(50.0)
        assert alert.n_requests == 2 and alert.n_missed == 1
        assert m.alerts == fired

    def test_scan_records_alert_events_on_the_tracer(self):
        m = monitor()
        m.observe_many(np.array([0.5]), np.array([0.2]))
        tracer = Tracer()
        m.scan(tracer)
        spans = tracer.finalize(np.array([]), np.array([]))
        assert spans.count(EV_ALERT) == 1

    def test_sub_threshold_burn_stays_silent(self):
        # 1 miss in 100 requests burns at exactly 1x < threshold 2x.
        m = monitor()
        sojourn = np.full(100, 0.01)
        sojourn[0] = 0.2
        m.observe_many(np.linspace(0.0, 0.99, 100), sojourn)
        assert m.scan() == []


class TestClasses:
    def test_from_classes_uses_per_class_deadlines(self):
        classes = default_classes(slo_s=0.05)
        m = SLOMonitor.from_classes(classes, window_s=1.0)
        assert m.deadlines[0] == pytest.approx(0.05)  # interactive
        assert m.deadlines[2] == pytest.approx(1.0)  # batch: 20x
        assert m.names[1] == "standard"

    def test_per_class_scoring_is_independent(self):
        m = SLOMonitor({0: 0.05, 1: 1.0}, names={0: "fast", 1: "slow"}, window_s=1.0)
        completion = np.array([0.5, 0.5])
        sojourn = np.array([0.2, 0.2])  # misses class 0, fine for class 1
        m.observe_many(completion, sojourn, req_class=np.array([0, 1]))
        assert m.worst_burn(0) == pytest.approx(100.0)
        assert m.worst_burn(1) == 0.0
        fired = m.scan()
        assert [a.class_name for a in fired] == ["fast"]


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="objective"):
            monitor(objective=1.0)
        with pytest.raises(ValueError, match="threshold"):
            monitor(threshold=0.0)
        with pytest.raises(ValueError, match="window_s"):
            monitor(window_s=-1.0)
        with pytest.raises(ValueError, match="at least one"):
            monitor(deadlines={})

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"threshold": float("nan")}, "threshold"),
            ({"window_s": float("nan")}, "window_s"),
            ({"window_s": float("inf")}, "window_s"),
        ],
    )
    def test_nan_and_infinite_settings_rejected(self, kwargs, match):
        """A NaN threshold once silenced every alert: no burn rate
        compares ``>=`` to NaN."""
        with pytest.raises(ValueError, match=match):
            monitor(**kwargs)

    def test_infinite_threshold_is_legal_and_never_fires(self):
        m = monitor(threshold=float("inf"))
        m.observe_many(np.array([0.5]), np.array([1.0]))  # every request missed
        assert m.worst_burn() == pytest.approx(100.0)
        assert m.scan() == []
