"""Unit tests for the per-replica circuit breaker state machine."""

import numpy as np
import pytest

from repro.faults import BreakerConfig, CircuitBreaker
from repro.faults.breaker import CLOSED, HALF_OPEN, OPEN


def make_breaker(**overrides) -> CircuitBreaker:
    defaults = dict(
        window_s=1.0,
        min_samples=4,
        error_threshold=0.5,
        cooldown_s=0.5,
        half_open_probes=2,
    )
    defaults.update(overrides)
    return CircuitBreaker(BreakerConfig(**defaults))


def trip(breaker: CircuitBreaker, now: float = 0.0) -> None:
    for k in range(breaker.config.min_samples):
        breaker.record(now + 1e-3 * k, ok=False)
    assert breaker.state == OPEN


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        for kwargs in (
            {"window_s": 0.0},
            {"min_samples": 0},
            {"error_threshold": 0.0},
            {"error_threshold": 1.5},
            {"latency_threshold_s": 0.0},
            {"cooldown_s": 0.0},
            {"half_open_probes": 0},
        ):
            with pytest.raises(ValueError):
                BreakerConfig(**kwargs)


class TestTripping:
    def test_stays_closed_below_min_samples(self):
        b = make_breaker(min_samples=8)
        for k in range(7):
            b.record(1e-3 * k, ok=False)
        assert b.state == CLOSED

    def test_trips_on_error_fraction(self):
        b = make_breaker()
        trip(b)
        assert b.n_trips == 1
        assert not b.available(0.1)

    def test_errors_outside_window_are_forgotten(self):
        b = make_breaker(window_s=0.1, min_samples=4)
        for k in range(3):
            b.record(1e-3 * k, ok=False)
        # Long quiet gap: old errors evict, fresh successes dominate.
        for k in range(4):
            b.record(1.0 + 1e-3 * k, ok=True)
        assert b.state == CLOSED

    def test_latency_threshold_trips_on_slow_successes(self):
        b = make_breaker(latency_threshold_s=0.01)
        for k in range(4):
            b.record(1e-3 * k, ok=True, latency_s=0.05)
        assert b.state == OPEN


class TestHalfOpenCycle:
    def test_cooldown_gates_reentry(self):
        b = make_breaker(cooldown_s=0.5)
        trip(b)
        opened = b.opened_at_s
        assert not b.available(opened + 0.49)
        assert b.available(opened + 0.5)
        assert b.state == HALF_OPEN

    def test_probe_successes_close(self):
        b = make_breaker(half_open_probes=2)
        trip(b)
        now = b.opened_at_s + 1.0
        assert b.allow(now)
        assert b.allow(now)
        assert not b.allow(now)  # both probe slots consumed
        b.record(now + 0.01, ok=True)
        b.record(now + 0.02, ok=True)
        assert b.state == CLOSED
        assert b.available(now + 0.03)

    def test_probe_failure_reopens(self):
        b = make_breaker()
        trip(b)
        now = b.opened_at_s + 1.0
        assert b.allow(now)
        b.record(now + 0.01, ok=False)
        assert b.state == OPEN
        assert b.n_trips == 2
        assert not b.available(now + 0.02)

    def test_availability_check_does_not_consume_probe(self):
        b = make_breaker(half_open_probes=1)
        trip(b)
        now = b.opened_at_s + 1.0
        assert b.available(now)
        assert b.available(now)  # repeated checks are free
        b.note_probe()
        assert not b.available(now)

    def test_void_probe_releases_a_cancelled_slot(self):
        """A probe whose attempt dies without an outcome must not wedge
        the breaker half-open forever."""
        b = make_breaker(half_open_probes=1)
        trip(b)
        now = b.opened_at_s + 1.0
        assert b.allow(now)
        assert not b.available(now)
        b.void_probe()  # the probe's copy was dropped at a flush
        assert b.available(now)
        b.note_probe()
        b.record(now + 0.01, ok=True)
        assert b.state == CLOSED

    def test_void_probe_clamps_at_zero(self):
        b = make_breaker()
        trip(b)
        now = b.opened_at_s + 1.0
        assert b.available(now)
        b.void_probe()
        b.void_probe()  # over-release: harmless
        assert b._probes_out == 0


class _RecountBreaker(CircuitBreaker):
    """Reference: re-counts the window's failures on every trip check."""

    def _should_trip(self) -> bool:
        if len(self._window) < self.config.min_samples:
            return False
        n_err = sum(1 for _, ok, _ in self._window if not ok)
        if n_err / len(self._window) > self.config.error_threshold:
            return True
        if self.config.latency_threshold_s is not None:
            lats = [lat for _, ok, lat in self._window if ok]
            if lats and sum(lats) / len(lats) > self.config.latency_threshold_s:
                return True
        return False


class TestErrorCount:
    @pytest.mark.parametrize("seed", range(20))
    def test_running_count_matches_recount(self, seed):
        """Seeded record/evict/probe sequences: the running error count
        equals a recount after every step, and the breaker trips, opens
        and closes at the same instants as one that recounts."""
        rng = np.random.default_rng(seed)
        window_s = float(rng.uniform(0.05, 0.5))
        config = BreakerConfig(
            window_s=window_s,
            min_samples=int(rng.integers(1, 9)),
            error_threshold=float(rng.uniform(0.2, 0.9)),
            latency_threshold_s=None if rng.random() < 0.5 else 0.03,
            cooldown_s=float(rng.uniform(0.05, 0.3)),
            half_open_probes=int(rng.integers(1, 4)),
        )
        b, ref = CircuitBreaker(config), _RecountBreaker(config)
        now, closes = 0.0, 0
        for step in range(600):
            # Gaps far past the window evict everything; most stay inside.
            now += window_s * (3.0 if rng.random() < 0.03 else rng.exponential(0.1))
            p_err = 0.7 if (step // 100) % 2 else 0.15
            if rng.random() < 0.2:
                assert b.allow(now) == ref.allow(now)
            else:
                ok = bool(rng.random() > p_err)
                latency = float(rng.exponential(0.02))
                was_half_open = b.state == HALF_OPEN
                b.record(now, ok, latency)
                ref.record(now, ok, latency)
                closes += was_half_open and b.state == CLOSED
            assert b._n_err == sum(1 for _, ok, _ in b._window if not ok), step
            assert (b.state, b.n_trips, b.opened_at_s) == (
                ref.state, ref.n_trips, ref.opened_at_s
            ), step
        assert b.n_trips > 0 and closes > 0, "trip and half-open close both exercised"
