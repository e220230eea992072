"""Unit tests for the bundled ResilienceConfig and hedge-delay helper."""

import math
from functools import partial

import pytest

from repro.faults import (
    BreakerConfig,
    ResilienceConfig,
    RetryPolicy,
    hedge_delay_for,
)
from repro.serving.backends import BatchTiming, InferenceBackend


class _Toy(InferenceBackend):
    name = "toy"

    def __init__(self, per_item_s):
        super().__init__(BatchTiming(overhead_s=0.001, per_item_s=per_item_s))

    def predict(self, images, decision=None):  # pragma: no cover - unused
        raise NotImplementedError


class TestValidation:
    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout_s"):
            ResilienceConfig(timeout_s=0.0)

    def test_hedge_must_be_positive(self):
        with pytest.raises(ValueError, match="hedge_delay_s"):
            ResilienceConfig(hedge_delay_s=0.0)

    def test_hedge_after_timeout_rejected(self):
        with pytest.raises(ValueError, match="hedge"):
            ResilienceConfig(timeout_s=0.1, hedge_delay_s=0.1)

    @pytest.mark.parametrize(
        "make, name",
        [
            (ResilienceConfig, "timeout_s"),
            (ResilienceConfig, "hedge_delay_s"),
            (RetryPolicy, "max_retries"),
            (RetryPolicy, "base_backoff_s"),
            (RetryPolicy, "backoff_mult"),
            (RetryPolicy, "max_backoff_s"),
            (BreakerConfig, "window_s"),
            (BreakerConfig, "cooldown_s"),
            pytest.param(
                partial(hedge_delay_for, [_Toy(0.001)], 8, 0.004),
                "factor",
                id="hedge_delay_for-factor",
            ),
        ],
    )
    def test_nan_setting_fails_at_construction(self, make, name):
        """NaN fails every comparison, so a ``x <= 0`` check lets it
        through.  A NaN timer or backoff never wins the event loop's
        merge against the next arrival, and the replay crashes at its
        end instead of here."""
        with pytest.raises(ValueError, match=name):
            make(**{name: math.nan})

    def test_defaults_are_consistent(self):
        config = ResilienceConfig()
        assert config.timeout_s > 0
        assert config.hedge_delay_s is None


class TestHedgeDelayFor:
    def test_scales_with_slowest_backend(self):
        fast, slow = _Toy(0.001), _Toy(0.004)
        d_fast = hedge_delay_for([fast], 8, 0.004)
        d_both = hedge_delay_for([fast, slow], 8, 0.004)
        assert d_both > d_fast

    def test_factor_and_wait_enter_linearly(self):
        backend = _Toy(0.001)
        base = hedge_delay_for([backend], 8, 0.004, factor=1.0)
        assert hedge_delay_for([backend], 8, 0.004, factor=2.0) == pytest.approx(
            2.0 * base
        )

    def test_rejects_empty_fleet_and_bad_factor(self):
        with pytest.raises(ValueError, match="backends"):
            hedge_delay_for([], 8, 0.004)
        with pytest.raises(ValueError, match="factor"):
            hedge_delay_for([_Toy(0.001)], 8, 0.004, factor=0.0)
