"""AIMD controller unit behavior: slow start, AI, MD, timeout collapse."""

import numpy as np
import pytest

from repro.netsim import AIMDConfig, AIMDController


def test_config_validation():
    with pytest.raises(ValueError, match="init_cwnd"):
        AIMDConfig(init_cwnd=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_nan_and_infinity(value):
    """NaN and +inf fail at construction: ``init_cwnd=nan`` once failed
    mid-run."""
    with pytest.raises(ValueError, match="init_cwnd"):
        AIMDConfig(init_cwnd=value)


def test_slow_start_doubles_per_window():
    c = AIMDController(AIMDConfig(init_cwnd=1))
    assert c.in_slow_start
    for want in (2, 4, 8, 16):
        c.on_ack(c.window)  # one full window acked
        assert c.window == want


def test_congestion_avoidance_is_additive():
    c = AIMDController(AIMDConfig(init_cwnd=32))  # at the slow-start threshold
    assert not c.in_slow_start
    c.on_ack(32)  # a full window in CA adds one segment
    assert c.window == 33


def test_multiplicative_decrease_halves():
    c = AIMDController(AIMDConfig(init_cwnd=32))
    c.on_loss()
    assert c.window == 16
    assert c.n_md == 1
    assert not c.in_slow_start  # ssthresh dropped with cwnd


def test_timeout_collapses_to_min_and_backs_off_rto():
    c = AIMDController(AIMDConfig(init_cwnd=32))
    rto0 = c.rto_s(0.1)
    c.on_timeout()
    assert c.window == 1
    assert c.in_slow_start  # ssthresh halved, cwnd collapsed below it
    assert c.n_timeouts == 1 and c.n_slow_starts == 2
    rto1 = c.rto_s(0.1)
    assert rto1 > rto0  # exponential backoff while timeouts repeat
    c.on_ack(1)
    assert c.rto_s(0.1) == rto0  # an ack resets the backoff


def test_window_respects_bounds():
    """Acked windows grow to the 256-segment cap and stay there; losses
    shrink them to the one-segment floor and no further."""
    c = AIMDController(AIMDConfig(init_cwnd=4))
    for _ in range(300):
        c.on_ack(c.window)
    assert c.window == 256
    for _ in range(12):
        c.on_loss()
    assert c.window == 1


@pytest.mark.parametrize("seed", range(20))
def test_window_invariants_hold_under_random_feedback(seed):
    """Seeded ack/loss/timeout sequences: the window stays within one
    and 256 segments, ssthresh never drops below one segment, every
    timeout starts a slow start, and the RTO doubles per consecutive
    timeout from two RTTs."""
    rng = np.random.default_rng(seed)
    c = AIMDController(AIMDConfig(init_cwnd=int(rng.integers(1, 64))))
    for _ in range(400):
        event = rng.random()
        if event < 0.8:
            c.on_ack(int(rng.integers(0, c.window + 1)))
        elif event < 0.95:
            c.on_loss()
        else:
            c.on_timeout()
        assert 1 <= c.window <= 256
        assert c.ssthresh >= 1.0
        assert c.n_slow_starts == 1 + c.n_timeouts
        assert c.rto_s(0.05) == 0.05 * 2.0 ** (1 + c.consecutive_timeouts)

