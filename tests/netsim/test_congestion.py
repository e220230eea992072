"""AIMD controller unit behavior: slow start, AI, MD, timeout collapse."""

import pytest

from repro.netsim import AIMDConfig, AIMDController


def test_config_validation():
    with pytest.raises(ValueError, match="init_cwnd"):
        AIMDConfig(init_cwnd=0)
    with pytest.raises(ValueError, match="md_factor"):
        AIMDConfig(md_factor=1.0)
    with pytest.raises(ValueError, match="max_cwnd"):
        AIMDConfig(min_cwnd=8, max_cwnd=4)


@pytest.mark.parametrize(
    "name", ["init_cwnd", "init_ssthresh", "ai_segments", "min_cwnd", "max_cwnd", "rto_mult"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_nan_and_infinity(name, value):
    """NaN and +inf fail at construction: ``init_cwnd=nan`` once failed
    mid-run, and ``ai_segments=nan`` replayed silently."""
    with pytest.raises(ValueError, match=name):
        AIMDConfig(**{name: value})


def test_slow_start_doubles_per_window():
    c = AIMDController(AIMDConfig(init_cwnd=1, init_ssthresh=32))
    assert c.in_slow_start
    for want in (2, 4, 8, 16):
        c.on_ack(c.window)  # one full window acked
        assert c.window == want


def test_congestion_avoidance_is_additive():
    c = AIMDController(AIMDConfig(init_cwnd=16, init_ssthresh=16))
    assert not c.in_slow_start
    c.on_ack(16)  # a full window in CA adds ~ai_segments
    assert c.window == 17


def test_multiplicative_decrease_halves():
    c = AIMDController(AIMDConfig(init_cwnd=32, init_ssthresh=32))
    c.on_loss()
    assert c.window == 16
    assert c.n_md == 1
    assert not c.in_slow_start  # ssthresh dropped with cwnd


def test_timeout_collapses_to_min_and_backs_off_rto():
    c = AIMDController(AIMDConfig(init_cwnd=32, init_ssthresh=32, min_cwnd=1))
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
    c = AIMDController(AIMDConfig(init_cwnd=4, init_ssthresh=64, max_cwnd=8))
    for _ in range(64):
        c.on_ack(c.window)
    assert c.window == 8
    for _ in range(10):
        c.on_loss()
    assert c.window >= 1
