"""Session FSM: handshake, conf-nak negotiation, lossy control rounds,
teardown, and carrier drops."""

import pytest

from repro.hw.network import lte
from repro.netsim import (
    CLOSED,
    ESTABLISHED,
    LinkFaultPlan,
    LinkSession,
    SessionConfig,
    SharedLink,
    degradation_window,
)


def _link(**kwargs):
    return SharedLink.from_network_link(lte(), **kwargs)


class TestHandshake:
    def test_open_establishes_in_one_clean_round(self):
        link = _link()
        s = LinkSession(link, rng=0)
        done = s.open(0.0)
        assert s.state == ESTABLISHED
        assert done == pytest.approx(link.rtt_s)  # conf-req/conf-ack
        assert s.n_established == 1 and s.n_naks == 0
        assert s.config == SessionConfig(mtu_bytes=1500, codec="float32")

    def test_open_is_idempotent(self):
        s = LinkSession(_link(), rng=0)
        s.open(0.0)
        assert s.open(5.0) == 5.0
        assert s.n_established == 1

    def test_conf_nak_costs_an_extra_round(self):
        link = _link(max_mtu_bytes=1200)  # peer naks the wanted 1500
        s = LinkSession(link, wanted=SessionConfig(mtu_bytes=1500), rng=0)
        done = s.open(0.0)
        assert done == pytest.approx(2 * link.rtt_s)
        assert s.n_naks == 1
        assert s.config.mtu_bytes == 1200

    def test_unsupported_codec_nakked_to_peer_default(self):
        link = _link(codecs=("float16", "uint8"))
        s = LinkSession(link, wanted=SessionConfig(codec="float32"), rng=0)
        s.open(0.0)
        assert s.config.codec == "float16"
        assert s.n_naks == 1

    def test_lossy_control_rounds_retransmit_with_backoff(self):
        link = _link()
        link.loss_rate = 0.9
        slow = LinkSession(link, rng=1)
        done = slow.open(0.0)
        assert slow.n_handshake_retx >= 1
        # Each retransmit pays a backed-off control RTO on top of the RTT.
        assert done > link.rtt_s

    def test_handshake_retx_bounded_by_config_attempts(self):
        link = _link()
        link.loss_rate = 0.999
        s = LinkSession(link, rng=2, max_config_attempts=3)
        s.open(0.0)
        assert s.state == ESTABLISHED  # past the budget, assume delivered
        assert s.n_handshake_retx <= 2  # attempts - 1 per round

    def test_handshake_replays_deterministically(self):
        def run():
            link = _link()
            link.loss_rate = 0.5
            s = LinkSession(link, rng=7)
            return s.open(0.0), s.n_handshake_retx

        assert run() == run()


class TestRenegotiationAndTeardown:
    def test_degraded_window_negotiates_smaller_mtu(self):
        plan = LinkFaultPlan(
            faults=(degradation_window(10.0, 5.0, bandwidth_scale=0.2),)
        )
        link = _link(faults=plan)
        s = LinkSession(link, rng=0)
        assert s.negotiate(0.0).mtu_bytes == 1500
        assert s.negotiate(12.0).mtu_bytes == 750  # halved under the storm

    def test_close_clears_config(self):
        link = _link()
        s = LinkSession(link, rng=0)
        s.open(0.0)
        done = s.close(1.0)
        assert s.state == CLOSED and s.config is None
        assert done == pytest.approx(1.0 + link.rtt_s)
        assert s.n_closed == 1

    def test_close_when_closed_is_a_noop(self):
        s = LinkSession(_link(), rng=0)
        assert s.close(3.0) == 3.0
        assert s.n_closed == 0

    def test_carrier_lost_drops_without_teardown(self):
        s = LinkSession(_link(), rng=0)
        s.open(0.0)
        s.carrier_lost(2.0)
        assert s.state == CLOSED and s.config is None
        assert s.n_carrier_drops == 1
        s.carrier_lost(3.0)  # already closed: not a second drop
        assert s.n_carrier_drops == 1

    def test_reopen_after_drop_renegotiates(self):
        s = LinkSession(_link(), rng=0)
        s.open(0.0)
        s.carrier_lost(2.0)
        s.open(3.0)
        assert s.state == ESTABLISHED
        assert s.n_established == 2


def test_config_validation():
    with pytest.raises(ValueError, match="mtu_bytes"):
        SessionConfig(mtu_bytes=32)
    with pytest.raises(ValueError, match="max_config_attempts"):
        LinkSession(_link(), max_config_attempts=0)


@pytest.mark.parametrize("mtu", [float("nan"), float("inf")])
def test_config_rejects_nan_and_infinite_mtu(mtu):
    with pytest.raises(ValueError, match="mtu_bytes"):
        SessionConfig(mtu_bytes=mtu)
