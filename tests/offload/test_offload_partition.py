"""Partition planner: enumeration, hand-computed optimality, energy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw.device import DeviceProfile
from repro.hw.network import NetworkLink
from repro.hw.power import PI_POWER
from repro.models.branchynet import BranchyLeNet
from repro.models.lenet import LeNet
from repro.nn.layers import Linear
from repro.nn.module import Sequential
from repro.offload.partition import (
    best_partition,
    enumerate_cuts,
    linear_path,
    partition_table,
    plan_partitions,
)

def _device(name: str, gmacs: float) -> DeviceProfile:
    """Pure-compute device: no overheads, so latency = MACs / rate.

    Power is the paper's Pi model at utilization 1.0 → exactly 6.4 W,
    keeping the energy arithmetic hand-checkable.
    """
    return DeviceProfile(
        name=name,
        conv_gmacs=gmacs,
        dense_gmacs=gmacs,
        mem_bandwidth_gbs=1e9,  # pooling/elementwise effectively free
        layer_overhead_s=0.0,
        inference_overhead_s=0.0,
        power=PI_POWER,
        utilization=1.0,
    )


class _Toy:
    """Three-layer dense model with a narrow waist: 64 → 4 → 2048 → 8.

    One cheap layer shrinks the activation to 4 elements, then the heavy
    layers follow — the shape where a middle cut genuinely wins: compute
    a little on the edge, ship almost nothing, let the cloud do the
    heavy part.  MACs per layer: 256, 8192, 16384 (24832 total); at the
    test devices' 1e6 (edge) and 1e9 (cloud) MACs/s every latency below
    is hand-checkable.
    """

    IN_SHAPE = (64,)

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.body = Sequential(
            Linear(64, 4, rng=rng),
            Linear(4, 2048, rng=rng),
            Linear(2048, 8, rng=rng),
        )

    def stages(self):
        return [("body", self.body)]


def _toy_link(mbps: float, rtt_s: float = 0.0) -> NetworkLink:
    return NetworkLink(
        name="toy", uplink_mbps=mbps, downlink_mbps=mbps, rtt_s=rtt_s
    )


class TestEnumeration:
    def test_toy_cut_count_and_boundaries(self):
        layers, in_shape = linear_path(_Toy())
        cuts = enumerate_cuts(layers, in_shape)
        assert [c.index for c in cuts] == [0, 1, 2, 3]
        assert cuts[0].is_all_cloud and cuts[0].boundary_shape == (64,)
        assert cuts[-1].is_all_edge
        assert [c.boundary_elems for c in cuts] == [64, 4, 2048, 8]

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty layer path"):
            enumerate_cuts([], (1,))

    def test_reshape_boundaries_are_skipped(self):
        layers, in_shape = linear_path(LeNet(rng=0))
        cuts = enumerate_cuts(layers, in_shape)
        assert all(
            c.index == len(layers) or c.edge_layers[-1].kind != "none"
            for c in cuts
            if c.index > 0
        )

    def test_branchynet_path_is_stem_plus_trunk(self):
        branchy = BranchyLeNet(rng=0)
        layers, in_shape = linear_path(branchy)
        assert in_shape == branchy.IN_SHAPE
        # Final layer is the trunk's 10-way classifier head.
        assert layers[-1].out_shape == (10,)
        # The branch's layers are absent: total params must match stem+trunk.
        stem_trunk_params = sum(
            p.size for stage in (branchy.stem, branchy.trunk) for p in stage.parameters()
        )
        assert sum(c.params for c in layers) == stem_trunk_params


class TestHandComputedOptimum:
    def test_optimum_walks_inward_as_bandwidth_drops(self):
        edge, cloud = _device("edge", 1e-3), _device("cloud", 1.0)
        # 20 Mbps: shipping the raw 256 B input costs 0.102 ms — cheaper
        # than even the 0.256 ms first edge layer → full offload wins.
        assert best_partition(
            plan_partitions(_Toy(), edge, cloud, _toy_link(20.0))
        ).cut.index == 0
        # 0.8 Mbps: raw input now costs 2.56 ms up, but the 4-element
        # waist ships in 0.16 ms after 0.256 ms of edge compute → the
        # middle cut wins over full offload and over 24.8 ms all-edge.
        assert best_partition(
            plan_partitions(_Toy(), edge, cloud, _toy_link(0.8))
        ).cut.index == 1
        # 0.008 Mbps: even 16 B up + 32 B down cost 48 ms — staying
        # on-device (24.8 ms, ships nothing) wins.
        assert best_partition(
            plan_partitions(_Toy(), edge, cloud, _toy_link(0.008))
        ).cut.is_all_edge

    def test_mid_bandwidth_totals_by_hand(self):
        edge, cloud = _device("edge", 1e-3), _device("cloud", 1.0)
        plans = plan_partitions(_Toy(), edge, cloud, _toy_link(0.8))
        by_index = {p.cut.index: p for p in plans}
        # cut 0: 256 B up, all 24832 MACs on the cloud, 32 B down.
        assert by_index[0].total_s == pytest.approx(
            256 * 8 / 0.8e6 + 24832 / 1e9 + 32 * 8 / 0.8e6
        )
        # cut 1 (the waist): 256 MACs on the edge, 16 B up, the heavy
        # 24576 MACs on the cloud, 32 B down.
        assert by_index[1].total_s == pytest.approx(
            256 / 1e6 + 16 * 8 / 0.8e6 + 24576 / 1e9 + 32 * 8 / 0.8e6
        )
        # all-edge: pure edge compute, no wire.
        assert by_index[3].total_s == pytest.approx(24832 / 1e6)

    def test_total_is_sum_of_legs(self):
        edge, cloud = _device("edge", 1e-3), _device("cloud", 1.0)
        for plan in plan_partitions(_Toy(), edge, cloud, _toy_link(1.0, rtt_s=0.01)):
            assert plan.total_s == pytest.approx(
                plan.edge_s + plan.uplink_s + plan.cloud_s + plan.downlink_s
            )
            assert plan.network_s == pytest.approx(plan.uplink_s + plan.downlink_s)

    def test_all_edge_ships_nothing(self):
        edge, cloud = _device("edge", 1e-3), _device("cloud", 1.0)
        plan = plan_partitions(_Toy(), edge, cloud, _toy_link(1.0))[-1]
        assert plan.cut.is_all_edge
        assert plan.uplink_bytes == 0 and plan.downlink_bytes == 0
        assert plan.uplink_s == 0.0 and plan.downlink_s == 0.0


class TestEnergyAndWire:
    def test_energy_is_compute_plus_radio(self):
        edge, cloud = _device("edge", 1e-3), _device("cloud", 1.0)
        # A power-hungry radio (50 W transmitting vs 6.4 W computing) on
        # a fast link.  Latency-wise full offload wins (0.31 ms vs
        # 0.33 ms for the waist cut), though shipping 256 B costs
        # 12.8 mJ while computing to the waist and shipping 16 B costs
        # 1.6 + 0.8 = 2.4 mJ: the planner minimizes latency.
        radio = NetworkLink(
            name="hot-radio",
            uplink_mbps=8.0,
            downlink_mbps=8.0,
            rtt_s=0.0,
            tx_power_w=50.0,
        )
        plans = plan_partitions(_Toy(), edge, cloud, radio)
        assert best_partition(plans).cut.index == 0
        assert min(plans, key=lambda p: p.edge_energy_j).cut.index == 1
        # Energy accounting is exactly compute + radio for every plan.
        for plan in plans:
            assert plan.edge_energy_j == pytest.approx(
                plan.edge_s * edge.power(edge.utilization)
                + 50.0 * radio.serialization_s(plan.uplink_bytes)
            )

    def test_boundaries_ship_as_float32(self):
        edge, cloud = _device("edge", 1e-3), _device("cloud", 1.0)
        for plan in plan_partitions(_Toy(), edge, cloud, _toy_link(0.08)):
            expected = 0 if plan.cut.is_all_edge else 4 * plan.cut.boundary_elems
            assert plan.uplink_bytes == expected

    def test_empty_plan_list_rejected(self):
        with pytest.raises(ValueError, match="no partition plans"):
            best_partition([])


class TestRendering:
    def test_partition_table_stars_each_links_best(self):
        edge, cloud = _device("edge", 1e-3), _device("cloud", 1.0)
        plans = {
            "fast": plan_partitions(_Toy(), edge, cloud, _toy_link(0.8)),
            "slow": plan_partitions(_Toy(), edge, cloud, _toy_link(0.008)),
        }
        text = partition_table(plans, "toy sweep").render()
        assert "toy sweep" in text
        assert text.count("*") == 2  # one optimum starred per link

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="no links"):
            partition_table({})


@pytest.mark.parametrize("mbps", [0.008, 0.05, 0.2, 0.8, 2.0, 8.0, 20.0, 200.0])
def test_best_partition_is_the_latency_argmin(mbps):
    """The chosen cut has the least end-to-end latency, the earliest
    such cut on a tie."""
    edge, cloud = _device("edge", 1e-3), _device("cloud", 1.0)
    plans = plan_partitions(_Toy(), edge, cloud, _toy_link(mbps, rtt_s=0.002))
    best = best_partition(plans)
    assert all(best.total_s <= p.total_s for p in plans)
    assert all(p.cut.index >= best.cut.index for p in plans if p.total_s == best.total_s)
