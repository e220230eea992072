"""Partition planner: where to cut a model between edge and cloud.

A *cut* splits a linear layer path into an edge prefix and a cloud
suffix; the activation tensor at the boundary ships over a
:class:`~repro.hw.network.NetworkLink`.  For every cut the planner
prices the four legs of a partitioned inference —

* edge compute: the prefix's per-layer latency on the edge
  :class:`~repro.hw.device.DeviceProfile`,
* uplink: the boundary tensor's wire bytes (optionally quantized, see
  :mod:`repro.offload.policies`) through the link's expected one-way
  delivery,
* cloud compute: the suffix's per-layer latency on the cloud profile,
* downlink: the result payload (logits) back to the edge,

— plus the edge-side energy (compute at the device's power draw, radio
at the link's transmit power).  :func:`plan_partitions` enumerates
every boundary, :func:`best_partition` picks the latency- or
energy-optimal one, and :func:`partition_table` renders the sweep the
offload experiment reports.

The two degenerate cuts are included on purpose: cut 0 ("all cloud")
ships the raw input and reproduces classic full offloading; the last
cut ("all edge") ships nothing and reproduces on-device inference —
so the sweep's optimum is read *against* both baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.tables import Table
from repro.hw.device import DeviceProfile
from repro.hw.energy import energy_joules
from repro.hw.flops import LayerCost, model_cost, stage_cost
from repro.hw.network import NetworkLink

__all__ = [
    "CutPoint",
    "SplitPlan",
    "linear_path",
    "enumerate_cuts",
    "plan_partitions",
    "best_partition",
    "partition_table",
]

_FLOAT32_BYTES = 4


def _numel(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n


def linear_path(model) -> tuple[list[LayerCost], tuple[int, ...]]:
    """The sequential layer-cost path a partition can cut, plus its input shape.

    * ``LeNet`` / anything whose stages chain head-to-tail: every stage's
      layers back to back.
    * ``BranchyLeNet``: the *full-exit* path (stem + trunk) — the path a
      cloud replica completes when the edge offloads a hard sample; the
      branch/gate stays on the edge by construction and is costed by the
      offload engine, not the planner.
    * ``CBNet``: AE encoder + decoder (flat images), then the truncated
      classifier stem + head (NCHW) — the decoder→stem seam is a free
      reshape, so the stages are chained explicitly here.
    """
    if hasattr(model, "autoencoder") and hasattr(model, "classifier"):  # CBNet
        ae, clf = model.autoencoder, model.classifier
        enc = stage_cost("encoder", ae.encoder, (ae.spec.input_dim,))
        dec = stage_cost("decoder", ae.decoder, enc.out_shape)
        stem = stage_cost("stem", clf.stem, clf.IN_SHAPE)
        head = stage_cost("head", clf.head, stem.out_shape)
        layers = [*enc.layers, *dec.layers, *stem.layers, *head.layers]
        return layers, (ae.spec.input_dim,)
    start = tuple(getattr(model, "IN_SHAPE", ()))
    if not start:
        raise ValueError("define IN_SHAPE on the model")
    costs = model_cost(model, start)
    by_name = {c.name: c for c in costs}
    if "trunk" in by_name and "branch" in by_name:  # BranchyNet-shaped
        stages = [by_name["stem"], by_name["trunk"]]
    else:
        stages = costs
    return [layer for sc in stages for layer in sc.layers], start


@dataclass(frozen=True)
class CutPoint:
    """One candidate boundary: edge runs ``layers[:index]``, cloud the rest.

    ``boundary_shape`` is the activation shape shipped at the cut
    (the model input for ``index == 0``); ``boundary_elems`` its element
    count.  ``after`` names the last edge layer (``"input"`` at cut 0).
    """

    index: int
    after: str
    edge_layers: tuple[LayerCost, ...]
    cloud_layers: tuple[LayerCost, ...]
    boundary_shape: tuple[int, ...]

    @property
    def boundary_elems(self) -> int:
        return _numel(self.boundary_shape)

    @property
    def is_all_edge(self) -> bool:
        return not self.cloud_layers

    @property
    def is_all_cloud(self) -> bool:
        return not self.edge_layers


def enumerate_cuts(
    layers: list[LayerCost], in_shape: tuple[int, ...]
) -> list[CutPoint]:
    """Every cut boundary of a layer path, endpoints included.

    Boundaries after zero-cost reshape layers (``kind == "none"``) are
    skipped — flatten/reshape moves no data, so cutting before or after
    it is the same wire payload and the duplicate row only pads the
    sweep.
    """
    if not layers:
        raise ValueError("cannot partition an empty layer path")
    cuts: list[CutPoint] = []
    for index in range(len(layers) + 1):
        if index > 0 and layers[index - 1].kind == "none" and index < len(layers):
            continue
        boundary = in_shape if index == 0 else layers[index - 1].out_shape
        cuts.append(
            CutPoint(
                index=index,
                after="input" if index == 0 else layers[index - 1].name,
                edge_layers=tuple(layers[:index]),
                cloud_layers=tuple(layers[index:]),
                boundary_shape=tuple(boundary),
            )
        )
    return cuts


@dataclass(frozen=True)
class SplitPlan:
    """A fully-priced partition: one cut on one (edge, link, cloud) triple."""

    cut: CutPoint
    edge_s: float
    uplink_s: float
    cloud_s: float
    downlink_s: float
    uplink_bytes: int
    downlink_bytes: int
    edge_energy_j: float

    @property
    def total_s(self) -> float:
        """End-to-end latency of one partitioned inference."""
        return self.edge_s + self.uplink_s + self.cloud_s + self.downlink_s

    @property
    def network_s(self) -> float:
        return self.uplink_s + self.downlink_s


def _side_latency(layers: tuple[LayerCost, ...], device: DeviceProfile) -> float:
    """Latency of one side's layer run (overhead only when it runs anything)."""
    if not layers:
        return 0.0
    return device.inference_overhead_s + sum(device.layer_latency(c) for c in layers)


def plan_partitions(
    model,
    edge: DeviceProfile,
    cloud: DeviceProfile,
    link: NetworkLink,
) -> list[SplitPlan]:
    """Price every cut of ``model`` on an (edge, link, cloud) triple.

    Boundary tensors ship as float32.  Network legs use the link's
    *expected* delivery (mean retries and jitter) — the planner is a
    deterministic estimator; the engine samples.
    """
    layers, start_shape = linear_path(model)
    plans: list[SplitPlan] = []
    out_elems = _numel(layers[-1].out_shape)
    for cut in enumerate_cuts(layers, start_shape):
        edge_s = _side_latency(cut.edge_layers, edge)
        cloud_s = _side_latency(cut.cloud_layers, cloud)
        if cut.is_all_edge:
            up_bytes = down_bytes = 0
            uplink_s = downlink_s = 0.0
        else:
            up_bytes = cut.boundary_elems * _FLOAT32_BYTES
            down_bytes = out_elems * _FLOAT32_BYTES
            uplink_s = link.expected_one_way_s(up_bytes, direction="up")
            downlink_s = link.expected_one_way_s(down_bytes, direction="down")
        # Radio energy prices expected serialization attempts (retries
        # retransmit; the timeout gaps between them are idle air).
        tx_s = (
            link.serialization_s(up_bytes, direction="up") / (1.0 - link.loss_rate)
            if up_bytes
            else 0.0
        )
        energy = energy_joules(edge, edge_s) + link.tx_power_w * tx_s
        plans.append(
            SplitPlan(
                cut=cut,
                edge_s=edge_s,
                uplink_s=uplink_s,
                cloud_s=cloud_s,
                downlink_s=downlink_s,
                uplink_bytes=up_bytes,
                downlink_bytes=down_bytes,
                edge_energy_j=energy,
            )
        )
    return plans


def best_partition(plans: list[SplitPlan]) -> SplitPlan:
    """The plan with the least end-to-end latency (ties break toward
    earlier cuts)."""
    if not plans:
        raise ValueError("no partition plans to choose from")
    return min(plans, key=lambda p: (p.total_s, p.cut.index))


def partition_table(
    plans_by_link: dict[str, list[SplitPlan]], title: str = ""
) -> Table:
    """Render a split sweep: one row per cut, one total column per link.

    The per-link optimum is starred, and the Table-II-style breakdown
    (edge / uplink / cloud / downlink) of each link's best plan follows
    in the experiment text around this table.
    """
    links = list(plans_by_link)
    if not links:
        raise ValueError("no links in the sweep")
    table = Table(
        headers=["cut after", "ship (B)", *[f"{name} (ms)" for name in links]],
        title=title,
    )
    bests = {name: best_partition(plans_by_link[name]) for name in links}
    n_cuts = len(plans_by_link[links[0]])
    for row in range(n_cuts):
        cells = []
        first = plans_by_link[links[0]][row]
        for name in links:
            plan = plans_by_link[name][row]
            star = "*" if plan.cut.index == bests[name].cut.index else " "
            cells.append(f"{plan.total_s * 1e3:8.3f}{star}")
        ship = "-" if first.cut.is_all_edge else str(first.uplink_bytes)
        table.add_row(f"{first.cut.index:2d} {first.cut.after}", ship, *cells)
    return table
