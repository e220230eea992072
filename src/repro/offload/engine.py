"""The edge tier: gate on-device, ship hard work upstream, account everything.

:class:`EdgeTier` fronts a cloud serving tier — a single
:class:`~repro.serving.engine.Server` or a whole
:class:`~repro.cluster.engine.Cluster` fleet (anything exposing
``serve_log``) — with one weak edge device behind a private
:class:`~repro.hw.network.NetworkLink` or a session transport.  It
replays an arrival trace on the shared virtual clock, through the
device loop :func:`~repro.netsim.fleet.run_fleet_net` drives too:

1. the edge runs the BranchyNet stem + branch gate (one FIFO compute
   queue, calibrated per-device latency), unless the policy skips it
   (``runs_gate = False``);
2. an :class:`~repro.offload.policies.OffloadPolicy` decides, per
   request, local completion vs upstream shipping;
3. local-easy requests answer at the branch exit; local-hard requests
   pay the trunk on the edge device;
4. offloaded requests encode their payload (raw input or stem
   activation, through the configured
   :class:`~repro.offload.policies.TensorCodec`), queue on the uplink
   (serialization occupies the radio; loss retries and jitter are
   sampled from a seeded generator), and arrive at the cloud tier,
   which batches and serves them with *real* model inference on the
   decoded tensors; responses ride the downlink back.

The :class:`OffloadReport` carries the per-request edge / network /
cloud latency breakdown, offload rate, uplink bytes, edge energy
(compute at the device's power model + radio at the link's transmit
power), and genuine end-to-end accuracy — quantized-transfer errors
show up here, not in a side formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eval.metrics import latency_percentiles
from repro.eval.tables import Table
from repro.hw.device import DeviceProfile
from repro.hw.energy import energy_joules
from repro.hw.flops import stage_cost
from repro.hw.latency import branchynet_expected_latency
from repro.hw.network import NetworkLink
from repro.netsim.transport import LinkTransport, SessionTransport
from repro.obs.prof import current_profiler
from repro.offload.policies import OffloadPolicy, TensorCodec
from repro.serving.backends import BatchTiming, InferenceBackend
from repro.serving.engine import Server
from repro.serving.router import RouteDecision
from repro.utils.rng import as_generator

__all__ = [
    "EdgeTier",
    "OffloadReport",
    "RemoteTrunkBackend",
    "cloud_server_for",
    "offload_comparison_table",
]

_FLOAT32_BYTES = 4


class RemoteTrunkBackend(InferenceBackend):
    """Cloud side of an entropy-gated split: trunk-only inference.

    Serves *stem activations* (not images): the edge already paid the
    stem + branch, so a cloud replica resumes from the partition
    boundary and runs only the trunk — the communication-aware division
    of labour the planner prices.  Static pipeline: no router, constant
    per-item time, which keeps the cloud tail flat.
    """

    name = "remote-trunk"

    def __init__(self, branchynet, device: DeviceProfile) -> None:
        stem = stage_cost("stem", branchynet.stem, branchynet.IN_SHAPE)
        trunk = stage_cost("trunk", branchynet.trunk, stem.out_shape)
        super().__init__(
            BatchTiming(
                overhead_s=device.inference_overhead_s,
                per_item_s=device.stage_latency(trunk),
            )
        )
        self.branchynet = branchynet
        self.in_shape = stem.out_shape

    def predict(
        self, features: np.ndarray, decision: RouteDecision | None = None
    ) -> np.ndarray:
        features = np.ascontiguousarray(features, dtype=np.float32)
        plan = self.branchynet.inference_plan(
            features.shape, self.branchynet.trunk, key="trunk"
        )
        return plan.run(features).argmax(axis=1)


def cloud_server_for(
    policy: OffloadPolicy,
    branchynet,
    cloud_device: DeviceProfile,
    oracle=None,
    codec: TensorCodec | None = None,
    **server_kwargs,
) -> Server:
    """A cloud :class:`Server` whose backend matches the policy's payload.

    ``"split"`` payloads get a :class:`RemoteTrunkBackend` (resume from
    the stem activation); ``"input"`` payloads get a full
    :class:`~repro.serving.backends.BranchyNetBackend` (classic full
    offloading of the raw image).  Passing the edge tier's
    :class:`~repro.sim.OffloadOracle` (plus the wire ``codec``) wraps
    the backend in a :class:`~repro.sim.OracleBackend` over the decoded
    payloads, so the cloud serves precomputed predictions on the same
    sample-id stream the oracle edge tier ships.
    """
    if policy.payload == "split":
        backend = RemoteTrunkBackend(branchynet, cloud_device)
    else:
        from repro.serving.backends import BranchyNetBackend

        backend = BranchyNetBackend(branchynet, cloud_device)
    if oracle is not None:
        from repro.sim.oracle import OracleBackend

        table = oracle.cloud_table(backend, policy.payload, codec or TensorCodec())
        backend = OracleBackend(backend, table)
    return Server(backend, **server_kwargs)


@dataclass(frozen=True)
class OffloadReport:
    """Everything one edge-tier run produced, ready for tables and asserts."""

    policy: str
    link: str
    codec: str
    scenario: str
    n_requests: int
    n_local_easy: int
    n_local_hard: int
    n_offloaded: int
    n_unserved: int  # offloaded but shed/stranded by the cloud tier
    uplink_bytes: int
    duration_s: float
    throughput_rps: float
    arrival_rate_hz: float
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float
    edge_mean_s: float  # queue + edge compute, averaged over all requests
    network_mean_s: float  # uplink + downlink, averaged over offloaded
    cloud_mean_s: float  # cloud sojourn, averaged over offloaded
    edge_utilization: float
    edge_energy_j: float
    radio_energy_j: float
    n_retransmits: int = 0  # lossy-link re-sends, uplink + downlink combined
    n_sessions: int = 0  # netsim transport: sessions established (0 on a NetworkLink)
    n_renegotiations: int = 0  # netsim transport: conf-nak'd option rounds
    n_flap_drops: int = 0  # netsim transport: carrier drops forcing re-establishment
    accuracy: float = float("nan")
    cloud_report: object | None = field(default=None, repr=False)

    @property
    def offload_rate(self) -> float:
        return self.n_offloaded / self.n_requests if self.n_requests else 0.0

    @property
    def retry_amplification(self) -> float:
        """Link sends per offloaded request beyond the lossless baseline.

        1.0 means every payload delivered first try; 1.25 means a quarter
        of the offloads paid one extra (bounded, backed-off) transmission
        somewhere on their round trip.
        """
        if not self.n_offloaded:
            return 1.0
        return 1.0 + self.n_retransmits / self.n_offloaded

    @property
    def uplink_mb(self) -> float:
        return self.uplink_bytes / 1e6

    @property
    def total_energy_j(self) -> float:
        """Edge-side energy: device compute plus radio transmissions."""
        return self.edge_energy_j + self.radio_energy_j

    @property
    def energy_mj_per_request(self) -> float:
        return 1e3 * self.total_energy_j / self.n_requests if self.n_requests else 0.0

    def summary(self) -> str:
        return (
            f"[{self.policy}/{self.link}/{self.scenario}] "
            f"p95 {self.p95_s * 1e3:.1f} ms | offload {self.offload_rate:.1%} | "
            f"uplink {self.uplink_mb:.2f} MB | "
            f"edge {self.edge_mean_s * 1e3:.2f} ms | "
            f"energy {self.energy_mj_per_request:.2f} mJ/req"
        )


def offload_comparison_table(reports: list[OffloadReport], title: str = "") -> Table:
    """Render several edge-tier runs side by side (one row per policy)."""
    table = Table(
        headers=[
            "policy",
            "link",
            "codec",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "offload",
            "uplink (MB)",
            "edge (ms)",
            "net (ms)",
            "cloud (ms)",
            "retx",
            "mJ/req",
            "acc",
        ],
        title=title,
    )
    for r in reports:
        table.add_row(
            r.policy,
            r.link,
            r.codec,
            f"{r.p50_s * 1e3:.2f}",
            f"{r.p95_s * 1e3:.2f}",
            f"{r.p99_s * 1e3:.2f}",
            f"{r.offload_rate:.1%}",
            f"{r.uplink_mb:.2f}",
            f"{r.edge_mean_s * 1e3:.2f}",
            "-" if np.isnan(r.network_mean_s) else f"{r.network_mean_s * 1e3:.2f}",
            "-" if np.isnan(r.cloud_mean_s) else f"{r.cloud_mean_s * 1e3:.2f}",
            f"{r.retry_amplification:.2f}x",
            f"{r.energy_mj_per_request:.2f}",
            "-" if np.isnan(r.accuracy) else f"{r.accuracy:.1%}",
        )
    return table


# Per-request outcome codes.
_LOCAL_EASY, _LOCAL_HARD, _OFFLOADED = 0, 1, 2


def _cloud_is_oracle(cloud) -> bool:
    """Whether a cloud tier (Server or Cluster) answers from oracle tables."""
    backend = getattr(cloud, "backend", None)  # serving.Server
    if backend is not None:
        return bool(backend.oracle)
    replicas = getattr(cloud, "replicas", ())  # cluster.Cluster
    return bool(replicas) and all(r.backend.oracle for r in replicas)


class EdgeTier:
    """Split inference between one edge device and a cloud serving tier.

    :meth:`serve` hands the offload event loop of
    :mod:`repro.netsim.fleet` one device: its entropies (live or from
    the oracle), payload sizes, gate and trunk costs, ``cloud_est_s``,
    policy and transport.  It serves the shipped payloads on the cloud
    tier, then the loop's downlink pass rides the responses back.

    Parameters
    ----------
    branchynet:
        Trained :class:`~repro.models.branchynet.BranchyLeNet`; its stem
        + branch is the on-device gate, its trunk the offloadable
        suffix.
    edge_device:
        Calibrated edge :class:`~repro.hw.device.DeviceProfile` (one
        FIFO compute queue).
    link:
        The network path between tiers: a
        :class:`~repro.hw.network.NetworkLink`, the device's private
        radio (offloads queue on it; every ``serve`` starts it idle), or
        a :class:`~repro.netsim.transport.SessionTransport`, whose
        offloads ride AIMD-paced flights over its shared link, whose
        deadline estimates read live congestion state, and whose
        session counters reach the report.  The transport decides the
        device hold: a session carries one transfer at a time, so the
        device waits for each ack; the private radio queues payloads,
        so the device is free after the gate.  Devices contending for
        one link are :func:`~repro.netsim.fleet.run_fleet_net`'s job.
    cloud:
        The cloud tier: a :class:`~repro.serving.engine.Server` or
        :class:`~repro.cluster.engine.Cluster` (anything with
        ``serve_log``).  Its backend must match the policy's
        payload — see :func:`cloud_server_for`.
    policy:
        An :class:`~repro.offload.policies.OffloadPolicy`.
    codec:
        Wire format for offloaded tensors
        (:class:`~repro.offload.policies.TensorCodec`); the cloud serves
        the *decoded* tensors, so codec error reaches the accuracy
        column.
    obs:
        Optional :class:`~repro.obs.observer.Observer`.  When set, each
        request's offload legs (edge gate, uplink, cloud service,
        downlink) are recorded as parent-linked spans and the finished
        run is finalized into spans and metrics.  Single-use — one per
        ``serve`` call.
    prof:
        Optional :class:`~repro.obs.prof.PhaseProfiler` attributing
        **wall-clock** time to edge phases: warmup; event_loop, which
        includes the uplink transfers; inference; cloud, which includes
        the downlink pass; report.  ``None`` falls back to the
        process-global profiler (``REPRO_PROF=1``), else off.
    rng:
        Seed/generator for a ``NetworkLink``'s loss and jitter sampling
        (a ``SessionTransport`` samples from its own stream).
    cloud_est_s:
        Expected cloud service time for the deadline policy's remote
        estimate; inferred from the cloud tier's backend when omitted.
    oracle:
        Optional :class:`~repro.sim.OffloadOracle`.  When given, the
        request stream carries sample ids into the oracle's image pool:
        the edge gate, local trunk, and payload sizing answer from the
        precomputed tables, and the cloud tier (whose backend must be
        oracle-wrapped — see :func:`cloud_server_for`) serves the same
        ids.  All virtual-clock quantities stay identical to the live
        path.
    """

    def __init__(
        self,
        branchynet,
        edge_device: DeviceProfile,
        link: NetworkLink | SessionTransport,
        cloud,
        policy: OffloadPolicy,
        codec: TensorCodec | None = None,
        rng: np.random.Generator | int | None = 0,
        cloud_est_s: float | None = None,
        oracle=None,
        obs=None,
        prof=None,
    ) -> None:
        if not hasattr(cloud, "serve_log"):
            raise TypeError(
                f"cloud tier {type(cloud).__name__} lacks serve_log()/"
                "serve_detailed(); pass a repro.serving.Server or "
                "repro.cluster.Cluster"
            )
        if oracle is not None and not _cloud_is_oracle(cloud):
            raise TypeError(
                "an oracle EdgeTier ships sample ids, so the cloud tier's "
                "backend must be oracle-wrapped too — build it via "
                "cloud_server_for(..., oracle=...)"
            )
        if not isinstance(link, (NetworkLink, SessionTransport)):
            raise TypeError("EdgeTier needs a NetworkLink or a SessionTransport")
        self.branchynet = branchynet
        self.edge_device = edge_device
        self.link = link
        self.cloud = cloud
        self.policy = policy
        self.codec = codec or TensorCodec()
        self.oracle = oracle
        self.obs = obs
        # Wall-clock phase attribution: an explicit profiler wins, else
        # the process-global one (REPRO_PROF=1), else disabled.
        self.prof = prof if prof is not None else current_profiler()
        self.rng = as_generator(rng)
        lat = branchynet_expected_latency(branchynet, edge_device, exit_rate=1.0)
        #: Edge cost of one gate pass (stem + branch + gate decision).
        self.gate_s = lat.early_path
        #: Extra edge cost when a hard sample runs the trunk locally.
        self.trunk_extra_s = lat.full_path - lat.early_path
        self.cloud_est_s = (
            self._infer_cloud_est(cloud) if cloud_est_s is None else float(cloud_est_s)
        )
        if not self.cloud_est_s >= 0:  # false for NaN too
            raise ValueError(f"cloud_est_s must be >= 0, got {self.cloud_est_s}")

    @staticmethod
    def _infer_cloud_est(cloud) -> float:
        backend = getattr(cloud, "backend", None)  # serving.Server
        if backend is not None:
            return backend.mean_service_s()
        replicas = getattr(cloud, "replicas", None)  # cluster.Cluster
        if replicas:
            return min(r.backend.mean_service_s() for r in replicas)
        return 0.0

    def _transport(self) -> LinkTransport | SessionTransport:
        """One ``serve`` call's transport: a fresh idle radio, or the session."""
        if isinstance(self.link, NetworkLink):
            return LinkTransport(self.link, rng=self.rng)
        return self.link

    # ------------------------------------------------------------------ #
    # serving loop
    # ------------------------------------------------------------------ #
    def serve(
        self,
        images: np.ndarray,
        arrival_s: np.ndarray,
        labels: np.ndarray | None = None,
        scenario: str = "trace",
    ) -> OffloadReport:
        """Replay one arrival trace through the edge tier and report.

        Same contract as :meth:`repro.serving.Server.serve`: ``images[i]``
        arrives at ``arrival_s[i]`` (non-decreasing); ``labels`` adds
        genuine end-to-end accuracy (branch exits, local trunks, and
        cloud completions alike).
        """
        # Imported here: repro.netsim.fleet imports repro.offload.policies,
        # whose package imports this module.
        from repro.netsim.fleet import _Device, _DeviceLoop
        from repro.sim.core import validate_trace

        images, arrival_s = validate_trace(images, arrival_s)
        n = images.shape[0]

        prof = self.prof
        if prof is not None:
            prof.start("serve")
            prof.start("warmup")
        transport = self._transport()
        threshold = float(self.branchynet.entropy_threshold)
        if not self.policy.runs_gate:
            entropies = np.full(n, np.nan, dtype=np.float64)
            branch_preds = np.full(n, -1, dtype=np.int64)
        elif self.oracle is not None:
            # One precomputed stem+branch pass over the unique pool
            # replaces gating the (much longer, repeat-heavy) stream.
            entropies = self.oracle.entropy[images]
            branch_preds = self.oracle.branch_preds[images]
        else:
            entropies, branch_preds = self.branchynet.branch_gate(images)

        if self.oracle is not None:
            boundary_elems = self.oracle.boundary_elems(self.policy.payload)
        elif self.policy.payload == "split":
            boundary_elems = int(
                np.prod(stage_cost("stem", self.branchynet.stem, images.shape[1:]).out_shape)
            )
        else:
            boundary_elems = int(np.prod(images.shape[1:]))
        up_bytes = self.codec.wire_bytes(boundary_elems)
        down_bytes = int(self.branchynet.num_classes) * _FLOAT32_BYTES
        if prof is not None:
            prof.stop()  # warmup
            prof.start("event_loop")
        device = _Device(
            arrival_s, entropies, entropies < threshold, self.policy, transport,
            gate_s=self.gate_s, local_s=self.trunk_extra_s, cloud_est_s=self.cloud_est_s,
            up_bytes=up_bytes, down_bytes=down_bytes,
        )
        loop = _DeviceLoop([device], obs=self.obs)
        loop.run()
        outcome, completion = loop.outcome, loop.completion_s
        if prof is not None:
            prof.stop()  # event_loop
            prof.start("inference")

        predictions = np.full(n, -1, dtype=np.int64)
        easy = outcome == _LOCAL_EASY
        predictions[easy] = branch_preds[easy]
        self._run_local_hard(images, outcome, predictions)
        if prof is not None:
            prof.stop()  # inference
            prof.start("cloud")
        net_part = np.full(n, np.nan)  # uplink + downlink, offloaded only
        cloud_part = np.full(n, np.nan)  # cloud sojourn, offloaded only
        cloud_report, down_retransmits = self._run_cloud(
            images, loop, predictions, net_part, cloud_part, scenario
        )
        if prof is not None:
            prof.stop()  # cloud
            prof.start("report")

        edge_part = loop.ready_s - arrival_s  # queue + edge compute, per request
        edge_part[outcome == _LOCAL_HARD] += self.trunk_extra_s
        accuracy = float("nan")
        if labels is not None:
            accuracy = float((predictions == np.asarray(labels)).mean())
        if self.obs is not None:
            self.obs.finalize_arrays(arrival_s, completion)
        n_retransmits = sum(t.retx_segments for t in device.transfers) + down_retransmits
        report = self._report(
            device, loop, edge_part, net_part, cloud_part, n_retransmits, accuracy,
            cloud_report, scenario,
        )
        if prof is not None:
            prof.stop()  # report
            prof.stop()  # serve
        return report

    # ------------------------------------------------------------------ #
    # local hard path + cloud tier
    # ------------------------------------------------------------------ #
    def _run_local_hard(self, images, outcome, predictions) -> None:
        """Trunk predictions for hard samples kept on the edge."""
        hard_idx = np.flatnonzero(outcome == _LOCAL_HARD)
        if not hard_idx.size:
            return
        if self.oracle is not None:
            predictions[hard_idx] = self.oracle.trunk_preds[images[hard_idx]]
            return
        result = self.branchynet.infer(images[hard_idx], threshold=-1.0)
        predictions[hard_idx] = result.predictions

    def _run_cloud(self, images, loop, predictions, net_part, cloud_part, scenario):
        """Serve the shipped payloads upstream, then the loop's downlink pass."""
        shipped = np.flatnonzero(loop.outcome == _OFFLOADED)
        if not shipped.size:
            return None, 0
        # The cloud sees payloads in uplink-delivery order.
        req_ids = shipped[np.argsort(loop.delivered_s[shipped], kind="stable")]
        cloud_arrival = loop.delivered_s[req_ids]

        if self.oracle is not None:
            # Sample ids travel as-is; the (already decoded) payloads
            # live in the cloud backend's precomputed table.
            payloads = images[req_ids]
        elif self.policy.payload == "split":
            raw = self.branchynet.stem_features(images[req_ids])
            payloads = self._decode(raw)
        else:
            raw = np.ascontiguousarray(images[req_ids], dtype=np.float32)
            payloads = self._decode(raw)

        report, cloud_log = self.cloud.serve_log(
            payloads, cloud_arrival, scenario=f"{scenario}-offload"
        )
        # Requests a shedding cloud tier never served end the trace
        # unserved instead of poisoning the downlink queue with NaN.
        cloud_done = cloud_log.completion_s
        _, n_retransmits = loop.downlink(req_ids, cloud_arrival, cloud_done)
        served = np.isfinite(cloud_done)
        req = req_ids[served]
        predictions[req] = cloud_log.prediction[served]
        cloud_part[req] = cloud_done[served] - cloud_arrival[served]
        net_part[req] = (cloud_arrival[served] - loop.ready_s[req]) + (
            loop.completion_s[req] - cloud_done[served]
        )
        return report, n_retransmits

    def _decode(self, raw: np.ndarray) -> np.ndarray:
        """Wire round-trip of one payload batch.

        Each request ships (and dequantizes) its own tensor, exactly as
        the wire-byte accounting assumes; the dtype codecs decode a
        whole batch losslessly, so only the per-payload quantizers
        (whose scale/codebook is per tensor) pay a loop.
        """
        if self.codec.dtype in ("float32", "float16"):
            return self.codec.decode(raw)
        return np.stack([self.codec.decode(t) for t in raw])

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def _report(
        self, device, loop, edge_part, net_part, cloud_part, n_retransmits, accuracy,
        cloud_report, scenario,
    ) -> OffloadReport:
        arrival_s, completion, outcome = loop.arrival_s, loop.completion_s, loop.outcome
        transport = device.transport
        sojourn = completion - arrival_s
        # A shedding/failing cloud tier leaves offloaded requests
        # unserved (NaN completion); latency statistics cover the served
        # requests, with the unserved count reported alongside.
        served = sojourn[np.isfinite(sojourn)]
        n_unserved = int(len(sojourn) - len(served))
        if served.size:
            p50, p95, p99 = latency_percentiles(served)
            mean_s, max_s = float(served.mean()), float(served.max())
            makespan = float(np.nanmax(completion) - arrival_s[0])
        else:
            p50 = p95 = p99 = mean_s = max_s = float("nan")
            makespan = float(arrival_s[-1] - arrival_s[0])
        span = float(arrival_s[-1] - arrival_s[0])
        n = len(arrival_s)
        offloaded = outcome == _OFFLOADED
        # A private radio has no session to count.
        sess = transport.session if isinstance(transport, SessionTransport) else None
        return OffloadReport(
            policy=self.policy.name,
            link=transport.link.name,
            codec=self.codec.dtype,
            scenario=scenario,
            n_requests=n,
            n_local_easy=int((outcome == _LOCAL_EASY).sum()),
            n_local_hard=int((outcome == _LOCAL_HARD).sum()),
            n_offloaded=int(offloaded.sum()),
            n_unserved=n_unserved,
            uplink_bytes=device.up_bytes * len(device.transfers),
            duration_s=makespan,
            throughput_rps=len(served) / makespan if makespan > 0 else float("inf"),
            arrival_rate_hz=(n - 1) / span if span > 0 else float("inf"),
            mean_s=mean_s,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            max_s=max_s,
            edge_mean_s=float(edge_part.mean()),
            # nanmean: shed offloads carry NaN parts but must not erase
            # the breakdown of the (typically many) served ones.
            network_mean_s=(
                float(np.nanmean(net_part[offloaded]))
                if np.isfinite(net_part[offloaded]).any()
                else float("nan")
            ),
            cloud_mean_s=(
                float(np.nanmean(cloud_part[offloaded]))
                if np.isfinite(cloud_part[offloaded]).any()
                else float("nan")
            ),
            edge_utilization=device.edge_busy / makespan if makespan > 0 else 0.0,
            edge_energy_j=energy_joules(self.edge_device, device.edge_busy),
            radio_energy_j=transport.link.tx_power_w * device.radio_busy,
            n_retransmits=int(n_retransmits),
            n_sessions=sess.n_established if sess else 0,
            n_renegotiations=sess.n_naks if sess else 0,
            n_flap_drops=sess.n_carrier_drops if sess else 0,
            accuracy=accuracy,
            cloud_report=cloud_report,
        )
