"""`repro.offload` — edge–cloud partitioned inference over a modeled network.

The paper runs every model wholly on one device; this subsystem splits
inference between a weak edge device and a cloud serving tier connected
by a :class:`~repro.hw.network.NetworkLink`:

* :mod:`repro.offload.partition` — the *planner*: enumerate every layer
  boundary of a LeNet / BranchyNet / CBNet stack, price edge compute,
  wire bytes, and cloud compute per cut, and pick the latency- or
  energy-optimal split per (edge device, link, cloud device) triple.
* :mod:`repro.offload.policies` — the *runtime deciders*
  (always-local, always-remote, entropy-gated, deadline-aware) plus
  float16/uint8 intermediate-tensor codecs for transfer.
* :mod:`repro.offload.engine` — the *edge tier*: gate on-device, queue
  offloads on the uplink, front a :class:`~repro.cluster.engine.Cluster`
  (one replica or a fleet) as the cloud side, and report the
  edge/network/cloud breakdown with energy accounting.

See ``docs/offload.md`` for the full story and
``python -m repro.experiments.cli offload`` for the study.
"""

from repro.hw.network import (
    BandwidthTrace,
    NetworkLink,
    ethernet,
    lte,
    network_links,
    wifi,
)
from repro.offload.engine import (
    EdgeTier,
    OffloadReport,
    RemoteTrunkBackend,
    cloud_server_for,
    offload_comparison_table,
)
from repro.offload.partition import (
    CutPoint,
    SplitPlan,
    best_partition,
    enumerate_cuts,
    linear_path,
    partition_table,
    plan_partitions,
)
from repro.offload.policies import (
    POLICY_NAMES,
    AlwaysLocal,
    AlwaysRemote,
    DeadlineAware,
    EntropyGated,
    OffloadContext,
    OffloadPolicy,
    TensorCodec,
)

__all__ = [
    "BandwidthTrace",
    "NetworkLink",
    "ethernet",
    "wifi",
    "lte",
    "network_links",
    "EdgeTier",
    "OffloadReport",
    "RemoteTrunkBackend",
    "cloud_server_for",
    "offload_comparison_table",
    "CutPoint",
    "SplitPlan",
    "linear_path",
    "enumerate_cuts",
    "plan_partitions",
    "best_partition",
    "partition_table",
    "POLICY_NAMES",
    "OffloadContext",
    "OffloadPolicy",
    "AlwaysLocal",
    "AlwaysRemote",
    "EntropyGated",
    "DeadlineAware",
    "TensorCodec",
]
