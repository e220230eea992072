"""Offload experiment: split-point sweep, policy comparison, wire codecs.

Three studies share one trained pipeline on the paper's pi4 → GCI
topology (:mod:`repro.offload`):

* **split sweep** — the partition planner prices every layer boundary
  of the LeNet and CBNet stacks per link preset (wifi / LTE /
  ethernet), starring each link's optimum and printing its Table-II
  style edge / uplink / cloud / downlink breakdown.  Ethernet favours
  full offload (the GCI is ~10x faster), LTE's 60 ms RTT favours
  staying on-device — the split story only gets interesting in between.
* **policy comparison** — the four runtime deciders serve one identical
  request stream on a Pi 4 edge behind an LTE uplink, fronting a
  GCI-CPU cloud server.  The arrival rate is sized to overload *both*
  degenerate strategies: past the Pi's full-model capacity (always-local
  melts) and past the LTE uplink's raw-image capacity (always-remote
  melts).  Only entropy-gated splitting — easy samples exit on-device,
  ~5% hard samples ship a stem activation — sustains the load; the p95
  column is the asserted benchmark.
* **codec study** — entropy-gated with float32 / float16 / uint8
  intermediate-tensor transfer: uplink bytes shrink 2-4x while the
  accuracy column shows the genuine served cost of quantized
  activations (cloud predictions run on the decoded tensors).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.eval.tables import Table
from repro.experiments.common import lenet_for, pipeline_for, scale_for
from repro.hw.devices import gci_cpu, raspberry_pi4
from repro.hw.latency import branchynet_expected_latency
from repro.hw.network import network_links
from repro.offload.engine import (
    EdgeTier,
    OffloadReport,
    cloud_server_for,
    offload_comparison_table,
)
from repro.offload.partition import best_partition, partition_table, plan_partitions
from repro.offload.policies import (
    AlwaysLocal,
    AlwaysRemote,
    DeadlineAware,
    EntropyGated,
    OffloadPolicy,
    TensorCodec,
)
from repro.parallel.pool import parallel_map
from repro.serving.arrivals import poisson_arrivals, zipf_popularity
from repro.utils.rng import as_generator, derive_seed

__all__ = ["OffloadStudy", "run_offload_study", "OFFLOAD_CODECS"]

OFFLOAD_CODECS = ("float32", "float16", "uint8", "kmeans8")


@dataclass
class OffloadStudy:
    """All three offload studies plus the sizing that shaped the load."""

    dataset: str
    edge: str
    cloud: str
    link: str
    n_requests: int
    exit_rate: float
    arrival_rate_hz: float
    gate_s: float  # edge stem+branch+gate latency per sample
    local_mean_s: float  # expected all-local per-sample latency
    uplink_occupancy_s: float  # expected raw-image uplink occupancy
    sweep_tables: list[Table]
    breakdown_lines: list[str]
    policy_reports: list[OffloadReport]
    codec_reports: list[OffloadReport] = field(default_factory=list)

    def render(self) -> str:
        blocks = [t.render() for t in self.sweep_tables]
        blocks.append("\n".join(self.breakdown_lines))
        title = (
            f"Offload policies ({self.dataset}, {self.edge} -> {self.cloud} over "
            f"{self.link}) — {self.arrival_rate_hz:.0f} req/s, "
            f"exit rate {self.exit_rate:.1%}"
        )
        blocks.append(offload_comparison_table(self.policy_reports, title).render())
        if self.codec_reports:
            blocks.append(
                offload_comparison_table(
                    self.codec_reports,
                    f"Wire codecs ({self.dataset}, entropy-gated over {self.link})",
                ).render()
            )
            base = self.codec_reports[0]
            for r in self.codec_reports[1:]:
                blocks.append(
                    f"codec {r.codec}: {r.uplink_bytes / max(base.uplink_bytes, 1):.2f}x "
                    f"uplink bytes, accuracy delta "
                    f"{100 * (r.accuracy - base.accuracy):+.2f} pp vs float32"
                )
        return "\n\n".join(blocks)

    def report_for(self, policy: str) -> OffloadReport:
        """Look up one policy row of the comparison."""
        for report in self.policy_reports:
            if report.policy == policy:
                return report
        raise KeyError(f"no report for policy {policy!r}")


def _split_sweep(models: dict[str, object], edge, cloud) -> tuple[list[Table], list[str]]:
    """Partition sweep per model across the link presets + best breakdowns."""
    tables: list[Table] = []
    lines = ["best split per (model, link) — edge/uplink/cloud/downlink breakdown:"]
    for model_name, model in models.items():
        plans = {
            link_name: plan_partitions(model, edge, cloud, link)
            for link_name, link in network_links().items()
        }
        tables.append(
            partition_table(
                plans,
                f"{model_name} split sweep ({edge.name} -> {cloud.name}), "
                "total latency per cut (* = link optimum)",
            )
        )
        for link_name, link_plans in plans.items():
            b = best_partition(link_plans)
            lines.append(
                f"  {model_name:10s} {link_name:9s} cut {b.cut.index:2d} after "
                f"{b.cut.after:10s}: edge {b.edge_s * 1e3:7.3f} + up "
                f"{b.uplink_s * 1e3:7.3f} + cloud {b.cloud_s * 1e3:7.3f} + down "
                f"{b.downlink_s * 1e3:7.3f} = {b.total_s * 1e3:7.3f} ms "
                f"({b.uplink_bytes} B up)"
            )
    return tables, lines


def _run_offload_cell(ctx: dict, task: tuple) -> OffloadReport:
    """One (policy, codec) study cell — module-level for the pool."""
    policy, codec_name, tag = task
    codec = TensorCodec(codec_name)
    cloud = cloud_server_for(
        policy,
        ctx["branchy"],
        ctx["cloud_dev"],
        oracle=ctx["oracle"],
        codec=codec,
        max_batch_size=16,
        max_wait_s=0.004,
    )
    tier = EdgeTier(
        ctx["branchy"],
        ctx["edge"],
        ctx["link"],
        cloud,
        policy,
        codec=codec,
        oracle=ctx["oracle"],
        rng=as_generator(derive_seed(ctx["seed"], ctx["dataset"], "offload-link", tag)),
    )
    return tier.serve(
        ctx["images"], ctx["arrival_s"], labels=ctx["labels"], scenario="steady"
    )


def run_offload_study(
    fast: bool = True,
    seed: int = 0,
    dataset: str = "mnist",
    n_requests: int | None = None,
    link_name: str = "lte",
    policies: tuple[OffloadPolicy, ...] | None = None,
    codecs: tuple[str, ...] = OFFLOAD_CODECS,
    live: bool = False,
    jobs: int = 1,
) -> OffloadStudy:
    """Run the three offload studies and return every report.

    Every policy (and every codec) replays the *same* Zipf-skewed
    request stream and arrival trace, so the p95 column compares
    strategies, not luck.  The load is sized from the calibrated device
    and link models — see :class:`OffloadStudy` for the three rates the
    asserted benchmark checks.

    By default the edge gate, local trunk, and cloud tier answer from a
    precomputed :class:`~repro.sim.OffloadOracle` over the unique test
    images (one pass shared by every policy and codec run, including the
    codec-decoded cloud predictions); ``live=True`` keeps real in-loop
    inference.  ``jobs > 1`` fans the policy/codec grid over a process
    pool via :func:`repro.parallel.pool.parallel_map` with identical
    results (each cell derives its own seed).
    """
    scale = scale_for(fast)
    artifacts = pipeline_for(dataset, scale, seed=seed)
    lenet = lenet_for(dataset, scale, seed=seed)
    branchy = artifacts.branchynet
    edge, cloud_dev = raspberry_pi4(), gci_cpu()
    link = network_links()[link_name]

    test = artifacts.datasets["test"]
    exit_rate = branchy.infer(test.images).early_exit_rate
    lat = branchynet_expected_latency(branchy, edge, exit_rate)
    gate_s, local_mean_s = lat.early_path, lat.expected

    # Raw-image uplink occupancy — the serialization capacity
    # always-remote must live within.  Matches the engine's occupancy
    # model: every attempt holds the link for its serialization, every
    # retry additionally holds it for one RTT timeout, so the expected
    # occupancy is tx·E[attempts] + rtt·E[retries].
    img_bytes = TensorCodec().wire_bytes(int(np.prod(test.images.shape[1:])))
    loss = link.loss_rate
    uplink_occ = (
        link.serialization_s(img_bytes) + link.rtt_s * loss
    ) / (1.0 - loss)

    # Sized to overload both degenerate strategies while the gated edge
    # keeps ~12% headroom: past the Pi's full-model capacity and past
    # the raw-image uplink capacity, below the gate-only capacity.
    rate_hz = min(0.88 / gate_s, 1.25 / local_mean_s)

    if n_requests is None:
        n_requests = 2000 if fast else 5000
    stream_rng = as_generator(derive_seed(seed, dataset, "offload-stream"))
    indices = zipf_popularity(len(test.images), n_requests, exponent=0.9, rng=stream_rng)
    images, labels = test.images[indices], test.labels[indices]
    arrival_s = poisson_arrivals(
        rate_hz, n_requests, rng=as_generator(derive_seed(seed, dataset, "offload-arrivals"))
    )

    sweep_tables, breakdown = _split_sweep(
        {"lenet": lenet, "branchynet": branchy, "cbnet": artifacts.cbnet}, edge, cloud_dev
    )

    if policies is None:
        policies = (
            AlwaysLocal(),
            AlwaysRemote(),
            EntropyGated(),
            # A 200 ms interactive SLO: healthy links meet it (ship hard
            # samples), a collapsed link misses it (fall back to local).
            DeadlineAware(deadline_s=0.2),
        )

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    oracle = None
    if live:
        req_images = images
    else:
        from repro.sim import offload_oracle

        # One shared precomputation: gate statistics, local trunk, stem
        # features, and per-codec cloud predictions over the unique pool.
        oracle = offload_oracle(branchy, test.images)
        req_images = indices
    ctx = {
        "branchy": branchy,
        "edge": edge,
        "cloud_dev": cloud_dev,
        "link": link,
        "oracle": oracle,
        "images": req_images,
        "arrival_s": arrival_s,
        "labels": labels,
        "seed": seed,
        "dataset": dataset,
    }
    # One flat (policy, codec) grid; the float32 entropy-gated run doubles
    # as the codec baseline instead of being re-simulated.
    cells = [(p, "float32", p.name) for p in policies]
    has_gated_f32 = any(p.name == "entropy-gated" for p in policies)
    codec_cells = {
        c: (EntropyGated(), c, f"codec-{c}")
        for c in codecs
        if not (c == "float32" and has_gated_f32)
    }
    cells.extend(codec_cells.values())
    if oracle is not None and jobs > 1:
        # Force the oracle's lazy per-(payload, codec) caches — stem
        # features, decoded payloads, cloud tables — in the parent, so
        # workers inherit them populated instead of each cell re-running
        # the very model passes the oracle exists to amortize.
        distinct: dict[tuple[str, str], tuple] = {}
        for policy, codec_name, _ in cells:
            distinct.setdefault((policy.payload, codec_name), (policy, codec_name))
        for policy, codec_name in distinct.values():
            cloud_server_for(policy, branchy, cloud_dev, oracle=oracle,
                             codec=TensorCodec(codec_name))
    cell_values = parallel_map(
        functools.partial(_run_offload_cell, ctx), cells, n_workers=jobs
    )
    # parallel_map keeps cell order, so the first len(policies) results
    # ARE the policy grid (positional — robust to duplicate policy names);
    # the remaining codec cells have unique tags by construction.
    policy_reports = cell_values[: len(policies)]
    codec_by_tag = {
        cells[i][2]: cell_values[i] for i in range(len(policies), len(cells))
    }
    baseline = next(
        (r for r in policy_reports if r.policy == "entropy-gated" and r.codec == "float32"),
        None,
    )
    codec_reports = [
        baseline
        if c == "float32" and baseline is not None
        else codec_by_tag[f"codec-{c}"]
        for c in codecs
    ]

    return OffloadStudy(
        dataset=dataset,
        edge=edge.name,
        cloud=cloud_dev.name,
        link=link.name,
        n_requests=n_requests,
        exit_rate=exit_rate,
        arrival_rate_hz=rate_hz,
        gate_s=gate_s,
        local_mean_s=local_mean_s,
        uplink_occupancy_s=uplink_occ,
        sweep_tables=sweep_tables,
        breakdown_lines=breakdown,
        policy_reports=policy_reports,
        codec_reports=codec_reports,
    )
