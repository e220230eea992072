"""Network chaos experiment: seeded link storms, naive vs deadline-aware.

The netsim claim in one table: the *same* edge fleet replays the *same*
arrival processes over the *same* seeded
:class:`~repro.netsim.faults.LinkFaultPlan` twice.  The **naive** arm
ships every hard sample upstream regardless of link state
(:class:`~repro.offload.policies.EntropyGated` — what the offload grid
did before netsim); the **resilient** arm runs
:class:`~repro.offload.policies.DeadlineAware` against the transports'
*live* congestion estimates, so it falls back to local trunks the
moment an outage, degradation window, or collapsing AIMD window pushes
the remote estimate past the deadline.

Both arms ride full session transports (handshakes, AIMD pacing,
shared-serializer contention, bounded retransmits), so the comparison
is pure policy: every per-seed row must show the resilient arm strictly
ahead on deadline-SLO attainment with zero transfers lost or
double-delivered — exactly what the acceptance test asserts across
ten storm seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.tables import Table
from repro.hw.network import lte, network_links
from repro.netsim.congestion import AIMDConfig
from repro.netsim.faults import (
    DEGRADE,
    FLAP,
    OUTAGE,
    LinkFaultPlan,
    degradation_window,
    flap_at,
    outage_window,
)
from repro.netsim.fleet import FleetDevice, FleetNetReport, run_fleet_net
from repro.netsim.shared import SharedLink
from repro.offload.policies import DeadlineAware, EntropyGated
from repro.utils.rng import as_generator, derive_seed

__all__ = ["NetChaosRun", "NetChaosComparison", "run_netchaos_comparison"]

#: Modern TCP initial window (RFC 6928) — the fleet's transports start
#: here so the first deadline estimate reflects a warmed-up uplink.
_INIT_CWND = 10


def _net_storm_for(horizon_s: float, rng) -> LinkFaultPlan:
    """One structured link storm: outage, two degrades, two flaps.

    Positions and magnitudes carry seeded jitter but every kind always
    appears (a Poisson draw that happens to sample zero faults would
    let the arms tie and void the comparison).  Windows land in
    disjoint jittered slots, so the sorted-and-disjoint invariant holds
    by construction.
    """

    def window(lo: float, hi: float, frac: tuple[float, float]) -> tuple[float, float]:
        start = float(rng.uniform(lo, hi)) * horizon_s
        duration = float(rng.uniform(*frac)) * horizon_s
        return start, duration

    at, dur = window(0.10, 0.14, (0.08, 0.12))
    faults = [outage_window(at, dur)]
    at, dur = window(0.32, 0.36, (0.10, 0.14))
    faults.append(
        degradation_window(
            at,
            dur,
            bandwidth_scale=float(rng.uniform(0.08, 0.25)),
            loss_add=float(rng.uniform(0.10, 0.25)),
        )
    )
    at, dur = window(0.62, 0.66, (0.10, 0.14))
    faults.append(
        degradation_window(
            at,
            dur,
            bandwidth_scale=float(rng.uniform(0.15, 0.40)),
            loss_add=float(rng.uniform(0.05, 0.15)),
        )
    )
    faults.append(flap_at(float(rng.uniform(0.50, 0.56)) * horizon_s))
    faults.append(flap_at(float(rng.uniform(0.84, 0.90)) * horizon_s))
    return LinkFaultPlan(faults=tuple(faults))


@dataclass(frozen=True)
class NetChaosRun:
    """One storm seed's pair of fleet runs over the same plan."""

    storm_seed: int
    plan: LinkFaultPlan
    naive: FleetNetReport
    resilient: FleetNetReport

    @property
    def margin(self) -> float:
        """Resilient minus naive SLO attainment (positive = win)."""
        return self.resilient.slo_attainment - self.naive.slo_attainment


@dataclass(frozen=True)
class NetChaosComparison:
    """All storm seeds' paired runs plus the shared fleet shape."""

    link: str
    n_devices: int
    n_requests: int
    deadline_s: float
    runs: tuple[NetChaosRun, ...]

    @property
    def n_wins(self) -> int:
        """Seeds where the resilient arm strictly beat the naive arm."""
        return sum(run.margin > 0 for run in self.runs)

    @property
    def total_lost(self) -> int:
        """Transfers lost across every arm and seed (must be 0)."""
        return sum(r.naive.n_lost + r.resilient.n_lost for r in self.runs)

    @property
    def total_double(self) -> int:
        """Responses double-delivered across every arm and seed (must be 0)."""
        return sum(
            r.naive.n_double_delivered + r.resilient.n_double_delivered
            for r in self.runs
        )

    def render(self) -> str:
        """Per-seed comparison table plus the headline verdict lines."""
        table = Table(
            headers=[
                "storm",
                "faults (o/d/f)",
                "naive SLO",
                "resilient SLO",
                "margin",
                "res. offload",
                "naive retx amp",
                "drops",
            ],
            title=(
                f"Network chaos ({self.link}) — {self.n_devices} devices, "
                f"{self.n_requests} requests/arm, deadline "
                f"{self.deadline_s * 1e3:.0f} ms"
            ),
        )
        for run in self.runs:
            kinds = {OUTAGE: 0, DEGRADE: 0, FLAP: 0}
            for fault in run.plan.faults:
                kinds[fault.kind] += 1
            n, r = run.naive, run.resilient
            table.add_row(
                str(run.storm_seed),
                f"{kinds[OUTAGE]}/{kinds[DEGRADE]}/{kinds[FLAP]}",
                f"{n.slo_attainment:.1%}",
                f"{r.slo_attainment:.1%}",
                f"{run.margin:+.1%}",
                f"{r.n_offloaded / r.n_requests:.0%}",
                f"{n.retx_amplification:.2f}x",
                str(sum(d.carrier_drops for d in n.devices)),
            )
        mean_naive = sum(r.naive.slo_attainment for r in self.runs) / len(self.runs)
        mean_res = sum(r.resilient.slo_attainment for r in self.runs) / len(self.runs)
        lines = [
            table.render(),
            (
                f"deadline-SLO attainment: resilient {mean_res:.1%} vs naive "
                f"{mean_naive:.1%} (mean over {len(self.runs)} storms); "
                f"resilient wins {self.n_wins}/{len(self.runs)}"
            ),
            (
                f"delivery ledger: {self.total_lost} transfers lost, "
                f"{self.total_double} double-delivered "
                "(sessions re-established across every outage and flap)"
            ),
        ]
        return "\n".join(lines)


def run_netchaos_comparison(
    fast: bool = True,
    seed: int = 0,
    link_name: str = "lte",
    n_storms: int = 10,
    n_devices: int = 4,
) -> NetChaosComparison:
    """Replay ``n_storms`` seeded link storms, naive vs deadline-aware.

    Each storm seed derives one :func:`_net_storm_for` plan and one
    fleet RNG; both arms get *fresh* links carrying the identical plan
    and the identical fleet seed, so arrivals, hard/easy draws, and
    transport sampling streams match request-for-request — the columns
    differ only by the offload policy.  Runs entirely on the virtual
    clock with synthetic payloads (the object under test is the
    network), so it needs no trained models and no dataset.
    """
    if n_storms < 1:
        raise ValueError(f"n_storms must be >= 1, got {n_storms}")
    base = network_links().get(link_name) or lte()
    n_requests = 120 if fast else 400
    spec = FleetDevice(
        rate_hz=15.0,
        n_requests=n_requests,
        up_bytes=8_000,
        down_bytes=40,
        gate_s=2e-3,
        local_s=40e-3,
        cloud_s=4e-3,
        p_hard=0.6,
    )
    deadline_s = 0.25
    aimd = AIMDConfig(init_cwnd=_INIT_CWND)
    horizon_s = n_requests / spec.rate_hz

    runs = []
    for storm_idx in range(n_storms):
        storm_rng = as_generator(derive_seed(seed, "netchaos-storm", storm_idx))
        plan = _net_storm_for(horizon_s, storm_rng)
        fleet_seed = derive_seed(seed, "netchaos-fleet", storm_idx)

        def run_arm(policy) -> FleetNetReport:
            link = SharedLink.from_network_link(base, faults=plan)
            return run_fleet_net(
                link,
                tuple(spec for _ in range(n_devices)),
                policy,
                deadline_s=deadline_s,
                rng=fleet_seed,
                aimd=aimd,
            )

        runs.append(
            NetChaosRun(
                storm_seed=storm_idx,
                plan=plan,
                naive=run_arm(EntropyGated()),
                resilient=run_arm(DeadlineAware(deadline_s)),
            )
        )
    return NetChaosComparison(
        link=base.name,
        n_devices=n_devices,
        n_requests=n_devices * n_requests,
        deadline_s=deadline_s,
        runs=tuple(runs),
    )
