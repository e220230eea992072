"""Network fault plans: seeded, replayable chaos for the edge↔cloud link.

The cluster layer's :class:`~repro.faults.plan.FaultPlan` injects typed
replica faults; this module is its *network* twin.  A
:class:`LinkFaultPlan` drives one link's state over virtual time with
three fault kinds:

* ``outage`` — the link is cut over a window: nothing transmits,
  transfers defer to the window's end, and every established session
  loses carrier (it must renegotiate);
* ``degrade`` — a window of reduced bandwidth (``bandwidth_scale``)
  and/or elevated loss (``loss_add``) — the "walking into the parking
  garage" mode that makes AIMD windows shrink and deadline policies
  fall back local;
* ``flap`` — an instantaneous carrier blip: the link itself is fine a
  moment later, but sessions drop and must re-run their conf-req /
  conf-ack handshake (mid-flight transfers resume after renegotiation).

A plan is pure state over time: the transports' loss and jitter draws
come from their own seeded streams, so replays are identical in oracle
and ``--live`` modes because nothing here touches model inference.

:func:`link_storm` samples one randomized mixed storm per seed — the
generator the netchaos harness replays across ≥10 seeds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from repro.utils.rng import as_generator

__all__ = [
    "OUTAGE",
    "DEGRADE",
    "FLAP",
    "LinkFault",
    "LinkFaultPlan",
    "outage_window",
    "degradation_window",
    "flap_at",
    "link_storm",
]

OUTAGE = "outage"
DEGRADE = "degrade"
FLAP = "flap"

_KINDS = (OUTAGE, DEGRADE, FLAP)


@dataclass(frozen=True)
class LinkFault:
    """One typed link-state change over ``[start_s, end_s)``.

    ``flap`` faults are instantaneous (``end_s == start_s``);
    ``bandwidth_scale``/``loss_add`` only matter for ``degrade``
    windows (scale multiplies the nominal bandwidth, ``loss_add`` adds
    to the per-segment loss probability while the window is active).
    """

    kind: str
    start_s: float
    end_s: float
    bandwidth_scale: float = 1.0
    loss_add: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0 <= self.start_s < math.inf:  # false for NaN too
            raise ValueError(f"fault start must be finite and >= 0, got {self.start_s}")
        if not math.isfinite(self.end_s):
            raise ValueError(f"fault end must be finite, got {self.end_s}")
        if self.kind == FLAP:
            if self.end_s != self.start_s:
                raise ValueError(
                    f"a flap is instantaneous: end_s ({self.end_s}) must equal "
                    f"start_s ({self.start_s})"
                )
        elif self.end_s <= self.start_s:
            raise ValueError(
                f"{self.kind} window ({self.start_s}, {self.end_s}) must have "
                "end > start"
            )
        if not 0.0 < self.bandwidth_scale <= 1.0:
            raise ValueError(
                f"bandwidth_scale must be in (0, 1], got {self.bandwidth_scale}"
            )
        if not 0.0 <= self.loss_add < 1.0:
            raise ValueError(f"loss_add must be in [0, 1), got {self.loss_add}")


def outage_window(at_s: float, duration_s: float) -> LinkFault:
    """The link cut outright over one window (sessions lose carrier)."""
    if duration_s <= 0:
        raise ValueError(f"outage duration must be positive, got {duration_s}")
    return LinkFault(OUTAGE, at_s, at_s + duration_s)


def degradation_window(
    at_s: float,
    duration_s: float,
    bandwidth_scale: float = 1.0,
    loss_add: float = 0.0,
) -> LinkFault:
    """Reduced bandwidth and/or elevated loss over one window."""
    if duration_s <= 0:
        raise ValueError(f"degradation duration must be positive, got {duration_s}")
    return LinkFault(
        DEGRADE, at_s, at_s + duration_s, bandwidth_scale=bandwidth_scale,
        loss_add=loss_add,
    )


def flap_at(at_s: float) -> LinkFault:
    """An instantaneous carrier blip: sessions drop, the link survives."""
    return LinkFault(FLAP, at_s, at_s)


def _require_disjoint(windows: list[LinkFault], what: str) -> None:
    """Raise unless the start-sorted ``windows`` do not overlap."""
    for before, after in zip(windows, windows[1:]):
        if after.start_s < before.end_s:
            raise ValueError(
                f"link fault plan: {what} windows must be sorted and non-overlapping"
            )


@dataclass(frozen=True)
class LinkFaultPlan:
    """One seeded, replayable network storm for a single link.

    Outage and degrade windows are sorted and must not overlap their
    own kind; flaps are sorted instants.  Construction compiles the
    windows into sorted lists, so each point query is one
    ``bisect_right``, however many windows the storm holds.
    """

    faults: tuple[LinkFault, ...] = ()

    def __post_init__(self) -> None:
        by_kind: dict[str, list[LinkFault]] = {k: [] for k in _KINDS}
        for fault in self.faults:
            by_kind[fault.kind].append(fault)
        for kind in (OUTAGE, DEGRADE):
            by_kind[kind].sort(key=lambda f: f.start_s)
            _require_disjoint(by_kind[kind], kind if kind == OUTAGE else "degradation")
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.start_s, _KINDS.index(f.kind)))
        )
        outages, degrades = by_kind[OUTAGE], by_kind[DEGRADE]
        ends = [f.end_s for f in outages]
        # An outage's exit follows windows that touch it (the next one
        # starts where it ends) to the last end of that chain.
        exits = ends[:]
        for k in range(len(outages) - 2, -1, -1):
            if outages[k + 1].start_s <= ends[k]:
                exits[k] = exits[k + 1]
        compiled = {
            "faults": ordered,
            "_out_starts": [f.start_s for f in outages],
            "_out_ends": ends,
            "_out_exits": exits,
            "_deg_starts": [f.start_s for f in degrades],
            "_deg_ends": [f.end_s for f in degrades],
            "_deg_scales": [f.bandwidth_scale for f in degrades],
            "_deg_losses": [f.loss_add for f in degrades],
            # Every instant that drops carrier: flaps and outage onsets.
            "_drops": sorted(
                [f.start_s for f in by_kind[FLAP]] + [f.start_s for f in outages]
            ),
        }
        for name, value in compiled.items():
            object.__setattr__(self, name, value)

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def outages(self) -> tuple[tuple[float, float], ...]:
        """The declared outage windows, sorted and disjoint."""
        return tuple(zip(self._out_starts, self._out_ends))  # type: ignore[attr-defined]

    def available_at(self, time_s: float) -> float:
        """Earliest instant >= ``time_s`` outside every outage window."""
        k = bisect_right(self._out_starts, time_s) - 1  # type: ignore[attr-defined]
        if k >= 0 and time_s < self._out_ends[k]:  # type: ignore[attr-defined]
            return self._out_exits[k]  # type: ignore[attr-defined]
        return time_s

    def bandwidth_scale_at(self, time_s: float) -> float:
        """Degradation bandwidth multiplier in effect at ``time_s``."""
        k = bisect_right(self._deg_starts, time_s) - 1  # type: ignore[attr-defined]
        if k >= 0 and time_s < self._deg_ends[k]:  # type: ignore[attr-defined]
            return self._deg_scales[k]  # type: ignore[attr-defined]
        return 1.0

    def loss_add_at(self, time_s: float) -> float:
        """Extra per-segment loss probability in effect at ``time_s``."""
        k = bisect_right(self._deg_starts, time_s) - 1  # type: ignore[attr-defined]
        if k >= 0 and time_s < self._deg_ends[k]:  # type: ignore[attr-defined]
            return self._deg_losses[k]  # type: ignore[attr-defined]
        return 0.0

    def carrier_drop_in(self, t0: float, t1: float) -> bool:
        """Whether carrier is lost anywhere in ``(t0, t1]``.

        True when a flap instant or an outage *onset* falls inside the
        interval — the signal that drops every established session (the
        transfer in the air is presumed lost; the transport renegotiates
        and resumes).
        """
        drops = self._drops  # type: ignore[attr-defined]
        k = bisect_right(drops, t0)
        return k < len(drops) and drops[k] <= t1


#: Ranges a storm draws each degrade window's bandwidth scale and
#: added loss from.
_STORM_SCALE = (0.05, 0.4)
_STORM_LOSS = (0.05, 0.3)


def link_storm(
    horizon_s: float,
    rng=None,
    outages: float = 1.0,
    degrades: float = 2.0,
    flaps: float = 2.0,
    mean_window_s: float | None = None,
) -> LinkFaultPlan:
    """Sample one randomized mixed network storm (seed-deterministic).

    ``outages``/``degrades``/``flaps`` are Poisson means over the
    horizon; window durations are exponential around ``mean_window_s``
    (default: a tenth of the horizon), with same-kind windows spaced so
    the sorted-and-disjoint invariant holds by construction.  Each
    degrade window scales bandwidth by a factor uniform in [0.05, 0.4)
    and adds a loss probability uniform in [0.05, 0.3).
    """
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    rng = as_generator(rng)
    mean_window_s = horizon_s / 10.0 if mean_window_s is None else float(mean_window_s)
    faults: list[LinkFault] = []

    def windows(mean_count: float) -> list[tuple[float, float]]:
        n = int(rng.poisson(mean_count))
        starts = sorted(float(rng.uniform(0.0, horizon_s)) for _ in range(n))
        spans = []
        for i, at in enumerate(starts):
            limit = starts[i + 1] if i + 1 < len(starts) else horizon_s + mean_window_s
            duration = min(
                max(1e-6, float(rng.exponential(mean_window_s))),
                max(1e-6, limit - at - 1e-9),
            )
            spans.append((at, duration))
        return spans

    for at, duration in windows(outages):
        faults.append(outage_window(at, duration))
    for at, duration in windows(degrades):
        faults.append(
            degradation_window(
                at,
                duration,
                bandwidth_scale=float(rng.uniform(*_STORM_SCALE)),
                loss_add=float(rng.uniform(*_STORM_LOSS)),
            )
        )
    for _ in range(int(rng.poisson(flaps))):
        faults.append(flap_at(float(rng.uniform(0.0, horizon_s))))
    return LinkFaultPlan(faults=tuple(faults))
