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

Window validation is shared with :class:`~repro.hw.network.NetworkLink`
via :func:`repro.faults.plan.validate_windows` — one validator, one
error type, for every layer that declares time windows.  A plan is
pure state over time: the transports' loss and jitter draws come from
their own seeded streams, so replays are identical in oracle and
``--live`` modes because nothing here touches model inference.

:func:`link_storm` samples one randomized mixed storm per seed — the
generator the netchaos harness replays across ≥10 seeds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.faults.plan import validate_windows
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
        if self.start_s < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start_s}")
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


@dataclass(frozen=True)
class LinkFaultPlan:
    """One seeded, replayable network storm for a single link.

    Outage and degrade windows must each be sorted and non-overlapping
    (validated by the shared :func:`~repro.faults.plan.validate_windows`
    — the same discipline :class:`~repro.hw.network.NetworkLink`
    enforces on its static ``outages``); flaps are sorted instants.
    """

    faults: tuple[LinkFault, ...] = ()

    def __post_init__(self) -> None:
        by_kind: dict[str, list[LinkFault]] = {k: [] for k in _KINDS}
        for fault in self.faults:
            by_kind[fault.kind].append(fault)
        for kind in (OUTAGE, DEGRADE):
            by_kind[kind].sort(key=lambda f: f.start_s)
            validate_windows(
                [(f.start_s, f.end_s) for f in by_kind[kind]],
                what=kind if kind == OUTAGE else "degradation",
                owner="link fault plan",
            )
        by_kind[FLAP].sort(key=lambda f: f.start_s)
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.start_s, _KINDS.index(f.kind)))
        )
        object.__setattr__(self, "faults", ordered)
        object.__setattr__(
            self, "_outages", tuple((f.start_s, f.end_s) for f in by_kind[OUTAGE])
        )
        object.__setattr__(self, "_degrades", tuple(by_kind[DEGRADE]))
        object.__setattr__(
            self, "_flaps", tuple(f.start_s for f in by_kind[FLAP])
        )

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def outages(self) -> tuple[tuple[float, float], ...]:
        """The declared outage windows, sorted and disjoint."""
        return self._outages  # type: ignore[attr-defined]

    def available_at(self, time_s: float) -> float:
        """Earliest instant >= ``time_s`` outside every outage window."""
        for start, end in self._outages:  # type: ignore[attr-defined]
            if time_s < start:
                break
            if time_s < end:
                time_s = end
        return time_s

    def bandwidth_scale_at(self, time_s: float) -> float:
        """Degradation bandwidth multiplier in effect at ``time_s``."""
        for fault in self._degrades:  # type: ignore[attr-defined]
            if fault.start_s <= time_s < fault.end_s:
                return fault.bandwidth_scale
            if fault.start_s > time_s:
                break
        return 1.0

    def loss_add_at(self, time_s: float) -> float:
        """Extra per-segment loss probability in effect at ``time_s``."""
        for fault in self._degrades:  # type: ignore[attr-defined]
            if fault.start_s <= time_s < fault.end_s:
                return fault.loss_add
            if fault.start_s > time_s:
                break
        return 0.0

    def carrier_drop_in(self, t0: float, t1: float) -> bool:
        """Whether carrier is lost anywhere in ``(t0, t1]``.

        True when a flap instant or an outage *onset* falls inside the
        interval — the signal that drops every established session (the
        transfer in the air is presumed lost; the transport renegotiates
        and resumes).
        """
        flaps = self._flaps  # type: ignore[attr-defined]
        idx = bisect_right(flaps, t0)
        if idx < len(flaps) and flaps[idx] <= t1:
            return True
        return any(t0 < start <= t1 for start, _ in self._outages)  # type: ignore[attr-defined]


def link_storm(
    horizon_s: float,
    rng=None,
    outages: float = 1.0,
    degrades: float = 2.0,
    flaps: float = 2.0,
    mean_window_s: float | None = None,
    degrade_scale: tuple[float, float] = (0.05, 0.4),
    degrade_loss: tuple[float, float] = (0.05, 0.3),
) -> LinkFaultPlan:
    """Sample one randomized mixed network storm (seed-deterministic).

    ``outages``/``degrades``/``flaps`` are Poisson means over the
    horizon; window durations are exponential around ``mean_window_s``
    (default: a tenth of the horizon), with same-kind windows spaced so
    the sorted-and-disjoint invariant holds by construction.
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
                bandwidth_scale=float(rng.uniform(*degrade_scale)),
                loss_add=float(rng.uniform(*degrade_loss)),
            )
        )
    for _ in range(int(rng.poisson(flaps))):
        faults.append(flap_at(float(rng.uniform(0.0, horizon_s))))
    return LinkFaultPlan(faults=tuple(faults))
