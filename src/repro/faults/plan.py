"""Fault taxonomy: typed injections on the virtual clock.

A :class:`Fault` sets one replica's *fault state* at a point in
virtual time:

* ``crash`` / ``recover`` — the replica drops instantly: its pending
  micro-batch and every in-flight batch are lost, and the affected
  requests are re-dispatched through the balancer (visible as retries
  and a fattened tail); a recover re-provisions it, and it pays its
  warm-up before taking traffic again;
* ``slowdown`` — the replica's service times are multiplied by
  ``magnitude`` (a straggler / gray failure; ``magnitude=1.0``
  restores nominal speed);
* ``partition`` / ``heal`` — the balancer↔replica link blackholes:
  the replica keeps computing, but its *responses* are withheld until
  the partition heals (the balancer cannot tell it apart from a slow
  replica except through timeouts — exactly the gray-failure shape
  circuit breakers exist for);
* ``flaky`` — every batch dispatched to the replica fails with
  probability ``magnitude`` (sampled from the plan's dedicated seeded
  stream; ``magnitude=0.0`` restores health).  Clients observe the
  failure at the batch's completion time, as they would a 500.

A :class:`FaultPlan` bundles faults into one deterministically-ordered
storm (explicit kind ranks break same-timestamp ties — nothing depends
on string ordering), plus the window helpers, the :func:`crash_window`
and :func:`poisson_failures` crash samplers, and the seeded
:func:`fault_storm` generator the chaos harness replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.rng import as_generator

__all__ = [
    "CRASH",
    "RECOVER",
    "SLOWDOWN",
    "PARTITION",
    "HEAL",
    "FLAKY",
    "Fault",
    "FaultPlan",
    "slowdown_window",
    "partition_window",
    "flaky_window",
    "crash_window",
    "poisson_failures",
    "fault_storm",
    "validate_windows",
]


def validate_windows(
    windows, what: str = "outage", owner: str = ""
) -> tuple[tuple[float, float], ...]:
    """Validate declared ``(start_s, end_s)`` windows; return them normalized.

    The one validator every layer that declares time windows shares —
    :class:`~repro.hw.network.NetworkLink` outages, the
    :mod:`repro.netsim` link fault plans — so "sorted, disjoint,
    end > start" means the same thing (and raises the same
    ``ValueError``) everywhere.  ``owner`` prefixes messages with the
    declaring object's name; ``what`` names the window kind.
    """
    prefix = f"{owner}: " if owner else ""
    normalized: list[tuple[float, float]] = []
    last_end = -float("inf")
    for start, end in windows:
        start, end = float(start), float(end)
        if end <= start:
            raise ValueError(
                f"{prefix}{what} window ({start}, {end}) must have end > start"
            )
        if start < last_end:
            raise ValueError(
                f"{prefix}{what} windows must be sorted and non-overlapping"
            )
        last_end = end
        normalized.append((start, end))
    return tuple(normalized)

CRASH = "crash"
RECOVER = "recover"
SLOWDOWN = "slowdown"
PARTITION = "partition"
HEAL = "heal"
FLAKY = "flaky"

#: Same-timestamp processing order, made explicit so event ordering never
#: depends on how the kind strings happen to sort: at one instant a
#: crash lands first and a recover next, then a partition heals before
#: a new partition starts, slowdown/flaky state changes apply next, and
#: a fresh partition cuts the link last.
KIND_RANK = {CRASH: 0, RECOVER: 1, HEAL: 2, SLOWDOWN: 3, FLAKY: 4, PARTITION: 5}


@dataclass(frozen=True)
class Fault:
    """One typed fault-state change: ``kind`` hits ``replica_id`` at ``time_s``.

    ``magnitude`` is the service-time multiplier for ``slowdown``
    (>= 1 degrades, 1.0 restores) and the per-batch failure probability
    for ``flaky`` (0.0 restores); the other kinds ignore it.  A NaN
    time or magnitude is rejected here, not halfway through a replay.
    """

    time_s: float
    replica_id: int
    kind: str
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if not self.time_s >= 0:  # false for NaN too
            raise ValueError(f"fault time must be >= 0, got {self.time_s}")
        if self.replica_id < 0:
            raise ValueError(f"replica_id must be >= 0, got {self.replica_id}")
        if self.kind not in KIND_RANK:
            raise ValueError(
                f"kind must be one of {tuple(KIND_RANK)}, got {self.kind!r}"
            )
        if math.isnan(self.magnitude):
            raise ValueError(f"fault magnitude must be a number, got {self.magnitude}")
        if self.kind == SLOWDOWN and self.magnitude < 1.0:
            raise ValueError(
                f"slowdown magnitude is a service multiplier >= 1, got {self.magnitude}"
            )
        if self.kind == FLAKY and not 0.0 <= self.magnitude < 1.0:
            raise ValueError(
                f"flaky magnitude is a failure probability in [0, 1), got {self.magnitude}"
            )

    def sort_key(self) -> tuple[float, int, int]:
        """Deterministic ordering: time, then replica, then explicit rank."""
        return (self.time_s, self.replica_id, KIND_RANK[self.kind])

    def __lt__(self, other: "Fault") -> bool:
        return self.sort_key() < other.sort_key()


def slowdown_window(
    replica_id: int, at_s: float, duration_s: float, factor: float
) -> tuple[Fault, Fault]:
    """A straggler window: ``factor``× service from ``at_s``, healed after."""
    if duration_s <= 0:
        raise ValueError(f"slowdown duration must be positive, got {duration_s}")
    return (
        Fault(at_s, replica_id, SLOWDOWN, factor),
        Fault(at_s + duration_s, replica_id, SLOWDOWN, 1.0),
    )


def partition_window(
    replica_id: int, at_s: float, duration_s: float
) -> tuple[Fault, Fault]:
    """A link blackhole from ``at_s``, healing ``duration_s`` later."""
    if duration_s <= 0:
        raise ValueError(f"partition duration must be positive, got {duration_s}")
    return (
        Fault(at_s, replica_id, PARTITION),
        Fault(at_s + duration_s, replica_id, HEAL),
    )


def flaky_window(
    replica_id: int, at_s: float, duration_s: float, p_fail: float
) -> tuple[Fault, Fault]:
    """Elevated per-batch failure probability over one window."""
    if duration_s <= 0:
        raise ValueError(f"flaky duration must be positive, got {duration_s}")
    return (
        Fault(at_s, replica_id, FLAKY, p_fail),
        Fault(at_s + duration_s, replica_id, FLAKY, 0.0),
    )


def crash_window(
    replica_id: int, at_s: float, duration_s: float
) -> tuple[Fault, Fault]:
    """A crash at ``at_s`` followed by recovery ``duration_s`` later."""
    if duration_s <= 0:
        raise ValueError(f"outage duration must be positive, got {duration_s}")
    return (
        Fault(at_s, replica_id, CRASH),
        Fault(at_s + duration_s, replica_id, RECOVER),
    )


def poisson_failures(
    n_replicas: int,
    horizon_s: float,
    mtbf_s: float,
    mttr_s: float,
    rng=None,
) -> tuple[Fault, ...]:
    """Sample independent crash/repair cycles for every replica.

    Each replica alternates exponential up-times (mean ``mtbf_s``) and
    exponential outages (mean ``mttr_s``) over ``[0, horizon_s)`` — the
    standard renewal model behind "nines" arithmetic, here made
    replayable on the virtual clock.
    """
    if n_replicas <= 0:
        raise ValueError(f"n_replicas must be positive, got {n_replicas}")
    if horizon_s <= 0 or mtbf_s <= 0 or mttr_s <= 0:
        raise ValueError("horizon_s, mtbf_s, and mttr_s must all be positive")
    rng = as_generator(rng)
    events: list[Fault] = []
    for replica_id in range(n_replicas):
        t = float(rng.exponential(mtbf_s))
        while t < horizon_s:
            outage = float(rng.exponential(mttr_s))
            events.append(Fault(t, replica_id, CRASH))
            if t + outage < horizon_s:
                events.append(Fault(t + outage, replica_id, RECOVER))
            t += outage + float(rng.exponential(mtbf_s))
    return tuple(sorted(events))


@dataclass(frozen=True)
class FaultPlan:
    """One seeded, replayable fault storm.

    ``faults`` are the typed state changes above, crashes included,
    sorted with explicit tie ranks at construction.  ``seed`` feeds the
    *dedicated* RNG the cluster engine samples flaky batch failures and
    retry jitter from — independent of the balancer's stream, so adding
    a fault plan never perturbs policy decisions, and identical in
    oracle and ``--live`` modes.
    """

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(sorted(self.faults)))

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def failures(self) -> tuple[Fault, ...]:
        """The plan's crash and recover entries, in plan order."""
        return tuple(f for f in self.faults if f.kind in (CRASH, RECOVER))

    def max_replica_id(self) -> int:
        """Largest replica id any fault targets (-1 for an empty plan)."""
        return max((f.replica_id for f in self.faults), default=-1)

    def partition_intervals(self) -> dict[int, list[tuple[float, float]]]:
        """Per-replica blackhole windows ``[(start, end), ...]``.

        Overlapping windows merge (a nesting counter pairs each
        ``partition`` with the ``heal`` that brings the count back to
        zero); an unhealed partition extends to infinity.  The engine
        uses these *static* intervals to defer response completions past
        the heal, which is why partitions are declared in the plan
        rather than mutated mid-run.
        """
        intervals: dict[int, list[tuple[float, float]]] = {}
        depth: dict[int, int] = {}
        open_at: dict[int, float] = {}
        for f in self.faults:
            if f.kind == PARTITION:
                if depth.get(f.replica_id, 0) == 0:
                    open_at[f.replica_id] = f.time_s
                depth[f.replica_id] = depth.get(f.replica_id, 0) + 1
            elif f.kind == HEAL and depth.get(f.replica_id, 0) > 0:
                depth[f.replica_id] -= 1
                if depth[f.replica_id] == 0:
                    intervals.setdefault(f.replica_id, []).append(
                        (open_at.pop(f.replica_id), f.time_s)
                    )
        for replica_id, start in open_at.items():
            intervals.setdefault(replica_id, []).append((start, float("inf")))
        for spans in intervals.values():
            spans.sort()
        return intervals


def fault_storm(
    n_replicas: int,
    horizon_s: float,
    rng=None,
    mean_window_s: float | None = None,
    slowdown_factor: tuple[float, float] = (4.0, 16.0),
    flaky_p: tuple[float, float] = (0.2, 0.7),
    windows_per_replica: float = 1.5,
    crash_mtbf_s: float | None = None,
    crash_mttr_s: float | None = None,
) -> FaultPlan:
    """Sample one randomized mixed fault storm (seed-deterministic).

    Each replica independently draws ~``windows_per_replica`` fault
    windows uniformly over ``[0, horizon_s)``; each window is a
    slowdown, partition, or flaky episode with equal probability, with
    magnitudes drawn from the given ranges and durations exponential
    around ``mean_window_s`` (default: an eighth of the horizon).
    ``crash_mtbf_s`` and ``crash_mttr_s``, given together, additionally
    overlay :func:`poisson_failures` renewal crashes.  The plan's
    ``seed`` is derived from the same stream, so one integer seed
    reproduces the storm *and* its in-run sampling.
    """
    if n_replicas <= 0:
        raise ValueError(f"n_replicas must be positive, got {n_replicas}")
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    if (crash_mtbf_s is None) != (crash_mttr_s is None):
        raise ValueError("crash_mtbf_s and crash_mttr_s must be given together")
    rng = as_generator(rng)
    mean_window_s = horizon_s / 8.0 if mean_window_s is None else float(mean_window_s)
    faults: list[Fault] = []
    for replica_id in range(n_replicas):
        n_windows = int(rng.poisson(windows_per_replica))
        for _ in range(n_windows):
            at = float(rng.uniform(0.0, horizon_s))
            duration = min(
                max(1e-6, float(rng.exponential(mean_window_s))), horizon_s - at + 1e-6
            )
            kind = ("slowdown", "partition", "flaky")[int(rng.integers(3))]
            if kind == "slowdown":
                factor = float(rng.uniform(*slowdown_factor))
                faults.extend(slowdown_window(replica_id, at, duration, factor))
            elif kind == "partition":
                faults.extend(partition_window(replica_id, at, duration))
            else:
                p = float(rng.uniform(*flaky_p))
                faults.extend(flaky_window(replica_id, at, duration, p))
    if crash_mtbf_s is not None:
        faults.extend(
            poisson_failures(n_replicas, horizon_s, crash_mtbf_s, crash_mttr_s, rng=rng)
        )
    seed = int(rng.integers(2**31 - 1))
    return FaultPlan(faults=tuple(faults), seed=seed)
