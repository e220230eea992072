"""SLO-driven reactive autoscaling of the replica fleet.

The autoscaler runs on a fixed control interval of the virtual clock and
reads two reactive signals:

* **queue pressure** — outstanding requests per live replica (a leading
  indicator: queues grow before sojourn percentiles do);
* **tail latency** — p95 sojourn of recently completed requests against
  the target SLO (the lagging indicator the fleet is actually judged
  on).

Either signal over its threshold scales **up** by provisioning a fresh
replica, which pays a configurable warm-up before it takes traffic.
Both signals comfortably under threshold scale **down** by *draining*
the most-recently-added replica: it stops receiving, finishes its
queue, and only then stops accruing replica-seconds.  A cooldown between
actions prevents thrash, and ``min_replicas``/``max_replicas`` bound
the fleet.

Replica-seconds (including warm-up time) are the cost side of the
trade; the fleet report puts SLO attainment and replica-seconds side by
side so "as good at lower cost" is a readable claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

__all__ = ["AutoscalerConfig", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tuning knobs of the reactive autoscaler.

    Attributes
    ----------
    slo_s:
        Target p95 sojourn; recent p95 above this triggers a scale-up.
    interval_s:
        Control-loop period on the virtual clock.
    window_s:
        How far back the recent-completions percentile signal looks.
    scale_up_queue, scale_down_queue:
        Outstanding-requests-per-live-replica thresholds.
    min_replicas, max_replicas:
        Fleet size bounds (live = UP + WARMING + DRAINING-not-finished).
    warmup_s:
        Virtual provisioning cost of a fresh replica before it serves.
    cooldown_s:
        Minimum spacing between consecutive scaling actions.
    """

    slo_s: float
    interval_s: float = 0.25
    window_s: float = 1.0
    scale_up_queue: float = 8.0
    scale_down_queue: float = 2.0
    min_replicas: int = 1
    max_replicas: int = 8
    warmup_s: float = 0.25
    cooldown_s: float = 0.5

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every comparison, so it is
        # rejected too; every setting is finite.
        for name in ("slo_s", "interval_s", "window_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("min_replicas", "max_replicas"):
            value = getattr(self, name)
            if not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value}")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"{self.min_replicas}..{self.max_replicas}"
            )
        if not -math.inf < self.scale_down_queue < self.scale_up_queue < math.inf:
            raise ValueError(
                "scale_down_queue must be below scale_up_queue, both finite, got "
                f"{self.scale_down_queue} and {self.scale_up_queue}"
            )
        for name in ("warmup_s", "cooldown_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


class Autoscaler:
    """Reactive controller: watch signals each tick, spawn or drain.

    Parameters
    ----------
    config:
        The :class:`AutoscalerConfig` thresholds.
    spawn_backend:
        Zero-argument factory producing the backend for each newly
        provisioned replica (the scaling *unit* — e.g. "one more
        GCI-CPU CBNet server").
    """

    def __init__(
        self, config: AutoscalerConfig, spawn_backend: Callable[[], InferenceBackend]
    ) -> None:
        self.config = config
        self.spawn_backend = spawn_backend
        self.last_action_s = -float("inf")
        self.n_scale_ups = 0
        self.n_scale_downs = 0

    def tick(self, cluster, now: float) -> str | None:
        """Run one control-loop step against ``cluster`` at time ``now``.

        Returns ``"up"``, ``"down"``, or ``None`` (no action), after
        performing the action through the cluster's ``spawn_replica`` /
        ``drain_replica`` hooks.
        """
        cfg = self.config
        live = cluster.live_replicas()
        n_live = len(live)
        if n_live == 0:
            return None  # a full outage is the failure injector's business
        # Cluster-wide outstanding (including requests stranded by
        # crashes) — stranded work must register as pressure, or an
        # outage could look idle.
        queue_per = cluster.outstanding_total(now) / n_live
        p95 = cluster.recent_p95(now, cfg.window_s)
        if now - self.last_action_s < cfg.cooldown_s:
            return None

        overloaded = queue_per > cfg.scale_up_queue or (
            p95 is not None and p95 > cfg.slo_s
        )
        if overloaded and n_live < cfg.max_replicas:
            cluster.spawn_replica(self.spawn_backend(), now, cfg.warmup_s)
            self.last_action_s = now
            self.n_scale_ups += 1
            return "up"

        relaxed = queue_per < cfg.scale_down_queue and (
            p95 is None or p95 < 0.5 * cfg.slo_s
        )
        if relaxed and n_live > cfg.min_replicas:
            # Never drain the last UP replica: WARMING/DRAINING peers
            # count toward n_live but cannot take traffic, and a fleet
            # with zero receivers strands every arrival.
            ups = [r for r in live if r.available]
            if len(ups) > 1:
                victim = max(ups, key=lambda r: r.replica_id)
                cluster.drain_replica(victim, now)
                self.last_action_s = now
                self.n_scale_downs += 1
                return "down"
        return None

