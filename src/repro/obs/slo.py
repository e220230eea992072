"""SLO burn-rate monitoring against per-class deadlines.

Site-reliability practice expresses "are we violating the SLO?" as a
**burn rate**: the fraction of the error budget consumed per unit of
time.  With an attainment objective of, say, 99% of requests inside
their deadline, the error budget is 1% — a window in which 3% of
requests miss burns the budget at 3×, and a sustained burn above a
threshold pages someone.  Here nobody gets paged; instead the monitor
emits typed :class:`SLOAlert` events that tests assert on and future
learned controllers consume as features.

The monitor is windowed on the virtual clock (tumbling windows, same
bucketing as :class:`~repro.obs.metrics.WindowSeries`) and vectorized:
one :meth:`SLOMonitor.observe_many` call per run, fed straight from
``RequestLog`` columns, computes every per-class, per-window burn rate
in NumPy.  Deadlines come from :class:`~repro.serving.classes.RequestClass`
specs when the run is multi-tenant, or from a single scalar SLO
otherwise.  Determinism mirrors the rest of the observability layer:
same inputs, same alerts, oracle or ``--live``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SLOAlert", "SLOMonitor"]


@dataclass(frozen=True)
class SLOAlert:
    """One burn-rate threshold crossing in one window for one class."""

    time_s: float  # window start on the virtual clock
    class_name: str  # RequestClass name, or "default"
    burn_rate: float  # miss_fraction / error_budget for the window
    threshold: float  # configured firing threshold
    window_s: float  # window width
    n_requests: int  # completed requests scored in the window
    n_missed: int  # of which missed their deadline


class SLOMonitor:
    """Computes per-class burn rates over tumbling windows, fires alerts.

    ``objective`` is the attainment target (e.g. 0.99 → 1% error
    budget); ``threshold`` is the burn rate at or above which a window
    fires an alert (``math.inf`` never fires).  ``deadlines`` maps
    class code → deadline seconds and ``names`` maps class code → class
    name; single-class runs pass ``{0: slo_s}`` and leave names
    defaulted.
    """

    def __init__(
        self,
        deadlines: dict[int, float],
        names: dict[int, str] | None = None,
        objective: float = 0.99,
        threshold: float = 2.0,
        window_s: float = 0.1,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        if not 0 < threshold <= math.inf:  # false for NaN too
            raise ValueError(f"threshold must be positive, got {threshold}")
        if not 0 < window_s < math.inf:
            raise ValueError(f"window_s must be positive and finite, got {window_s}")
        if not deadlines:
            raise ValueError("SLOMonitor needs at least one class deadline")
        self.deadlines = dict(deadlines)
        self.names = dict(names or {})
        self.objective = float(objective)
        self.budget = 1.0 - self.objective
        self.threshold = float(threshold)
        self.window_s = float(window_s)
        self.alerts: list[SLOAlert] = []
        # class code -> window -> [n_requests, n_missed]
        self._tallies: dict[int, dict[int, list[int]]] = {
            code: {} for code in self.deadlines
        }

    @classmethod
    def from_classes(cls, classes, **kwargs) -> "SLOMonitor":
        """Build from a :class:`~repro.serving.classes.ClassSet`."""
        deadlines = {c: spec.deadline_s for c, spec in enumerate(classes.classes)}
        names = {c: spec.name for c, spec in enumerate(classes.classes)}
        return cls(deadlines, names=names, **kwargs)

    def observe_many(
        self,
        completion_s: np.ndarray,
        sojourn_s: np.ndarray,
        req_class: np.ndarray | None = None,
    ) -> None:
        """Score a column of completed requests (vectorized, one pass).

        Rows with NaN completion are ignored (shed/lost requests don't
        consume budget — they are accounted by the shed-rate series).
        """
        completion_s = np.asarray(completion_s, dtype=np.float64)
        sojourn_s = np.asarray(sojourn_s, dtype=np.float64)
        done = ~np.isnan(completion_s)
        if req_class is None:
            codes = np.zeros(completion_s.shape[0], dtype=np.int64)
        else:
            codes = np.asarray(req_class, dtype=np.int64)
        for code in self.deadlines:
            sel = done & (codes == code)
            if not sel.any():
                continue
            t = completion_s[sel]
            missed = sojourn_s[sel] > self.deadlines[code]
            win = (t // self.window_s).astype(np.int64)
            tally = self._tallies[code]
            uniq, inv = np.unique(win, return_inverse=True)
            n_per = np.bincount(inv)
            miss_per = np.bincount(inv, weights=missed.astype(np.float64))
            for w, n, m in zip(uniq.tolist(), n_per.tolist(), miss_per.tolist()):
                slot = tally.setdefault(w, [0, 0])
                slot[0] += int(n)
                slot[1] += int(m)

    def burn_rates(self, code: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(window_start_s, burn_rate) arrays for one class, ascending."""
        tally = self._tallies[code]
        wins = sorted(tally)
        t = np.asarray(wins, dtype=np.float64) * self.window_s
        burn = np.array(
            [tally[w][1] / tally[w][0] / self.budget for w in wins], dtype=np.float64
        )
        return t, burn

    def scan(self, tracer=None) -> list[SLOAlert]:
        """Evaluate every window, fire alerts, return the new ones.

        With a ``tracer``, each alert is also recorded as an ``alert``
        instant event so it shows up on the trace timeline.
        """
        from repro.obs.spans import EV_ALERT

        fired: list[SLOAlert] = []
        for code in sorted(self._tallies):
            tally = self._tallies[code]
            name = self.names.get(code, "default")
            for w in sorted(tally):
                n, missed = tally[w]
                burn = missed / n / self.budget if n else 0.0
                if burn >= self.threshold:
                    alert = SLOAlert(
                        time_s=w * self.window_s,
                        class_name=name,
                        burn_rate=float(burn),
                        threshold=self.threshold,
                        window_s=self.window_s,
                        n_requests=n,
                        n_missed=missed,
                    )
                    fired.append(alert)
                    if tracer is not None:
                        tracer.event(EV_ALERT, alert.time_s)
        self.alerts.extend(fired)
        return fired

    def worst_burn(self, code: int = 0) -> float:
        """Maximum windowed burn rate for one class (0.0 if no windows)."""
        _, burn = self.burn_rates(code)
        return float(burn.max()) if burn.size else 0.0

    def attainment(self, code: int = 0) -> float:
        """Overall fraction of scored requests inside deadline (NaN if none)."""
        tally = self._tallies[code]
        n = sum(v[0] for v in tally.values())
        missed = sum(v[1] for v in tally.values())
        return 1.0 - missed / n if n else float("nan")
