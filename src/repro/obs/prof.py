"""Phase-attribution profiling for the real (wall-clock) hot loops.

Everything else in :mod:`repro.obs` observes *virtual* time — where a
request's simulated latency went.  This module answers the other
question every performance PR needs answered: **where did the host CPU
go?**  The layered benchmark can say a workload got slower; the
profiler says *which engine phase* got slower.

:class:`PhaseProfiler` is a set of scoped hierarchical timers that
:class:`~repro.cluster.engine.Cluster` threads through its event loop
when one is passed as ``prof=`` (mirroring ``obs=``).  Each phase is a
node in a tree keyed by the enclosing scope path; entering/leaving
costs two clock reads and a dict probe, cheap enough for the ≤1.15x
overhead gate at a million requests.  The resulting
:class:`PhaseReport` carries call counts, total and **self** seconds
per phase (self = total minus time attributed to child phases), renders
as a table, and exports to collapsed-stack text and speedscope JSON for
flamegraphs.  The phase *tree* — structure and call counts — is
deterministic for a deterministic engine run; with an injected virtual
clock even the times are.  For time spent outside the annotated phases,
run the standard library's :mod:`cProfile` over the same call.
"""

from __future__ import annotations

import json
import time

__all__ = [
    "PhaseProfiler",
    "PhaseStat",
    "PhaseReport",
]

class _Node:
    """One phase in the tree: aggregate count/total under one scope path."""

    __slots__ = ("name", "count", "total_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.children: dict[str, _Node] = {}


class _Scope:
    """Reusable ``with`` adapter around one profiler + phase name."""

    __slots__ = ("_prof", "_name")

    def __init__(self, prof: "PhaseProfiler", name: str) -> None:
        self._prof = prof
        self._name = name

    def __enter__(self) -> None:
        self._prof.start(self._name)

    def __exit__(self, *exc) -> None:
        self._prof.stop()


class PhaseStat:
    """One row of a :class:`PhaseReport`: a phase path and its totals."""

    __slots__ = ("path", "count", "total_s", "self_s")

    def __init__(self, path: tuple[str, ...], count: int, total_s: float, self_s: float):
        self.path = path
        self.count = count
        self.total_s = total_s
        self.self_s = self_s

    @property
    def name(self) -> str:
        """Leaf phase name (last path component)."""
        return self.path[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhaseStat({';'.join(self.path)}, n={self.count}, "
            f"total={self.total_s:.6f}s, self={self.self_s:.6f}s)"
        )


class PhaseReport:
    """Frozen view of a finished profile: rows in depth-first tree order.

    ``self_s`` is each phase's total minus its children's totals — the
    time spent *in* the phase rather than in an annotated sub-phase —
    so self times sum to the root totals and a flamegraph built from
    them conserves width.
    """

    def __init__(self, rows: list[PhaseStat]) -> None:
        self.rows = tuple(rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def total_s(self) -> float:
        """Wall seconds across the root phases."""
        return sum(r.total_s for r in self.rows if len(r.path) == 1)

    def signature(self) -> tuple[tuple[tuple[str, ...], int], ...]:
        """The deterministic shape of the profile: (path, count) rows.

        Two profiled replays of the same deterministic scenario produce
        identical signatures even though wall times differ — this is
        what the determinism tests pin.
        """
        return tuple(sorted((r.path, r.count) for r in self.rows))

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """Aggregate rows by leaf phase name: name -> (count, total, self).

        A phase that appears under several parents (``dispatch`` under
        both ``ingest`` and ``batch_form``) folds into one entry — the
        view to compare two runs by, since attribution should not
        depend on which scope happened to trigger the work.
        """
        out: dict[str, list[float]] = {}
        for r in self.rows:
            agg = out.setdefault(r.name, [0, 0.0, 0.0])
            agg[0] += r.count
            agg[1] += r.total_s
            agg[2] += r.self_s
        return {k: (int(c), t, s) for k, (c, t, s) in out.items()}

    def get(self, *path: str) -> PhaseStat | None:
        """Look up one row by its full path (``get("serve", "report")``)."""
        for r in self.rows:
            if r.path == path:
                return r
        return None

    def render(self) -> str:
        """Fixed-width table: indentation mirrors the phase tree."""
        lines = [f"{'phase':<40} {'calls':>10} {'total':>12} {'self':>12}"]
        for r in self.rows:
            label = "  " * (len(r.path) - 1) + r.name
            lines.append(
                f"{label:<40} {r.count:>10d} {r.total_s * 1e3:>9.2f} ms "
                f"{r.self_s * 1e3:>9.2f} ms"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------- exports

    def to_collapsed(self, path=None) -> str:
        """Collapsed-stack text (``a;b;c 1234``, self-microseconds).

        The format Brendan Gregg's ``flamegraph.pl`` and speedscope both
        ingest; one line per phase path with nonzero self time.  Returns
        the text; ``path`` additionally writes it to a file.
        """
        lines = [
            f"{';'.join(r.path)} {max(1, round(r.self_s * 1e6))}"
            for r in self.rows
            if r.self_s > 0.0
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
        if path is not None:
            with open(str(path), "w") as fh:
                fh.write(text)
        return text

    def to_speedscope(self, path, name: str = "repro phase profile") -> dict:
        """Write speedscope JSON (https://www.speedscope.app) and return it.

        Each phase path becomes one weighted sample in a ``sampled``
        profile, weighted by self time, so the flamegraph's widths are
        the self-time attribution.
        """
        frame_index: dict[str, int] = {}
        frames: list[dict] = []

        def frame(n: str) -> int:
            idx = frame_index.get(n)
            if idx is None:
                idx = frame_index[n] = len(frames)
                frames.append({"name": n})
            return idx

        samples, weights = [], []
        for r in self.rows:
            if r.self_s <= 0.0:
                continue
            samples.append([frame(n) for n in r.path])
            weights.append(r.self_s)
        payload = {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": sum(weights),
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "name": name,
            "exporter": "repro.obs.prof",
        }
        with open(str(path), "w") as fh:
            json.dump(payload, fh)
        return payload


class PhaseProfiler:
    """Scoped hierarchical wall-clock timers for the engine hot loops.

    Usage::

        prof = PhaseProfiler()
        with prof.phase("serve"):
            with prof.phase("dispatch"):
                ...
        print(prof.report().render())

    Hot paths skip the context-manager allocation and call
    :meth:`start`/:meth:`stop` directly — two clock reads, one dict
    probe, and a list push/pop per scope.  Nested scopes build a tree
    keyed by the enclosing path, so ``dispatch`` under ``ingest`` and
    ``dispatch`` under ``batch_form`` are distinct rows (and fold back
    together in :meth:`PhaseReport.by_name`).

    Parameters
    ----------
    clock:
        0-arg callable returning seconds; ``time.perf_counter`` by
        default.  Injecting a fake clock makes even the recorded times
        deterministic (the tests do), while structure and call counts
        are deterministic under any clock.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._root = _Node("")
        self._cur = self._root
        self._stack: list[tuple[_Node, _Node, float]] = []

    def start(self, name: str) -> None:
        """Enter phase ``name`` as a child of the current scope."""
        cur = self._cur
        node = cur.children.get(name)
        if node is None:
            node = cur.children[name] = _Node(name)
        self._stack.append((cur, node, self._clock()))
        self._cur = node

    def stop(self) -> None:
        """Leave the innermost open phase, crediting its elapsed time."""
        prev, node, t0 = self._stack.pop()
        node.total_s += self._clock() - t0
        node.count += 1
        self._cur = prev

    def phase(self, name: str) -> _Scope:
        """``with``-statement adapter for :meth:`start`/:meth:`stop`."""
        return _Scope(self, name)

    @property
    def depth(self) -> int:
        """Number of currently open scopes (0 when idle)."""
        return len(self._stack)

    def reset(self) -> None:
        """Drop all recorded phases (open scopes must be closed first)."""
        if self._stack:
            raise RuntimeError(f"cannot reset with {len(self._stack)} open scope(s)")
        self._root = _Node("")
        self._cur = self._root

    def report(self) -> PhaseReport:
        """Snapshot the tree as a :class:`PhaseReport` (depth-first order).

        Self time is total minus the children's totals, clamped at zero
        (a child re-entered from its own subtree would otherwise
        double-subtract; the engines never nest a phase inside itself).
        """
        if self._stack:
            raise RuntimeError(
                f"cannot report with {len(self._stack)} open scope(s); "
                "close every phase() first"
            )
        rows: list[PhaseStat] = []

        def walk(node: _Node, path: tuple[str, ...]) -> None:
            for name, child in node.children.items():
                child_path = path + (name,)
                child_total = sum(g.total_s for g in child.children.values())
                rows.append(
                    PhaseStat(
                        child_path,
                        child.count,
                        child.total_s,
                        max(0.0, child.total_s - child_total),
                    )
                )
                walk(child, child_path)

        walk(self._root, ())
        return PhaseReport(rows)
