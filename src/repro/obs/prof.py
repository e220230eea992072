"""Phase-attribution profiling for the real (wall-clock) hot loops.

Everything else in :mod:`repro.obs` observes *virtual* time — where a
request's simulated latency went.  This module answers the other
question every performance PR needs answered: **where did the host CPU
go?**  ``bench_compare check`` can say a benchmark regressed; the
profiler says *which engine phase* regressed.

Two complementary instruments:

* :class:`PhaseProfiler` — scoped hierarchical timers the engines
  thread through their event loops (``prof=`` parameter, mirroring
  ``obs=``).  Each phase is a node in a tree keyed by the enclosing
  scope path; entering/leaving costs two clock reads and a dict probe,
  cheap enough for the ≤1.15x overhead gate at a million requests.
  The resulting :class:`PhaseReport` carries call counts, total and
  **self** seconds per phase (self = total minus time attributed to
  child phases), renders as a table, and exports to collapsed-stack
  text and speedscope JSON for flamegraphs.  The phase *tree* —
  structure and call counts — is deterministic for a deterministic
  engine run; with an injected virtual clock even the times are.
* :class:`SamplingProfiler` — an optional low-overhead statistical
  mode: a background thread samples the profiled thread's Python stack
  at a fixed interval and attributes each sample to ``repro.*``
  modules.  No instrumentation points needed; useful when the slow
  code is *outside* the phase-annotated loops.

The module-level :func:`current_profiler` hook lets ``tools/
bench_compare.py`` profile an unmodified benchmark run: with
``REPRO_PROF=1`` in the environment, engines built without an explicit
``prof=`` attach to one process-global profiler, and an ``atexit``
handler writes the merged report to ``REPRO_PROF_OUT`` (JSON) — which
is how a regression failure gets re-run and named by phase.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time

__all__ = [
    "PhaseProfiler",
    "PhaseStat",
    "PhaseReport",
    "SamplingProfiler",
    "compare_phase_reports",
    "top_regressing_phase",
    "current_profiler",
    "enable_global_profiler",
    "disable_global_profiler",
]

#: Engine phase names used by the serving/cluster/offload event loops.
#: Kept in one place so tests, docs, and the bench tooling agree.
ENGINE_PHASES = (
    "serve",       # root: one serve_log()/serve() call
    "warmup",      # fastpath plan compilation before dispatch
    "event_loop",  # the virtual-clock loop (self time = queue scans)
    "ingest",      # arrival work: cache probe, admission, routing.  The
                   # cluster scopes this per *burst* of consecutive
                   # arrivals (count = bursts); the serving engine scopes
                   # it per arrival (count = arrivals).
    "batch_form",  # deadline-triggered batch formation
    "dispatch",    # batch dispatch: routing pass + timing model + log writes
    "complete",    # completion handling: purge, response judging
    "events",      # heap events: crash/recover/fault/timeout/retry/hedge/tick
    "inference",   # oracle lookup / live model inference: one predict
                   # per chunk of finished batches (<= max_batch_size rows)
    "report",      # report build: vectorized reductions over the log
)


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
        view :func:`compare_phase_reports` uses, since attribution
        should not depend on which scope happened to trigger the work.
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

    def to_dict(self) -> dict:
        """JSON-ready form (see :meth:`from_dict` for the inverse)."""
        return {
            "schema": 1,
            "total_s": self.total_s,
            "phases": {
                ";".join(r.path): {
                    "count": r.count,
                    "total_s": r.total_s,
                    "self_s": r.self_s,
                }
                for r in self.rows
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PhaseReport":
        """Rebuild a report from :meth:`to_dict` output (JSON round-trip)."""
        rows = [
            PhaseStat(tuple(path.split(";")), int(v["count"]), float(v["total_s"]),
                      float(v["self_s"]))
            for path, v in payload["phases"].items()
        ]
        rows.sort(key=lambda r: r.path)
        return cls(rows)

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


def compare_phase_reports(
    base: PhaseReport | dict, new: PhaseReport | dict
) -> list[tuple[str, float, float, float]]:
    """Per-phase self-time deltas: (name, base_s, new_s, delta_s) rows.

    Accepts live reports or their :meth:`PhaseReport.to_dict` JSON forms
    (what ``BENCH_<n>.json`` / ``REPRO_PROF_OUT`` store).  Rows are
    sorted by delta descending, so the first entry is the phase that
    slowed down the most — the attribution ``bench_compare check``
    prints under a regression failure.
    """
    if isinstance(base, dict):
        base = PhaseReport.from_dict(base)
    if isinstance(new, dict):
        new = PhaseReport.from_dict(new)
    b = {k: v[2] for k, v in base.by_name().items()}
    n = {k: v[2] for k, v in new.by_name().items()}
    rows = [
        (name, b.get(name, 0.0), n.get(name, 0.0), n.get(name, 0.0) - b.get(name, 0.0))
        for name in sorted(set(b) | set(n))
    ]
    rows.sort(key=lambda r: r[3], reverse=True)
    return rows


def top_regressing_phase(base: PhaseReport | dict, new: PhaseReport | dict) -> str:
    """Name of the phase whose self time grew the most from base to new."""
    rows = compare_phase_reports(base, new)
    if not rows:
        raise ValueError("cannot compare two empty phase reports")
    return rows[0][0]


class SamplingProfiler:
    """Statistical stack sampler attributing wall time to ``repro.*`` code.

    A daemon thread wakes every ``interval_s`` and records the profiled
    thread's current Python stack (via ``sys._current_frames``), folded
    to ``module:function`` frames.  Aggregation is a counter per folded
    stack, so an hour-long run costs kilobytes.  Use it when the time
    sink is *outside* the phase-annotated loops — the phase timers say
    "inference got slower", the sampler says *which function*.

    Sampling is wall-clock statistical by nature — the deterministic
    guarantees of :class:`PhaseProfiler` do not apply; exports carry
    sample counts, weighted by the sampling interval.

    Parameters
    ----------
    interval_s:
        Sampling period (default 1 ms — <1% overhead in practice, the
        sampler thread does O(stack depth) work per tick).
    focus:
        Module prefix given attribution priority (default ``"repro"``):
        :meth:`by_module` credits each sample to its innermost ``focus``
        frame.  Frames from this module itself are never recorded.
    """

    def __init__(self, interval_s: float = 0.001, focus: str = "repro") -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self.focus = focus
        self.samples: dict[tuple[str, ...], int] = {}
        self._thread: threading.Thread | None = None
        self._stop_evt = threading.Event()
        self._target_ident: int | None = None

    # ------------------------------------------------------------ control

    def start(self) -> None:
        """Begin sampling the *calling* thread from a background thread."""
        if self._thread is not None:
            raise RuntimeError("sampler already running")
        self._target_ident = threading.get_ident()
        self._stop_evt.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampler thread and seal the sample table."""
        if self._thread is None:
            return
        self._stop_evt.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop_evt.wait(self.interval_s):
            frame = sys._current_frames().get(self._target_ident)
            if frame is not None:
                self._record_frame(frame)

    # ----------------------------------------------------------- recording

    def _record_frame(self, frame) -> None:
        stack: list[str] = []
        while frame is not None:
            module = frame.f_globals.get("__name__", "?")
            if module != __name__:  # never attribute time to the sampler itself
                stack.append(f"{module}:{frame.f_code.co_name}")
            frame = frame.f_back
        stack.reverse()
        self._record_stack(tuple(stack))

    def _record_stack(self, stack: tuple[str, ...]) -> None:
        """Count one folded stack (the unit tests feed synthetic stacks)."""
        self.samples[stack] = self.samples.get(stack, 0) + 1

    # ------------------------------------------------------------- queries

    @property
    def n_samples(self) -> int:
        """Total stack samples recorded so far."""
        return sum(self.samples.values())

    def by_module(self) -> dict[str, int]:
        """Sample counts attributed to the innermost ``focus`` module.

        Walks each stack from the leaf up and credits the first frame
        whose module starts with the ``focus`` prefix; stacks with no
        such frame land under ``"<other>"``.
        """
        prefix = self.focus
        out: dict[str, int] = {}
        for stack, count in self.samples.items():
            owner = "<other>"
            for entry in reversed(stack):
                module = entry.rsplit(":", 1)[0]
                if module == prefix or module.startswith(prefix + "."):
                    owner = module
                    break
            out[owner] = out.get(owner, 0) + count
        return out

    # ------------------------------------------------------------- exports

    def to_collapsed(self, path=None) -> str:
        """Collapsed-stack text (``mod:fn;mod:fn 12``, sample counts)."""
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(self.samples.items())
            if stack
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
        if path is not None:
            with open(str(path), "w") as fh:
                fh.write(text)
        return text

    def to_speedscope(self, path, name: str = "repro sampled profile") -> dict:
        """Write speedscope JSON; weights are seconds (count x interval)."""
        frame_index: dict[str, int] = {}
        frames: list[dict] = []
        samples, weights = [], []
        for stack, count in sorted(self.samples.items()):
            if not stack:
                continue
            idx = []
            for entry in stack:
                i = frame_index.get(entry)
                if i is None:
                    i = frame_index[entry] = len(frames)
                    frames.append({"name": entry})
                idx.append(i)
            samples.append(idx)
            weights.append(count * self.interval_s)
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


# --------------------------------------------------------------------- #
# process-global profiler (the bench_compare re-run hook)
# --------------------------------------------------------------------- #

_GLOBAL: PhaseProfiler | None = None
_GLOBAL_OUT: str | None = None


def current_profiler() -> PhaseProfiler | None:
    """The process-global profiler engines fall back to, or ``None``.

    Engines resolve ``prof if prof is not None else current_profiler()``
    at construction, so an unmodified benchmark suite can be profiled
    from the outside: set ``REPRO_PROF=1`` (and optionally
    ``REPRO_PROF_OUT=<path.json>``) and every engine in the process
    reports into one shared profiler, dumped at interpreter exit.
    """
    return _GLOBAL


def enable_global_profiler(out_path: str | None = None) -> PhaseProfiler:
    """Install (or return) the process-global profiler.

    ``out_path`` registers an ``atexit`` dump of the merged report as
    JSON (:meth:`PhaseReport.to_dict`); without it the rendered table
    goes to stderr instead.  Idempotent — repeat calls return the same
    profiler.
    """
    global _GLOBAL, _GLOBAL_OUT
    if _GLOBAL is None:
        _GLOBAL = PhaseProfiler()
        _GLOBAL_OUT = out_path
        atexit.register(_dump_global)
    return _GLOBAL


def disable_global_profiler() -> None:
    """Remove the process-global profiler (tests use this to isolate)."""
    global _GLOBAL
    _GLOBAL = None


def _dump_global() -> None:
    if _GLOBAL is None:
        return
    # A run that died mid-serve may leave scopes open; close them so the
    # dump never throws at interpreter exit.
    while _GLOBAL.depth:
        _GLOBAL.stop()
    report = _GLOBAL.report()
    if _GLOBAL_OUT:
        with open(_GLOBAL_OUT, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    else:  # pragma: no cover - interactive convenience path
        print("\n[repro.obs.prof] phase report:\n" + report.render(), file=sys.stderr)


if os.environ.get("REPRO_PROF"):  # pragma: no cover - exercised via subprocess
    enable_global_profiler(os.environ.get("REPRO_PROF_OUT") or None)
