"""Class-level call tracing for the benchmark's traced pass.

:class:`Tracer` replaces chosen methods of the program's classes with
timing wrappers for the duration of a ``with`` block and puts the
originals back on exit, so nothing under ``src/`` is edited and an
untraced replay after the block runs the untouched code.  Each wrapper
keeps a call stack and records, per method:

* ``count`` — calls;
* ``entries`` — calls not nested inside another method of the same
  *group* (a ``ResilientBalancer.choose`` that delegates to its inner
  policy's ``choose`` is one entry into the ``choose`` group);
* ``total_ns`` and ``self_ns`` — wall time with and without the time of
  wrapped callees;
* ``items`` — summed ``len()`` of one argument, for batch-sized calls.

Spans (method, start, end, parent span, request id when the call takes
one) are kept in memory up to :data:`SPAN_CAP` and exported in Chrome's
trace-event format, which ui.perfetto.dev opens.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = ["SPAN_CAP", "Target", "Tracer"]

#: Spans kept in memory; later calls are still counted and timed.
SPAN_CAP = 200_000


@dataclass(frozen=True)
class Target:
    """One method to wrap: ``cls.method`` in metric group ``group``.

    ``req_arg``/``items_arg`` are positional indices (``self`` is 0) of
    the argument carrying a request id / a batch whose ``len()`` counts
    items; ``None`` when the call has none.
    """

    group: str
    layer: str
    cls: type
    method: str
    req_arg: int | None = None
    items_arg: int | None = None

    @property
    def label(self) -> str:
        return f"{self.cls.__name__}.{self.method}"


class Tracer:
    """Wrap :class:`Target` methods while the tracer is entered."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = list(targets)
        #: label -> [count, entries, total_ns, self_ns, items]
        self.stats: dict[str, list[int]] = {t.label: [0, 0, 0, 0, 0] for t in self.targets}
        self.spans: list = []
        self._stack: list[list] = []
        self._saved: list[tuple[type, str, object]] = []
        self._labels: list[str] = []
        self._layers: list[str] = []
        self._n_roots = 0

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Tracer":
        groups: dict[str, int] = {}
        try:
            for target in self.targets:
                gid = groups.setdefault(target.group, len(groups))
                own = target.cls.__dict__.get(target.method)
                self._saved.append((target.cls, target.method, own))
                fn = getattr(target.cls, target.method)
                setattr(target.cls, target.method, self._wrap(fn, target, gid))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            cls, method, own = self._saved.pop()
            if own is None:
                delattr(cls, method)  # the wrapper shadowed an inherited method
            else:
                setattr(cls, method, own)

    def _wrap(self, fn, target: Target, gid: int):
        fid = len(self._labels)
        self._labels.append(target.label)
        self._layers.append(target.layer)
        stat = self.stats[target.label]
        stack, spans = self._stack, self.spans
        req_arg, items_arg = target.req_arg, target.items_arg
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            if sid < SPAN_CAP:
                spans.append(None)
            else:
                sid = -1
            parent = stack[-1] if stack else None
            frame = [0, sid, gid]  # [callee ns, span id, group]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                if parent is None or parent[2] != gid:
                    stat[1] += 1
                stat[2] += dur
                stat[3] += dur - frame[0]
                if items_arg is not None:
                    stat[4] += len(args[items_arg])
                if parent is not None:
                    parent[0] += dur
                if sid >= 0:
                    req = int(args[req_arg]) if req_arg is not None else -1
                    spans[sid] = (fid, t0, t1, -1 if parent is None else parent[1], req)

        return traced

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str):
        """Record a root span around a block (e.g. one whole replay).

        Wrapped calls inside the block become its children.
        """
        fid = len(self._labels)
        self._labels.append(name)
        self._layers.append("harness")
        sid = len(self.spans)
        if sid < SPAN_CAP:
            self.spans.append(None)
        else:
            sid = -1
        frame = [0, sid, -1]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._n_roots += 1
            if sid >= 0:
                self.spans[sid] = (fid, t0, t1, -1, -1)

    def group_stats(self) -> dict[str, tuple[int, int, int]]:
        """Per group: (entries, self_ns, items), summed over its methods."""
        out: dict[str, list[int]] = {}
        for target in self.targets:
            _, entries, _, self_ns, items = self.stats[target.label]
            agg = out.setdefault(target.group, [0, 0, 0])
            agg[0] += entries
            agg[1] += self_ns
            agg[2] += items
        return {group: tuple(v) for group, v in out.items()}

    @property
    def n_calls(self) -> int:
        return sum(s[0] for s in self.stats.values())

    def chrome(self) -> dict:
        """The recorded spans as a Chrome trace-event document."""
        kept = [(sid, s) for sid, s in enumerate(self.spans) if s is not None]
        origin = min((s[1] for _, s in kept), default=0)
        events = []
        for sid, (fid, t0, t1, parent, req) in kept:
            args = {"span": sid, "parent": parent}
            if req >= 0:
                args["req"] = req
            events.append(
                {
                    "name": self._labels[fid],
                    "cat": self._layers[fid],
                    "ph": "X",
                    "ts": (t0 - origin) / 1e3,
                    "dur": (t1 - t0) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "spans_kept": len(kept),
                "spans_dropped": self.n_calls + self._n_roots - len(kept),
            },
        }

    def write_chrome(self, path: Path) -> None:
        """Write :meth:`chrome` to ``path`` (parent directories created)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(self.chrome(), fh)
