"""One benchmark process: set up one workload, replay it, print JSON.

``run.py`` starts this script once per measurement so that every
workload runs in a fresh interpreter, one at a time::

    child.py setup   WORKLOAD SEED [--smoke]
    child.py measure WORKLOAD SEED SECONDS [--smoke]
    child.py trace   WORKLOAD SEED OUT_DIR [--smoke]

The last line of standard output is one JSON object.  The program is
imported inside :func:`setup`, so set-up time covers imports, the
artifact load, the oracle table build, input generation and fastpath
warm-up.  The functions are importable, so the self-test drives the
same code in its own process.

Host speed on a shared machine drifts by up to 2x over minutes.  Every
timed interval is therefore reported next to :func:`calibrate`, a fixed
kernel shaped like the simulator's two kinds of work (pure-Python heap,
dict and list traffic, and the small float32 GEMMs of live inference),
run right after the interval (replays: right before and after), and
``run.py`` scales each interval by ``CAL_REF_S / calibration`` to
*reference-host seconds*.  On a 2-vCPU Xeon VM, with a competing
process switched on for half of ten runs, that cut the quartile spread
of ``fleet_64``'s replay time from 21% to 4.9%.  The kernel is part of
the benchmark, never of the program, so a change to the simulator moves
the interval and not the kernel.
"""

import gc
import heapq
import json
import resource
import sys
import time
import traceback
from pathlib import Path

#: Fewest timed replays per process, whatever ``seconds`` allows.
MIN_REPLAYS = 3
#: Most replays per process (a bound for a replay that fails instantly).
MAX_REPLAYS = 200
#: :func:`calibrate`'s time on the reference host (a quiet 2-vCPU Xeon
#: VM, single-threaded BLAS); scaled times are in that host's seconds.
CAL_REF_S = 0.04
_CAL_STEPS = 30_000
_CAL_GEMMS = 150


def calibrate() -> float:
    """Seconds one fixed heap/dict/list + GEMM kernel takes on this host now."""
    import numpy as np

    a = np.full((32, 784), 0.5, dtype=np.float32)
    b = np.full((784, 256), 0.25, dtype=np.float32)
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    out: list = []
    x = 12345
    for i in range(_CAL_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i, i & 511))
        if len(heap) > 64:
            t, j, k = heapq.heappop(heap)
            table[k] = table.get(k, 0) + j
            out.append(t)
    for _ in range(_CAL_GEMMS):
        np.dot(a, b)
    return time.perf_counter() - t0


def setup(name: str, seed: int, smoke: bool = False) -> tuple:
    """Import the program and build the workload.

    Returns ``(workload, setup_s, cal_s)``: the raw set-up seconds and
    the calibration right after them.
    """
    t0 = time.perf_counter()
    import workloads

    wl = workloads.build(name, workloads.load_context(), seed, smoke)
    setup_s = time.perf_counter() - t0
    return wl, setup_s, calibrate()


def _replay(wl, failures: list[str]):
    """One replay: ``(result, ok)``; ``result`` is ``None`` if it raised.

    ``ok`` is false when the replay raised (traceback to stderr) or
    failed a correctness check; the reasons are appended to ``failures``.
    """
    try:
        result = wl.replay()
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        failures.append("replay raised")
        return None, False
    failures.extend(result.failures)
    return result, not result.failures


def replays(wl, seconds: float) -> dict:
    """Replay ``wl`` for about ``seconds`` (at least ``MIN_REPLAYS`` times).

    Another replay starts only while the previous one would still finish
    inside the budget.  ``gc.collect()`` and a calibration run before
    each replay, and one calibration after the last; each replay's
    ``cal_s`` is the mean of the two around it.
    """
    times: list[float] = []
    cals = [calibrate()]
    digests: set[str] = set()
    failures: list[str] = []
    attempted = failed = 0
    last = None
    begin = time.perf_counter()
    while attempted < MAX_REPLAYS and (
        attempted < MIN_REPLAYS or time.perf_counter() - begin + times[-1] <= seconds
    ):
        gc.collect()
        t = time.perf_counter()
        result, ok = _replay(wl, failures)
        times.append(time.perf_counter() - t)
        cals.append(calibrate())
        attempted += 1
        failed += not ok
        if result is not None:
            digests.add(result.digest)
            last = result
    if len(digests) > 1:
        failures.append("sim_digest differs across replays")
        failed = attempted
    return {
        "replay_s": times,
        "cal_s": [(a + b) / 2 for a, b in zip(cals, cals[1:])],
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures)),
        "last": last,
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    Linux's ``VmHWM`` counts this image only; ``ru_maxrss`` would also
    keep the parent's footprint at fork time (a parent that just trained
    the model inflates it by ~50 MiB).
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float) -> dict:
    """Untraced replays: host times, simulated statistics, digest."""
    run = replays(wl, seconds)
    last = run.pop("last")
    return {
        "n_requests": wl.n,
        "sim": last.sim if last else {},
        "sim_digest": last.digest if last else None,
        "peak_rss_mb": _peak_rss_mb(),
        **run,
    }


def _timed_replay(wl, failures: list[str], tracer=None) -> tuple:
    """One replay between two calibrations, traced when ``tracer`` is given.

    Returns ``(result, ok, wall_ns, scale)``, ``scale`` turning this
    host's time into reference-host time.
    """
    gc.collect()
    cal_before = calibrate()
    t = time.perf_counter_ns()
    if tracer is None:
        result, ok = _replay(wl, failures)
    else:
        with tracer, tracer.span(f"replay:{wl.name}"):
            result, ok = _replay(wl, failures)
    wall_ns = time.perf_counter_ns() - t
    return result, ok, wall_ns, CAL_REF_S / ((cal_before + calibrate()) / 2)


def trace(wl, out_dir: Path | None) -> dict:
    """An untraced replay, a traced one, and another untraced one.

    The three digests must match, which also shows the wrappers are gone
    after the traced replay.  ``trace_overhead`` divides the traced
    replay's time by the mean of the two untraced ones, all three in
    reference-host seconds.
    """
    import layers
    from tracer import Tracer

    failures: list[str] = []
    tracer = Tracer(layers.targets())
    before, before_ok, before_ns, before_scale = _timed_replay(wl, failures)
    traced, traced_ok, wall_ns, scale = _timed_replay(wl, failures, tracer)
    after, after_ok, after_ns, after_scale = _timed_replay(wl, failures)
    attempted = 3
    failed = (not before_ok) + (not traced_ok) + (not after_ok)
    out = {"attempted": attempted, "failed": failed, "per_layer": {}, "spans": 0}
    if traced is not None and after is not None and before is not None:
        if len({before.digest, traced.digest, after.digest}) > 1:
            failures.append("sim_digest differs between traced and untraced replays")
            out["failed"] = attempted
        untraced = (before_ns * before_scale + after_ns * after_scale) / 2e9
        out["per_layer"] = layers.per_layer_metrics(
            tracer.group_stats(), traced, wall_ns, scale, untraced, wl.ctx.cbnet
        )
        out["sim_digest"] = traced.digest
        out["traced_s"] = wall_ns / 1e9
        out["functions"] = {
            label: {"count": s[0], "total_ns": s[2], "self_ns": s[3]}
            for label, s in tracer.stats.items()
            if s[0]
        }
        out["self_ns_total"] = sum(s[3] for s in tracer.stats.values())
        out["spans"] = sum(s is not None for s in tracer.spans)
        if out_dir is not None:
            path = out_dir / f"{wl.name}.trace.json"
            tracer.write_chrome(path)
            out["trace_file"] = str(path)
    out["failures"] = sorted(set(failures))
    return out


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    args = [a for a in argv if a != "--smoke"]
    mode, name, seed = args[0], args[1], int(args[2])
    if mode not in ("setup", "measure", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    wl, setup_s, cal_s = setup(name, seed, smoke)
    # Move the set-up objects out of the collector's reach so replays
    # do not re-scan them.
    gc.collect()
    gc.freeze()
    result = {"setup_s": setup_s, "setup_cal_s": cal_s}
    if mode == "measure":
        result.update(measure(wl, float(args[3])))
    elif mode == "trace":
        result.update(trace(wl, Path(args[3])))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
