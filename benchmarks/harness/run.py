"""The layered benchmark of the CBNet serving simulator.

One command measures every workload end to end, traces every layer,
and checks every output::

    python3 benchmarks/harness/run.py [--seed N] [--out-dir D] [--seconds T] [--smoke]

runs the six workloads of ``workloads.py`` one at a time, each in fresh
child processes (``child.py``) with single-threaded BLAS: two set-up-only
processes and one measured process give the end-to-end metrics with
tracing off, then one traced process gives the per-layer metrics and a
Chrome trace per workload.  Every metric is printed with its unit and
the whole set, with a host fingerprint and each metric's distribution,
is written to ``<out-dir>/results-seed<N>.json``.  The exit code is
non-zero if any replay raised or failed a correctness check.  Host
times are reported in reference-host seconds: each is scaled by the
calibration kernel run beside it (see ``child.py``); the raw seconds
are kept under ``host`` in the result file.

One workload at a time, printing one JSON line last::

    python3 benchmarks/harness/run.py --workload W --seed N --seconds T --trace 0|1

Two result files, classified metric by metric against the bounds in
``BENCHMARK.json``, simulated statistics and ``sim_digest`` exactly
(exit code non-zero on any "worse" or "changed")::

    python3 benchmarks/harness/run.py compare BASE.json NEW.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from child import CAL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_DIR = ROOT / ".bench_build"
#: The trained-model cache: the checkout's own unless REPRO_CACHE_DIR names one.
CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR") or BUILD_DIR / "repro-cache")
DEFAULT_OUT = BUILD_DIR / "harness"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Measured replay time per process (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 10.0
#: Set-up-only processes per workload; the measured process is one more.
SETUP_PROCESSES = 2
#: A child that runs longer than this has hung; the run fails.
CHILD_TIMEOUT_S = 150

#: Host-side end-to-end metrics (bounds live in ``BENCHMARK.json``).
HOST_METRICS = {"sim_rps": "req/s", "setup_s": "s", "peak_rss_mb": "MiB"}
#: Simulated statistics: a pure function of the seed, compared exactly.
SIM_METRICS = {
    "sim_p50_ms": ("ms", "lower"),
    "sim_p99_ms": ("ms", "lower"),
    "sim_slo_attainment": ("fraction", "higher"),
    "accuracy": ("fraction", "higher"),
    "error_rate": ("fraction", "lower"),
}


class ChildFailed(RuntimeError):
    """A child process exited non-zero, hung, or printed no result."""


# ---------------------------------------------------------------------- #
# environment
# ---------------------------------------------------------------------- #
def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["REPRO_CACHE_DIR"] = str(CACHE_DIR)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _use_child_env() -> None:
    """Give this process the children's environment before NumPy loads."""
    os.environ.update(_child_env())
    sys.path.insert(0, str(ROOT / "src"))


def _check_tree() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator sources under {ROOT / 'src'}; run from a checkout")


def prepare() -> bool:
    """Load (training on a cold cache) the pipeline; True if it was cold."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    before = set(CACHE_DIR.iterdir())
    import workloads

    workloads.load_context()
    return set(CACHE_DIR.iterdir()) != before


def fingerprint(cold_cache: bool, load_1m: float) -> dict:
    """Host, toolchain and commit identity for a result file."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = done.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "load_1m": load_1m,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": sha,
        "cold_cache": cold_cache,
    }


# ---------------------------------------------------------------------- #
# children and statistics
# ---------------------------------------------------------------------- #
def _child(mode: str, name: str, seed: int, *extra: str, smoke: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, name, str(seed), *extra]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} {name}: no result within {CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} {name}: exit code {done.returncode}")
    return json.loads(lines[-1])


def dist(values: list[float]) -> dict:
    """Median, min, quartiles and count of ``values`` (all stored)."""
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def _metric(unit: str, values: list[float]) -> dict:
    d = dist(values)
    return {"value": d["median"], "unit": unit, **d}


def _ref_s(seconds: float, cal_s: float) -> float:
    """This host's seconds in reference-host seconds (see child.calibrate)."""
    return seconds * CAL_REF_S / cal_s


def measure_workload(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Set-up processes plus the measured process: end-to-end metrics."""
    setups = [_child("setup", name, seed, smoke=smoke) for _ in range(SETUP_PROCESSES)]
    m = _child("measure", name, seed, str(seconds), smoke=smoke)
    setups.append(m)
    n = m["n_requests"]
    e2e = {
        "sim_rps": _metric(
            "req/s", [n / _ref_s(t, c) for t, c in zip(m["replay_s"], m["cal_s"])]
        ),
        "setup_s": _metric("s", [_ref_s(s["setup_s"], s["setup_cal_s"]) for s in setups]),
        "peak_rss_mb": _metric("MiB", [m["peak_rss_mb"]]),
    }
    for key, (unit, _) in SIM_METRICS.items():
        value = m["sim"].get(key)
        if key == "error_rate":
            value = m["failed"] / m["attempted"]
        if value is not None and value == value:  # NaN: no such statistic
            e2e[key] = _metric(unit, [value] * m["attempted"])
    return {
        "n_requests": n,
        "sim_samples": m["sim"].get("sim_samples"),
        "sim_digest": m["sim_digest"],
        "end_to_end": e2e,
        "host": {
            "replay_s": dist(m["replay_s"]),
            "cal_s": dist(m["cal_s"]),
            "setup_s": dist([s["setup_s"] for s in setups]),
        },
        "attempted": m["attempted"],
        "failed": m["failed"],
        "failures": m["failures"],
    }


# ---------------------------------------------------------------------- #
# printing
# ---------------------------------------------------------------------- #
def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value)) if isinstance(value, (int, float)) else str(value)


def print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(f"== {title}")
    for key, m in metrics.items():
        spread = ""
        if m.get("n", 1) > 1 and m["q3"] != m["q1"]:
            spread = f"  (min {_fmt(m['min'])}, q1 {_fmt(m['q1'])}, q3 {_fmt(m['q3'])}, n={m['n']})"
        print(f"   {key:46s} {_fmt(m['value']):>14s} {m['unit']}{spread}")


# ---------------------------------------------------------------------- #
# modes
# ---------------------------------------------------------------------- #
def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool, out_dir: Path) -> int:
    """One workload, one process kind; the last stdout line is the result."""
    import layers

    if not trace:
        rec = measure_workload(name, seed, seconds, smoke)
        print_metrics(f"{name} seed {seed}: end to end (tracing off)", rec["end_to_end"])
        print(f"   sim samples {rec['sim_samples']}, sim_digest {rec['sim_digest']}")
        metrics = {k: rec["end_to_end"][k] for k in HOST_METRICS}
        attempted, failed, failures = rec["attempted"], rec["failed"], rec["failures"]
    else:
        rec = _child("trace", name, seed, str(out_dir), smoke=smoke)
        metrics = {
            key: {"value": rec["per_layer"].get(key, 0.0), "unit": unit}
            for key, unit, _, _ in layers.PER_LAYER
        }
        print_metrics(
            f"{name} seed {seed}: per layer (traced; 0 = layer not called)", metrics
        )
        attempted, failed, failures = rec["attempted"], rec["failed"], rec["failures"]
    for failure in failures:
        print(f"   FAILED: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, smoke: bool, out_dir: Path, fp: dict) -> int:
    """Every workload: measured, then traced; one result file."""
    import layers
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    results = {"seed": seed, "seconds": seconds, "smoke": smoke, "fingerprint": fp, "workloads": {}}
    ok = True
    for name in workloads.NAMES:
        rec = measure_workload(name, seed, seconds, smoke)
        traced = _child("trace", name, seed, str(out_dir), smoke=smoke)
        failures = rec["failures"] + traced["failures"]
        attempted = rec["attempted"] + traced["attempted"]
        failed = rec["failed"] + traced["failed"]
        if traced.get("sim_digest") != rec["sim_digest"]:
            failures.append("sim_digest differs between the traced and untraced processes")
            failed = attempted
        rec["end_to_end"]["error_rate"] = _metric("fraction", [failed / attempted])
        rec["per_layer"] = {
            key: {**_metric(unit, [traced["per_layer"][key]]), "moves": moves}
            for key, unit, _, moves in layers.PER_LAYER
            if key in traced["per_layer"]
        }
        rec.update(
            why=workloads.WHY[name],
            attempted=attempted,
            failed=failed,
            failures=sorted(set(failures)),
            functions=traced.get("functions", {}),
            trace_file=traced.get("trace_file"),
            spans=traced.get("spans"),
        )
        results["workloads"][name] = rec
        ok &= not failures
        print_metrics(f"{name}: end to end (tracing off)", rec["end_to_end"])
        print(f"   sim samples {rec['sim_samples']}, sim_digest {rec['sim_digest']}")
        print_metrics(f"{name}: per layer (traced)", rec["per_layer"])
        for failure in rec["failures"]:
            print(f"   FAILED: {failure}")
        sys.stdout.flush()
    path = out_dir / f"results-seed{seed}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {path}")
    return 0 if ok else 1


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #
def _bounds() -> dict[str, tuple[str, float]]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def classify(base: dict, new: dict, better: str, bound: float) -> str:
    """``better``, ``worse``, ``unchanged``, ``unresolved`` or ``changed``.

    A metric with bound 0 is exact: any difference at all, an apparent
    improvement included, is ``changed``.  Otherwise medians are compared
    against ``bound`` (a share of the base median); when the base's
    quartile spread is wider than the bound the result is ``unresolved``
    unless every new sample beats every base sample.
    """
    b, n = base["median"], new["median"]
    if bound == 0:
        return "unchanged" if n == b else "changed"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (n - b) / abs(b) if b else sign * (n - b)
    spread = (base["q3"] - base["q1"]) / abs(b) if b else 0.0
    if spread > bound:
        beats = all(sign * (x - y) > 0 for x in new["samples"] for y in base["samples"])
        return "better" if beats else "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "unchanged"


def compare(base_path: Path, new_path: Path) -> int:
    """Print one row per (workload, metric); exit 1 on any ``worse`` or ``changed``.

    Simulated statistics and ``sim_digest`` are exact: a change that
    alters the simulation fails however its numbers moved.
    """
    base = json.loads(base_path.read_text())["workloads"]
    new = json.loads(new_path.read_text())["workloads"]
    rules = {**_bounds(), **{k: (better, 0.0) for k, (_, better) in SIM_METRICS.items()}}
    failures = 0
    print(f"{'workload':18s} {'metric':20s} {'base':>14s} {'new':>14s} {'change':>8s}  verdict")
    for name in base:
        if name not in new:
            print(f"{name:18s} {'-':20s} missing from {new_path}")
            failures += 1
            continue
        for metric, (better, bound) in rules.items():
            if metric not in base[name]["end_to_end"] or metric not in new[name]["end_to_end"]:
                continue
            b, n = base[name]["end_to_end"][metric], new[name]["end_to_end"][metric]
            verdict = classify(b, n, better, bound)
            failures += verdict in ("worse", "changed")
            change = f"{(n['median'] - b['median']) / b['median']:+.1%}" if b["median"] else "-"
            print(
                f"{name:18s} {metric:20s} {_fmt(b['median']):>14s} "
                f"{_fmt(n['median']):>14s} {change:>8s}  {verdict}"
            )
        same = base[name]["sim_digest"] == new[name]["sim_digest"]
        failures += not same
        print(f"{name:18s} {'sim_digest':20s} {'':>14s} {'':>14s} {'':>8s}  "
              f"{'unchanged' if same else 'changed'}")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("new", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="input seed (1 is held out for claims)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured replay time per process")
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT,
                        help="where result files and Chrome traces go")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, same code path")
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    args = parser.parse_args(argv)
    _check_tree()
    load_1m = os.getloadavg()[0]
    _use_child_env()
    import workloads

    if args.workload is not None and args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    try:
        fp = fingerprint(prepare(), load_1m)
        print("host: " + json.dumps(fp))
        if args.workload is not None:
            return run_one(
                args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.out_dir
            )
        return run_all(args.seed, args.seconds, args.smoke, args.out_dir, fp)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
