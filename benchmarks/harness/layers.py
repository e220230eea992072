"""The layers the traced pass wraps, and the per-layer metrics it derives.

:func:`targets` lists the public methods wrapped from outside, grouped
into the metric groups the per-layer table reports.  A layer's ``*_ns``
metric is the group's self time per entry into the group, in
reference-host nanoseconds (see ``child.calibrate``), and includes the
wrapper's own cost; its ``*_calls_per_req`` metric counts those entries
per simulated request.  A metric is reported only on workloads whose
replay called the layer.

:data:`PER_LAYER` is the full table (name, unit, direction, and the
end-to-end metric each should move); the ``per_layer`` list of
``BENCHMARK.json`` repeats its first three columns.
"""

from __future__ import annotations

from tracer import Target

__all__ = ["PER_LAYER", "targets", "per_layer_metrics"]

#: (name, unit, better, moves) of every per-layer metric, in report order;
#: ``moves`` is the end-to-end metric and workloads a gain in it should
#: move (``None`` for the harness's own coverage and overhead).
PER_LAYER: tuple[tuple[str, str, str, str | None], ...] = (
    ("serving.cache.get_ns", "ns", "lower", "sim_rps on cluster_cached"),
    ("serving.cache.put_ns", "ns", "lower", "sim_rps on cluster_cached"),
    ("serving.cache.calls_per_req", "calls/req", "lower", "sim_rps on cluster_cached"),
    ("serving.cache.hit_ratio", "fraction", "higher", "sim_rps on cluster_cached"),
    (
        "cluster.policies.choose_ns", "ns", "lower",
        "sim_rps on fleet_64, tenants_overload, chaos_resilient",
    ),
    (
        "cluster.policies.choose_calls_per_req", "calls/req", "lower",
        "sim_rps on fleet_64, tenants_overload, chaos_resilient",
    ),
    ("cluster.replica.next_deadline_ns", "ns", "lower", "sim_rps on fleet_64"),
    ("cluster.replica.next_deadline_calls_per_req", "calls/req", "lower", "sim_rps on fleet_64"),
    ("cluster.replica.purge_ns", "ns", "lower", "sim_rps on fleet_64"),
    ("cluster.replica.purge_calls_per_req", "calls/req", "lower", "sim_rps on fleet_64"),
    ("serving.batcher.add_ns", "ns", "lower", "sim_rps on tenants_overload, fleet_64"),
    ("serving.batcher.flush_ns", "ns", "lower", "sim_rps on tenants_overload, fleet_64"),
    ("serving.mean_batch_size", "requests", "higher", "sim_rps on tenants_overload, fleet_64"),
    ("serving.queue_wait_p99_ms", "ms", "lower", "sim_p99_ms"),
    (
        "cluster.admission.decide_ns", "ns", "lower",
        "sim_rps, sim_slo_attainment on tenants_overload",
    ),
    (
        "cluster.admission.shed_ratio", "fraction", "lower",
        "sim_rps, sim_slo_attainment on tenants_overload",
    ),
    ("sim.oracle.route_ns", "ns", "lower", "sim_rps on every oracle workload"),
    ("sim.oracle.predict_ns", "ns", "lower", "sim_rps on every oracle workload"),
    ("sim.oracle.calls_per_batch", "calls/batch", "lower", "sim_rps on every oracle workload"),
    ("faults.breaker_ns", "ns", "lower", "sim_rps, sim_p99_ms on chaos_resilient"),
    ("faults.attempts_per_req", "attempts/req", "lower", "sim_rps, sim_p99_ms on chaos_resilient"),
    ("faults.timeouts", "count", "lower", "sim_rps, sim_p99_ms on chaos_resilient"),
    ("faults.breaker_trips", "count", "lower", "sim_rps, sim_p99_ms on chaos_resilient"),
    ("netsim.advance_ns", "ns", "lower", "sim_rps on lte_storm"),
    ("netsim.advance_calls_per_offload", "calls/offload", "lower", "sim_rps on lte_storm"),
    ("netsim.estimate_ns", "ns", "lower", "sim_rps on lte_storm"),
    ("netsim.reserve_ns", "ns", "lower", "sim_rps on lte_storm"),
    ("netsim.aimd_ns", "ns", "lower", "sim_rps on lte_storm"),
    ("netsim.retx_amplification", "ratio", "lower", "sim_rps on lte_storm"),
    ("netsim.sessions", "count", "lower", "sim_rps on lte_storm"),
    ("netsim.carrier_drops", "count", "lower", "sim_rps on lte_storm"),
    ("offload.decide_ns", "ns", "lower", "sim_rps, sim_slo_attainment on lte_storm"),
    ("offload.offload_ratio", "fraction", "higher", "sim_rps, sim_slo_attainment on lte_storm"),
    ("models.convert_us_per_image", "us", "lower", "sim_rps on live_cbnet"),
    ("models.classify_us_per_image", "us", "lower", "sim_rps on live_cbnet"),
    ("nn.gflops", "GFLOP/s", "higher", "sim_rps on live_cbnet"),
    ("nn.computed_mb_per_image", "MB", "lower", "sim_rps on live_cbnet"),
    ("cluster.engine.self_share", "fraction", "lower", "sim_rps on every cluster workload"),
    ("layer_coverage", "fraction", "higher", None),
    ("trace_overhead", "ratio", "lower", None),
)

#: Self time per entry: metric -> group.
_NS = {
    "serving.cache.get_ns": "serving.cache.get",
    "serving.cache.put_ns": "serving.cache.put",
    "cluster.policies.choose_ns": "cluster.policies.choose",
    "cluster.replica.next_deadline_ns": "cluster.replica.next_deadline",
    "cluster.replica.purge_ns": "cluster.replica.purge",
    "serving.batcher.add_ns": "serving.batcher.add",
    "serving.batcher.flush_ns": "serving.batcher.flush",
    "cluster.admission.decide_ns": "cluster.admission.decide",
    "sim.oracle.route_ns": "sim.oracle.route",
    "sim.oracle.predict_ns": "sim.oracle.predict",
    "faults.breaker_ns": "faults.breaker",
    "netsim.advance_ns": "netsim.advance",
    "netsim.estimate_ns": "netsim.estimate",
    "netsim.reserve_ns": "netsim.reserve",
    "netsim.aimd_ns": "netsim.aimd",
    "offload.decide_ns": "offload.decide",
}
#: Entries per simulated request: metric -> groups.
_PER_REQ = {
    "serving.cache.calls_per_req": ("serving.cache.get", "serving.cache.put"),
    "cluster.policies.choose_calls_per_req": ("cluster.policies.choose",),
    "cluster.replica.next_deadline_calls_per_req": ("cluster.replica.next_deadline",),
    "cluster.replica.purge_calls_per_req": ("cluster.replica.purge",),
}
#: Replay counters reported as they are, when the gating group was called.
_COUNTERS = {
    "serving.cache.hit_ratio": ("serving.cache.get", "cache_hit_ratio"),
    "serving.mean_batch_size": ("serving.batcher.add", "mean_batch_size"),
    "serving.queue_wait_p99_ms": ("serving.batcher.add", "queue_wait_p99_ms"),
    "cluster.admission.shed_ratio": ("cluster.admission.decide", "shed_ratio"),
    "faults.attempts_per_req": ("faults.breaker", "attempts_per_req"),
    "faults.timeouts": ("faults.breaker", "timeouts"),
    "faults.breaker_trips": ("faults.breaker", "breaker_trips"),
    "netsim.retx_amplification": ("netsim.advance", "retx_amplification"),
    "netsim.sessions": ("netsim.advance", "sessions"),
    "netsim.carrier_drops": ("netsim.advance", "carrier_drops"),
    "offload.offload_ratio": ("offload.decide", "offload_ratio"),
}
ENGINE = "cluster.engine"


def _defining(base: type, method: str) -> list[type]:
    """``base`` and every subclass that defines ``method`` itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if method in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def targets() -> list[Target]:
    """Every public method the traced pass wraps, with its metric group."""
    from repro.cluster.admission import AdmissionController
    from repro.cluster.engine import Cluster
    from repro.cluster.policies import LoadBalancer
    from repro.cluster.replica import Replica
    from repro.core.cbnet import CBNet
    from repro.faults.breaker import CircuitBreaker
    from repro.models.lightweight import LightweightClassifier
    from repro.netsim.congestion import AIMDController
    from repro.netsim.session import LinkSession
    from repro.netsim.shared import SharedLink
    from repro.netsim.transport import SessionTransport
    from repro.offload.policies import OffloadPolicy
    from repro.serving.batcher import MicroBatcher
    from repro.serving.cache import LRUResultCache
    from repro.serving.priority import PriorityBatcher
    from repro.sim.oracle import OracleBackend

    return [
        Target("serving.cache.get", "serving.cache", LRUResultCache, "get"),
        Target("serving.cache.put", "serving.cache", LRUResultCache, "put"),
        *(
            Target("cluster.policies.choose", "cluster.policies", cls, "choose")
            for cls in _defining(LoadBalancer, "choose")
        ),
        Target("cluster.replica.next_deadline", "cluster.replica", Replica, "next_deadline_s"),
        Target("cluster.replica.purge", "cluster.replica", Replica, "purge"),
        Target("cluster.replica.should_dispatch", "cluster.replica", Replica, "should_dispatch"),
        Target("serving.batcher.add", "serving.batcher", MicroBatcher, "add", req_arg=1),
        Target("serving.batcher.add", "serving.priority", PriorityBatcher, "add", req_arg=1),
        Target("serving.batcher.flush", "serving.batcher", MicroBatcher, "flush"),
        Target("serving.batcher.flush", "serving.priority", PriorityBatcher, "flush"),
        *(
            Target("cluster.admission.decide", "cluster.admission", cls, "decide_for")
            for cls in _defining(AdmissionController, "decide_for")
        ),
        Target("sim.oracle.route", "sim.oracle", OracleBackend, "route"),
        Target("sim.oracle.predict", "sim.oracle", OracleBackend, "predict"),
        Target("sim.oracle.batch_service", "sim.oracle", OracleBackend, "batch_service_s"),
        *(
            Target("faults.breaker", "faults", CircuitBreaker, method)
            for method in ("record", "available", "allow")
        ),
        Target("netsim.start", "netsim", SessionTransport, "start"),
        Target("netsim.advance", "netsim", SessionTransport, "advance"),
        Target("netsim.estimate", "netsim", SessionTransport, "estimate_s"),
        Target("netsim.send_down", "netsim", SessionTransport, "send_down"),
        Target("netsim.reserve", "netsim", SharedLink, "reserve"),
        *(
            Target("netsim.aimd", "netsim", AIMDController, method)
            for method in ("on_ack", "on_loss", "on_timeout")
        ),
        Target("netsim.session_open", "netsim", LinkSession, "open"),
        *(
            Target("offload.decide", "offload.policies", cls, "offload")
            for cls in _defining(OffloadPolicy, "offload")
        ),
        Target("models.convert", "models", CBNet, "convert", items_arg=1),
        Target("models.classify", "models", LightweightClassifier, "predict", items_arg=1),
        Target(ENGINE, ENGINE, Cluster, "serve_log"),
    ]


def _model_cost_per_image(cbnet) -> tuple[int, int]:
    """(FLOPs, bytes moved) of one image through CBNet, from tensor sizes."""
    from repro.hw.flops import model_cost

    ae = cbnet.autoencoder
    stages = model_cost(ae, (ae.spec.input_dim,)) + model_cost(cbnet.classifier)
    return sum(s.flops for s in stages), sum(s.bytes_total for s in stages)


def per_layer_metrics(
    groups: dict[str, tuple[int, int, int]],
    replay,
    wall_ns: int,
    scale: float,
    untraced_s: float,
    cbnet,
) -> dict[str, float]:
    """Per-layer metrics of one traced replay.

    ``groups`` is :meth:`Tracer.group_stats`, ``replay`` the traced
    :class:`~workloads.Replay` and ``wall_ns`` its traced wall time.
    ``scale`` turns this host's seconds into reference-host seconds
    (see ``child.calibrate``); ``untraced_s`` is the untraced replay
    time to compare with, already scaled.
    """

    def entries(*names: str) -> int:
        return sum(groups.get(name, (0, 0, 0))[0] for name in names)

    def self_ns(*names: str) -> float:
        return scale * sum(groups.get(name, (0, 0, 0))[1] for name in names)

    out: dict[str, float] = {}
    for metric, group in _NS.items():
        if entries(group):
            out[metric] = self_ns(group) / entries(group)
    for metric, names in _PER_REQ.items():
        if entries(*names):
            out[metric] = entries(*names) / replay.n_requests
    for metric, (gate, counter) in _COUNTERS.items():
        if entries(gate):
            out[metric] = float(replay.counters[counter])
    oracle = ("sim.oracle.route", "sim.oracle.predict", "sim.oracle.batch_service")
    if entries(*oracle):
        out["sim.oracle.calls_per_batch"] = entries(*oracle) / replay.counters["batches"]
    if entries("netsim.advance"):
        out["netsim.advance_calls_per_offload"] = (
            entries("netsim.advance") / replay.counters["offloads"]
        )
    if entries("models.convert"):
        images = groups["models.convert"][2]
        flops, nbytes = _model_cost_per_image(cbnet)
        out["models.convert_us_per_image"] = self_ns("models.convert") / images / 1e3
        out["models.classify_us_per_image"] = (
            self_ns("models.classify") / groups["models.classify"][2] / 1e3
        )
        out["nn.gflops"] = flops * images / self_ns("models.convert", "models.classify")
        out["nn.computed_mb_per_image"] = nbytes / 1e6
    if entries(ENGINE):
        out["cluster.engine.self_share"] = groups[ENGINE][1] / wall_ns
    out["layer_coverage"] = sum(v[1] for k, v in groups.items() if k != ENGINE) / wall_ns
    out["trace_overhead"] = scale * wall_ns / 1e9 / untraced_s
    return {row[0]: out[row[0]] for row in PER_LAYER if row[0] in out}
