"""Differential tests: the cluster event loop against reference loops.

``_SweepCluster`` keeps the reference hot loop: on every clock advance
it purges *every* replica in id order, and ``up_replicas`` rebuilds the
UP list from scratch on every call.  The production ``Cluster`` must
write the same value to every ``RequestLog`` column, every
``ClusterReport`` field and every replica's lifecycle/billing counters,
whatever bookkeeping it uses to find the replicas with work due.

The recount reference swaps ``Replica.outstanding`` and
``Cluster.outstanding_total`` for versions that re-sum every in-flight
batch on each read, which is what load signals did before replicas
cached their in-flight counts.  The production run must match it
column for column, and ``_CheckedCluster`` asserts that every cached
read — at each balancer choose, admission decision and autoscaler
tick — equals that recount.

``_ScanCluster`` keeps the reference deadline scan: it asks every
replica for ``next_deadline_s()`` on every event, where the production
loop skips the scan while the event's time is below its deadline
floor.  The production run must match it column for column, a trace
whose deadlines fall exactly on arrivals included, and
``_FloorCheckedCluster`` asserts on every entry to
``_flush_deadlines_until`` that the floor is at most the earliest
deadline of any replica, and that skipping happened.

The last tests pin the cost the references paid: purges and deadline
reads per request must not grow with the fleet, and cache hits read no
deadlines.

The sweep covers 20 seeds of each configuration: a 16-replica
power-of-two fleet, a 3-class priority fleet behind weighted-fair
admission, crash/recover faults, a fault storm against the full
resilience stack (timeouts, retries, hedges, copies dropped at flush),
a 16-replica fleet flaky throughout (failed batches from several
replicas judged in one advance), an autoscaler that scales down until a replica drains to DOWN — alone,
and on a 3-class fleet under a fault storm, where a draining replica's
worker-gated queue can hold only cancelled copies and flush to nothing —
a 16-entry result cache, and a fleet sharing one routed backend behind
admission that degrades (forced early exits).

``_PerBatchCluster`` keeps the reference inference fill: one ``predict``
per finished batch, with a resilient fleet's cancelled rows masked out
of the write.  The production fill packs each backend's finished
batches into chunks of at most ``max_batch_size`` rows and joins their
routing decisions; it must write the same predictions over every
configuration above and over live LeNet, BranchyNet, CBNet and hybrid
fleets.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.admission import DEGRADE, AdmissionController, WeightedFairAdmission
from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.replica import Replica, ReplicaState
from repro.experiments.chaos import resilience_for_fleet
from repro.faults.plan import (
    CRASH,
    Fault,
    FaultPlan,
    fault_storm,
    flaky_window,
    poisson_failures,
)
from repro.hw.devices import gci_cpu
from repro.models import BranchyLeNet, LeNet
from repro.serving.arrivals import poisson_arrivals
from repro.serving.backends import (
    BranchyNetBackend,
    CBNetBackend,
    HybridBackend,
    LeNetBackend,
)
from repro.serving.classes import DEFAULT_CLASSES
from repro.sim.records import RequestLog

from conftest import RoutedSumBackend, SumBackend, labels_for, make_images

SEEDS = range(20)
N_REQUESTS = 300
REPLICA_FIELDS = ("state", "up_seconds", "busy_s", "n_batches", "n_requests", "n_crashes")


def _recount(replica, now):
    """``Replica.outstanding`` re-summing the in-flight batches."""
    return len(replica.batcher) + sum(
        len(b.indices) for b in replica.in_flight if b.completion_s > now
    )


def _recount_total(cluster, now):
    """``Cluster.outstanding_total`` built from :func:`_recount`."""
    books = cluster._books
    stranded = len(books.stranded) if books else 0
    return stranded + sum(_recount(r, now) for r in cluster.replicas)


class _CheckedCluster(Cluster):
    """Production engine asserting every load-signal read against a recount.

    Every replica, not just the candidates, is checked at each choose, so
    a stale count on a DOWN or DRAINING replica fails too.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.n_checks = {"choose": 0, "total": 0}
        choose = self.policy.choose

        def checked_choose(replicas, now, rng):
            self.n_checks["choose"] += 1
            self._check_replicas(now)
            return choose(replicas, now, rng)

        self.policy.choose = checked_choose

    def _check_replicas(self, now):
        for r in self.replicas:
            got, want = r.outstanding(now), _recount(r, now)
            assert got == want, f"t={now}: replica {r.replica_id} outstanding {got} != {want}"

    def outstanding_total(self, now):
        self.n_checks["total"] += 1
        self._check_replicas(now)
        got, want = super().outstanding_total(now), _recount_total(self, now)
        assert got == want, f"t={now}: outstanding_total {got} != {want}"
        return got


class _SweepCluster(Cluster):
    """Reference engine: purge every replica on every clock advance."""

    def up_replicas(self):
        return [r for r in self.replicas if r.available]

    def _advance(self, now):
        books = self._books
        finished = books.finished
        plain = self.resilience is None and self.faults is None
        for replica in self.replicas:
            done = replica.purge(now)
            if plain:
                for batch in done:
                    finished.append((replica, batch))
            else:
                for batch in done:
                    if batch.failed:
                        self._n_batch_failures += 1
                        self._judge_failure(replica, batch, now)
                    elif self.resilience is not None:
                        self._judge_success(replica, batch)
                        finished.append((replica, batch))
                    else:
                        finished.append((replica, batch))


class _ScanCluster(Cluster):
    """Reference engine: scan every replica's deadline on every event."""

    def _flush_deadlines_until(self, limit_s):
        while True:
            best = None
            best_deadline = math.inf
            for replica in self.replicas:
                deadline = replica.next_deadline_s()
                if deadline < best_deadline:
                    best = replica
                    best_deadline = deadline
            if best is None or best_deadline > limit_s:
                return
            prof = self.prof
            if prof is not None:
                prof.start("batch_form")
            self._advance(best_deadline)
            self._dispatch(best, best.batcher.flush(), best_deadline)
            if prof is not None:
                prof.stop()  # batch_form


class _FloorCheckedCluster(Cluster):
    """Production engine asserting the deadline floor on every scan entry.

    On entry the floor must be at most the earliest ``next_deadline_s()``
    of any replica; after a scan that ran, it must equal that minimum.
    Entries the floor skipped are counted.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.n_entries = self.n_skipped = 0

    def _earliest(self):
        return min(r.next_deadline_s() for r in self.replicas)

    def _flush_deadlines_until(self, limit_s):
        floor, earliest = self._deadline_floor, self._earliest()
        assert floor <= earliest, f"limit {limit_s}: floor {floor} > deadline {earliest}"
        self.n_entries += 1
        if limit_s < floor:
            self.n_skipped += 1
        super()._flush_deadlines_until(limit_s)
        if limit_s >= floor:
            assert self._deadline_floor == self._earliest(), f"limit {limit_s}"


class _PerBatchCluster(Cluster):
    """Reference engine: one ``predict`` per finished batch."""

    def _fill_predictions(self, books):
        prediction = books.log.prediction
        images = books.images
        guarded = self.resilience is not None
        replica_col = books.log.replica_id
        completion_col = books.log.completion_s
        for replica, batch in books.finished:
            idx = np.asarray(batch.indices, dtype=np.intp)
            preds = replica.backend.predict(images[idx], batch.decision)
            if guarded:
                # Only requests whose final record is *this* batch take
                # its predictions — a cancelled attempt's (late, lost)
                # response must not overwrite the winner's.
                mask = (replica_col[idx] == replica.replica_id) & (
                    completion_col[idx] == batch.completion_s
                )
                prediction[idx[mask]] = preds[mask]
            else:
                prediction[idx] = preds
        books.log.fill_cached_predictions()


class _RouteAwareSumBackend(RoutedSumBackend):
    """Routed toy whose labels depend on the decision it is handed.

    Hard rows are labelled 10-19 and easy rows 0-9, and each row's
    entropy must be its own image's mean, so a decision joined out of
    row order changes the predictions.
    """

    def __init__(self):
        super().__init__()
        self.calls = self.rows = 0

    def predict(self, images, decision=None):
        self.calls += 1
        self.rows += images.shape[0]
        np.testing.assert_array_equal(
            decision.entropy, images.reshape(images.shape[0], -1).mean(axis=1)
        )
        return super().predict(images) + 10 * ~decision.easy


def _fleet(rng, n):
    """``n`` toy replicas, a seeded mix of static and routed backends."""
    return [RoutedSumBackend() if rng.random() < 0.5 else SumBackend() for _ in range(n)]


def _knobs(rng):
    return dict(
        max_batch_size=int(rng.integers(1, 17)),
        max_wait_s=float(rng.choice([0.0, rng.uniform(0.0, 0.004)])),
    )


def _rate(n_replicas, load):
    """Arrival rate putting ``load`` on ``n_replicas`` batching at 8."""
    return load * n_replicas * 8 / SumBackend().batch_service_s(8, 0)


def _p2c16(seed):
    rng = np.random.default_rng(seed)
    arrival_s = poisson_arrivals(_rate(16, rng.uniform(0.3, 1.1)), N_REQUESTS, rng=rng)
    knobs = _knobs(rng)

    def build():
        fleet = _fleet(np.random.default_rng(seed), 16)
        return dict(backends=fleet, policy="power-of-two", rng=seed, **knobs)

    return build, arrival_s, None


def _tenants(seed):
    rng = np.random.default_rng(seed)
    arrival_s = poisson_arrivals(_rate(4, rng.uniform(0.8, 1.5)), N_REQUESTS, rng=rng)
    codes = rng.integers(0, len(DEFAULT_CLASSES), N_REQUESTS)
    knobs = _knobs(rng)
    budget = int(rng.integers(8, 64))

    def build():
        return dict(
            backends=_fleet(np.random.default_rng(seed), 4),
            policy="least-outstanding",
            admission=WeightedFairAdmission(DEFAULT_CLASSES, max_outstanding=budget),
            classes=DEFAULT_CLASSES,
            scheduler="priority",
            **knobs,
        )

    return build, arrival_s, codes


def _crashes(seed):
    rng = np.random.default_rng(seed)
    arrival_s = poisson_arrivals(_rate(6, rng.uniform(0.3, 0.9)), N_REQUESTS, rng=rng)
    horizon = float(arrival_s[-1])
    plan = FaultPlan(
        poisson_failures(6, horizon, horizon / 3, horizon / 20, rng=rng)
        + (Fault(horizon / 2, 0, CRASH),)
    )
    knobs = _knobs(rng)
    warmup = float(rng.uniform(0.0, 0.01))

    def build():
        return dict(
            backends=_fleet(np.random.default_rng(seed), 6),
            policy="power-of-two",
            faults=plan,
            recover_warmup_s=warmup,
            rng=seed,
            **knobs,
        )

    return build, arrival_s, None


def _static(n):
    """Static backends only: routed ones' all-hard worst case would put
    ``resilience_for_fleet``'s hedge delay past its timeout."""
    return [SumBackend() for _ in range(n)]


def _storm_kwargs(rng, arrival_s, n_replicas, knobs):
    horizon = float(arrival_s[-1]) + 0.05
    plan = fault_storm(
        n_replicas,
        horizon,
        rng=rng,
        mean_window_s=horizon / 6,
        windows_per_replica=2.0,
        crash_mtbf_s=horizon / 2,
        crash_mttr_s=horizon / 20,
    )
    resilience = resilience_for_fleet(
        _static(n_replicas), knobs["max_batch_size"], knobs["max_wait_s"]
    )
    return plan, resilience


def _storm(seed):
    rng = np.random.default_rng(seed)
    arrival_s = poisson_arrivals(_rate(4, rng.uniform(0.3, 0.7)), N_REQUESTS, rng=rng)
    knobs = _knobs(rng)
    plan, resilience = _storm_kwargs(rng, arrival_s, 4, knobs)

    def build():
        return dict(
            backends=_static(4),
            policy="least-outstanding",
            faults=plan,
            resilience=resilience,
            **knobs,
        )

    return build, arrival_s, None



def _flaky16(seed):
    """Every replica flaky all trace long, batches of at most 4: several
    failed batches often fall due in one advance, so the order they are
    judged in decides which request gets which retry-jitter draw."""
    rng = np.random.default_rng(seed)
    arrival_s = poisson_arrivals(_rate(16, rng.uniform(0.5, 0.9)), N_REQUESTS, rng=rng)
    knobs = dict(max_batch_size=int(rng.integers(1, 5)), max_wait_s=0.0)
    horizon = float(arrival_s[-1]) + 1.0
    plan = FaultPlan(
        faults=tuple(
            f
            for r in range(16)
            for f in flaky_window(r, 0.0, horizon, float(rng.uniform(0.3, 0.7)))
        ),
        seed=seed,
    )
    resilience = resilience_for_fleet(
        _static(16), knobs["max_batch_size"], knobs["max_wait_s"]
    )

    def build():
        return dict(
            backends=_static(16),
            policy="power-of-two",
            faults=plan,
            resilience=resilience,
            rng=seed,
            **knobs,
        )

    return build, arrival_s, None


def _waves(rng):
    """Busy, quiet, busy: the quiet gap lets the autoscaler drain."""
    n = N_REQUESTS // 3
    busy = _rate(4, rng.uniform(0.6, 1.2))
    first = poisson_arrivals(busy, n, rng=rng)
    trickle = first[-1] + poisson_arrivals(busy / 40, n, rng=rng)
    last = trickle[-1] + poisson_arrivals(busy, N_REQUESTS - 2 * n, rng=rng)
    return np.concatenate([first, trickle, last])


def _autoscaler():
    return Autoscaler(
        AutoscalerConfig(
            slo_s=0.05,
            interval_s=0.01,
            window_s=0.05,
            scale_up_queue=6.0,
            scale_down_queue=3.0,
            min_replicas=1,
            max_replicas=6,
            warmup_s=0.005,
            cooldown_s=0.0,
        ),
        spawn_backend=SumBackend,
    )


def _autoscale(seed):
    rng = np.random.default_rng(seed)
    arrival_s = _waves(rng)
    knobs = _knobs(rng)

    def build():
        return dict(
            backends=_fleet(np.random.default_rng(seed), 4),
            policy="round-robin",
            autoscaler=_autoscaler(),
            **knobs,
        )

    return build, arrival_s, None


def _autoscale_storm(seed):
    rng = np.random.default_rng(seed)
    arrival_s = _waves(rng)
    codes = rng.integers(0, len(DEFAULT_CLASSES), N_REQUESTS)
    knobs = _knobs(rng)
    plan, resilience = _storm_kwargs(rng, arrival_s, 4, knobs)

    def build():
        return dict(
            backends=_static(4),
            policy="least-outstanding",
            autoscaler=_autoscaler(),
            faults=plan,
            resilience=resilience,
            classes=DEFAULT_CLASSES,
            **knobs,
        )

    return build, arrival_s, codes


def _cache16(seed):
    rng = np.random.default_rng(seed)
    arrival_s = poisson_arrivals(_rate(8, rng.uniform(0.3, 1.0)), N_REQUESTS, rng=rng)
    knobs = _knobs(rng)

    def build():
        return dict(
            backends=_fleet(np.random.default_rng(seed), 8),
            policy="round-robin",
            cache_capacity=16,
            **knobs,
        )

    return build, arrival_s, None


def _degrade(seed):
    """Overload against a small budget under a fault storm: admission
    degrades arrivals onto the early exit, resilience leaves cancelled
    copies in finished batches, and one routed backend object serves all
    four replicas."""
    rng = np.random.default_rng(seed)
    arrival_s = poisson_arrivals(_rate(4, rng.uniform(0.9, 1.5)), N_REQUESTS, rng=rng)
    knobs = _knobs(rng)
    budget = int(rng.integers(4, 32))
    plan, resilience = _storm_kwargs(rng, arrival_s, 4, knobs)

    def build():
        return dict(
            backends=[_RouteAwareSumBackend()] * 4,
            policy="least-outstanding",
            admission=AdmissionController(budget, policy=DEGRADE),
            faults=plan,
            resilience=resilience,
            **knobs,
        )

    return build, arrival_s, None


CASES = {
    "p2c16": _p2c16,
    "tenants": _tenants,
    "crashes": _crashes,
    "flaky16": _flaky16,
    "storm": _storm,
    "autoscale": _autoscale,
    "autoscale_storm": _autoscale_storm,
    "cache16": _cache16,
    "degrade": _degrade,
}


def _same(a, b) -> bool:
    """Exact equality that treats NaN as equal to NaN, through dataclasses."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def _replay(engine, build, arrival_s, codes, images, labels):
    cluster = engine(**build())
    report, log = cluster.serve_log(images, arrival_s, labels=labels, request_classes=codes)
    return cluster, report, log


def _images():
    # 48 distinct images: repeats are what give the result cache hits.
    images = make_images(48, seed=1)[np.random.default_rng(1).integers(0, 48, N_REQUESTS)]
    return images, labels_for(images)


def _assert_same_run(where, run, ref_run):
    """Every log column, report field and replica counter agrees."""
    cluster, report, log = run
    ref_cluster, ref, ref_log = ref_run
    for column in RequestLog.__slots__:
        np.testing.assert_array_equal(
            getattr(log, column), getattr(ref_log, column), err_msg=f"{where}: {column}"
        )
    for f in dataclasses.fields(ref):
        a, b = getattr(report, f.name), getattr(ref, f.name)
        assert _same(a, b), f"{where}: report.{f.name} {a!r} != {b!r}"
    assert len(cluster.replicas) == len(ref_cluster.replicas), where
    for got, want in zip(cluster.replicas, ref_cluster.replicas):
        for name in REPLICA_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a == b, f"{where}: replica {want.replica_id} {name} {a!r} != {b!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_loop_matches_per_event_sweep(case):
    images, labels = _images()
    drained = 0
    for seed in SEEDS:
        build, arrival_s, codes = CASES[case](seed)
        ref_run = _replay(_SweepCluster, build, arrival_s, codes, images, labels)
        run = _replay(Cluster, build, arrival_s, codes, images, labels)
        _assert_same_run(f"{case} seed {seed}", run, ref_run)
        drained += sum(
            r.state == ReplicaState.DOWN and r.n_crashes == 0 for r in ref_run[0].replicas
        )
    if case.startswith("autoscale"):
        assert drained > 0, "no replica drained to DOWN: the drain path went untested"


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_loop_matches_per_event_scan(case):
    images, labels = _images()
    for seed in SEEDS:
        build, arrival_s, codes = CASES[case](seed)
        ref_run = _replay(_ScanCluster, build, arrival_s, codes, images, labels)
        run = _replay(Cluster, build, arrival_s, codes, images, labels)
        _assert_same_run(f"{case} seed {seed}", run, ref_run)


def test_deadline_at_an_event_fires_before_it():
    """A deadline that falls exactly on an arrival flushes before it.

    Arrivals every 1/8 s against a 1/4 s wait cap (all exact binary
    fractions): each batch's deadline is the instant of the arrival two
    after its first, which must open the next batch, so every batch
    holds two requests.  Skipping a scan whose limit equals the floor
    would let that arrival join the due batch.
    """
    n = 40
    images = make_images(n)
    arrival_s = np.arange(n) * 0.125
    build = lambda: dict(backends=[SumBackend()], max_batch_size=16, max_wait_s=0.25)
    ref_run = _replay(_ScanCluster, build, arrival_s, None, images, None)
    run = _replay(Cluster, build, arrival_s, None, images, None)
    _assert_same_run("exact deadlines", run, ref_run)
    assert (run[2].batch_size == 2).all()


@pytest.mark.parametrize("case", sorted(CASES))
def test_deadline_floor_bounds_every_deadline(case):
    images, labels = _images()
    entries = skipped = 0
    for seed in SEEDS:
        build, arrival_s, codes = CASES[case](seed)
        cluster = _replay(_FloorCheckedCluster, build, arrival_s, codes, images, labels)[0]
        entries += cluster.n_entries
        skipped += cluster.n_skipped
    assert 0 < skipped < entries, (skipped, entries)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cached_load_signals_match_recount(case):
    images, labels = _images()
    checks = {"choose": 0, "total": 0}
    for seed in SEEDS:
        build, arrival_s, codes = CASES[case](seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Replica, "outstanding", _recount)
            mp.setattr(Cluster, "outstanding_total", _recount_total)
            ref_run = _replay(Cluster, build, arrival_s, codes, images, labels)
        run = _replay(_CheckedCluster, build, arrival_s, codes, images, labels)
        _assert_same_run(f"{case} seed {seed}", run, ref_run)
        for name, n in run[0].n_checks.items():
            checks[name] += n
    assert checks["choose"] > 0, checks
    # Admission (tenants) and autoscaler ticks read the fleet total.
    if case in ("tenants", "autoscale", "autoscale_storm"):
        assert checks["total"] > 0, checks


@pytest.mark.parametrize("case", sorted(CASES))
def test_chunked_predictions_match_per_batch_fill(case):
    images, labels = _images()
    work = {"calls": 0, "rows": 0, "ref_calls": 0, "ref_rows": 0, "degraded": 0}
    for seed in SEEDS:
        build, arrival_s, codes = CASES[case](seed)
        ref_run = _replay(_PerBatchCluster, build, arrival_s, codes, images, labels)
        run = _replay(Cluster, build, arrival_s, codes, images, labels)
        _assert_same_run(f"{case} seed {seed}", run, ref_run)
        if case == "degrade":
            backend, ref_backend = run[0].replicas[0].backend, ref_run[0].replicas[0].backend
            work["calls"] += backend.calls
            work["rows"] += backend.rows
            work["ref_calls"] += ref_backend.calls
            work["ref_rows"] += ref_backend.rows
            work["degraded"] += run[1].n_degraded
    if case == "degrade":
        # Forced-easy decisions were joined, and cancelled rows were
        # dropped from routed chunks before predict.
        assert work["degraded"] > 0, work
        assert work["calls"] < work["ref_calls"], work
        assert work["rows"] < work["ref_rows"], work


N_LIVE = 240
LIVE_SEEDS = range(5)


def _gap_threshold(model, images):
    """A gate threshold mid-way across the widest entropy gap.

    Compiled plans are shape-specialized, so a sample's entropy can
    differ by ~1 ulp between batch sizes; the threshold must not sit
    within that noise of any sample.
    """
    entropy = np.sort(model.branch_gate(images)[0])
    lo, hi = int(0.3 * len(entropy)), int(0.7 * len(entropy))
    i = lo + int(np.argmax(np.diff(entropy[lo:hi])))
    return float(0.5 * (entropy[i] + entropy[i + 1]))


def _live_backends(kind, pipeline):
    """Two backend objects over one live model, one of them shared by two
    replicas, plus the image pool they serve."""
    device = gci_cpu()
    pool = np.random.default_rng(0).random((48, 1, 28, 28), dtype=np.float32)
    if kind == "lenet":
        model = LeNet(rng=0)
        make = lambda: LeNetBackend(model, device)
    elif kind == "branchynet":
        model = BranchyLeNet(rng=0)
        threshold = _gap_threshold(model, pool)
        make = lambda: BranchyNetBackend(model, device, threshold=threshold)
    else:
        pool = pipeline.datasets["test"].images[:48]
        if kind == "cbnet":
            make = lambda: CBNetBackend(pipeline.cbnet, device)
        else:
            make = lambda: HybridBackend(pipeline.cbnet, pipeline.branchynet, device)
    shared = make()
    return [shared, shared, make()], pool


@pytest.mark.parametrize("kind", ["lenet", "branchynet", "cbnet", "hybrid"])
def test_live_chunked_predictions_match_per_batch_fill(kind, request):
    pipeline = request.getfixturevalue("trained_pipeline") if kind in ("cbnet", "hybrid") else None
    backends, pool = _live_backends(kind, pipeline)
    unit = backends[0].batch_service_s(8, 0) / 8
    for seed in LIVE_SEEDS:
        rng = np.random.default_rng(seed)
        images = pool[rng.integers(0, len(pool), N_LIVE)]
        arrival_s = poisson_arrivals(
            rng.uniform(0.5, 1.3) * len(backends) / unit, N_LIVE, rng=rng
        )
        knobs = _knobs(rng)
        budget = int(rng.integers(4, 32))

        def build():
            return dict(
                backends=list(backends),
                policy="power-of-two",
                admission=AdmissionController(budget, policy=DEGRADE),
                rng=seed,
                **knobs,
            )

        ref_run = _replay(_PerBatchCluster, build, arrival_s, None, images, None)
        run = _replay(Cluster, build, arrival_s, None, images, None)
        _assert_same_run(f"live {kind} seed {seed}", run, ref_run)


def test_purge_calls_per_request_do_not_grow_with_fleet(monkeypatch):
    """One trace over 4, 16 and 64 replicas: purges track batches, not replicas.

    Batches of one keep batches per request fixed as the fleet grows, so
    a loop that visits only the replicas with a batch due purges about
    once per request at every size; a per-event sweep purges every
    replica on every event, 16x more often at 64 replicas than at 4.
    """
    calls = 0
    purge = Replica.purge

    def counting_purge(self, now):
        nonlocal calls
        calls += 1
        return purge(self, now)

    monkeypatch.setattr(Replica, "purge", counting_purge)
    n = 2000
    images = make_images(n)
    arrival_s = poisson_arrivals(_rate(4, 0.4), n, rng=0)
    per_request = {}
    for n_replicas in (4, 16, 64):
        calls = 0
        report = Cluster(
            [SumBackend() for _ in range(n_replicas)],
            policy="power-of-two",
            max_batch_size=1,
        ).serve(images, arrival_s)
        assert report.n_served == n
        per_request[n_replicas] = calls / n
    assert per_request[64] <= 1.5 * per_request[4], per_request


def _count_deadline_reads(monkeypatch):
    """Count ``Replica.next_deadline_s`` calls; read ``counter[0]``."""
    counter = [0]
    next_deadline_s = Replica.next_deadline_s

    def counting(self):
        counter[0] += 1
        return next_deadline_s(self)

    monkeypatch.setattr(Replica, "next_deadline_s", counting)
    return counter


def test_deadline_calls_per_request_do_not_grow_with_fleet(monkeypatch):
    """One trace over 4, 16 and 64 replicas: deadline reads track requests.

    Batches of one flush when they are added, so no deadline is pending
    between events and the floor skips every scan but the first and the
    last: one ``next_deadline_s`` read per routed request, at every
    size.  A per-event scan reads every replica on every event, 16x
    more often at 64 replicas than at 4.
    """
    reads = _count_deadline_reads(monkeypatch)
    n = 2000
    images = make_images(n)
    arrival_s = poisson_arrivals(_rate(4, 0.4), n, rng=0)
    per_request = {}
    for n_replicas in (4, 16, 64):
        reads[0] = 0
        report = Cluster(
            [SumBackend() for _ in range(n_replicas)],
            policy="power-of-two",
            max_batch_size=1,
        ).serve(images, arrival_s)
        assert report.n_served == n
        per_request[n_replicas] = reads[0] / n
    assert per_request[64] <= 1.5 * per_request[4], per_request


def test_cache_hits_read_no_deadlines(monkeypatch):
    """A cache hit cannot fire a flush, so deadline reads track misses.

    Each miss reads its replica's deadline once when it joins a batcher,
    and a scan runs only once an event reaches the floor a pending
    deadline set: about two passes over the fleet per flushed batch, one
    to fire it and one to reset the floor.  A per-event scan reads every
    replica on every arrival, hits included.
    """
    reads = _count_deadline_reads(monkeypatch)
    n, n_replicas = 2000, 4
    images = make_images(48, seed=1)[np.random.default_rng(2).integers(0, 48, n)]
    arrival_s = poisson_arrivals(_rate(n_replicas, 0.5), n, rng=0)
    report = Cluster(
        [SumBackend() for _ in range(n_replicas)],
        policy="power-of-two",
        cache_capacity=64,  # larger than the 48-image pool
    ).serve(images, arrival_s)
    misses = n - report.n_cached
    assert report.n_served == n and misses < 0.1 * n, report
    assert reads[0] <= (2 * n_replicas + 1) * (misses + 1), (reads[0], misses)
