"""Unit tests for the SoA request log and the oracle table layer."""

import numpy as np
import pytest

from repro.hw.devices import gci_cpu, raspberry_pi4
from repro.models import BranchyLeNet, LeNet
from repro.serving.backends import BranchyNetBackend, LeNetBackend
from repro.serving.router import RouteDecision
from repro.sim import (
    ROUTE_BATCHED,
    ROUTE_CACHED,
    ROUTE_EASY,
    ROUTE_HARD,
    ROUTE_SHED,
    InferenceTable,
    RequestLog,
    clear_oracle_cache,
    oracle_backend,
    request_keys,
    validate_trace,
)

ROUTES = (ROUTE_BATCHED, ROUTE_CACHED, ROUTE_EASY, ROUTE_HARD, ROUTE_SHED)


def random_log(rng: np.random.Generator, n: int) -> RequestLog:
    """A log with unserved rows and cache hits on earlier, non-cached sources."""
    log = RequestLog(np.sort(rng.uniform(0.0, 2.0, n)))
    served = rng.random(n) < 0.8
    log.completion_s[served] = log.arrival_s[served] + rng.uniform(1e-4, 0.5, served.sum())
    log.prediction[:] = rng.integers(0, 10, n)
    log.route[:] = rng.choice(ROUTES, n)
    log.route[0] = ROUTE_BATCHED  # the first request has nothing to hit
    sources = np.flatnonzero(log.route != ROUTE_CACHED)
    for i in np.flatnonzero(log.route == ROUTE_CACHED):
        log.source_id[i] = rng.choice(sources[sources < i])
        log.prediction[i] = -1  # engines leave hits for fill_cached_predictions
    return log


class TestRequestLog:
    def test_fresh_log_holds_the_never_served_values(self):
        """A request no engine writes keeps NaN times, ``ROUTE_BATCHED``,
        -1 prediction, source and replica, and batch size 0."""
        log = RequestLog(np.array([0.0, 0.5, 1.0]))
        assert len(log) == 3
        assert log.arrival_s.tolist() == [0.0, 0.5, 1.0]
        assert np.isnan(log.completion_s).all() and np.isnan(log.dispatch_s).all()
        assert not log.done.any() and np.isnan(log.sojourn_s).all()
        assert (log.route == ROUTE_BATCHED).all()
        assert (log.requested_route == ROUTE_BATCHED).all()
        for column in ("prediction", "source_id", "replica_id"):
            assert (getattr(log, column) == -1).all(), column
        for column in ("batch_size", "retries", "req_class", "timed_out"):
            assert (getattr(log, column) == 0).all(), column
        assert not log.degraded.any() and not log.hedged.any()
        # The harness digest hashes every column in this order.
        assert [(c, getattr(log, c).dtype.name) for c in RequestLog.__slots__] == [
            ("arrival_s", "float64"),
            ("completion_s", "float64"),
            ("dispatch_s", "float64"),
            ("prediction", "int64"),
            ("route", "int8"),
            ("requested_route", "int8"),
            ("batch_size", "int32"),
            ("source_id", "int64"),
            ("replica_id", "int32"),
            ("degraded", "bool"),
            ("retries", "int32"),
            ("req_class", "int8"),
            ("timed_out", "int32"),
            ("hedged", "bool"),
        ]

    def test_fill_cached_predictions(self):
        log = RequestLog(np.zeros(3))
        log.prediction[:] = [5, -1, -1]
        log.route[1] = ROUTE_CACHED
        log.source_id[1] = 0
        log.fill_cached_predictions()
        assert log.prediction.tolist() == [5, 5, -1]

    def test_done_and_sojourn_masks(self):
        log = RequestLog(np.array([1.0, 2.0]))
        log.completion_s[0] = 1.5
        assert log.done.tolist() == [True, False]
        assert log.sojourn_s[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_logs_reduce_consistently(self, seed):
        """The masks, route counts and the cache-hit gather agree with
        the raw columns on logs of any shape."""
        rng = np.random.default_rng(seed)
        log = random_log(rng, int(rng.integers(1, 200)))
        finite = np.isfinite(log.completion_s)
        np.testing.assert_array_equal(log.done, finite)
        np.testing.assert_array_equal(
            log.sojourn_s[finite], log.completion_s[finite] - log.arrival_s[finite]
        )
        assert np.isnan(log.sojourn_s[~finite]).all()
        assert sum(log.route_count(code) for code in ROUTES) == len(log)
        hits = log.route == ROUTE_CACHED
        before = log.prediction.copy()
        log.fill_cached_predictions()
        np.testing.assert_array_equal(log.prediction[~hits], before[~hits])
        np.testing.assert_array_equal(log.prediction[hits], before[log.source_id[hits]])
        assert (log.prediction >= 0).all()


class TestTraceValidation:
    def test_rejects_misaligned(self):
        with pytest.raises(ValueError, match="images vs"):
            validate_trace(np.zeros((3, 2, 2)), np.zeros(2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            validate_trace(np.zeros((0, 2, 2)), np.zeros(0))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            validate_trace(np.zeros((2, 2, 2)), np.array([1.0, 0.5]))

    @pytest.mark.parametrize(
        "arrivals",
        [[0.0, np.nan, 1.0], [np.nan], [-np.inf, 0.0, 1.0]],
        ids=["nan-inside", "nan-only", "minus-inf-head"],
    )
    def test_rejects_nan_and_minus_inf(self, arrivals):
        """NaN fails the order check's comparisons, so a NaN arrival
        used to be served as if absent instead of rejected."""
        with pytest.raises(ValueError, match="NaN or -inf"):
            validate_trace(np.zeros(len(arrivals), dtype=np.int64), np.array(arrivals))

    def test_plus_inf_stays_legal(self):
        """An edge tier can forward a request behind an outage that never ends."""
        _, arrivals = validate_trace(np.zeros(2, dtype=np.int64), [0.0, np.inf])
        assert arrivals[-1] == np.inf

    def test_oracle_keys_are_sample_ids(self):
        assert request_keys(np.array([4, 2, 4]), oracle=True) == [4, 2, 4]

    def test_live_keys_hash_content(self):
        images = np.zeros((2, 2, 2), dtype=np.float32)
        images[1] = 1.0
        a, b = request_keys(images, oracle=False)
        assert isinstance(a, str) and a != b


class TestInferenceTable:
    @pytest.fixture(scope="class")
    def pool(self):
        return np.random.default_rng(0).random((24, 1, 28, 28), dtype=np.float32)

    def test_static_table_has_no_gate(self, pool):
        table = InferenceTable.build(LeNetBackend(LeNet(rng=0), gci_cpu()), pool)
        assert not table.routed
        assert table.n_samples == 24
        assert table.hard_preds is None

    def test_routed_table_columns(self, pool):
        model = BranchyLeNet(rng=0)
        backend = BranchyNetBackend(model, raspberry_pi4())
        table = InferenceTable.build(backend, pool)
        assert table.routed
        np.testing.assert_array_equal(table.easy, table.entropy < backend.router.threshold)
        # The hard column is the trunk's answer for every sample.
        trunk = model.infer(pool, threshold=-1.0).predictions
        np.testing.assert_array_equal(table.hard_preds, trunk)

    def test_oracle_predict_honours_forced_decision(self, pool):
        model = BranchyLeNet(rng=0)
        backend = oracle_backend(BranchyNetBackend(model, raspberry_pi4()), pool)
        ids = np.array([0, 1, 2, 3])
        forced = RouteDecision(
            easy=np.array([True, True, False, False]),
            entropy=backend.table.entropy[ids],
        )
        preds = backend.predict(ids, forced)
        np.testing.assert_array_equal(preds[:2], backend.table.easy_preds[ids[:2]])
        np.testing.assert_array_equal(preds[2:], backend.table.hard_preds[ids[2:]])

    def test_tables_memoized_across_devices(self, pool):
        clear_oracle_cache()
        model = BranchyLeNet(rng=0)
        a = oracle_backend(BranchyNetBackend(model, raspberry_pi4()), pool)
        b = oracle_backend(BranchyNetBackend(model, gci_cpu()), pool)
        assert a.table is b.table  # device calibration is not part of the key
        assert a.timing is not b.timing  # but the virtual clock still differs

    def test_wrapping_an_oracle_is_idempotent(self, pool):
        backend = oracle_backend(LeNetBackend(LeNet(rng=0), gci_cpu()), pool)
        assert oracle_backend(backend, pool) is backend

    def test_warmup_is_a_noop(self, pool):
        backend = oracle_backend(LeNetBackend(LeNet(rng=0), gci_cpu()), pool)
        backend.warmup(512, sample_shape=())  # must not touch the model
