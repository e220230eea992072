"""Unit tests for the SoA request log and the oracle table layer."""

import numpy as np
import pytest

from repro.hw.devices import gci_cpu, raspberry_pi4
from repro.models import BranchyLeNet, LeNet
from repro.serving.backends import BranchyNetBackend, LeNetBackend
from repro.serving.request import Route
from repro.serving.router import RouteDecision
from repro.sim import (
    ROUTE_CACHED,
    ROUTE_EASY,
    ROUTE_SHED,
    InferenceTable,
    RequestLog,
    clear_oracle_cache,
    oracle_backend,
    request_keys,
    validate_trace,
)


class TestRequestLog:
    def test_columns_match_request_defaults(self):
        log = RequestLog(np.array([0.0, 0.5, 1.0]))
        (req,) = log.to_requests()[:1]
        assert req.req_id == 0
        assert req.route == Route.BATCHED
        assert req.prediction == -1
        assert req.batch_size == 0
        assert np.isnan(req.completion_s)
        assert not req.done

    def test_to_requests_round_trip(self):
        log = RequestLog(np.array([0.0, 0.5, 1.0]))
        log.completion_s[:] = [0.2, np.nan, 1.4]
        log.route[:] = [ROUTE_EASY, ROUTE_SHED, ROUTE_CACHED]
        log.prediction[:] = [3, -1, 7]
        log.batch_size[0] = 4
        log.source_id[2] = 0
        log.replica_id[0] = 2
        log.degraded[1] = True
        log.retries[0] = 1
        reqs = log.to_requests()
        assert [r.route for r in reqs] == [Route.EASY, Route.SHED, Route.CACHED]
        assert reqs[0].sojourn_s == pytest.approx(0.2)
        assert reqs[0].replica_id == 2 and reqs[0].retries == 1
        assert reqs[1].degraded and not reqs[1].done
        assert reqs[2].source_id == 0

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
