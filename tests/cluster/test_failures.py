"""Unit tests for the crash/recover fault kinds: ordering, the crash
samplers, and crash semantics across replica lifecycle states.

Validation of the kinds and their same-instant rank against the other
fault kinds live with the rest of the taxonomy, in
``tests/faults/test_plan.py``.
"""

import pytest
from conftest import SumBackend

from repro.cluster.replica import InFlightBatch, Replica, ReplicaState
from repro.faults import CRASH, RECOVER, Fault, crash_window, poisson_failures


class TestOrdering:
    def test_crash_sorts_before_recover_at_same_instant(self):
        """Regression: same-timestamp ordering is an explicit rank, not
        string comparison ('crash' < 'recover' happens to hold
        lexicographically, but the rank is what we rely on)."""
        recover = Fault(1.0, 0, RECOVER)
        crash = Fault(1.0, 0, CRASH)
        assert sorted([recover, crash]) == [crash, recover]
        assert crash.sort_key() < recover.sort_key()

    def test_replica_breaks_time_ties_before_kind(self):
        a = Fault(1.0, 1, CRASH)
        b = Fault(1.0, 0, RECOVER)
        assert sorted([a, b]) == [b, a]

    def test_sort_key_is_total_and_stable(self):
        events = [
            Fault(2.0, 0, CRASH),
            Fault(1.0, 1, RECOVER),
            Fault(1.0, 1, CRASH),
            Fault(1.0, 0, RECOVER),
        ]
        ordered = sorted(events)
        assert [e.sort_key() for e in ordered] == sorted(e.sort_key() for e in events)


class TestCrashWindow:
    def test_pairs_crash_with_recover(self):
        crash, recover = crash_window(2, at_s=1.0, duration_s=0.5)
        assert (crash.kind, recover.kind) == (CRASH, RECOVER)
        assert crash.replica_id == recover.replica_id == 2
        assert recover.time_s == pytest.approx(1.5)

    def test_nonpositive_duration_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="duration"):
                crash_window(0, 1.0, bad)


class TestPoissonFailures:
    def test_seed_determinism(self):
        a = poisson_failures(4, 100.0, mtbf_s=20.0, mttr_s=2.0, rng=7)
        b = poisson_failures(4, 100.0, mtbf_s=20.0, mttr_s=2.0, rng=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = poisson_failures(4, 100.0, mtbf_s=5.0, mttr_s=1.0, rng=1)
        b = poisson_failures(4, 100.0, mtbf_s=5.0, mttr_s=1.0, rng=2)
        assert a != b

    def test_events_sorted_and_alternating_per_replica(self):
        events = poisson_failures(3, 200.0, mtbf_s=10.0, mttr_s=2.0, rng=3)
        assert list(events) == sorted(events)
        by_replica = {}
        for e in events:
            by_replica.setdefault(e.replica_id, []).append(e.kind)
        for kinds in by_replica.values():
            # Strict alternation starting with a crash; a trailing crash
            # whose repair falls past the horizon has no recover.
            assert kinds[0] == CRASH
            for prev, cur in zip(kinds, kinds[1:]):
                assert prev != cur

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="n_replicas"):
            poisson_failures(0, 1.0, 1.0, 1.0)
        for kwargs in (
            {"horizon_s": 0.0, "mtbf_s": 1.0, "mttr_s": 1.0},
            {"horizon_s": 1.0, "mtbf_s": 0.0, "mttr_s": 1.0},
            {"horizon_s": 1.0, "mtbf_s": 1.0, "mttr_s": -1.0},
        ):
            with pytest.raises(ValueError, match="positive"):
                poisson_failures(1, **kwargs)


class TestCrashAcrossLifecycle:
    """A crash must land cleanly whatever state the replica is in."""

    def make_replica(self, state=ReplicaState.UP):
        r = Replica(0, SumBackend(), max_batch_size=4, max_wait_s=0.004)
        if state == ReplicaState.DOWN:
            r.state = ReplicaState.DOWN
            r.up_since_s = None
        return r

    def test_crash_while_warming_goes_down_and_bills(self):
        r = self.make_replica(ReplicaState.DOWN)
        r.provision(1.0)
        assert r.state == ReplicaState.WARMING
        lost = r.crash(1.5)
        assert lost == []
        assert r.state == ReplicaState.DOWN
        assert r.up_seconds == pytest.approx(0.5)  # warm-up time is paid for
        # The stale warm-up-complete event from the dead epoch is ignored.
        r.mark_up(2.0)
        assert r.state == ReplicaState.DOWN

    def test_crash_while_draining_loses_in_flight_work(self):
        r = self.make_replica()
        batch = InFlightBatch(
            indices=(3, 4), decision=None, start_s=0.01, completion_s=0.05
        )
        r.commit(batch)
        r.start_drain(0.02)
        assert r.state == ReplicaState.DRAINING
        lost = r.crash(0.03)
        assert sorted(lost) == [3, 4]
        assert r.state == ReplicaState.DOWN
        assert r.n_crashes == 1
        # Billed only up to the crash, not to the cancelled completion.
        assert r.up_seconds == pytest.approx(0.03)

    def test_crash_rolls_back_unexecuted_busy_time(self):
        r = self.make_replica()
        batch = InFlightBatch(
            indices=(0,), decision=None, start_s=0.01, completion_s=0.05
        )
        r.commit(batch)
        assert r.busy_s == pytest.approx(0.04)
        r.crash(0.02)
        assert r.busy_s == pytest.approx(0.01)  # only the executed slice

    def test_recover_after_crash_pays_a_fresh_epoch(self):
        r = self.make_replica()
        r.crash(1.0)
        r.provision(2.0)
        gen = r.generation
        r.mark_up(2.5)
        assert r.state == ReplicaState.UP
        assert r.generation == gen
