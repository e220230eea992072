"""Balancer policy semantics on hand-built replica states."""

import numpy as np
import pytest

from repro.cluster.policies import (
    POLICY_NAMES,
    JoinShortestQueue,
    LeastOutstanding,
    PowerOfTwoChoices,
    RoundRobin,
    make_policy,
)
from repro.cluster.replica import InFlightBatch, Replica, ReplicaState

from conftest import SumBackend


def replica_with_load(replica_id, pending=0, in_service=0, waiting=0, now=1.0):
    """A replica with `pending` batcher entries, `in_service` requests in a
    started batch, and `waiting` requests in a not-yet-started batch."""
    r = Replica(replica_id, SumBackend(), max_batch_size=64, max_wait_s=1.0)
    for i in range(pending):
        r.batcher.add(i, now)
    if in_service:
        r.commit(
            InFlightBatch(tuple(range(in_service)), None, start_s=now - 0.1, completion_s=now + 1.0)
        )
    if waiting:
        r.commit(
            InFlightBatch(tuple(range(waiting)), None, start_s=now + 0.5, completion_s=now + 2.0)
        )
    return r


class TestSignals:
    def test_outstanding_counts_pending_and_in_flight(self):
        r = replica_with_load(0, pending=3, in_service=2, waiting=4)
        assert r.outstanding(1.0) == 9

    def test_queue_depth_excludes_started_batches(self):
        r = replica_with_load(0, pending=3, in_service=2, waiting=4)
        assert r.queue_depth(1.0) == 7

    def test_completed_batches_leave_outstanding(self):
        r = replica_with_load(0, in_service=2)
        assert r.outstanding(5.0) == 0

    def test_count_follows_commit_purge_crash_and_reprovision(self):
        r = Replica(0, SumBackend(), max_batch_size=64, max_wait_s=1.0)
        assert r.n_in_flight == 0
        r.commit(InFlightBatch((0, 1, 2), None, start_s=0.0, completion_s=1.0))
        r.commit(InFlightBatch((3, 4), None, start_s=1.0, completion_s=2.0))
        r.batcher.add(5, 1.5)
        assert r.n_in_flight == 5
        assert r.outstanding(0.5) == 6
        done = r.purge(1.5)  # the first batch only
        assert [b.indices for b in done] == [(0, 1, 2)]
        assert r.n_in_flight == 2
        assert r.outstanding(1.5) == 3
        assert r.purge(1.6) == [] and r.n_in_flight == 2
        lost = r.crash(1.7)
        assert sorted(lost) == [3, 4, 5]
        assert r.n_in_flight == 0 and r.outstanding(1.7) == 0
        r.provision(2.0)
        r.mark_up(2.0)
        assert r.state == ReplicaState.UP
        assert r.outstanding(3.0) == 0
        r.commit(InFlightBatch((6,), None, start_s=2.0, completion_s=2.5))
        assert r.n_in_flight == 1 and r.outstanding(2.1) == 1

    def test_read_past_an_unpurged_completion_recounts(self):
        r = replica_with_load(0, in_service=2, waiting=4)  # complete at 2.0 and 3.0
        assert r.n_in_flight == 6  # nothing purged yet...
        assert r.outstanding(2.5) == 4  # ...but the head batch is over by 2.5
        assert r.outstanding(3.0) == 0
        assert r.outstanding(1.0) == 6
        assert r.n_in_flight == 6  # reads never mutate the count

    def test_queue_depth_counts_batches_not_yet_started(self):
        # Batches start at 0.9 (2 copies) and 1.5 (4 copies); 3 pending.
        r = replica_with_load(0, pending=3, in_service=2, waiting=4)
        depths = [r.queue_depth(now) for now in (0.5, 1.0, 1.5, 3.5)]
        assert depths == [9, 7, 3, 3]
        r.purge(2.0)  # the started batch completes; the cached count moves
        assert r.n_in_flight == 4
        assert [r.queue_depth(now) for now in (0.5, 1.0, 1.5)] == [7, 7, 3]


class TestPolicies:
    def test_round_robin_cycles(self):
        rr = RoundRobin()
        replicas = [replica_with_load(i) for i in range(3)]
        rng = np.random.default_rng(0)
        picks = [rr.choose(replicas, 1.0, rng).replica_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_picks_global_minimum(self):
        replicas = [
            replica_with_load(0, pending=5),
            replica_with_load(1, in_service=1),
            replica_with_load(2, waiting=8),
        ]
        pick = LeastOutstanding().choose(replicas, 1.0, np.random.default_rng(0))
        assert pick.replica_id == 1

    def test_jsq_ignores_in_service_work(self):
        replicas = [
            replica_with_load(0, in_service=10),  # busy but nothing queued
            replica_with_load(1, pending=1),
        ]
        pick = JoinShortestQueue().choose(replicas, 1.0, np.random.default_rng(0))
        assert pick.replica_id == 0

    def test_ties_break_to_lowest_id(self):
        replicas = [replica_with_load(2), replica_with_load(0), replica_with_load(1)]
        pick = LeastOutstanding().choose(replicas, 1.0, np.random.default_rng(0))
        assert pick.replica_id == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_outstanding_ties_match_keyed_min_on_unsorted_lists(self, seed):
        """Both outstanding policies pick what ``min(key=(load, id))``
        picks, whatever order the candidates come in (loads of 0-2 over
        eight replicas make ties the common case)."""
        rng = np.random.default_rng(seed)
        replicas = [
            replica_with_load(
                int(i), pending=int(rng.integers(0, 2)), in_service=int(rng.integers(0, 2))
            )
            for i in rng.permutation(8)
        ]

        def keyed_min(candidates):
            return min(candidates, key=lambda r: (r.outstanding(1.0), r.replica_id))

        pick = LeastOutstanding().choose(replicas, 1.0, rng)
        assert pick is keyed_min(replicas)
        for draw in range(20):
            i, j = np.random.default_rng([seed, draw]).choice(8, size=2, replace=False)
            want = keyed_min([replicas[int(i)], replicas[int(j)]])
            got = PowerOfTwoChoices().choose(replicas, 1.0, np.random.default_rng([seed, draw]))
            assert got is want

    def test_power_of_two_prefers_less_loaded_probe(self):
        # With two replicas the two probes cover the fleet: the less
        # loaded one must always win, whatever the rng.
        replicas = [replica_with_load(0, pending=9), replica_with_load(1)]
        p2c = PowerOfTwoChoices()
        for seed in range(10):
            pick = p2c.choose(replicas, 1.0, np.random.default_rng(seed))
            assert pick.replica_id == 1

    def test_power_of_two_single_replica(self):
        replicas = [replica_with_load(7)]
        pick = PowerOfTwoChoices().choose(replicas, 1.0, np.random.default_rng(0))
        assert pick.replica_id == 7

    def test_factory_round_trip_and_unknown(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name
        with pytest.raises(ValueError):
            make_policy("random")
