"""Balancer policy semantics on hand-built replica states."""

import numpy as np
import pytest

from repro.cluster.policies import (
    POLICY_NAMES,
    JoinShortestQueue,
    LeastOutstanding,
    PowerOfTwoChoices,
    ResilientBalancer,
    RoundRobin,
    _BLOCK,
    make_policy,
)
from repro.cluster.replica import InFlightBatch, Replica, ReplicaState

from conftest import SumBackend, same_state

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)
#: PCG64's 128-bit LCG multiplier (O'Neill's default, as NumPy uses it).
PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


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

    @pytest.mark.parametrize("seed", range(20))
    def test_queue_depth_walk_matches_full_sum(self, seed):
        """The backward walk counts what summing every batch counts.

        Batches start in non-decreasing order (ties included) with random
        gaps and sizes, and each read is at a random instant or exactly
        at a start, before and after purges.
        """
        rng = np.random.default_rng(seed)
        r = Replica(0, SumBackend(), max_batch_size=64, max_wait_s=1.0)
        for i in range(int(rng.integers(0, 4))):
            r.batcher.add(i, 0.0)
        start = 0.0
        for _ in range(int(rng.integers(0, 12))):
            start += float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
            r.commit(
                InFlightBatch(
                    tuple(range(int(rng.integers(1, 9)))),
                    None,
                    start_s=start,
                    completion_s=start + float(rng.uniform(0.1, 1.0)),
                )
            )

        def summed(now):
            return len(r.batcher) + sum(
                len(b.indices) for b in r.in_flight if b.start_s > now
            )

        starts = [b.start_s for b in r.in_flight]
        for purge_at in (-1.0, start / 3, start / 2, start + 2.0):
            r.purge(purge_at)
            for now in [*rng.uniform(-0.5, start + 1.0, 8), *starts, -1.0, start + 2.0]:
                assert r.queue_depth(now) == summed(now), (purge_at, now)

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

    @pytest.mark.parametrize("seed", range(10))
    def test_jsq_matches_keyed_min_on_unsorted_lists(self, seed):
        rng = np.random.default_rng(seed)
        replicas = [
            replica_with_load(
                int(i), pending=int(rng.integers(0, 2)), waiting=int(rng.integers(0, 2))
            )
            for i in rng.permutation(8)
        ]
        pick = JoinShortestQueue().choose(replicas, 1.0, rng)
        assert pick is min(replicas, key=lambda r: (r.queue_depth(1.0), r.replica_id))

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

    def test_release_is_forwarded_through_the_breakers(self):
        replicas = [replica_with_load(i) for i in range(16)]
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        balancer = ResilientBalancer(PowerOfTwoChoices())
        for _ in range(10):
            balancer.choose(replicas, 1.0, rng)
            ref.choice(16, size=2, replace=False)
        balancer.release()
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)

    def test_factory_round_trip_and_unknown(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name
        with pytest.raises(ValueError):
            make_policy("random")


class _Probe:
    """Replica stand-in that records the ids the balancer compares."""

    def __init__(self, replica_id, seen):
        self.replica_id = replica_id
        self.seen = seen

    def outstanding(self, now):
        self.seen.append(self.replica_id)
        return 0


def _probes(n):
    seen = []
    return [_Probe(i, seen) for i in range(n)], seen


def _words(rng, n):
    return rng.integers(0, 2**32, size=n, dtype=np.uint32).tolist()


class TestPowerOfTwoSampler:
    """``PowerOfTwoChoices`` draws the pairs ``rng.choice(n, 2)`` draws.

    Pairs are compared as sets: ``choice`` shuffles each pair, and the
    balancer's comparison breaks ties on ``replica_id``, so order does
    not matter.  After :meth:`PowerOfTwoChoices.release` the generator
    must be exactly where the same ``choice`` calls leave it.
    """

    #: At 3 words per pair for n >= 3 and 2 for n = 2, more words than
    #: one block holds: every case refills at least once.
    N_DRAWS = _BLOCK // 2 + 64

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 64, 1000])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda c: c.__name__)
    def test_pairs_and_final_state_match_choice(self, bit_generator, n):
        replicas, seen = _probes(n)
        rng = np.random.Generator(bit_generator(n))
        ref = np.random.Generator(bit_generator(n))
        p2c = PowerOfTwoChoices()
        for draw in range(self.N_DRAWS):
            seen.clear()
            p2c.choose(replicas, 0.0, rng)
            if n == 1:
                # choice(1, 2) has no pair to draw: nothing is probed,
                # and nothing may be drawn.
                assert seen == []
                continue
            want = set(ref.choice(n, size=2, replace=False).tolist())
            assert set(seen) == want and len(seen) == 2, (draw, seen, want)
        p2c.release()
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)

    def test_rejection_redraws_like_choice(self):
        """Two zero words force Lemire's redraw on ``b``: 4 words, {0, 2}.

        PCG64 outputs the xor of the two halves of its post-step state,
        rotated, so a state that steps to ``0`` outputs the 64-bit word
        0: the 32-bit words 0 and 0.  ``a`` draws from [0, 1] (bound 2,
        which never redraws); ``b`` draws from [0, 2], where the low
        half of ``0 * 3`` lies below ``(2**32 - 3) % 3 == 1``, so ``b``
        draws again; one more word is the shuffle coin.
        """
        inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
        state = (-inc * pow(PCG64_MULTIPLIER, -1, 1 << 128)) % (1 << 128)

        def generator():
            rng = np.random.default_rng(0)
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            return rng

        assert _words(generator(), 2) == [0, 0]
        four = generator()
        _words(four, 4)
        ref = generator()
        want = set(ref.choice(3, size=2, replace=False).tolist())
        replicas, seen = _probes(3)
        rng = generator()
        p2c = PowerOfTwoChoices()
        p2c.choose(replicas, 0.0, rng)
        p2c.release()
        assert set(seen) == want == {0, 2}
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)
        assert same_state(rng.bit_generator.state, four.bit_generator.state)

    def test_first_pairs_at_seed_0_are_pinned(self):
        """The pairs at seed 0, n = 64, written out.

        They come from NumPy's word stream: a NumPy release that moves it
        fails here, by name, instead of silently moving every
        power-of-two digest.
        """
        replicas, seen = _probes(64)
        rng = np.random.default_rng(0)
        p2c = PowerOfTwoChoices()
        pairs = []
        for _ in range(8):
            seen.clear()
            p2c.choose(replicas, 0.0, rng)
            pairs.append(tuple(sorted(seen)))
        assert pairs == [
            (40, 53), (16, 19), (1, 4), (41, 51), (31, 38), (40, 45), (35, 59), (42, 51),
        ]

    def test_a_second_generator_releases_the_first(self):
        replicas, _ = _probes(16)
        first, second = np.random.default_rng(1), np.random.default_rng(2)
        ref_first, ref_second = np.random.default_rng(1), np.random.default_rng(2)
        p2c = PowerOfTwoChoices()
        for rng, ref in ((first, ref_first), (second, ref_second), (first, ref_first)):
            p2c.choose(replicas, 0.0, rng)
            ref.choice(16, size=2, replace=False)
        assert same_state(second.bit_generator.state, ref_second.bit_generator.state)
        p2c.release()
        p2c.release()  # a second release has nothing left to hand back
        assert same_state(first.bit_generator.state, ref_first.bit_generator.state)
