"""Unit tests for the fault taxonomy (Fault, FaultPlan, fault_storm)."""

import math

import numpy as np
import pytest

from repro.faults import (
    CRASH,
    FLAKY,
    HEAL,
    PARTITION,
    RECOVER,
    SLOWDOWN,
    Fault,
    FaultPlan,
    fault_storm,
    flaky_window,
    partition_window,
    slowdown_window,
)


class TestFaultValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            Fault(-1.0, 0, SLOWDOWN, 2.0)

    def test_negative_replica_rejected(self):
        with pytest.raises(ValueError, match="replica_id"):
            Fault(0.0, -1, SLOWDOWN, 2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Fault(0.0, 0, "meltdown")

    def test_slowdown_must_not_speed_up(self):
        with pytest.raises(ValueError, match="slowdown"):
            Fault(0.0, 0, SLOWDOWN, 0.5)
        Fault(0.0, 0, SLOWDOWN, 1.0)  # restoring to nominal is legal

    def test_flaky_probability_bounds(self):
        with pytest.raises(ValueError, match="flaky"):
            Fault(0.0, 0, FLAKY, 1.0)
        Fault(0.0, 0, FLAKY, 0.0)  # restoring health is legal

    @pytest.mark.parametrize(
        "kind, magnitude",
        [(CRASH, 1.0), (RECOVER, 1.0), (SLOWDOWN, 2.0), (PARTITION, 1.0), (HEAL, 1.0),
         (FLAKY, 0.5)],
    )
    def test_nan_time_rejected(self, kind, magnitude):
        """NaN fails every comparison, so a plain ``time_s < 0`` check
        would let it through and the replay would fail midway."""
        with pytest.raises(ValueError, match="time"):
            Fault(math.nan, 0, kind, magnitude)

    @pytest.mark.parametrize("kind", [CRASH, RECOVER, SLOWDOWN, PARTITION, HEAL, FLAKY])
    def test_nan_magnitude_rejected(self, kind):
        """NaN passes ``magnitude < 1.0``; a NaN slowdown would silently
        leave requests unserved."""
        with pytest.raises(ValueError, match="magnitude"):
            Fault(0.0, 0, kind, math.nan)

    def test_window_helpers_reject_nonpositive_duration(self):
        for helper, args in (
            (slowdown_window, (0, 0.1, 0.0, 2.0)),
            (partition_window, (0, 0.1, -1.0)),
            (flaky_window, (0, 0.1, 0.0, 0.5)),
        ):
            with pytest.raises(ValueError, match="duration"):
                helper(*args)


class TestOrdering:
    def test_same_timestamp_kind_ranks(self):
        """At one instant: crash < recover < heal < slowdown < flaky <
        partition — explicit ranks, independent of string comparison."""
        t = 1.0
        faults = [
            Fault(t, 0, PARTITION),
            Fault(t, 0, FLAKY, 0.3),
            Fault(t, 0, SLOWDOWN, 2.0),
            Fault(t, 0, HEAL),
            Fault(t, 0, RECOVER),
            Fault(t, 0, CRASH),
        ]
        kinds = [f.kind for f in sorted(faults)]
        assert kinds == [CRASH, RECOVER, HEAL, SLOWDOWN, FLAKY, PARTITION]

    def test_replica_breaks_ties_before_kind(self):
        a = Fault(1.0, 1, HEAL)
        b = Fault(1.0, 0, PARTITION)
        assert sorted([a, b]) == [b, a]

    def test_plan_sorts_on_construction(self):
        plan = FaultPlan(
            faults=(
                Fault(2.0, 0, HEAL),
                Fault(1.0, 0, PARTITION),
                Fault(0.5, 1, RECOVER),
                Fault(0.1, 1, CRASH),
            ),
        )
        assert [f.time_s for f in plan.faults] == [0.1, 0.5, 1.0, 2.0]
        assert [e.kind for e in plan.failures] == [CRASH, RECOVER]


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(faults=(Fault(0.0, 0, PARTITION),))

    def test_max_replica_id_spans_both_event_types(self):
        plan = FaultPlan(faults=(Fault(0.0, 1, SLOWDOWN, 2.0), Fault(0.0, 3, CRASH)))
        assert plan.max_replica_id() == 3
        assert FaultPlan().max_replica_id() == -1

    def test_partition_intervals_simple(self):
        plan = FaultPlan(faults=partition_window(0, 1.0, 2.0))
        assert plan.partition_intervals() == {0: [(1.0, 3.0)]}

    def test_partition_intervals_merge_overlaps(self):
        """Nested/overlapping windows merge into one interval that closes
        only when the nesting count returns to zero."""
        plan = FaultPlan(
            faults=partition_window(0, 1.0, 4.0) + partition_window(0, 3.0, 5.0)
        )
        assert plan.partition_intervals() == {0: [(1.0, 8.0)]}

    def test_unhealed_partition_extends_to_infinity(self):
        plan = FaultPlan(faults=(Fault(2.0, 1, PARTITION),))
        ((start, end),) = plan.partition_intervals()[1]
        assert start == 2.0 and math.isinf(end)

    def test_stray_heal_is_ignored(self):
        plan = FaultPlan(faults=(Fault(1.0, 0, HEAL),))
        assert plan.partition_intervals() == {}

    @pytest.mark.parametrize("seed", [math.nan, math.inf, -1, 2.5], ids=str)
    def test_seed_must_be_a_non_negative_integer(self, seed):
        """The seed feeds ``np.random.default_rng`` when a cluster runs
        the plan; a bad one used to fail there, in NumPy's words."""
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert FaultPlan(seed=np.int64(7)).seed == 7


class TestFaultStorm:
    def test_seed_determinism(self):
        a = fault_storm(3, 10.0, rng=42, crash_mtbf_s=20.0, crash_mttr_s=2.0)
        b = fault_storm(3, 10.0, rng=42, crash_mtbf_s=20.0, crash_mttr_s=2.0)
        assert a == b
        assert a.seed == b.seed

    def test_different_seeds_differ(self):
        a = fault_storm(3, 10.0, rng=1)
        b = fault_storm(3, 10.0, rng=2)
        assert a != b

    @pytest.mark.parametrize("seed", range(16))
    def test_storm_respects_bounds(self, seed):
        """Faults land inside the horizon on existing replicas; slowdowns
        are 4-16x and flaky windows fail 20-70% of batches."""
        plan = fault_storm(
            4, 5.0, rng=np.random.default_rng(seed), crash_mtbf_s=10.0, crash_mttr_s=1.0
        )
        assert plan.max_replica_id() < 4
        for f in plan.faults:
            assert 0.0 <= f.time_s <= 5.0 + 1e-5
            if f.kind == SLOWDOWN and f.magnitude != 1.0:
                assert 4.0 <= f.magnitude < 16.0
            if f.kind == FLAKY and f.magnitude != 0.0:
                assert 0.2 <= f.magnitude < 0.7

    def test_storm_validation(self):
        with pytest.raises(ValueError, match="n_replicas"):
            fault_storm(0, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            fault_storm(1, 0.0)

    def test_crash_overlay_needs_both_knobs(self):
        """One crash knob without the other fails loudly instead of
        silently dropping the crash overlay."""
        for half in ({"crash_mtbf_s": 2.0}, {"crash_mttr_s": 0.5}):
            with pytest.raises(ValueError, match="together"):
                fault_storm(4, 10.0, rng=0, **half)
        plan = fault_storm(4, 10.0, rng=0, crash_mtbf_s=2.0, crash_mttr_s=0.5)
        assert any(f.kind == CRASH for f in plan.failures)

