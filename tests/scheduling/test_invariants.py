"""Property tests: scheduler invariants over randomized overload traces.

Three invariants, each checked across 20+ randomized scenarios
(fleet size, service rates, batching knobs, overload factor, and class
mix all vary):

* **conservation** — every request ends in exactly one terminal state
  (served, shed, or unserved) and the per-class counts tile the trace;
* **priority ordering** — no lower-priority request boards a flush on a
  replica while a higher-priority request that was already queued there
  is left waiting;
* **batch no-starvation** — weighted-fair admission keeps the batch
  class flowing under sustained overload (throttled, never zeroed).
"""

import numpy as np
import pytest

from conftest import make_scenario, run_scenario

from repro.sim.records import ROUTE_SHED

SEEDS = range(20)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheduler", ["priority", "fifo"])
def test_request_conservation(seed, scheduler):
    sc = make_scenario(seed)
    report, log = run_scenario(sc, scheduler=scheduler)

    assert report.n_requests == sc.n
    assert report.n_served + report.n_shed + report.n_unserved == sc.n
    assert sum(r.n_requests for r in report.class_reports) == sc.n
    for cr in report.class_reports:
        assert cr.n_served + cr.n_shed + cr.n_unserved == cr.n_requests

    served = log.done
    shed = log.route == ROUTE_SHED
    assert not (served & shed).any()  # at most one terminal state
    dispatch = log.dispatch_s[served]
    assert np.isfinite(dispatch).all()
    assert (log.arrival_s[served] <= dispatch).all()
    assert (dispatch <= log.completion_s[served]).all()
    assert np.isnan(log.completion_s[shed]).all() and np.isnan(log.dispatch_s[shed]).all()
    n_unserved = int((~served & ~shed).sum())
    assert (int(served.sum()), int(shed.sum()), n_unserved) == (
        report.n_served,
        report.n_shed,
        report.n_unserved,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_priority_ordering(seed):
    """No flush carries class c while a more urgent request waits on the
    same replica: the priority fill boards urgent classes first, so any
    request left behind must be of equal or lower priority than every
    request that boarded."""
    sc = make_scenario(seed)
    _, log = run_scenario(sc, scheduler="priority")
    served = log.done & (log.retries == 0)
    priority = np.array([spec.priority for spec in sc.classes])[log.req_class]

    checked = 0
    for replica_id in np.unique(log.replica_id[served]):
        on = served & (log.replica_id == replica_id)
        arrival, dispatch = log.arrival_s[on], log.dispatch_s[on]
        prio, req_class = priority[on], log.req_class[on]
        for t in np.unique(dispatch):
            boarded = dispatch == t
            # Queued on this replica strictly before the flush, not yet
            # dispatched: these are the requests the flush passed over.
            waiting = (arrival < t) & (dispatch > t)
            if not waiting.any():
                continue
            most_urgent_waiting = prio[waiting].min()
            late = boarded & (prio > most_urgent_waiting)
            assert not late.any(), (
                f"replica {replica_id} flush @ {t}: class {req_class[late][0]} "
                f"boarded while a more urgent request waited"
            )
            checked += int(boarded.sum())
    assert checked > 0  # overload guarantees contended flushes


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_no_starvation(seed):
    """Under sustained 1.8x overload with weighted-fair admission and
    priority scheduling, the batch class is throttled but never starved:
    its reserve keeps admitting it, and every admitted batch request is
    eventually dispatched (deferred, not dropped by the scheduler)."""
    sc = make_scenario(seed, overload=1.8)
    report, _ = run_scenario(sc, scheduler="priority", admission="fair")
    _, _, batch = report.class_reports
    assert batch.n_served > 0, "batch class starved despite its reserve"
    assert batch.n_unserved == 0, "admitted batch requests were never dispatched"
