"""Regression tests for scheduling race conditions.

Two races the engines must get right:

* an **admission decision and a replica crash on the same tick** — the
  crash is ordered before the arrival, so the decision must see the
  post-crash fleet and the per-class outstanding book must settle the
  cancelled work exactly once (no double-decrement when a retry lands
  on an identical timestamp);
* **preemption of a forming micro-batch whose leader is already in
  flight** — an interactive arrival must board the very next flush
  ahead of batch-class work that was queued first, while the FIFO
  control arm on the identical trace makes it wait its turn.
"""

import numpy as np
import pytest

from conftest import SumBackend, make_scenario, run_scenario

from repro.faults import FaultPlan, crash_window
from repro.serving.classes import ClassSet, RequestClass
from repro.serving.engine import Server
from repro.serving.request import Route

RACE_SEEDS = range(5)


def _crash_plan(sc, replica_id=0):
    """Crash `replica_id` at *exactly* an arrival timestamp, mid-trace."""
    t = float(sc.arrival_s[sc.n // 2])
    span = float(sc.arrival_s[-1])
    return FaultPlan(crash_window(replica_id, t, 0.2 * span))


@pytest.mark.parametrize("seed", RACE_SEEDS)
@pytest.mark.parametrize("scheduler", ["priority", "fifo"])
def test_crash_on_admission_tick(seed, scheduler):
    """Crash and arrival share a timestamp: the admission decision and
    per-class outstanding bookkeeping must stay consistent through the
    cancellation + retry storm."""
    sc = make_scenario(seed)
    if len(sc.per_item) < 2:
        sc.per_item = sc.per_item * 2  # a 1-replica fleet can't absorb a crash
    report, requests = run_scenario(
        sc, scheduler=scheduler, admission="fair", faults=_crash_plan(sc)
    )
    assert report.n_crashes == 1
    assert report.n_served + report.n_shed + report.n_unserved == sc.n
    for cr in report.class_reports:
        assert cr.n_served + cr.n_shed + cr.n_unserved == cr.n_requests
    assert report.n_unserved == 0  # every stranded request was re-dispatched
    for r in requests:
        if r.done:
            assert np.isfinite(r.dispatch_s)
            assert r.arrival_s <= r.dispatch_s <= r.completion_s
        else:
            assert r.route == Route.SHED


@pytest.mark.parametrize("seed", RACE_SEEDS)
def test_crash_does_not_break_batch_reserve(seed):
    """The weighted-fair reserve survives crash cancellation: stranded
    batch work is rolled back and readmitted rather than leaking
    outstanding slots until the class locks out."""
    sc = make_scenario(seed, overload=1.8)
    if len(sc.per_item) < 2:
        sc.per_item = sc.per_item * 2
    report, _ = run_scenario(
        sc, scheduler="priority", admission="fair", faults=_crash_plan(sc)
    )
    _, _, batch = report.class_reports
    assert batch.n_served > 0
    assert batch.n_unserved == 0


def _preemption_trace():
    """4 batch leaders (dispatched), 6 forming batch, then 1 interactive."""
    classes = ClassSet(
        (
            RequestClass("interactive", 0, 0.05, 0.5, max_wait_s=0.001),
            RequestClass("batch", 1, 1.0, 0.5, max_wait_s=0.05),
        )
    )
    arrival_s = np.array(
        [0.0, 0.0005, 0.001, 0.0015]  # leader batch: flushes full at 1.5 ms
        + [0.002, 0.0025, 0.003, 0.0035, 0.004, 0.0045]  # forming batch
        + [0.005],  # the interactive arrival, leader still in flight
    )
    codes = np.array([1] * 10 + [0], dtype=np.int8)
    rng = np.random.default_rng(0)
    images = rng.random((len(arrival_s), 1, 4, 4)).astype(np.float32)
    return classes, images, arrival_s, codes


@pytest.mark.parametrize("scheduler", ["priority", "fifo"])
def test_leader_batch_is_in_flight_at_arrival(scheduler):
    classes, images, arrival_s, codes = _preemption_trace()
    server = Server(
        SumBackend(per_item_s=0.001, overhead_s=0.001),
        max_batch_size=4,
        max_wait_s=0.004,
        classes=classes,
        scheduler=scheduler,
    )
    _, reqs = server.serve_detailed(images, arrival_s, request_classes=codes)
    inter = reqs[10]
    leader = reqs[:4]
    # Race precondition: when the interactive request arrives, the leader
    # batch has been dispatched but not completed.
    assert all(r.dispatch_s < inter.arrival_s < r.completion_s for r in leader)


def test_interactive_preempts_forming_batch():
    classes, images, arrival_s, codes = _preemption_trace()

    def run(scheduler):
        server = Server(
            SumBackend(per_item_s=0.001, overhead_s=0.001),
            max_batch_size=4,
            max_wait_s=0.004,
            classes=classes,
            scheduler=scheduler,
        )
        _, reqs = server.serve_detailed(images, arrival_s, request_classes=codes)
        return reqs

    prio = run("priority")
    fifo = run("fifo")

    # Priority: the interactive request boards the first post-leader
    # flush — nothing queued behind the in-flight leader dispatches
    # before it, and some earlier-arrived batch work is pushed behind it.
    post_leader = prio[4:]
    inter = prio[10]
    assert inter.dispatch_s == min(r.dispatch_s for r in post_leader)
    overtaken = [
        r for r in prio[4:10]
        if r.arrival_s < inter.arrival_s and r.dispatch_s > inter.dispatch_s
    ]
    assert overtaken, "priority flush should defer some earlier batch work"

    # FIFO control arm on the identical trace: the interactive request
    # waits behind every earlier batch request instead.
    fifo_inter = fifo[10]
    assert all(fifo_inter.dispatch_s >= r.dispatch_s for r in fifo[4:10])
    assert fifo_inter.dispatch_s > inter.dispatch_s
    assert fifo_inter.completion_s > inter.completion_s
