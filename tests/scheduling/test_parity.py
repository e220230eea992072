"""Oracle-vs-live parity for the multi-tenant scheduling stack.

Extends the parity contract of ``tests/sim`` to request classes: the
precomputed oracle must replay priority scheduling, weighted-fair
admission, and the per-class report slice *field for field* — including
scenarios where a class is entirely shed (NaN percentiles on both
sides).
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_scenario, run_scenario

from repro.sim.records import RequestLog

SEEDS = range(6)


def assert_fields_equal(live, orc, skip=()):
    """Field-by-field dataclass equality with NaN == NaN."""
    assert type(live) is type(orc)
    for f in dataclasses.fields(live):
        if f.name in skip:
            continue
        a, b = getattr(live, f.name), getattr(orc, f.name)
        if isinstance(a, float) and math.isnan(a):
            assert isinstance(b, float) and math.isnan(b), f.name
        else:
            assert a == b, f"{f.name}: live={a!r} oracle={b!r}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheduler", ["priority", "fifo"])
def test_per_class_report_parity(seed, scheduler):
    sc = make_scenario(seed)
    live, live_log = run_scenario(sc, scheduler=scheduler, oracle=False)
    orc, orc_log = run_scenario(sc, scheduler=scheduler, oracle=True)

    assert_fields_equal(live, orc, skip=("class_reports",))
    assert len(live.class_reports) == len(orc.class_reports) == len(sc.classes)
    for lcr, ocr in zip(live.class_reports, orc.class_reports):
        assert_fields_equal(lcr, ocr)

    # Per-request records match too — class code, requested route,
    # dispatch time and all (NaN-valued fields only on unserved/shed
    # requests, equal-NaN on both sides).
    assert len(live_log) == len(orc_log)
    for column in RequestLog.__slots__:
        np.testing.assert_array_equal(
            getattr(live_log, column), getattr(orc_log, column), err_msg=column
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_parity_holds_when_a_class_is_fully_shed(seed):
    """Degenerate slice: crank overload so hard that batch is (nearly)
    wiped — NaN percentile fields must agree between modes rather than
    comparing unequal."""
    sc = make_scenario(seed, overload=3.0)
    live, _ = run_scenario(sc, scheduler="priority", oracle=False)
    orc, _ = run_scenario(sc, scheduler="priority", oracle=True)
    for lcr, ocr in zip(live.class_reports, orc.class_reports):
        assert_fields_equal(lcr, ocr)
