"""The docs-check API gate: stale imports and keywords in example code."""

from check_docs import api_violations


def test_unknown_keyword_is_one_violation_naming_it():
    code = "from repro.cluster import Cluster\nCluster([], failures=())\n"
    (violation,) = api_violations([code], "snippet")
    assert "failures" in violation


def test_missing_import_is_one_violation():
    (violation,) = api_violations(["from repro.cluster import crash_window\n"], "snippet")
    assert "cannot import" in violation and "crash_window" in violation


def test_blocks_share_one_namespace():
    """A name imported in one README block is checked where a later one calls it."""
    blocks = ["from repro.faults import FaultPlan\n", "FaultPlan(faults=(), seed=1)\n"]
    assert api_violations(blocks, "snippet") == []
    (violation,) = api_violations(blocks[:1] + ["FaultPlan(failures=())\n"], "snippet")
    assert "failures" in violation
