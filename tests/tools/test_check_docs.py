"""The docs-check gates: stale imports, keywords and cross-references."""

from check_docs import (
    DOC_REFERENCE,
    ROLE_REFERENCE,
    api_violations,
    reference_violations,
    snippet_violations,
    unique_public_names,
)


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


def test_stale_cross_references_are_flagged_with_their_line():
    """A deleted module leaves dangling names in docs and docstrings."""
    doc = "Live: `repro.cluster.Cluster.serve_log`.\nGone: `repro.cluster.failures`.\n"
    (violation,) = reference_violations(doc, DOC_REFERENCE, "README.md")
    assert violation.startswith("README.md:2:") and "repro.cluster.failures" in violation

    docstring = (
        ":class:`~repro.sim.OracleBackend`, :meth:`serve <repro.cluster.Cluster.serve>`,\n"
        ":attr:`repro.cluster.replica.InFlightBatch.indices` (a dataclass field),\n"
        ":class:`repro.cluster.failures.FailureEvent`, :meth:`relative_names_are_skipped`\n"
    )
    (violation,) = reference_violations(docstring, ROLE_REFERENCE, "mod.py")
    assert violation.startswith("mod.py:3:") and "FailureEvent" in violation


def test_stale_keywords_in_inline_call_snippets_are_flagged_with_their_line():
    """A removed parameter leaves stale call snippets in the prose docs."""
    names = unique_public_names()
    assert {"EdgeTier", "SessionTransport", "TensorCodec"} <= names.keys()
    doc = (
        "Pass `EdgeTier(..., codec=TensorCodec(\"uint8\"))` or\n"
        "`EdgeTier(..., transport=SessionTransport(...))`; `replace(p, jitter_s=0)`\n"
        "is not ours, and `EdgeTier` alone is no call.\n"
        "```python\nEdgeTier(..., fenced=True)\n```\n"
    )
    (violation,) = snippet_violations(doc, names, "docs/offload.md")
    assert violation.startswith("docs/offload.md:2:") and "'transport'" in violation
