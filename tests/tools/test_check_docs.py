"""The docs-check gates: stale imports, keywords, cross-references and commands."""

from check_docs import (
    DOC_MEMBER,
    DOC_REFERENCE,
    ROLE_REFERENCE,
    api_violations,
    check_commands,
    check_cross_references,
    command_violations,
    make_targets,
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


def test_stale_members_of_public_names_are_flagged_with_their_line():
    """A removed method leaves dangling `Name.member` spans in the prose docs."""
    names = unique_public_names()
    doc = (
        "Live: `Cluster.serve_log`, `Replica.queue_depth`, `RequestLog.route`,\n"
        "`Replica.busy_s` (a dataclass field), `Observer.chrome_trace(path)`.\n"
        "Gone: `Cluster.serve_detailed`; `np.float64` and `self.obs` are not ours.\n"
        "Gone too: `RequestLog.to_requests()`; `repro.sim.RequestLog` is a dotted name.\n"
    )
    assert reference_violations(doc, DOC_MEMBER, "docs/sim.md", names) == [
        "docs/sim.md:3: `Cluster.serve_detailed` does not resolve",
        "docs/sim.md:4: `RequestLog.to_requests` does not resolve",
    ]


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


def test_stale_make_targets_and_paths_are_flagged_with_their_line():
    """A deleted tool leaves stale commands in the docs' code."""
    targets = make_targets()
    assert {"docs-check", "harness-smoke", "results-check"} <= targets
    doc = (
        "Run `make docs-check` and `tests/tools/test_check_docs.py::test_x`.\n"
        "```bash\n"
        "make harness-smoke\n"
        "make bench-check   # gone\n"
        "python3 benchmarks/harness/run.py compare A.json B.json\n"
        "```\n"
        "Then `python tools/bench_history.py` over `benchmarks/results/*.txt`;\n"
        "make bench-check and tools/bench_history.py in prose are not code.\n"
        "`benchmarks/test_fig[678]_*.py` match, `benchmarks/test_fig6..8_*.py` not.\n"
    )
    assert command_violations(doc, targets, "README.md") == [
        "README.md:4: `make bench-check`: no such Makefile target",
        "README.md:7: `tools/bench_history.py` matches no file",
        "README.md:9: `benchmarks/test_fig6..8_*.py` matches no file",
    ]


def test_repo_docs_and_docstrings_reference_only_live_names():
    """README.md, docs/*.md and the ``src`` docstrings pass the
    cross-reference gate, `Name.member` spans included."""
    assert check_cross_references() == []


def test_repo_docs_name_only_live_make_targets_and_paths():
    """README.md, docs/*.md and the verify skill pass the command gate."""
    assert check_commands() == []
