"""Phase-attribution profiler: tree semantics, determinism, attribution.

Three contracts.  First, the scoped-timer bookkeeping itself — counts,
totals, self-time subtraction, nesting — pinned exactly with an
injected fake clock.  Second, determinism: profiling a deterministic
cluster replay must yield an identical phase *signature* (structure +
call counts) across runs and must not perturb the simulation (profiled
and unprofiled RequestLogs are field-for-field identical).  Third,
attribution: a slowdown injected into one engine phase must show up as
that phase's self-time growth, larger than any other phase's.
"""

import time

import numpy as np
import pytest
from conftest import Cluster, SumBackend, make_scenario, resilience_for

from repro.obs.prof import PhaseProfiler
from repro.sim import oracle_backend


class FakeClock:
    """Deterministic clock: advances one tick per read."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestPhaseProfiler:
    def test_counts_totals_and_self_with_fake_clock(self):
        prof = PhaseProfiler(clock=FakeClock())
        prof.start("serve")        # t=1
        prof.start("dispatch")     # t=2
        prof.stop()                # t=3 -> dispatch total 1
        prof.start("dispatch")     # t=4
        prof.stop()                # t=5 -> dispatch total 2
        prof.stop()                # t=6 -> serve total 5
        report = prof.report()
        serve = report.get("serve")
        dispatch = report.get("serve", "dispatch")
        assert serve.count == 1 and dispatch.count == 2
        assert serve.total_s == 5.0 and dispatch.total_s == 2.0
        # Self = total minus children; conserves width for flamegraphs.
        assert serve.self_s == 3.0 and dispatch.self_s == 2.0
        assert report.total_s == 5.0

    def test_same_name_under_different_parents_is_two_rows(self):
        prof = PhaseProfiler(clock=FakeClock())
        with prof.phase("a"):
            with prof.phase("x"):
                pass
        with prof.phase("b"):
            with prof.phase("x"):
                pass
            with prof.phase("x"):
                pass
        report = prof.report()
        assert report.get("a", "x").count == 1
        assert report.get("b", "x").count == 2
        # ... and by_name() folds them back together for attribution.
        assert report.by_name()["x"][0] == 3

    def test_by_name_sums_totals_and_self_across_parents(self):
        """Attribution compares self time per name, wherever it was scoped."""
        prof = PhaseProfiler(clock=FakeClock())
        prof.start("a")        # t=1
        prof.start("x")        # t=2
        prof.stop()            # t=3 -> a;x total 1
        prof.stop()            # t=4 -> a total 3, self 2
        prof.start("b")        # t=5
        prof.start("x")        # t=6
        prof.start("y")        # t=7
        prof.stop()            # t=8 -> b;x;y total 1
        prof.stop()            # t=9 -> b;x total 3, self 2
        prof.stop()            # t=10 -> b total 5, self 2
        by_name = prof.report().by_name()
        assert by_name["x"] == (2, 4.0, 3.0)
        assert by_name["a"] == (1, 3.0, 2.0)
        assert by_name["y"] == (1, 1.0, 1.0)
        # Self times still sum to the root totals after folding.
        assert sum(v[2] for v in by_name.values()) == prof.report().total_s

    def test_depth_tracks_open_scopes(self):
        prof = PhaseProfiler()
        assert prof.depth == 0
        prof.start("a")
        prof.start("b")
        assert prof.depth == 2
        prof.stop()
        prof.stop()
        assert prof.depth == 0

    def test_report_and_reset_refuse_open_scopes(self):
        prof = PhaseProfiler()
        prof.start("a")
        with pytest.raises(RuntimeError, match="open scope"):
            prof.report()
        with pytest.raises(RuntimeError, match="open scope"):
            prof.reset()
        prof.stop()
        prof.reset()
        assert len(prof.report()) == 0

    def test_exception_inside_phase_still_closes_scope(self):
        prof = PhaseProfiler()
        with pytest.raises(ValueError):
            with prof.phase("a"):
                raise ValueError("boom")
        assert prof.depth == 0
        assert prof.report().get("a").count == 1


def run_profiled(sc, backends=None):
    """One profiled oracle replay of a scenario; returns (log, report)."""
    if backends is None:
        backends = [oracle_backend(b, sc.images) for b in sc.backends()]
    prof = PhaseProfiler()
    cluster = Cluster(
        backends,
        policy="least-outstanding",
        faults=sc.plan,
        resilience=resilience_for(sc),
        slo_s=4.0 * sc.service_scale_s(),
        max_batch_size=sc.max_batch,
        max_wait_s=sc.max_wait_s,
        cache_capacity=0,
        rng=sc.seed,
        prof=prof,
    )
    _, log = cluster.serve_log(sc.ids, sc.arrival_s, labels=sc.labels[sc.ids])
    return log, prof.report()


class TestDeterminism:
    @pytest.mark.parametrize("seed", (0, 3))
    def test_identical_signature_across_replays(self, seed):
        sc = make_scenario(seed)
        _, first = run_profiled(sc)
        _, second = run_profiled(sc)
        assert first.signature() == second.signature()
        assert len(first.signature()) > 3  # a real tree, not a stub

    def test_profiling_does_not_perturb_the_simulation(self):
        sc = make_scenario(1)
        backends = [oracle_backend(b, sc.images) for b in sc.backends()]
        cluster = Cluster(
            backends,
            policy="least-outstanding",
            faults=sc.plan,
            resilience=resilience_for(sc),
            slo_s=4.0 * sc.service_scale_s(),
            max_batch_size=sc.max_batch,
            max_wait_s=sc.max_wait_s,
            cache_capacity=0,
            rng=sc.seed,
        )
        _, bare = cluster.serve_log(sc.ids, sc.arrival_s, labels=sc.labels[sc.ids])
        profiled, _ = run_profiled(sc)
        for col in ("arrival_s", "completion_s", "replica_id", "route", "prediction"):
            np.testing.assert_array_equal(
                getattr(bare, col), getattr(profiled, col), err_msg=col
            )

    def test_phase_tree_covers_the_engine_loop(self):
        sc = make_scenario(2)
        _, report = run_profiled(sc)
        names = {r.name for r in report.rows}
        assert {"serve", "event_loop", "ingest", "dispatch", "report"} <= names
        # Ingest is burst-scoped: at least one burst, never more than
        # one per arrival, and the tree's other hot phases showed up.
        count, total_s, _self_s = report.by_name()["ingest"]
        assert 0 < count <= sc.n
        assert total_s > 0.0


class SlowSumBackend(SumBackend):
    """SumBackend whose predict busy-waits — an injected inference slowdown."""

    def __init__(self, per_item_s=0.001, stall_s=0.002):
        super().__init__(per_item_s=per_item_s)
        self.stall_s = stall_s

    def predict(self, images, decision=None):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < self.stall_s:
            pass
        return super().predict(images, decision)


class TestAttribution:
    def test_injected_slowdown_names_its_phase(self):
        """A stall in backend.predict must surface as `inference` regressing.

        The cluster makes its ``predict`` calls, one per chunk of
        finished batches, inside the ``inference`` phase (post-loop
        ``_fill_predictions``), so stalling every call by 2 ms grows that
        phase's self time by hundreds of milliseconds — orders of
        magnitude above scheduling noise in any other phase.
        """
        sc = make_scenario(4)
        _, base = run_profiled(sc)
        slow = [SlowSumBackend(per_item_s=p) for p in sc.per_item]
        _, stalled = run_profiled(sc, backends=slow)
        before = {name: v[2] for name, v in base.by_name().items()}
        after = {name: v[2] for name, v in stalled.by_name().items()}
        growth = {
            name: after.get(name, 0.0) - before.get(name, 0.0)
            for name in before.keys() | after.keys()
        }
        assert max(growth, key=growth.get) == "inference"
        assert growth["inference"] > 0.01  # >= 5 predict calls x 2 ms, minus slack


class TestProfStudy:
    """The `cbnet-experiment prof` study over a toy fleet."""

    def study(self, **kwargs):
        import numpy as np

        from repro.experiments.prof import run_prof_study

        rng = np.random.default_rng(0)
        images = rng.random((32, 1, 4, 4)).astype(np.float32)
        labels = (images.reshape(32, -1).sum(axis=1)).astype(np.int64) % 10
        return run_prof_study(
            seed=0,
            n_requests=300,
            backends=[SumBackend(per_item_s=0.001) for _ in range(3)],
            images=images,
            labels=labels,
            **kwargs,
        )

    def test_study_builds_a_phase_tree_and_renders(self):
        study = self.study()
        assert study.phases.get("serve").count == 1
        assert 0 < study.phases.by_name()["ingest"][0] <= study.n_requests
        text = study.render()
        assert "Phase profile" in text and "event_loop" in text
        assert "unchanged by profiling" in text

    def test_prof_out_writes_speedscope_and_collapsed(self, tmp_path):
        import json

        out = tmp_path / "prof.speedscope.json"
        study = self.study(prof_out=str(out))
        payload = json.loads(out.read_text())
        assert payload["profiles"][0]["type"] == "sampled"
        collapsed = (tmp_path / "prof.speedscope.json.collapsed").read_text()
        assert collapsed.splitlines()[0].startswith("serve")
        assert str(out) in study.render()

    def test_custom_fleet_requires_images(self):
        from repro.experiments.prof import run_prof_study

        with pytest.raises(ValueError, match="images"):
            run_prof_study(backends=[SumBackend()])


class TestEngineHook:
    """The cluster times its phases into the profiler it is passed, if any."""

    ROOT_SCOPES = ("warmup", "event_loop", "inference", "report")

    def cluster(self, sc, prof=None):
        backends = [oracle_backend(b, sc.images) for b in sc.backends()]
        return Cluster(
            backends,
            policy="least-outstanding",
            max_batch_size=sc.max_batch,
            max_wait_s=sc.max_wait_s,
            cache_capacity=0,
            rng=sc.seed,
            prof=prof,
        )

    def test_cluster_profiles_only_when_passed_a_profiler(self):
        sc = make_scenario(5, n_requests=40)
        bare = self.cluster(sc)
        assert bare.prof is None
        bare.serve_log(sc.ids, sc.arrival_s)
        assert bare.prof is None

        prof = PhaseProfiler()
        profiled = self.cluster(sc, prof=prof)
        assert profiled.prof is prof
        profiled.serve_log(sc.ids, sc.arrival_s)
        assert prof.report().get("serve").count == 1

    def test_replays_accumulate_one_serve_tree_each(self):
        """Every ``serve_log`` opens one ``serve`` root and its four
        top-level phases; a profiler shared by fresh clusters adds them up."""
        sc = make_scenario(6, n_requests=40)
        prof = PhaseProfiler()
        for replays in (1, 2):
            self.cluster(sc, prof=prof).serve_log(sc.ids, sc.arrival_s)
            report = prof.report()
            assert report.get("serve").count == replays
            for name in self.ROOT_SCOPES:
                assert report.get("serve", name).count == replays, name
            assert prof.depth == 0
