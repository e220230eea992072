"""Profile and timeline exports: collapsed stacks, speedscope, Perfetto.

Pins the interchange formats other tools consume: the collapsed-stack
text and speedscope JSON produced from phase trees (parseable and
schema-correct), and the Perfetto counter-track events the resource
timelines add to Chrome trace exports.
"""

import json

import numpy as np
import pytest
from conftest import make_scenario, run_traced

from repro.obs.prof import PhaseProfiler, PhaseReport
from repro.obs.timeline import COUNTER_PID, ResourceTimelines


def small_report() -> PhaseReport:
    class Clock:
        t = 0.0

        def __call__(self):
            Clock.t += 0.5
            return Clock.t

    prof = PhaseProfiler(clock=Clock())
    with prof.phase("serve"):
        with prof.phase("ingest"):
            pass
        with prof.phase("ingest"):
            pass
        with prof.phase("report"):
            pass
    return prof.report()


class TestPhaseReportExports:
    def test_collapsed_lines_parse_and_conserve_self_time(self, tmp_path):
        report = small_report()
        out = tmp_path / "prof.collapsed"
        text = report.to_collapsed(out)
        assert out.read_text() == text
        total_us = 0
        for line in text.strip().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack.split(";")[0] == "serve"
            total_us += int(weight)
        # Weights are self-microseconds; they sum to the root total.
        assert total_us == pytest.approx(report.total_s * 1e6, rel=0.01)

    def test_speedscope_schema_and_weights(self, tmp_path):
        report = small_report()
        out = tmp_path / "prof.speedscope.json"
        payload = report.to_speedscope(out, name="unit")
        assert json.loads(out.read_text()) == payload
        assert payload["$schema"].startswith("https://www.speedscope.app")
        profile = payload["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert sum(profile["weights"]) == pytest.approx(report.total_s)
        n_frames = len(payload["shared"]["frames"])
        for sample in profile["samples"]:
            assert all(0 <= idx < n_frames for idx in sample)
        # Frame names resolve back to phase names.
        names = {f["name"] for f in payload["shared"]["frames"]}
        assert names == {"serve", "ingest", "report"}

    def test_zero_self_rows_are_not_exported(self):
        prof = PhaseProfiler(clock=lambda: 0.0)
        with prof.phase("a"):
            with prof.phase("b"):
                pass
        report = prof.report()
        assert report.to_collapsed() == ""
        # speedscope export of an all-zero profile is empty but valid


class TestCounterTracks:
    @pytest.mark.parametrize("window_s", [float("nan"), float("inf"), 0.0])
    def test_bad_window_fails_at_construction(self, window_s):
        with pytest.raises(ValueError, match="window_s"):
            ResourceTimelines(window_s=window_s)

    def test_counter_event_schema(self):
        tl = ResourceTimelines(window_s=0.5)
        series = tl._add("replica0.busy_frac", "occupancy")
        series.add(0.1, 0.25)
        series.add(0.6, 0.5)
        events = tl.counter_events()
        meta = [e for e in events if e["ph"] == "M"]
        counters = [e for e in events if e["ph"] == "C"]
        assert meta and all(e["pid"] == COUNTER_PID for e in events)
        for e in counters:
            assert set(e) >= {"name", "ph", "ts", "pid", "args"}
            assert "value" in e["args"]
            assert e["ts"] >= 0.0
        # Occupancy: window sums divided by the window length.
        values = {e["ts"]: e["args"]["value"] for e in counters}
        assert values[0.0] == pytest.approx(0.5)
        assert values[0.5 * 1e6] == pytest.approx(1.0)

    def test_timelines_from_a_traced_run(self):
        sc = make_scenario(3)
        _, _, obs = run_traced(sc)
        tl = obs.timelines(window_s=0.2)
        names = tl.names()
        assert any(n.endswith("busy_frac") for n in names)
        assert any(n.endswith("queue_depth") for n in names)
        saw_busy = 0.0
        for name in names:
            times, values = tl.values(name)
            assert len(times) == len(values)
            assert (values >= 0.0).all() and not np.isnan(values).any()
            if name.endswith("busy_frac"):
                saw_busy = max(saw_busy, float(values.max(initial=0.0)))
        assert saw_busy > 0.0  # the fleet did real work somewhere

    def test_chrome_trace_counters_reference_real_series(self, tmp_path):
        sc = make_scenario(5)
        _, _, obs = run_traced(sc)
        path = tmp_path / "trace.json"
        obs.chrome_trace(path)
        events = json.loads(path.read_text())["traceEvents"]
        counter_names = {e["name"] for e in events if e["ph"] == "C"}
        assert counter_names == set(obs.timelines().names())
