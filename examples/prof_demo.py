#!/usr/bin/env python
"""Profiling demo: attribute the simulator's wall-clock to engine phases.

Builds (or loads from cache) a small CBNet pipeline, runs a homogeneous
four-replica fleet through a clean trace with the phase-attribution
profiler attached, and prints where the *host* time went — arrival
ingest, batch formation, dispatch, completion, report build.  The
virtual clock and every simulated metric are untouched by profiling.
Writes ``profile.speedscope.json`` (open at https://www.speedscope.app)
and ``profile.speedscope.json.collapsed`` for ``flamegraph.pl``, then
reruns the study under the standard library's ``cProfile`` to name the
functions behind the hottest phase.

Run:  python examples/prof_demo.py
"""

import cProfile
import pstats

from repro import PipelineConfig, TrainConfig, build_cbnet_pipeline
from repro.experiments.prof import run_prof_study
from repro.hw import device_profiles
from repro.serving import CBNetBackend


def main() -> None:
    # 1. A trained pipeline (disk-cached: rerunning this script is instant).
    config = PipelineConfig(
        dataset="mnist",
        seed=0,
        n_train=2500,
        n_test=600,
        classifier_train=TrainConfig(epochs=10),
        autoencoder_train=TrainConfig(epochs=8, batch_size=128),
    )
    artifacts = build_cbnet_pipeline(config)
    test = artifacts.datasets["test"]
    device = device_profiles()["gci-cpu"]
    backends = [CBNetBackend(artifacts.cbnet, device) for _ in range(4)]

    # 2. Profile one clean cluster run and render the phase tree.  The
    #    scoped timers cost two clock reads per phase, so the simulated
    #    RequestLog is bit-identical to an unprofiled run.
    study = run_prof_study(
        seed=0,
        n_requests=2000,
        backends=backends,
        images=test.images,
        labels=test.labels,
        prof_out="profile.speedscope.json",
    )
    print(study.render())

    # 3. Drill in programmatically: which phase owns the most self time?
    by_name = study.phases.by_name()
    worst = max(by_name, key=lambda name: by_name[name][2])
    count, total_s, self_s = by_name[worst]
    print(
        f"\nhottest phase: {worst!r} — {self_s * 1e3:.1f} ms self across "
        f"{count} calls ({self_s / study.phases.total_s:.0%} of the run)"
    )

    # 4. cProfile answers the next question — which *functions* burn
    #    the time inside that phase — with no scopes in the code.  It
    #    charges every Python call, so read its shares, not its times.
    profiler = cProfile.Profile()
    profiler.runcall(
        run_prof_study,
        seed=0,
        n_requests=2000,
        backends=backends,
        images=test.images,
        labels=test.labels,
    )
    print("\nhottest functions by self time (cProfile):")
    pstats.Stats(profiler).sort_stats("tottime").print_stats(8)
    print(
        "\nopen profile.speedscope.json at https://www.speedscope.app "
        "for the flamegraph."
    )


if __name__ == "__main__":
    main()
