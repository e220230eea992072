"""Command-line entry point: regenerate any table or figure.

Examples
--------
::

    cbnet-experiment table2 --fast
    cbnet-experiment fig5
    cbnet-experiment scalability --dataset fmnist
    cbnet-experiment serve --fast --scenario bursty
    cbnet-experiment fleet --fast
    cbnet-experiment tenants --fast
    cbnet-experiment chaos --fast
    cbnet-experiment netchaos --fast --link lte
    cbnet-experiment obs --fast --trace-out trace.json
    cbnet-experiment prof --fast --prof-out profile.speedscope.json
    cbnet-experiment offload --fast --link lte
    cbnet-experiment all --fast
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.ablations import (
    run_activation_ablation,
    run_bottleneck_ablation,
    run_hard_fraction_sweep,
    run_threshold_sweep,
)
from repro.experiments.chaos import run_chaos_comparison
from repro.experiments.common import DATASETS
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig5 import run_fig5
from repro.experiments.fleet import FLEET_SCENARIOS, run_fleet_comparison
from repro.experiments.netchaos import run_netchaos_comparison
from repro.experiments.obs import run_obs_study
from repro.experiments.offload import run_offload_study
from repro.experiments.prof import run_prof_study
from repro.experiments.scalability import run_scalability
from repro.experiments.serve import SCENARIOS, run_serving_comparison
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.tenants import run_tenants_comparison

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run the selected experiment(s)."""
    parser = argparse.ArgumentParser(
        prog="cbnet-experiment",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1",
            "table2",
            "fig3",
            "fig5",
            "scalability",
            "ablations",
            "serve",
            "fleet",
            "tenants",
            "chaos",
            "netchaos",
            "obs",
            "prof",
            "offload",
            "report",
            "all",
        ],
    )
    parser.add_argument("--fast", action="store_true", help="down-scaled run")
    parser.add_argument("--dataset", default=None, help="restrict to one dataset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scenario",
        choices=(*SCENARIOS, *FLEET_SCENARIOS, "all"),
        default="all",
        help="load shape for the serving engine (serve/fleet only)",
    )
    parser.add_argument(
        "--link",
        choices=("wifi", "lte", "ethernet"),
        default="lte",
        help="network preset for the offload policy study (offload only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes for the fleet/offload experiment grids "
        "(default 1: serial, deterministic CI ordering; results are "
        "identical at any value)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the observability study's span log as Chrome "
        "trace-event JSON for ui.perfetto.dev (obs only)",
    )
    parser.add_argument(
        "--prof-out",
        default=None,
        metavar="PATH",
        help="write the profiling study's phase tree as speedscope JSON "
        "(plus PATH.collapsed for flamegraph.pl; prof only)",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="run real model inference inside the serving event loops "
        "instead of the precomputed oracle (slower; identical metrics)",
    )
    args = parser.parse_args(argv)

    # A --scenario belonging to the *other* serving experiment is a user
    # error when one experiment was named explicitly ("all" falls back to
    # each experiment's full scenario set instead).
    if args.experiment == "serve" and args.scenario not in (*SCENARIOS, "all"):
        parser.error(
            f"--scenario {args.scenario} applies to 'fleet'; "
            f"'serve' offers {SCENARIOS}"
        )
    if args.experiment == "fleet" and args.scenario not in (*FLEET_SCENARIOS, "all"):
        parser.error(
            f"--scenario {args.scenario} applies to 'serve'; "
            f"'fleet' offers {FLEET_SCENARIOS}"
        )

    datasets = (args.dataset,) if args.dataset else DATASETS

    def emit(text: str) -> None:
        print(text)
        print()

    if args.experiment in ("table1", "all"):
        emit(run_table1().render())
    if args.experiment in ("fig3", "all"):
        emit(run_fig3(fast=args.fast, seed=args.seed).render())
    if args.experiment in ("table2", "all"):
        emit(run_table2(fast=args.fast, datasets=datasets, seed=args.seed).render())
    if args.experiment in ("fig5", "all"):
        emit(run_fig5(fast=args.fast, seed=args.seed).render())
    if args.experiment in ("scalability", "all"):
        for name in datasets:
            emit(run_scalability(name, fast=args.fast, seed=args.seed).render())
    if args.experiment in ("serve", "all"):
        scenarios = (args.scenario,) if args.scenario in SCENARIOS else SCENARIOS
        emit(
            run_serving_comparison(
                fast=args.fast,
                seed=args.seed,
                dataset=args.dataset or "mnist",
                scenarios=scenarios,
                live=args.live,
            ).render()
        )
    if args.experiment in ("fleet", "all"):
        scenarios = (
            FLEET_SCENARIOS
            if args.scenario == "all" or args.scenario not in FLEET_SCENARIOS
            else (args.scenario,)
        )
        emit(
            run_fleet_comparison(
                fast=args.fast,
                seed=args.seed,
                dataset=args.dataset or "mnist",
                scenarios=scenarios,
                live=args.live,
                jobs=args.jobs,
            ).render()
        )
    if args.experiment in ("tenants", "all"):
        emit(
            run_tenants_comparison(
                fast=args.fast,
                seed=args.seed,
                dataset=args.dataset or "mnist",
                live=args.live,
            ).render()
        )
    if args.experiment in ("chaos", "all"):
        emit(
            run_chaos_comparison(
                fast=args.fast,
                seed=args.seed,
                dataset=args.dataset or "mnist",
                live=args.live,
            ).render()
        )
    if args.experiment in ("netchaos", "all"):
        emit(
            run_netchaos_comparison(
                fast=args.fast,
                seed=args.seed,
                link_name=args.link,
            ).render()
        )
    if args.experiment in ("obs", "all"):
        emit(
            run_obs_study(
                fast=args.fast,
                seed=args.seed,
                dataset=args.dataset or "mnist",
                live=args.live,
                trace_out=args.trace_out,
            ).render()
        )
    if args.experiment in ("prof", "all"):
        emit(
            run_prof_study(
                fast=args.fast,
                seed=args.seed,
                dataset=args.dataset or "mnist",
                live=args.live,
                prof_out=args.prof_out,
            ).render()
        )
    if args.experiment in ("offload", "all"):
        emit(
            run_offload_study(
                fast=args.fast,
                seed=args.seed,
                dataset=args.dataset or "mnist",
                link_name=args.link,
                live=args.live,
                jobs=args.jobs,
            ).render()
        )
    if args.experiment in ("ablations", "all"):
        emit(run_bottleneck_ablation(seed=args.seed).render())
        emit(run_activation_ablation(seed=args.seed).render())
        emit(run_threshold_sweep(fast=args.fast, seed=args.seed).render())
        emit(run_hard_fraction_sweep(seed=args.seed).render())
    if args.experiment == "report":
        from pathlib import Path

        from repro.eval.report import collect_report

        results = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
        emit(collect_report(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
