# Developer entry points for the CBNet reproduction.
#
#   make test         tier-1 unit/integration suite (the CI gate)
#   make fleet-smoke  cluster-layer smoke: policies/autoscaler/crashes on
#                     toy fleets, incl. the hot-loop sweep-parity test,
#                     the deadline-scan parity test (per-event scan vs the
#                     deadline floor) and the floor invariant check, the
#                     load-signal recount-parity test (cached in-flight
#                     counts vs re-summed batches) and the chunked-inference
#                     parity test (toy and live fleets; tests/cluster,
#                     seconds once the test pipeline is disk-cached)
#   make offload-smoke  offload-layer smoke: network links and their
#                     transports (a NetworkLink's private radio, the
#                     session transport), partition planner, policies,
#                     EdgeTier on toy models, and the fleet device loop
#                     EdgeTier runs on (tests/netsim/test_net_fleet.py)
#   make sim-smoke    simulation-core smoke: oracle live-vs-table parity,
#                     SoA records, the kernel's M/G/1 analytic oracles
#                     and Lindley differential, vectorized arrival
#                     regressions, and served fastpath predictions
#                     against the reference path (no arena growth across
#                     ragged batches)
#   make tenants-smoke  multi-tenant smoke: scheduler invariants, priority
#                     batcher, FIFO-vs-priority experiment on toy fleets
#   make chaos-smoke  robustness smoke: chaos invariants under random fault
#                     storms, fault/breaker/retry units, chaos experiment
#   make netchaos-smoke  network-chaos smoke: netsim units (sessions, AIMD,
#                     shared links), link-storm invariants, netchaos verdict
#   make obs-smoke    observability smoke: span-tree well-formedness,
#                     metrics/SLO units, oracle-vs-live telemetry parity
#   make prof-smoke   profiler smoke: phase-tree determinism + exports on
#                     toy fleets, then a profiled experiment run writing
#                     a sample flamegraph to benchmarks/results/
#   make bench-smoke  fast benchmark subset, incl. the serving engine
#   make harness-smoke  self-test of the layered benchmark harness
#                     (benchmarks/harness; `pytest tests` never collects it)
#   make bench        full benchmark suite (regenerates benchmarks/results/)
#   make bench-record record BENCH_<n>.json medians (substrate + serving),
#                     plus a profiled pass storing phase shares (--profile)
#   make bench-check  fail on >15% median regression vs last BENCH_<n>.json
#                     (re-runs failing suites under the phase profiler)
#   make bench-report render benchmarks/results/bench_history.md from the
#                     full BENCH_<n>.json trajectory, changepoints marked
#   make docs-check   README code blocks compile + docstring coverage
#   make docs-run     additionally *execute* the README blocks (trains on
#                     first run; disk-cached after)
#   make lint         ruff, when installed

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test fleet-smoke offload-smoke sim-smoke tenants-smoke chaos-smoke netchaos-smoke obs-smoke prof-smoke bench-smoke harness-smoke bench bench-record bench-check bench-report docs-check docs-run lint

test:
	$(PYTHON) -m pytest tests -x -q

fleet-smoke:
	$(PYTHON) -m pytest tests/cluster tests/experiments/test_fleet.py \
	    tests/serving/test_engine_edge_cases.py \
	    tests/serving/test_server_cluster_parity.py -q

offload-smoke:
	$(PYTHON) -m pytest tests/offload tests/hw/test_network.py \
	    tests/netsim/test_transport.py tests/netsim/test_net_fleet.py \
	    tests/serving/test_router_edge_cases.py -q

sim-smoke:
	$(PYTHON) -m pytest tests/sim tests/serving/test_arrivals.py \
	    tests/serving/test_fastpath_serving.py -q

tenants-smoke:
	$(PYTHON) -m pytest tests/scheduling tests/serving/test_priority_batcher.py \
	    tests/experiments/test_tenants.py -q

# tests/cluster is deliberately absent here: it carries its own
# conftest.py, and pytest resolves `from conftest import ...` to the
# wrong directory when two conftest-bearing dirs share one invocation.
chaos-smoke:
	$(PYTHON) -m pytest tests/chaos tests/faults \
	    tests/experiments/test_chaos.py -q

# Network chaos: netsim units (sessions/AIMD/shared links/transport),
# link-storm invariants over the offload fleet, and the netchaos
# experiment's strict naive-vs-resilient verdict.
netchaos-smoke:
	$(PYTHON) -m pytest tests/netsim tests/chaos/test_netchaos_invariants.py \
	    tests/offload/test_session_offload.py \
	    tests/experiments/test_netchaos.py -q

# tests/obs also carries its own conftest.py (see the chaos-smoke note),
# so it gets a standalone invocation.
obs-smoke:
	$(PYTHON) -m pytest tests/obs -q

# Profiler smoke: toy-fleet tests first, then one profiled fast
# experiment run whose speedscope/collapsed exports land under
# benchmarks/results/ (CI uploads them as the sample flamegraph).
# tests/tools gets its own invocation — it carries a conftest.py too
# (see the chaos-smoke note).
prof-smoke:
	$(PYTHON) -m pytest tests/obs/test_prof.py tests/obs/test_exports.py -q
	$(PYTHON) -m pytest tests/tools -q
	$(PYTHON) -m repro.experiments.cli prof --fast \
	    --prof-out benchmarks/results/profile.speedscope.json

bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_table1_architecture.py \
	    benchmarks/test_serving_tail_latency.py \
	    benchmarks/test_serving_engine.py \
	    benchmarks/test_fleet_cluster.py \
	    benchmarks/test_offload_split.py -q

harness-smoke:
	$(PYTHON) -m pytest benchmarks/harness -q

bench:
	$(PYTHON) -m pytest benchmarks -q

bench-record:
	$(PYTHON) tools/bench_compare.py record --profile

bench-check:
	$(PYTHON) tools/bench_compare.py check

bench-report:
	$(PYTHON) tools/bench_history.py

docs-check:
	$(PYTHON) tools/check_docs.py

docs-run:
	$(PYTHON) tools/check_docs.py --run

lint:
	@if command -v ruff >/dev/null 2>&1; then \
	    ruff check src tests benchmarks examples tools; \
	else \
	    echo "ruff not installed; skipping (config in ruff.toml)"; \
	fi
