"""Integration tests for the experiment harness (tables/figures engines).

Heavy full-scale regeneration lives in benchmarks/; here each engine runs
against the small session-scoped trained pipeline so structure, maths and
rendering are verified quickly.
"""

import pytest

from repro.eval.runner import evaluate_dataset
from repro.experiments.scalability import run_scalability
from repro.experiments.table1 import run_table1
from repro.hw.devices import device_profiles
from repro.models.autoencoder import TABLE1_SPECS


class TestTable1:
    def test_structure_matches_specs(self):
        result = run_table1()
        for name, spec in TABLE1_SPECS.items():
            rows = [r for r in result.rows if r["dataset"] == name and r["layer"].startswith("Fully")]
            sizes = [r["size"] for r in rows]
            assert sizes == [*spec.layer_sizes, spec.input_dim]
            activations = [r["activation"] for r in rows]
            assert activations == [*spec.activations, spec.output_activation]

    def test_param_counts_positive(self):
        result = run_table1()
        fc_rows = [r for r in result.rows if r["layer"].startswith("Fully")]
        assert all(r["params"] > 0 for r in fc_rows)

    def test_render_contains_all_datasets(self):
        text = run_table1().render()
        for name in TABLE1_SPECS:
            assert name in text


class TestEvaluateDataset:
    @pytest.fixture(scope="class")
    def evaluation(self, trained_pipeline, trained_lenet):
        return evaluate_dataset(trained_pipeline, trained_lenet)

    def test_all_cells_present(self, evaluation):
        for model in ("lenet", "branchynet", "cbnet"):
            for device in device_profiles():
                cell = evaluation.cell(model, device)
                assert cell.latency_ms > 0
                assert 0 <= cell.accuracy_pct <= 100

    def test_cbnet_fastest_everywhere(self, evaluation):
        for device in device_profiles():
            t_cb = evaluation.cell("cbnet", device).latency_ms
            t_br = evaluation.cell("branchynet", device).latency_ms
            t_le = evaluation.cell("lenet", device).latency_ms
            assert t_cb < t_le
            assert t_cb < t_br

    def test_energy_savings_consistent_with_latency(self, evaluation):
        """Same power model for all CPU models → savings == latency ratio."""
        for device in ("raspberry-pi4", "gci-cpu"):
            cell = evaluation.cell("cbnet", device)
            t_le = evaluation.cell("lenet", device).latency_ms
            expected = 100 * (1 - cell.latency_ms / t_le)
            assert cell.energy_savings_vs_lenet_pct == pytest.approx(expected, abs=0.5)

    def test_speedups_recorded(self, evaluation):
        cell = evaluation.cell("cbnet", "raspberry-pi4")
        assert cell.speedup_vs_lenet > 1.0
        assert evaluation.cell("lenet", "raspberry-pi4").speedup_vs_lenet is None

    def test_exit_rate_recorded(self, evaluation):
        assert 0.0 <= evaluation.early_exit_rate <= 1.0

    def test_ae_share_below_half(self, evaluation):
        """Paper: AE contributes up to ~25% of CBNet latency."""
        for share in evaluation.ae_latency_share.values():
            assert 0.0 < share < 0.5

    def test_missing_cell_raises(self, evaluation):
        with pytest.raises(KeyError):
            evaluation.cell("resnet", "raspberry-pi4")


class TestScalability:
    @pytest.fixture(scope="class")
    def result(self, trained_pipeline):
        return run_scalability(
            "mnist", ratios=(0.2, 0.6, 1.0), artifacts=trained_pipeline
        )

    def test_points_cover_ratios(self, result):
        assert [p.ratio for p in result.points] == [0.2, 0.6, 1.0]

    def test_sample_counts_grow(self, result):
        ns = [p.n_samples for p in result.points]
        assert ns == sorted(ns)
        assert result.points[-1].n_samples == 400  # full test set

    def test_total_time_grows_with_ratio(self, result):
        for device in device_profiles():
            times = [p.cbnet_total_s[device] for p in result.points]
            assert times == sorted(times)

    def test_cbnet_time_below_branchynet_time(self, result):
        for p in result.points:
            for device in device_profiles():
                assert p.cbnet_total_s[device] < p.branchy_total_s[device]

    def test_accuracies_reasonable(self, result):
        for p in result.points:
            assert p.branchy_accuracy_pct > 80
            assert p.cbnet_accuracy_pct > 80

    def test_render_works(self, result):
        text = result.render()
        assert "scalability" in text
        assert "BranchyNet" in text


class TestCli:
    def test_table1_via_cli(self, capsys):
        from repro.experiments.cli import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_unknown_experiment_rejected(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["tableX"])
