"""Table II bench — the paper's headline grid: latency per image, energy
savings w.r.t. LeNet, and accuracy for LeNet / BranchyNet / CBNet across
MNIST / FMNIST / KMNIST and the three devices.

Shape assertions encode the paper's qualitative claims:
* CBNet is the fastest model on every (dataset, device) cell;
* CBNet saves >=60% energy vs LeNet everywhere (paper: 80-85% on CPU
  devices, 66-81% on GPU);
* CBNet accuracy is within ~2.5 points of BranchyNet;
* CBNet's latency is nearly dataset-independent while BranchyNet's grows
  with the hard fraction;
* early-exit rates order as the paper's: MNIST > FMNIST > KMNIST.
"""

from repro.eval.runner import evaluate_dataset
from repro.experiments.common import FAST, lenet_for
from repro.experiments.table2 import Table2Result

from conftest import emit

_DEVICES = ("raspberry-pi4", "gci-cpu", "gci-k80")


def _build_table2(mnist_artifacts, fmnist_artifacts, kmnist_artifacts):
    result = Table2Result()
    for artifacts in (mnist_artifacts, fmnist_artifacts, kmnist_artifacts):
        name = artifacts.config.dataset
        lenet = lenet_for(name, FAST, seed=0)
        result.evaluations[name] = evaluate_dataset(artifacts, lenet)
    return result


def test_regenerate_table2(
    benchmark, results_dir, mnist_artifacts, fmnist_artifacts, kmnist_artifacts
):
    table2 = benchmark.pedantic(
        _build_table2,
        args=(mnist_artifacts, fmnist_artifacts, kmnist_artifacts),
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "table2", table2.render())
    assert set(table2.evaluations) == {"mnist", "fmnist", "kmnist"}

    # CBNet wins every cell.
    for ev in table2.evaluations.values():
        for device in _DEVICES:
            t_cb = ev.cell("cbnet", device).latency_ms
            assert t_cb < ev.cell("branchynet", device).latency_ms
            assert t_cb < ev.cell("lenet", device).latency_ms

    # Energy savings magnitudes (paper: 66-86%).
    for ev in table2.evaluations.values():
        for device in _DEVICES:
            savings = ev.cell("cbnet", device).energy_savings_vs_lenet_pct
            assert savings >= 60.0, (ev.dataset, device, savings)

    # Accuracy parity with BranchyNet ("similar or higher accuracy").
    for ev in table2.evaluations.values():
        cb = ev.cell("cbnet", "raspberry-pi4").accuracy_pct
        br = ev.cell("branchynet", "raspberry-pi4").accuracy_pct
        assert cb >= br - 3.0, (ev.dataset, cb, br)

    # CBNet latency is dataset-independent; BranchyNet's tracks hardness.
    cb_lats = [
        ev.cell("cbnet", "raspberry-pi4").latency_ms
        for ev in table2.evaluations.values()
    ]
    assert max(cb_lats) / min(cb_lats) < 1.15
    pairs = sorted(
        (ev.early_exit_rate, ev.cell("branchynet", "raspberry-pi4").latency_ms)
        for ev in table2.evaluations.values()
    )
    branchy_lats = [lat for _, lat in pairs]
    assert branchy_lats == sorted(branchy_lats, reverse=True)

    # Exit-rate ordering (paper §IV-D: 94.9% > 76.9% > 63.1%).
    rates = {name: ev.early_exit_rate for name, ev in table2.evaluations.items()}
    assert rates["mnist"] > rates["fmnist"] > rates["kmnist"]

    # AE share of CBNet latency (paper: up to ~25%).
    for ev in table2.evaluations.values():
        assert 0.05 < ev.ae_latency_share["raspberry-pi4"] < 0.35


def test_cbnet_inference_wallclock(benchmark, mnist_artifacts):
    """Real NumPy wall-clock of full CBNet inference (500 images)."""
    test = mnist_artifacts.datasets["test"]
    preds = benchmark(mnist_artifacts.cbnet.predict, test.images[:500])
    assert preds.shape == (500,)


def test_lenet_inference_wallclock(benchmark, mnist_lenet, mnist_artifacts):
    test = mnist_artifacts.datasets["test"]
    preds = benchmark(mnist_lenet.predict, test.images[:500])
    assert preds.shape == (500,)
