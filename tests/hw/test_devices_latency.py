"""Unit tests for device calibration and the latency model."""

import pytest

from repro.core.cbnet import CBNet
from repro.hw.devices import (
    device_profiles,
    PAPER_MNIST_EXIT_RATE,
    TABLE2_MNIST_MS,
    calibrate_device,
    gci_cpu,
    gci_gpu,
    raspberry_pi4,
)
from repro.hw.latency import (
    branchynet_expected_latency,
    cbnet_latency,
    lenet_latency,
    model_latency,
)
from repro.models import BranchyLeNet, ConvertingAutoencoder, LeNet, LightweightClassifier


@pytest.fixture(scope="module")
def models():
    branchy = BranchyLeNet(rng=0)
    return {
        "lenet": LeNet(rng=0),
        "branchy": branchy,
        "cbnet": CBNet(
            ConvertingAutoencoder.for_dataset("mnist", rng=0),
            LightweightClassifier.from_branchynet(branchy),
        ),
    }


class TestCalibration:
    def test_profiles_positive(self):
        for dev in device_profiles().values():
            assert dev.conv_gmacs > 0
            assert dev.dense_gmacs > 0
            assert dev.layer_overhead_s >= 0
            assert dev.sync_overhead_s >= 0

    def test_devices_ordered_by_speed(self, models):
        """Pi slower than GCI slower than GPU — for every model."""
        pi, gci, gpu = raspberry_pi4(), gci_cpu(), gci_gpu()
        for fn in (
            lambda d: lenet_latency(models["lenet"], d),
            lambda d: cbnet_latency(models["cbnet"], d).total,
        ):
            assert fn(pi) > fn(gci) > fn(gpu)

    @pytest.mark.parametrize("device_name", list(TABLE2_MNIST_MS))
    def test_lenet_latency_within_25pct_of_table2(self, models, device_name):
        dev = calibrate_device(device_name)
        target_ms = TABLE2_MNIST_MS[device_name]["lenet"]
        got_ms = lenet_latency(models["lenet"], dev) * 1e3
        assert got_ms == pytest.approx(target_ms, rel=0.25)

    @pytest.mark.parametrize("device_name", list(TABLE2_MNIST_MS))
    def test_branchynet_latency_within_25pct_of_table2(self, models, device_name):
        dev = calibrate_device(device_name)
        target_ms = TABLE2_MNIST_MS[device_name]["branchynet"]
        got = branchynet_expected_latency(
            models["branchy"], dev, PAPER_MNIST_EXIT_RATE
        ).expected
        assert got * 1e3 == pytest.approx(target_ms, rel=0.25)

    @pytest.mark.parametrize("device_name", list(TABLE2_MNIST_MS))
    def test_cbnet_latency_within_25pct_of_table2(self, models, device_name):
        dev = calibrate_device(device_name)
        target_ms = TABLE2_MNIST_MS[device_name]["cbnet"]
        got = cbnet_latency(models["cbnet"], dev).total
        assert got * 1e3 == pytest.approx(target_ms, rel=0.25)

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            calibrate_device("tpu-v9")

    def test_calibration_description_records_residuals(self):
        assert "residual" in raspberry_pi4().description


class TestLatencyModel:
    def test_branchynet_expected_interpolates(self, models):
        dev = raspberry_pi4()
        lat = branchynet_expected_latency(models["branchy"], dev, 0.5)
        assert lat.early_path < lat.expected < lat.full_path

    def test_exit_rate_bounds(self, models):
        dev = raspberry_pi4()
        with pytest.raises(ValueError):
            branchynet_expected_latency(models["branchy"], dev, 1.5)

    def test_exit_rate_one_equals_early_path(self, models):
        dev = raspberry_pi4()
        lat = branchynet_expected_latency(models["branchy"], dev, 1.0)
        assert lat.expected == pytest.approx(lat.early_path)

    def test_higher_exit_rate_is_faster(self, models):
        dev = raspberry_pi4()
        lats = [
            branchynet_expected_latency(models["branchy"], dev, p).expected
            for p in (0.2, 0.5, 0.9)
        ]
        assert lats[0] > lats[1] > lats[2]

    def test_cbnet_decomposition(self, models):
        dev = raspberry_pi4()
        lat = cbnet_latency(models["cbnet"], dev)
        assert lat.total == pytest.approx(lat.autoencoder + lat.classifier)
        assert 0.0 < lat.autoencoder_share < 0.5

    def test_cbnet_beats_branchynet_at_paper_operating_point(self, models):
        """The headline Table II relation, device by device."""
        for dev in device_profiles().values():
            t_cb = cbnet_latency(models["cbnet"], dev).total
            t_br = branchynet_expected_latency(
                models["branchy"], dev, PAPER_MNIST_EXIT_RATE
            ).expected
            t_le = lenet_latency(models["lenet"], dev)
            assert t_cb < t_br < t_le

    def test_model_latency_positive_and_additive(self, models):
        dev = gci_cpu()
        t = model_latency(models["lenet"], dev)
        assert t > 0

    def test_sync_overhead_only_charged_to_branchynet(self, models):
        """CBNet's static pipeline pays no gating overhead."""
        base = raspberry_pi4()
        from dataclasses import replace

        loaded = replace(base, sync_overhead_s=base.sync_overhead_s + 1.0)
        cb_delta = (
            cbnet_latency(models["cbnet"], loaded).total
            - cbnet_latency(models["cbnet"], base).total
        )
        br_delta = (
            branchynet_expected_latency(models["branchy"], loaded, 0.9).expected
            - branchynet_expected_latency(models["branchy"], base, 0.9).expected
        )
        assert cb_delta == pytest.approx(0.0)
        assert br_delta == pytest.approx(1.0)


class TestProfileCaching:
    def test_profiles_memoized_but_mapping_fresh(self):
        first, second = device_profiles(), device_profiles()
        assert first is not second  # caller mutations cannot leak
        for name in first:
            assert first[name] is second[name]  # calibration ran once
        first.pop("gci-k80")
        assert "gci-k80" in device_profiles()

    def test_default_calibration_memoized(self):
        assert calibrate_device("gci-cpu") is calibrate_device("gci-cpu")

    def test_unknown_package_attribute_still_raises(self):
        import repro.hw as hw

        with pytest.raises(AttributeError, match="no attribute"):
            hw.NOT_A_THING
