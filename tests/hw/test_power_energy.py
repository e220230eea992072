"""Unit tests for the paper's power models and energy accounting."""

import numpy as np
import pytest

from repro.hw.devices import gci_cpu, gci_gpu, raspberry_pi4
from repro.hw.energy import energy_joules, energy_savings_percent
from repro.hw.power import (
    GCI_POWER,
    GPU_POWER,
    PI_POWER,
    PowerModel,
    gci_cpu_power,
    raspberry_pi_power,
)


class TestGciPower:
    def test_eq1_idle(self):
        # u=0: P = (2/18) * 40 = 4.444 W
        assert gci_cpu_power(0.0) == pytest.approx(2 / 18 * 40)

    def test_eq1_peak(self):
        # u=1: P = (2/18) * 180 = 20 W
        assert gci_cpu_power(1.0) == pytest.approx(20.0)

    def test_eq1_beta_effect(self):
        # beta=0.75: at u=0.5, u^0.75 ≈ 0.5946
        expected = (2 / 18) * (40 + 140 * 0.5**0.75)
        assert gci_cpu_power(0.5) == pytest.approx(expected)

    def test_monotone_in_utilization(self):
        values = [gci_cpu_power(u) for u in np.linspace(0, 1, 11)]
        assert values == sorted(values)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            gci_cpu_power(1.5)


class TestPiPower:
    def test_eq2_endpoints(self):
        assert raspberry_pi_power(0.0) == pytest.approx(2.7)
        assert raspberry_pi_power(1.0) == pytest.approx(6.4)

    def test_eq2_linear(self):
        assert raspberry_pi_power(0.5) == pytest.approx((2.7 + 6.4) / 2)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            raspberry_pi_power(-0.1)


class TestPowerModelDispatch:
    def test_gpu_constant(self):
        # 17.7 W CPU + 79 W GPU, independent of utilization argument.
        assert GPU_POWER(0.3) == pytest.approx(96.7)
        assert GPU_POWER(0.9) == pytest.approx(96.7)

    def test_pi_and_gci_dispatch(self):
        assert PI_POWER(1.0) == pytest.approx(6.4)
        assert GCI_POWER(1.0) == pytest.approx(20.0)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            PowerModel(kind="tpu")(0.5)


class TestEnergy:
    def test_energy_is_power_times_time(self):
        dev = raspberry_pi4()
        e = energy_joules(dev, latency_s=2.0)
        assert e == pytest.approx(2.0 * raspberry_pi_power(dev.utilization))

    def test_default_utilization_used(self):
        dev = raspberry_pi4()
        assert energy_joules(dev, 1.0) == pytest.approx(dev.power(dev.utilization))

    def test_negative_latency_raises(self):
        with pytest.raises(ValueError):
            energy_joules(raspberry_pi4(), -1.0)

    def test_savings_percent(self):
        assert energy_savings_percent(10.0, 2.0) == pytest.approx(80.0)
        assert energy_savings_percent(10.0, 10.0) == pytest.approx(0.0)

    def test_savings_negative_when_worse(self):
        assert energy_savings_percent(1.0, 2.0) == pytest.approx(-100.0)

    def test_zero_baseline_raises(self):
        with pytest.raises(ValueError):
            energy_savings_percent(0.0, 1.0)

    def test_gpu_energy_dominates_cpu_energy(self):
        """Paper §IV-E: GPU power ~6x CPU power on the K80 instance."""
        gpu = gci_gpu()
        cpu = gci_cpu()
        assert gpu.power(0.9) > 4 * cpu.power(0.9)


@pytest.mark.parametrize("u", np.linspace(0.0, 1.0, 11).tolist())
def test_power_models_evaluate_the_paper_equations_exactly(u):
    """Eq. 1 and Eq. 2 with the paper's constants, bit for bit."""
    assert gci_cpu_power(u) == (2 / 18) * (40.0 + (180.0 - 40.0) * u**0.75)
    assert raspberry_pi_power(u) == 2.7 + (6.4 - 2.7) * u**1.0
