"""Device calibration through the artifact cache.

``calibrate_device`` takes its fitted vector from the artifact cache,
keyed by the fit's inputs, so a warm cache gives the profile a fresh
``lsq_linear`` fit gives, and a process that finds every fit there
never imports scipy.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import repro
from repro.hw import devices
from repro.hw.devices import TABLE2_MNIST_MS, calibrate_device

SRC = Path(repro.__file__).resolve().parents[1]


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty artifact cache and no in-process profile memo; the memo
    is dropped again afterwards, so no patched profile outlives the test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    calibrate_device.cache_clear()
    yield tmp_path
    calibrate_device.cache_clear()


@pytest.fixture
def fits(monkeypatch):
    """Count the ``lsq_linear`` calls the calibration makes."""
    calls = []
    real = optimize.lsq_linear

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, "lsq_linear", counted)
    return calls


def _direct_fit(a, b):
    """The fit as written before the cache: ``lsq_linear`` on every call."""
    scale = 1.0 / b
    return optimize.lsq_linear(a * scale[:, None], b * scale, bounds=(0.0, np.inf)).x


def _fields(profile):
    return {f.name: getattr(profile, f.name) for f in dataclasses.fields(profile)}


@pytest.mark.parametrize("name", list(TABLE2_MNIST_MS))
def test_cold_warm_and_direct_fits_give_one_profile(name, cold_cache, fits, monkeypatch):
    cold = calibrate_device(name)
    assert len(fits) == 1 and len(list(cold_cache.glob("*.pkl"))) == 1

    calibrate_device.cache_clear()
    warm = calibrate_device(name)
    assert len(fits) == 1  # read back, not refitted
    assert warm is not cold

    monkeypatch.setattr(devices, "_fit", _direct_fit)
    calibrate_device.cache_clear()
    direct = calibrate_device(name)
    assert len(fits) == 2

    for profile in (warm, direct):
        assert _fields(profile) == _fields(cold)
        for field in ("conv_gmacs", "dense_gmacs", "layer_overhead_s", "sync_overhead_s"):
            assert type(getattr(profile, field)) is type(getattr(cold, field)), field


def test_a_changed_input_gets_a_new_key_and_a_new_fit(cold_cache, fits, monkeypatch):
    before = calibrate_device("gci-cpu")
    monkeypatch.setitem(TABLE2_MNIST_MS["gci-cpu"], "lenet", 1.5)
    calibrate_device.cache_clear()
    changed = calibrate_device("gci-cpu")
    assert len(fits) == 2
    assert len(list(cold_cache.glob("*.pkl"))) == 2
    assert changed != before

    monkeypatch.setitem(TABLE2_MNIST_MS["gci-cpu"], "lenet", 1.322)
    calibrate_device.cache_clear()
    assert calibrate_device("gci-cpu") == before
    assert len(fits) == 2  # the first key still answers


_WARM = "from repro.hw.devices import device_profiles; device_profiles()"
_GUARD = """
import sys
import repro.cluster, repro.netsim, repro.offload, repro.sim, repro.experiments.common
from repro.hw.devices import device_profiles
device_profiles()
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _python(code, cache_dir):
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


def test_a_warm_process_never_imports_scipy(tmp_path):
    """A first process fits all three devices into an empty cache; a
    second one loads the serving, network, offload, simulation and
    experiment layers, calibrates every device, and has no scipy."""
    _python(_WARM, tmp_path)
    assert len(list(tmp_path.glob("*.pkl"))) == len(TABLE2_MNIST_MS)
    assert _python(_GUARD, tmp_path).splitlines()[-1] == "[]"
