"""Arrival-time and popularity generators for serving workloads.

The engine consumes a sorted array of arrival times (seconds); these
helpers generate the three canonical load shapes the benchmarks use —
steady Poisson traffic, bursty on/off-modulated Poisson traffic, and a
finite overload wave — plus trace-driven replay of recorded timestamps
and a Zipf popularity sampler that turns a small image set into a
realistic repeated-request stream (the lever that makes the result cache
earn its keep).
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "poisson_arrivals",
    "constant_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "trace_arrivals",
    "zipf_popularity",
    "class_mix",
    "diurnal_class_mix",
]


def _require_positive(name: str, value: float) -> None:
    """Reject a rate, period or phase that is not a finite positive number.

    ``value <= 0`` is false for NaN, and an infinite rate collapses
    every gap to zero, so both are refused here.
    """
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def poisson_arrivals(
    rate_hz: float, n: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """``n`` Poisson arrival times at mean rate ``rate_hz`` (steady load)."""
    _require_positive("arrival rate", rate_hz)
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = as_generator(rng)
    return np.cumsum(rng.exponential(1.0 / rate_hz, n))


def constant_arrivals(rate_hz: float, n: int) -> np.ndarray:
    """``n`` perfectly periodic arrivals (deterministic D/·/1 input)."""
    _require_positive("arrival rate", rate_hz)
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return (np.arange(n, dtype=np.float64) + 1.0) / rate_hz


def bursty_arrivals(
    base_rate_hz: float,
    burst_rate_hz: float,
    n: int,
    mean_phase_s: float = 0.5,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Markov-modulated Poisson arrivals: quiet/burst phases alternate.

    The process switches between a ``base_rate_hz`` phase and a
    ``burst_rate_hz`` phase; phase durations are exponential with mean
    ``mean_phase_s``.  Same long-run mean rate as a Poisson stream at the
    average of the two rates, but with the clumped arrivals that separate
    tail latency from mean latency in practice.
    """
    _require_positive("base rate", base_rate_hz)
    _require_positive("burst rate", burst_rate_hz)
    _require_positive("mean_phase_s", mean_phase_s)
    if burst_rate_hz < base_rate_hz:
        raise ValueError(
            f"burst rate {burst_rate_hz} must be >= base rate {base_rate_hz}"
        )
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = as_generator(rng)
    out = np.empty(n, dtype=np.float64)
    t = 0.0
    produced = 0
    in_burst = False
    while produced < n:
        rate = burst_rate_hz if in_burst else base_rate_hz
        phase_end = t + rng.exponential(mean_phase_s)
        while produced < n:
            t_next = t + rng.exponential(1.0 / rate)
            if t_next > phase_end:
                # Memoryless: restart the draw at the phase boundary.
                t = phase_end
                break
            t = t_next
            out[produced] = t
            produced += 1
        in_burst = not in_burst
    return out


def _thinned_poisson(
    rng: np.random.Generator,
    peak_hz: float,
    rate_fn,
    n: int,
    chunk: int,
) -> np.ndarray:
    """Exact Lewis–Shedler thinning, vectorized in fixed-size chunks.

    Candidates arrive as a homogeneous Poisson stream at ``peak_hz``
    (one ``cumsum`` of exponential gaps per chunk) and survive with
    probability ``rate_fn(t) / peak_hz`` (one uniform array per chunk) —
    an exact sampler of the inhomogeneous process with no per-event
    Python loop.  The chunk size is a pure function of the caller's
    arguments, so a given seed always consumes the generator identically
    and yields the same trace.
    """
    out = np.empty(n, dtype=np.float64)
    t = 0.0
    produced = 0
    while produced < n:
        times = t + np.cumsum(rng.exponential(1.0 / peak_hz, chunk))
        kept = times[rng.random(chunk) * peak_hz < rate_fn(times)]
        take = min(n - produced, kept.shape[0])
        out[produced : produced + take] = kept[:take]
        produced += take
        t = float(times[-1])
    return out


def diurnal_arrivals(
    mean_rate_hz: float,
    n: int,
    period_s: float,
    depth: float = 0.8,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Sinusoidally modulated Poisson arrivals (a compressed day/night cycle).

    The instantaneous rate is ``mean_rate_hz * (1 + depth * sin(2πt/period_s))``
    — a smooth swing between off-peak (``1-depth``) and peak (``1+depth``)
    load, sampled exactly via vectorized Lewis–Shedler thinning (the
    whole trace is emitted in a handful of array operations; see the
    pinned-trace regression test in ``tests/serving/test_arrivals.py``).
    This is the load shape autoscalers exist for: capacity sized for the
    peak wastes replica-seconds all night, capacity sized for the mean
    melts every peak.
    """
    _require_positive("arrival rate", mean_rate_hz)
    _require_positive("period_s", period_s)
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= depth < 1.0:
        raise ValueError(f"depth must be in [0, 1), got {depth}")
    rng = as_generator(rng)
    peak = mean_rate_hz * (1.0 + depth)
    # Mean acceptance is 1 / (1 + depth); size chunks so one usually
    # covers the request (bounded for million-request traces).
    chunk = max(256, min(1 << 20, int(math.ceil(1.15 * n * (1.0 + depth))) + 64))

    def rate(t: np.ndarray) -> np.ndarray:
        return mean_rate_hz * (1.0 + depth * np.sin(2.0 * np.pi * t / period_s))

    return _thinned_poisson(rng, peak, rate, n, chunk)


def flash_crowd_arrivals(
    base_rate_hz: float,
    peak_rate_hz: float,
    n: int,
    spike_start_s: float,
    spike_duration_s: float,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Poisson arrivals with one sudden sustained spike (a flash crowd).

    Rate is ``base_rate_hz`` everywhere except the window
    ``[spike_start_s, spike_start_s + spike_duration_s)``, where it jumps
    to ``peak_rate_hz`` with no ramp — the step change that separates
    balancing policies by how badly the slowest replica's queue explodes
    before the fleet reacts.  Sampled exactly by vectorized thinning of
    a ``peak_rate_hz`` candidate stream (step rates are just a thinning
    probability that switches at the boundaries), deterministic per
    seed with no per-event loop.
    """
    _require_positive("base rate", base_rate_hz)
    _require_positive("peak rate", peak_rate_hz)
    _require_positive("spike_duration_s", spike_duration_s)
    if not 0.0 <= spike_start_s < math.inf:
        raise ValueError(f"spike_start_s must be finite and >= 0, got {spike_start_s}")
    if peak_rate_hz < base_rate_hz:
        raise ValueError(
            f"peak rate {peak_rate_hz} must be >= base rate {base_rate_hz}"
        )
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = as_generator(rng)
    spike_end_s = spike_start_s + spike_duration_s
    # Acceptance off-spike is base/peak; size chunks for that worst case
    # (bounded for million-request traces).
    chunk = max(
        256,
        min(1 << 20, int(math.ceil(1.15 * n * peak_rate_hz / base_rate_hz)) + 64),
    )

    def rate(t: np.ndarray) -> np.ndarray:
        return np.where(
            (spike_start_s <= t) & (t < spike_end_s), peak_rate_hz, base_rate_hz
        )

    return _thinned_poisson(rng, peak_rate_hz, rate, n, chunk)


def trace_arrivals(times_s) -> np.ndarray:
    """Validate and normalize a recorded arrival-time trace.

    Accepts any sequence of finite, non-negative, non-decreasing timestamps
    (seconds) — e.g. parsed from an access log — and returns it as a
    float64 array ready for :meth:`repro.serving.Server.serve`.
    """
    times = np.asarray(times_s, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("trace must be a non-empty 1-D sequence of timestamps")
    if not np.isfinite(times).all():
        raise ValueError("trace timestamps must be finite numbers")
    if times[0] < 0:
        raise ValueError(f"timestamps must be non-negative, got {times[0]}")
    if np.any(np.diff(times) < 0):
        raise ValueError("trace timestamps must be non-decreasing")
    return times


def zipf_popularity(
    n_items: int,
    size: int,
    exponent: float = 1.1,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Sample ``size`` item indices with Zipf-like popularity skew.

    Item ``i`` is drawn with probability proportional to ``(i+1)**-exponent``
    — a few hot items dominate, as in real request streams.  The returned
    indices select which image each request carries, so repeated requests
    create result-cache hits.
    """
    if n_items <= 0:
        raise ValueError(f"n_items must be positive, got {n_items}")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    rng = as_generator(rng)
    weights = (np.arange(1, n_items + 1, dtype=np.float64)) ** -exponent
    return rng.choice(n_items, size=size, p=weights / weights.sum())


def _validate_shares(shares) -> np.ndarray:
    shares = np.asarray(shares, dtype=np.float64)
    if shares.ndim != 1 or shares.size == 0:
        raise ValueError("shares must be a non-empty 1-D sequence")
    if np.any(shares < 0) or shares.sum() <= 0:
        raise ValueError(f"shares must be non-negative with a positive sum: {shares}")
    return shares / shares.sum()


def class_mix(
    n: int, shares, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Sample ``n`` request-class codes with fixed mix proportions.

    ``shares[c]`` is the traffic fraction of class code ``c`` (class
    codes index a :class:`~repro.serving.classes.ClassSet`; shares are
    normalized, so weights work too).  Returns an ``int8`` code array
    aligned with an arrival trace — the ``request_classes`` input of
    the serving engines.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    shares = _validate_shares(shares)
    rng = as_generator(rng)
    return rng.choice(shares.size, size=n, p=shares).astype(np.int8)


def diurnal_class_mix(
    arrival_s,
    period_s: float,
    peak_shares,
    trough_shares,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Class codes whose mix swings with the diurnal cycle of a trace.

    Real tenant mixes are time-of-day dependent: interactive traffic
    dominates the daytime peak while batch work fills the trough.  For
    each arrival time ``t`` the per-class shares are interpolated
    between ``trough_shares`` and ``peak_shares`` by the same
    ``sin(2πt/period_s)`` phase :func:`diurnal_arrivals` uses for the
    rate, then one categorical draw per request picks its class.  Pair
    it with ``diurnal_arrivals(..., period_s=period_s)`` on the same
    ``period_s`` so "busier" and "more interactive" coincide — the
    overload shape the ``tenants`` experiment stresses.
    """
    arrival_s = np.asarray(arrival_s, dtype=np.float64)
    if arrival_s.ndim != 1 or arrival_s.size == 0:
        raise ValueError("arrival_s must be a non-empty 1-D time array")
    _require_positive("period_s", period_s)
    peak = _validate_shares(peak_shares)
    trough = _validate_shares(trough_shares)
    if peak.shape != trough.shape:
        raise ValueError("peak_shares and trough_shares need the same length")
    rng = as_generator(rng)
    # Phase in [0, 1]: 1 at the sinusoid's crest, 0 in the trough.
    phase = 0.5 * (1.0 + np.sin(2.0 * np.pi * arrival_s / period_s))
    shares = trough[None, :] + phase[:, None] * (peak - trough)[None, :]
    shares /= shares.sum(axis=1, keepdims=True)
    # One inverse-CDF draw per request, vectorized across the trace.
    cdf = np.cumsum(shares, axis=1)
    u = rng.random(arrival_s.size)
    return (u[:, None] > cdf).sum(axis=1).astype(np.int8)
