"""Shared simulation substrate: SoA request logs + the inference oracle.

``repro.sim`` is the layer under the three virtual-clock engines
(:mod:`repro.serving`, :mod:`repro.cluster`, :mod:`repro.offload`):

* :class:`~repro.sim.records.RequestLog` — structure-of-arrays
  per-request bookkeeping (arrival/completion/route/prediction as NumPy
  columns) that the engines mutate in place and the reports reduce
  without Python loops;
* :class:`~repro.sim.oracle.InferenceTable` /
  :class:`~repro.sim.oracle.OracleBackend` — the precomputed inference
  oracle: one batched model pass per (model, dataset) replaces every
  in-loop inference call with table lookups at identical reported
  metrics (``live=True`` on the experiment drivers keeps the real
  path);
* :mod:`~repro.sim.core` — shared trace validation and cache-key
  construction.
"""

from repro.sim.core import request_keys, validate_trace
from repro.sim.oracle import (
    InferenceTable,
    OffloadOracle,
    OracleBackend,
    clear_oracle_cache,
    offload_oracle,
    oracle_backend,
)
from repro.sim.records import (
    ROUTE_BATCHED,
    ROUTE_CACHED,
    ROUTE_EASY,
    ROUTE_HARD,
    ROUTE_SHED,
    RequestLog,
)

__all__ = [
    "RequestLog",
    "ROUTE_BATCHED",
    "ROUTE_CACHED",
    "ROUTE_EASY",
    "ROUTE_HARD",
    "ROUTE_SHED",
    "InferenceTable",
    "OracleBackend",
    "oracle_backend",
    "OffloadOracle",
    "offload_oracle",
    "clear_oracle_cache",
    "validate_trace",
    "request_keys",
]
