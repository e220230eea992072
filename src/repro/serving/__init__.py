"""`repro.serving` — batched inference serving engine.

An executable serving path: arrival generators feed a request queue, a
dynamic micro-batcher flushes on size/deadline triggers, one worker
runs real CBNet / BranchyNet / LeNet inference with device-calibrated
service times, an LRU cache answers repeated images, and an entropy
router sends hard inputs down the full-exit path.  A node with k
workers is a k-replica :class:`repro.cluster.Cluster`.

Quick tour::

    from repro.serving import Server, CBNetBackend, poisson_arrivals
    backend = Server(CBNetBackend(cbnet, device), max_batch_size=16,
                     max_wait_s=0.004, cache_capacity=512)
    report = backend.serve(images, poisson_arrivals(300.0, len(images), rng=0))
    print(report.summary())
"""

from repro.serving.arrivals import (
    bursty_arrivals,
    class_mix,
    constant_arrivals,
    diurnal_arrivals,
    diurnal_class_mix,
    flash_crowd_arrivals,
    poisson_arrivals,
    zipf_popularity,
)
from repro.serving.backends import (
    BatchTiming,
    BranchyNetBackend,
    CBNetBackend,
    HybridBackend,
    InferenceBackend,
    LeNetBackend,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import LRUResultCache, image_key
from repro.serving.classes import (
    DEFAULT_CLASSES,
    ClassReport,
    ClassSet,
    RequestClass,
    class_table,
    default_classes,
    per_class_reports,
)
from repro.serving.engine import Server, ServingReport, comparison_table
from repro.serving.priority import PriorityBatcher
from repro.serving.router import EntropyRouter, RouteDecision

__all__ = [
    "Server",
    "ServingReport",
    "comparison_table",
    "RequestClass",
    "ClassSet",
    "ClassReport",
    "DEFAULT_CLASSES",
    "default_classes",
    "per_class_reports",
    "class_table",
    "MicroBatcher",
    "PriorityBatcher",
    "LRUResultCache",
    "image_key",
    "EntropyRouter",
    "RouteDecision",
    "InferenceBackend",
    "BatchTiming",
    "CBNetBackend",
    "LeNetBackend",
    "BranchyNetBackend",
    "HybridBackend",
    "poisson_arrivals",
    "constant_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "zipf_popularity",
    "class_mix",
    "diurnal_class_mix",
]
