"""`repro.serving` — the components of batched inference serving.

The parts of an executable serving path: arrival generators, a dynamic
micro-batcher that flushes on size/deadline triggers, the per-class
priority batcher, an LRU cache that answers repeated images, an entropy
router that sends hard inputs down the full-exit path, and backends
that run real CBNet / BranchyNet / LeNet inference with
device-calibrated service times.  :class:`repro.cluster.Cluster` is
the one event loop that runs them: a single node is a one-replica
cluster, and a node with k workers a k-replica one.

Quick tour::

    from repro.cluster import Cluster
    from repro.serving import CBNetBackend, poisson_arrivals
    node = Cluster([CBNetBackend(cbnet, device)], max_batch_size=16,
                   max_wait_s=0.004, cache_capacity=512)
    report = node.serve(images, poisson_arrivals(300.0, len(images), rng=0))
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
from repro.serving.priority import PriorityBatcher
from repro.serving.router import EntropyRouter, RouteDecision

__all__ = [
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
