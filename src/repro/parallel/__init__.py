"""`repro.parallel` — process-level parallelism for experiments.

Dataset synthesis and the fleet and offload experiment grids are
embarrassingly parallel across configurations; :func:`parallel_map` fans
them out over a fork-based process pool (read-only NumPy arrays are
shared with workers for free via copy-on-write fork pages — no pickling
of inputs).  :func:`plan_batches` is the micro-batcher's offline,
trace-level mirror, which the batcher's tests compare against.
"""

from repro.parallel.pool import parallel_map, worker_count
from repro.parallel.batcher import plan_batches

__all__ = [
    "parallel_map",
    "worker_count",
    "plan_batches",
]
