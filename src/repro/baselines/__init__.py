"""`repro.baselines` — the competing systems from the paper's evaluation.

* :mod:`pruning` / :mod:`quantization` — DNN compression primitives.
* :mod:`adadeep` — AdaDeep-style usage-driven compression: a controller
  that searches combinations of compression techniques under an accuracy
  budget (Liu et al., 2020).
* :mod:`subflow` — SubFlow-style induced-subgraph execution: run a
  utilization-limited subset of every layer at inference time
  (Lee & Nirjon, 2020).
"""

from repro.baselines.pruning import channel_pruned_lenet
from repro.baselines.quantization import kmeans_quantize, quantize_model
from repro.baselines.adadeep import AdaDeepCompressor, AdaDeepResult
from repro.baselines.subflow import SubFlowExecutor

__all__ = [
    "channel_pruned_lenet",
    "kmeans_quantize",
    "quantize_model",
    "AdaDeepCompressor",
    "AdaDeepResult",
    "SubFlowExecutor",
]
