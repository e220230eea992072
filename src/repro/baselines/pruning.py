"""Structured channel pruning, AdaDeep's pruning axis.

It rebuilds the LeNet with only the highest-importance conv channels,
which cuts MACs and therefore simulated latency.  Channel importance is
the filter's L1 norm (Li et al., 2017), the standard criterion.
"""

from __future__ import annotations

import numpy as np

from repro.models.lenet import LeNet
from repro.nn.layers import Conv2d, Linear

__all__ = ["channel_pruned_lenet"]


def _top_channels(weight: np.ndarray, keep: int) -> np.ndarray:
    """Indices of the ``keep`` filters with the largest L1 norm, sorted."""
    importance = np.abs(weight.reshape(weight.shape[0], -1)).sum(axis=1)
    return np.sort(np.argsort(importance)[::-1][:keep])


def channel_pruned_lenet(lenet: LeNet, keep_fraction: float, rng=None) -> LeNet:
    """Structurally pruned copy of a trained LeNet.

    Every conv layer keeps ``ceil(keep_fraction * C)`` output channels
    (by L1 importance); the following layer's input channels are sliced
    to match.  The fc1 input slice accounts for conv3's spatial fan-out.
    The returned model is a fully functional, genuinely smaller LeNet
    whose simulated latency reflects the reduced MACs.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")

    conv1: Conv2d = lenet.features[0]
    conv2: Conv2d = lenet.features[3]
    conv3: Conv2d = lenet.features[6]
    fc1: Linear = lenet.classifier[1]
    fc2: Linear = lenet.classifier[3]

    k1 = max(1, int(np.ceil(keep_fraction * conv1.out_channels)))
    k2 = max(1, int(np.ceil(keep_fraction * conv2.out_channels)))
    k3 = max(1, int(np.ceil(keep_fraction * conv3.out_channels)))

    idx1 = _top_channels(conv1.weight.data, k1)
    idx2 = _top_channels(conv2.weight.data, k2)
    idx3 = _top_channels(conv3.weight.data, k3)

    pruned = LeNet(num_classes=lenet.num_classes, rng=rng)
    # Rebuild with reduced widths by replacing layers wholesale.
    new_conv1 = Conv2d(1, k1, kernel_size=conv1.kernel_size, padding=conv1.padding, rng=rng)
    new_conv1.weight.data = conv1.weight.data[idx1].copy()
    new_conv1.bias.data = conv1.bias.data[idx1].copy()

    new_conv2 = Conv2d(k1, k2, kernel_size=conv2.kernel_size, padding=conv2.padding, rng=rng)
    new_conv2.weight.data = conv2.weight.data[np.ix_(idx2, idx1)].copy()
    new_conv2.bias.data = conv2.bias.data[idx2].copy()

    new_conv3 = Conv2d(k2, k3, kernel_size=conv3.kernel_size, padding=conv3.padding, rng=rng)
    new_conv3.weight.data = conv3.weight.data[np.ix_(idx3, idx2)].copy()
    new_conv3.bias.data = conv3.bias.data[idx3].copy()

    # fc1's input is conv3 flattened: (C3, H, W) → channel-major blocks.
    spatial = fc1.in_features // conv3.out_channels
    w = fc1.weight.data.reshape(fc1.out_features, conv3.out_channels, spatial)
    new_fc1 = Linear(k3 * spatial, fc1.out_features, rng=rng)
    new_fc1.weight.data = np.ascontiguousarray(
        w[:, idx3, :].reshape(fc1.out_features, k3 * spatial)
    )
    new_fc1.bias.data = fc1.bias.data.copy()

    new_fc2 = Linear(fc2.in_features, fc2.out_features, rng=rng)
    new_fc2.weight.data = fc2.weight.data.copy()
    new_fc2.bias.data = fc2.bias.data.copy()

    pruned.features.register_module("0", new_conv1)
    pruned.features.register_module("3", new_conv2)
    pruned.features.register_module("6", new_conv3)
    pruned.classifier.register_module("1", new_fc1)
    pruned.classifier.register_module("3", new_fc2)
    return pruned
