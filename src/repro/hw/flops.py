"""Per-layer FLOPs / memory-traffic accounting.

Walks :class:`~repro.nn.module.Sequential` stages, propagating the input
shape through each known layer type and recording compute (MACs/FLOPs)
and memory traffic (bytes moved).  Feeds the roofline latency model in
:mod:`repro.hw.latency` and the energy accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.nn.layers import (
    ActivityRegularizer,
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Reshape,
    Scale,
)
from repro.nn.layers.activation import Identity, LeakyReLU, ReLU, Sigmoid, Softmax, Tanh
from repro.nn.module import Module, Sequential

__all__ = ["LayerCost", "StageCost", "layer_cost", "stage_cost", "model_cost"]

_BYTES = 4  # float32 everywhere


@dataclass(frozen=True)
class LayerCost:
    """Compute/memory cost of one layer at a given input shape."""

    name: str
    kind: str  # "conv" | "dense" | "pool" | "elementwise" | "none"
    macs: int
    flops: int
    bytes_read: int
    bytes_written: int
    params: int
    out_shape: tuple[int, ...]

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


@dataclass(frozen=True)
class StageCost:
    """Aggregated cost of a named stage (a Sequential of layers)."""

    name: str
    layers: tuple[LayerCost, ...]

    @property
    def macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def flops(self) -> int:
        return sum(l.flops for l in self.layers)

    @property
    def bytes_total(self) -> int:
        return sum(l.bytes_total for l in self.layers)

    @property
    def params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def out_shape(self) -> tuple[int, ...]:
        return self.layers[-1].out_shape if self.layers else ()


def _numel(shape: Iterable[int]) -> int:
    return int(np.prod(list(shape))) if shape else 0


def layer_cost(layer: Module, in_shape: tuple[int, ...]) -> LayerCost:
    """Cost of a single layer for *one* sample with input ``in_shape``.

    ``in_shape`` excludes the batch axis: (C, H, W) for spatial layers,
    (D,) for dense layers.
    """
    name = type(layer).__name__
    if isinstance(layer, Conv2d):
        c, h, w = in_shape
        oh, ow = layer.output_spatial(h, w)
        if oh <= 0 or ow <= 0:
            raise ValueError(f"{name}: non-positive output {oh}x{ow} for input {in_shape}")
        macs = layer.out_channels * oh * ow * c * layer.kernel_size**2
        params = layer.weight.size + (layer.bias.size if layer.bias is not None else 0)
        out_shape = (layer.out_channels, oh, ow)
        return LayerCost(
            name,
            "conv",
            macs,
            2 * macs,
            ( _numel(in_shape) + params) * _BYTES,
            _numel(out_shape) * _BYTES,
            params,
            out_shape,
        )
    if isinstance(layer, Linear):
        d = in_shape[-1]
        if d != layer.in_features:
            raise ValueError(f"{name}: input width {d} != in_features {layer.in_features}")
        macs = layer.in_features * layer.out_features
        params = layer.weight.size + (layer.bias.size if layer.bias is not None else 0)
        out_shape = (*in_shape[:-1], layer.out_features)
        return LayerCost(
            name,
            "dense",
            macs,
            2 * macs,
            (_numel(in_shape) + params) * _BYTES,
            _numel(out_shape) * _BYTES,
            params,
            out_shape,
        )
    if isinstance(layer, (MaxPool2d, AvgPool2d)):
        c, h, w = in_shape
        k, s = layer.kernel_size, layer.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        out_shape = (c, oh, ow)
        ops = c * oh * ow * k * k
        return LayerCost(
            name,
            "pool",
            0,
            ops,
            _numel(in_shape) * _BYTES,
            _numel(out_shape) * _BYTES,
            0,
            out_shape,
        )
    if isinstance(layer, (ReLU, LeakyReLU, Sigmoid, Tanh, Scale)):
        n = _numel(in_shape)
        return LayerCost(name, "elementwise", 0, n, n * _BYTES, n * _BYTES, 0, tuple(in_shape))
    if isinstance(layer, Softmax):
        n = _numel(in_shape)
        # exp + sub-max + sum + div ≈ 5 ops/element
        return LayerCost(name, "elementwise", 0, 5 * n, n * _BYTES, n * _BYTES, 0, tuple(in_shape))
    if isinstance(layer, Flatten):
        return LayerCost(name, "none", 0, 0, 0, 0, 0, (_numel(in_shape),))
    if isinstance(layer, Reshape):
        return LayerCost(name, "none", 0, 0, 0, 0, 0, tuple(layer.shape))
    if isinstance(layer, (Dropout, ActivityRegularizer, Identity)):
        return LayerCost(name, "none", 0, 0, 0, 0, 0, tuple(in_shape))
    if isinstance(layer, Sequential):
        raise TypeError("pass Sequential to stage_cost(), not layer_cost()")
    raise TypeError(f"no cost model for layer type {name}")


def stage_cost(name: str, stage: Sequential, in_shape: tuple[int, ...]) -> StageCost:
    """Aggregate cost of a Sequential stage; propagates shapes layer to layer."""
    layers: list[LayerCost] = []
    shape = tuple(in_shape)
    for layer in stage:
        cost = layer_cost(layer, shape)
        layers.append(cost)
        shape = cost.out_shape
    return StageCost(name=name, layers=tuple(layers))


def model_cost(model, in_shape: tuple[int, ...] | None = None) -> list[StageCost]:
    """Cost of every stage of a model exposing ``stages()``.

    Shape chaining is stage-specific: models whose stages share a prefix
    (BranchyNet's branch and trunk both consume the stem output) are
    handled by inspecting stage names.
    """
    if not hasattr(model, "stages"):
        raise TypeError(f"{type(model).__name__} does not expose stages()")
    in_shape = tuple(in_shape) if in_shape is not None else tuple(getattr(model, "IN_SHAPE", ()))
    if not in_shape:
        raise ValueError("provide in_shape or define IN_SHAPE on the model")

    stages = model.stages()
    costs: list[StageCost] = []
    shapes: dict[str, tuple[int, ...]] = {}
    current = in_shape
    for name, stage in stages:
        if name in ("branch", "trunk") and "stem" in shapes:
            start = shapes["stem"]
        elif name == "decoder" and "encoder" in shapes:
            start = shapes["encoder"]
        elif name == "head" and "stem" in shapes:
            start = shapes["stem"]
        else:
            start = current
        cost = stage_cost(name, stage, start)
        costs.append(cost)
        shapes[name] = cost.out_shape
        current = cost.out_shape
    return costs
