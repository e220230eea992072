"""Module system: parameter registration, train/eval modes, state dicts.

A deliberately small mirror of the torch.nn.Module contract — enough to
express every architecture in the paper and to let the optimizers,
FLOPs counter, and compression baselines treat models uniformly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter(Tensor):
    """A Tensor registered as a trainable model parameter."""

    def __init__(self, data: np.ndarray, name: str | None = None) -> None:
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True, name=name)
        # Parameters must stay differentiable even if constructed inside a
        # no_grad() block (e.g. when a model is built during inference).
        self.requires_grad = True


class Module:
    """Base class for all network components."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- registration ------------------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ----------------------------------------------------- #
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children, depth-first."""
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # -- modes ---------------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state dict ------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Flat mapping of dotted parameter names to array copies."""
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            if name not in own:
                continue
            param = own[name]
            value = np.asarray(value, dtype=np.float32)
            if param.data.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: model {param.data.shape}, state {value.shape}"
                )
            param.data = value.copy()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- compiled inference fast path ---------------------------------- #
    def inference_plan(self, batch_shape, modules=None, key: str = "plan"):
        """Cached compiled inference plan for this module at ``batch_shape``.

        Thin wrapper over :func:`repro.nn.fastpath.cached_plan`: plans
        are memoized on this instance per ``(key, per-sample shape)`` and
        read parameters live, so they survive weight updates.  ``modules``
        overrides what gets traced (default: this module itself) — e.g.
        a model can trace ``(self.features, self.classifier)``.
        """
        from repro.nn.fastpath import cached_plan

        return cached_plan(self, self if modules is None else modules, batch_shape, key=key)

    def clear_inference_plans(self) -> None:
        """Drop cached fastpath plans (and their arena buffers)."""
        from repro.nn.fastpath import clear_plans

        clear_plans(self)

    def __getstate__(self):
        """Pickle without cached inference plans.

        Plans hold multi-MB scratch arenas and are pure caches — shipping
        them through process-pool pipes (the serving engine pickles the
        backend per worker chunk) or into deep copies would be dead
        weight.  Receivers retrace lazily on their first batch.
        """
        state = self.__dict__.copy()
        state.pop("_fastpath_plans", None)
        return state

    # -- forward ---------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {repr(child)}".replace("\n", "\n  ")
            for name, child in self._modules.items()
        ]
        header = f"{type(self).__name__}("
        if not child_lines:
            return header + ")"
        return header + "\n" + "\n".join(child_lines) + "\n)"


class Sequential(Module):
    """Run child modules in order; also supports slicing (used for model
    truncation — the paper extracts the early-exit branch as "layers 1..k")."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._order: list[str] = []
        for i, layer in enumerate(layers):
            self.register_module(str(i), layer)
            self._order.append(str(i))

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def __getitem__(self, index: int | slice) -> "Module":
        if isinstance(index, slice):
            return Sequential(*[self._modules[name] for name in self._order[index]])
        return self._modules[self._order[index]]

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        self.register_module(name, module)
        self._order.append(name)
        return self
