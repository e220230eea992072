"""Model backends: real inference + a calibrated batch service-time model.

A backend couples two things the engine needs per micro-batch:

* **real predictions** — ``predict`` runs the actual model
  (:meth:`CBNet.predict <repro.core.cbnet.CBNet.predict>`,
  :meth:`BranchyLeNet.infer <repro.models.branchynet.BranchyLeNet.infer>`,
  ...), so the serving engine produces genuine labels, not placeholders.
  Every one of those model entry points routes through the compiled
  inference fast path (:mod:`repro.nn.fastpath`): the first batch of a
  given shape traces an :class:`~repro.nn.fastpath.InferencePlan`, and
  every subsequent batch — including the ragged final micro-batch —
  reuses its preallocated buffer arena, so the steady-state serving
  loop performs no per-batch allocations of conv column buffers.  Call
  :meth:`InferenceBackend.warmup` to pay the one-time trace before
  opening the doors to traffic;
* **virtual service time** — how long that batch occupies a worker on
  the simulated device, derived from the calibrated per-layer latency
  model in :mod:`repro.hw.latency`.  Per-batch time is
  ``overhead + gate + n·per_item + n_hard·per_hard_extra``: the fixed
  dispatch overhead is paid once per *batch* (the win dynamic batching
  exists to harvest), while compute scales with batch content.

Decoupling wall-clock from the virtual clock keeps serving experiments
deterministic and device-faithful: predictions are exact, timing follows
the Pi-4/GCI profiles the rest of the evaluation uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hw.device import DeviceProfile
from repro.hw.latency import branchynet_expected_latency, cbnet_latency, model_latency
from repro.serving.router import EntropyRouter, RouteDecision

__all__ = [
    "BatchTiming",
    "InferenceBackend",
    "CBNetBackend",
    "LeNetBackend",
    "BranchyNetBackend",
    "HybridBackend",
]


@dataclass(frozen=True)
class BatchTiming:
    """Affine batch service-time model (seconds).

    ``overhead_s`` is charged once per batch, ``gate_s`` once per batch
    when the backend performs dynamic routing (the control-flow /
    synchronization cost of the entropy gate), ``per_item_s`` per
    request, and ``per_hard_extra_s`` per entropy-flagged hard request.
    Every field must be finite and ``>= 0``: a negative or NaN cost
    would complete requests before they arrive, or never.
    """

    overhead_s: float
    per_item_s: float
    gate_s: float = 0.0
    per_hard_extra_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("overhead_s", "per_item_s", "gate_s", "per_hard_extra_s"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # false for NaN too
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def batch_service_s(self, n: int, n_hard: int = 0) -> float:
        if n <= 0:
            raise ValueError(f"batch size must be positive, got {n}")
        if not 0 <= n_hard <= n:
            raise ValueError(f"n_hard must be in [0, {n}], got {n_hard}")
        return (
            self.overhead_s
            + self.gate_s
            + n * self.per_item_s
            + n_hard * self.per_hard_extra_s
        )


class InferenceBackend:
    """Base class: a named model with routing, timing, and prediction."""

    name: str = "backend"
    #: Per-sample input shape used by :meth:`warmup`.
    in_shape: tuple[int, ...] = (1, 28, 28)
    #: True for table-driven backends (:class:`repro.sim.OracleBackend`)
    #: whose ``route``/``predict`` take sample ids instead of pixels; the
    #: engines key the result cache on the ids and skip model warmup.
    oracle: bool = False

    def __init__(self, timing: BatchTiming, router: EntropyRouter | None = None):
        self.timing = timing
        self.router = router

    def warmup(
        self, batch_size: int = 256, sample_shape: tuple[int, ...] | None = None
    ) -> None:
        """Trace and cache the fastpath plans for ``batch_size`` up front.

        Runs a dummy batch through :meth:`route` (if routing) and
        :meth:`predict` — and, for routed backends, a second pass with an
        all-hard decision — so *both* sides of the entropy gate are
        compiled before live traffic, whatever the gate decides for real
        requests.  ``sample_shape`` defaults to :attr:`in_shape`;
        :meth:`Server.serve <repro.serving.engine.Server.serve>` passes
        the trace's actual per-sample shape before dispatch.  Memoized:
        repeat calls for an already-warmed (shape, size) are no-ops, and
        the cost is wall-clock only (the virtual clock never sees it).
        """
        shape = tuple(sample_shape) if sample_shape is not None else self.in_shape
        warmed: dict[tuple[int, ...], int] = self.__dict__.setdefault("_warmed", {})
        if warmed.get(shape, 0) >= batch_size:
            return
        dummy = np.zeros((batch_size, *shape), dtype=np.float32)
        decision = self.route(dummy)
        self.predict(dummy, decision)
        if decision is not None:
            # A uniform dummy batch routes entirely one way; force the
            # complementary all-hard split so the trunk / conversion path
            # is traced too.
            all_hard = RouteDecision(
                easy=np.zeros(batch_size, dtype=bool),
                entropy=decision.entropy,
                predictions=decision.predictions,
            )
            self.predict(dummy, all_hard)
        warmed[shape] = batch_size

    def route(self, images: np.ndarray) -> RouteDecision | None:
        """Split a batch into easy/hard, or ``None`` for static pipelines."""
        if self.router is None:
            return None
        return self.router.split(images)

    def batch_service_s(self, n: int, n_hard: int = 0) -> float:
        """Virtual seconds one worker is occupied by this batch."""
        return self.timing.batch_service_s(n, n_hard)

    def predict(
        self, images: np.ndarray, decision: RouteDecision | None = None
    ) -> np.ndarray:
        """Real model predictions, one per row of ``images``.

        ``decision`` is the routing outcome when the engine already ran
        :meth:`route`; dynamic backends reuse its branch predictions
        instead of repeating the shared-stem forward pass.  One call may
        carry several dispatched micro-batches (at most the fleet's
        ``max_batch_size`` rows in all) with their decisions joined row
        for row, so a prediction must depend only on its own row.
        """
        raise NotImplementedError

    def mean_service_s(self, exit_rate: float = 1.0, batch_size: int = 1) -> float:
        """Expected per-request service time at a given easy fraction —
        the capacity number load scenarios are sized against."""
        n = max(1, int(batch_size))
        n_hard = round(n * (1.0 - exit_rate)) if self.router is not None else 0
        return self.batch_service_s(n, n_hard) / n


class CBNetBackend(InferenceBackend):
    """Static CBNet pipeline: converting AE → lightweight classifier.

    No dynamic control flow, so no gate cost and a constant per-item
    time — the property that keeps CBNet's tail close to its mean.
    """

    name = "cbnet"

    def __init__(self, cbnet, device: DeviceProfile) -> None:
        lat = cbnet_latency(cbnet, device)
        super().__init__(
            BatchTiming(
                overhead_s=device.inference_overhead_s,
                per_item_s=lat.total - device.inference_overhead_s,
            )
        )
        self.cbnet = cbnet

    def predict(
        self, images: np.ndarray, decision: RouteDecision | None = None
    ) -> np.ndarray:
        return self.cbnet.predict(images)


class LeNetBackend(InferenceBackend):
    """Plain LeNet baseline (static, no early exit, no conversion)."""

    name = "lenet"

    def __init__(self, lenet, device: DeviceProfile) -> None:
        lat = model_latency(lenet, device)
        super().__init__(
            BatchTiming(
                overhead_s=device.inference_overhead_s,
                per_item_s=lat - device.inference_overhead_s,
            )
        )
        self.lenet = lenet

    def predict(
        self, images: np.ndarray, decision: RouteDecision | None = None
    ) -> np.ndarray:
        return self.lenet.predict(images)


class BranchyNetBackend(InferenceBackend):
    """Early-exit BranchyNet behind the serving-layer entropy router.

    Every batch pays stem + branch + one gate decision; the hard
    sub-batch additionally pays the trunk (full-exit path).  Service
    time is therefore *data-dependent* — the bimodality that fattens
    BranchyNet's tail under load.
    """

    name = "branchynet"

    def __init__(
        self, branchynet, device: DeviceProfile, threshold: float | None = None
    ) -> None:
        router = EntropyRouter(branchynet, threshold)
        # exit_rate only shapes BranchyLatency.expected; the path costs
        # used here are exit-rate-independent.
        lat = branchynet_expected_latency(branchynet, device, exit_rate=1.0)
        base = device.inference_overhead_s + device.sync_overhead_s
        super().__init__(
            BatchTiming(
                overhead_s=device.inference_overhead_s,
                gate_s=device.sync_overhead_s,
                per_item_s=lat.early_path - base,
                per_hard_extra_s=lat.full_path - lat.early_path,
            ),
            router=router,
        )
        self.branchynet = branchynet

    def predict(
        self, images: np.ndarray, decision: RouteDecision | None = None
    ) -> np.ndarray:
        if decision is None or decision.predictions is None:
            return self.branchynet.infer(
                images, threshold=self.router.threshold
            ).predictions
        # Reuse the router's branch-exit labels; only the hard sub-batch
        # pays the full stem + trunk path.  An all-hard batch runs whole
        # (no gather copy); an all-easy batch never touches the trunk.
        preds = decision.predictions.copy()
        hard = decision.hard_indices
        if hard.size == len(preds):
            preds = self.branchynet.infer(images, threshold=-1.0).predictions
        elif hard.size:
            preds[hard] = self.branchynet.infer(
                images[hard], threshold=-1.0
            ).predictions
        return preds


class HybridBackend(InferenceBackend):
    """Router + CBNet as the hard path: easy requests take BranchyNet's
    branch exit; entropy-flagged hard requests are *converted*
    (autoencoder hard→easy) and re-classified instead of running the
    trunk — the serving-layer composition of the paper's two ideas.
    """

    name = "hybrid"

    def __init__(
        self, cbnet, branchynet, device: DeviceProfile, threshold: float | None = None
    ) -> None:
        router = EntropyRouter(branchynet, threshold)
        blat = branchynet_expected_latency(branchynet, device, exit_rate=1.0)
        base = device.inference_overhead_s + device.sync_overhead_s
        clat = cbnet_latency(cbnet, device)
        super().__init__(
            BatchTiming(
                overhead_s=device.inference_overhead_s,
                gate_s=device.sync_overhead_s,
                per_item_s=blat.early_path - base,
                per_hard_extra_s=clat.total - device.inference_overhead_s,
            ),
            router=router,
        )
        self.cbnet = cbnet
        self.branchynet = branchynet

    def predict(
        self, images: np.ndarray, decision: RouteDecision | None = None
    ) -> np.ndarray:
        if decision is None or decision.predictions is None:
            decision = self.router.split(images)
        # Branch-exit predictions for the easy sub-batch; the hard one is
        # converted (AE hard→easy) and re-classified.  All-hard batches
        # convert whole instead of gathering into a same-size copy.
        preds = decision.predictions.copy()
        hard = decision.hard_indices
        if hard.size == len(preds):
            preds = self.cbnet.predict(images)
        elif hard.size:
            preds[hard] = self.cbnet.predict(images[hard])
        return preds
