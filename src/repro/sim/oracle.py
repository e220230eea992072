"""Precomputed inference oracle: one model pass per (model, dataset).

End-to-end serving experiments replay the *same* small pool of unique
images thousands of times — across every policy, scenario, and replica
of a grid — and the live engines re-run real NumPy inference inside
every simulated micro-batch.  The oracle moves all of that model work
out of the event loop: one batched fastpath pass per (model, dataset)
computes branch entropy, gate decisions, and easy-/hard-path predictions
for every *unique* sample, and the engines then consume table lookups
while the calibrated :class:`~repro.serving.backends.BatchTiming` cost
model keeps the virtual clock identical.  Experiment cost drops from
``O(policies × scenarios × inference)`` to ``O(inference + cheap
simulation)``.

Usage: build the request stream out of **sample ids** (the integers that
would index the unique image pool) instead of materialized pixels, wrap
each backend with :func:`oracle_backend`, and serve as usual::

    table_backend = oracle_backend(CBNetBackend(cbnet, device), pool_images)
    report = Cluster([table_backend]).serve(sample_ids, arrival_s, labels)

Everything observable — routing decisions, served predictions, cache
hits, latency percentiles — matches the live path under fixed seeds
(the equivalence suite in ``tests/sim`` asserts it); passing
``live=True`` to the experiment drivers keeps the real-inference path
as an escape hatch.

Tables are memoized per (model identity, router threshold, image pool),
so a whole experiment grid shares one precomputation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.module import Module
from repro.serving.backends import InferenceBackend
from repro.serving.router import RouteDecision

__all__ = [
    "InferenceTable",
    "OracleBackend",
    "oracle_backend",
    "OffloadOracle",
    "offload_oracle",
    "clear_oracle_cache",
]


#: Most rows one backend call of a table pass carries.  A fastpath plan
#: keeps the arena of the largest batch it has run for the rest of the
#: process, and 128-row calls still give the bits of one 512-row call
#: (docs/sim.md says why 128).
_CHUNK_ROWS = 128


def _chunks(n: int) -> list[slice]:
    """Row slices of at most ``_CHUNK_ROWS``, the last one the remainder;
    an empty pool still gets one (empty) call."""
    return [slice(lo, lo + _CHUNK_ROWS) for lo in range(0, max(n, 1), _CHUNK_ROWS)]


@dataclass(frozen=True)
class InferenceTable:
    """Per-sample precomputed outputs of one backend over one image pool.

    ``easy_preds`` is what the backend answers when a sample takes its
    easy/static path (branch exit, or the whole pipeline for unrouted
    backends); ``hard_preds`` what it answers on the hard path (trunk /
    converted re-classification).  ``entropy``/``easy`` are the routing
    statistic and the gate decision at the backend's own threshold;
    ``None`` for static backends.
    """

    easy_preds: np.ndarray
    hard_preds: np.ndarray | None = None
    entropy: np.ndarray | None = None
    easy: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return int(self.easy_preds.shape[0])

    @property
    def routed(self) -> bool:
        """Whether this table carries a gate statistic (dynamic backend)."""
        return self.entropy is not None

    @classmethod
    def build(cls, backend: InferenceBackend, images: np.ndarray) -> "InferenceTable":
        """A batched pass over ``images`` through ``backend``.

        Generic over any :class:`~repro.serving.backends.InferenceBackend`:
        the easy column replays an all-easy routing decision, the hard
        column an all-hard one — the same trick ``warmup`` uses to trace
        both sides of the gate.  The routing pass itself is memoized per
        (gate model, threshold, image pool), so backends sharing one
        entropy gate (e.g. BranchyNet and the hybrid) pay it once.  Every
        backend call carries at most 128 rows, so the fastpath plans the
        pass leaves on a model stay that small.
        """
        images = np.asarray(images)
        decision = _route_cached(backend, images)
        chunks = _chunks(images.shape[0])
        if decision is None:
            preds = [np.asarray(backend.predict(images[rows])) for rows in chunks]
            return cls(easy_preds=np.concatenate(preds))
        easy_preds, hard_preds = [], []
        for rows in chunks:
            x = images[rows]
            entropy = decision.entropy[rows]
            branch = None if decision.predictions is None else decision.predictions[rows]
            for easy, out in ((True, easy_preds), (False, hard_preds)):
                forced = RouteDecision(np.full(x.shape[0], easy), entropy, branch)
                out.append(np.asarray(backend.predict(x, forced)))
        return cls(
            easy_preds=np.concatenate(easy_preds),
            hard_preds=np.concatenate(hard_preds),
            entropy=decision.entropy,
            easy=decision.easy,
        )


class OracleBackend(InferenceBackend):
    """A backend that answers from an :class:`InferenceTable`.

    Timing (and therefore every virtual-clock quantity) is delegated to
    the wrapped backend's calibrated :class:`BatchTiming`; only the
    model work is replaced by table lookups.  The engine-facing contract
    changes in exactly one way: ``route``/``predict`` receive **sample
    ids** (integers indexing the table's image pool) instead of pixel
    arrays, so the request stream must be built from ids — see
    :func:`oracle_backend`.
    """

    oracle = True

    def __init__(self, base: InferenceBackend, table: InferenceTable) -> None:
        super().__init__(base.timing, base.router)
        self.base = base
        self.table = table
        self.name = base.name
        self.in_shape = base.in_shape

    def warmup(
        self, batch_size: int = 256, sample_shape: tuple[int, ...] | None = None
    ) -> None:
        """No-op: the table *is* the warmed state."""

    def route(self, ids: np.ndarray) -> RouteDecision | None:
        """Table lookup of the wrapped backend's routing decision."""
        if not self.table.routed:
            return None
        ids = np.asarray(ids)
        return RouteDecision(
            easy=self.table.easy[ids],
            entropy=self.table.entropy[ids],
            predictions=self.table.easy_preds[ids],
        )

    def predict(
        self, ids: np.ndarray, decision: RouteDecision | None = None
    ) -> np.ndarray:
        """Per-sample predictions honouring the batch's routing decision.

        A modified ``decision`` (e.g. admission control forcing degraded
        requests onto the easy path) selects between the easy and hard
        columns exactly as the live backend would.
        """
        ids = np.asarray(ids)
        if not self.table.routed:
            preds = self.table.easy_preds[ids]
        else:
            easy = self.table.easy[ids] if decision is None else decision.easy
            preds = self.table.easy_preds[ids].copy()
            hard = ~easy
            if hard.any():
                preds[hard] = self.table.hard_preds[ids[hard]]
        return preds


def _anchor_models(backend: InferenceBackend) -> tuple[Module, ...]:
    """The Module objects whose weights determine this backend's outputs.

    Descends one level into plain composite wrappers (e.g. a
    :class:`~repro.core.cbnet.CBNet` holding its autoencoder and
    classifier Modules), so two backends around differently-trained
    pipelines never share a memo key.
    """
    anchors: list[Module] = []
    for value in vars(backend).values():
        if isinstance(value, Module):
            anchors.append(value)
        elif hasattr(value, "__dict__"):
            anchors.extend(
                v for v in vars(value).values() if isinstance(v, Module)
            )
    return tuple(anchors)


# Memoized tables: key -> (images, models, table).  The images/models
# objects are kept as identity anchors (and strong references, so a
# recycled id() can never alias a dead key).
_TABLE_CACHE: dict[tuple, tuple] = {}
_OFFLOAD_CACHE: dict[tuple, tuple] = {}
_GATE_CACHE: dict[tuple, tuple] = {}


def clear_oracle_cache() -> None:
    """Drop every memoized oracle table (tests / memory pressure)."""
    _TABLE_CACHE.clear()
    _OFFLOAD_CACHE.clear()
    _GATE_CACHE.clear()


def _route_cached(backend: InferenceBackend, images: np.ndarray):
    """``backend.route(images)``, memoized per (gate model, threshold, pool).

    Only the standard :class:`~repro.serving.router.EntropyRouter` shape
    (a ``branchynet`` model + threshold) is cached; custom routers fall
    through to a direct pass.  Either way the pool goes to ``route`` in
    calls of at most 128 rows.
    """
    router = backend.router
    model = getattr(router, "branchynet", None)
    if router is None or model is None:
        return _route(backend, images)
    key = (id(model), float(router.threshold), id(images))
    entry = _GATE_CACHE.get(key)
    if entry is None or entry[0] is not model or entry[1] is not images:
        entry = (model, images, _route(backend, images))
        _GATE_CACHE[key] = entry
    return entry[2]


def _route(backend: InferenceBackend, images: np.ndarray) -> RouteDecision | None:
    """``backend.route`` over the pool's chunks, joined row for row."""
    parts = [backend.route(images[rows]) for rows in _chunks(images.shape[0])]
    if parts[0] is None:
        return None
    branch = [part.predictions for part in parts]
    return RouteDecision(
        easy=np.concatenate([part.easy for part in parts]),
        entropy=np.concatenate([part.entropy for part in parts]),
        predictions=None if branch[0] is None else np.concatenate(branch),
    )


def oracle_backend(backend: InferenceBackend, images: np.ndarray) -> OracleBackend:
    """Wrap ``backend`` with a (memoized) table over the unique ``images``.

    The table depends only on the backend's models, its router threshold,
    and the image pool — *not* on the device calibration — so a
    heterogeneous fleet of Pi/CPU/GPU backends around one model shares a
    single precomputation, as does every run of an experiment grid.
    """
    if isinstance(backend, OracleBackend):
        return backend
    models = _anchor_models(backend)
    threshold = float(backend.router.threshold) if backend.router is not None else None
    if not models:
        # No Module anchors means the memo key cannot see the backend's
        # predictive state (e.g. raw-ndarray toy backends): build a fresh
        # table rather than risk serving another instance's predictions.
        return OracleBackend(backend, InferenceTable.build(backend, images))
    key = (
        type(backend).__qualname__,
        backend.name,
        threshold,
        tuple(id(m) for m in models),
        id(images),
    )
    entry = _TABLE_CACHE.get(key)
    if (
        entry is None
        or entry[0] is not images
        or any(a is not b for a, b in zip(entry[1], models))
    ):
        entry = (images, models, InferenceTable.build(backend, images))
        _TABLE_CACHE[key] = entry
    return OracleBackend(backend, entry[2])


class OffloadOracle:
    """Precomputed per-sample outputs for the edge–cloud offload tier.

    The :class:`~repro.offload.engine.EdgeTier` needs four things per
    unique sample: the branch-gate statistic (entropy + branch-exit
    prediction), the local trunk prediction for hard samples kept on the
    edge, and — per (payload kind, wire codec) — the prediction a cloud
    replica produces from the *decoded* payload, so quantized-transfer
    error still reaches the served accuracy.  All are computed once here
    and shared across every policy/codec run of a study.
    """

    def __init__(self, branchynet, images: np.ndarray) -> None:
        from repro.hw.flops import stage_cost

        self.branchynet = branchynet
        self.images = np.ascontiguousarray(images, dtype=np.float32)
        self.entropy, self.branch_preds = branchynet.branch_gate(self.images)
        self.trunk_preds = branchynet.infer(self.images, threshold=-1.0).predictions
        self.input_elems = int(np.prod(self.images.shape[1:]))
        self.stem_elems = int(
            np.prod(stage_cost("stem", branchynet.stem, self.images.shape[1:]).out_shape)
        )
        self._stem: np.ndarray | None = None
        self._decoded: dict[tuple[str, str], np.ndarray] = {}
        self._cloud_tables: dict[tuple[str, str, str], InferenceTable] = {}

    @property
    def n_samples(self) -> int:
        return int(self.images.shape[0])

    def stem_features(self) -> np.ndarray:
        """Shared-stem activations of every unique sample (lazy, cached)."""
        if self._stem is None:
            self._stem = self.branchynet.stem_features(self.images)
        return self._stem

    def boundary_elems(self, payload: str) -> int:
        """Elements of one shipped tensor for a payload kind."""
        return self.stem_elems if payload == "split" else self.input_elems

    def decoded_payloads(self, payload: str, codec) -> np.ndarray:
        """What the cloud sees after the encode/decode wire trip.

        Mirrors the live engine: dtype codecs round-trip the whole batch
        at once, the per-payload quantizers (affine / k-means) pay a
        per-tensor loop because their scale or codebook is per payload.
        """
        key = (payload, codec.dtype)
        if key not in self._decoded:
            raw = self.stem_features() if payload == "split" else self.images
            if codec.dtype in ("float32", "float16"):
                decoded = codec.decode(raw)
            else:
                decoded = np.stack([codec.decode(t) for t in raw])
            self._decoded[key] = decoded
        return self._decoded[key]

    def cloud_table(self, backend: InferenceBackend, payload: str, codec) -> InferenceTable:
        """Memoized table of ``backend`` over the decoded payloads."""
        key = (payload, codec.dtype, type(backend).__qualname__)
        if key not in self._cloud_tables:
            self._cloud_tables[key] = InferenceTable.build(
                backend, self.decoded_payloads(payload, codec)
            )
        return self._cloud_tables[key]


def offload_oracle(branchynet, images: np.ndarray) -> OffloadOracle:
    """Memoized :class:`OffloadOracle` per (model, image pool) pair."""
    key = (id(branchynet), id(images))
    entry = _OFFLOAD_CACHE.get(key)
    if entry is None or entry[0] is not branchynet or entry[1] is not images:
        entry = (branchynet, images, OffloadOracle(branchynet, images))
        _OFFLOAD_CACHE[key] = entry
    return entry[2]
