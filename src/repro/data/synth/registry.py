"""Dataset registry: named synthetic datasets with paper-matched hard
fractions, disk caching, and parallel generation.

``load_dataset("fmnist", ...)`` is the single entry point the rest of the
library uses; it returns train/test :class:`ArrayDataset` objects whose
``meta["is_hard"]`` column records the *generation-time* difficulty flag
(ground truth for diagnostics — the operational easy/hard label used to
train the autoencoder comes from BranchyNet, see
:mod:`repro.core.labeling`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.synth.corruption import corrupt_batch
from repro.data.synth.digits import render_digits
from repro.data.synth.fashion import render_fashion
from repro.data.synth.kuzushiji import render_kuzushiji
from repro.utils.cache import ArtifactCache
from repro.utils.rng import as_generator, derive_seed

__all__ = [
    "SyntheticSpec",
    "DATASET_SPECS",
    "generate_split",
    "generate_split_parallel",
    "load_dataset",
    "clear_dataset_memo",
]

Renderer = Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset.

    ``hard_fraction`` values are tuned to the paper: MNIST has ~5% hard
    images, FMNIST ~23% (Fig. 3), and KMNIST ~37% (from the 63.08%
    early-exit rate reported in §IV-D).
    """

    name: str
    renderer: Renderer
    hard_fraction: float
    num_classes: int = 10
    side: int = 28
    default_train: int = 6000
    default_test: int = 1000
    # Nuisance magnitude for *clean* samples (1.0 = renderer default).
    # Lower values make easy samples more prototypical, which sharpens
    # branch confidence — the knob that aligns each dataset's early-exit
    # rate with the paper's measured operating point.
    jitter: float = 1.0
    # Corruption recipe for hard samples.
    severity_range: tuple[float, float] = (0.35, 1.0)
    ops_per_sample: tuple[int, int] = (1, 2)
    corruption_ops: tuple[str, ...] | None = None


DATASET_SPECS: dict[str, SyntheticSpec] = {
    "mnist": SyntheticSpec(
        name="mnist", renderer=render_digits, hard_fraction=0.05, jitter=0.72
    ),
    # FMNIST hard recipe: detail-destroying but silhouette-preserving ops
    # (no occlusion) — confuses the early-exit branch, which keys on fine
    # texture, while leaving enough shape for the converting autoencoder
    # to recover the class, matching the paper's accuracy ordering
    # (CBNet >= BranchyNet on FMNIST).
    "fmnist": SyntheticSpec(
        name="fmnist",
        renderer=render_fashion,
        hard_fraction=0.23,
        severity_range=(0.8, 1.0),
        ops_per_sample=(2, 3),
        corruption_ops=("scribble", "blur", "noise", "elastic", "lowres"),
    ),
    "kmnist": SyntheticSpec(
        name="kmnist",
        renderer=render_kuzushiji,
        hard_fraction=0.37,
        jitter=0.8,
        severity_range=(0.5, 1.0),
    ),
}


def _balanced_labels(n: int, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly class-balanced label vector, shuffled (MNIST-family style)."""
    per = n // num_classes
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per)
    remainder = n - labels.size
    if remainder:
        labels = np.concatenate([labels, rng.choice(num_classes, remainder, replace=False)])
    rng.shuffle(labels)
    return labels


def generate_split(
    spec: SyntheticSpec,
    n: int,
    seed: int,
    hard_fraction: float | None = None,
) -> ArrayDataset:
    """Generate one split of ``n`` samples.

    Returns an :class:`ArrayDataset` with NCHW float32 images in [0, 1]
    and meta columns ``is_hard`` (bool) and ``severity`` (float, 0 for
    easy samples).
    """
    if n <= 0:
        raise ValueError(f"split size must be positive, got {n}")
    rng = as_generator(seed)
    hf = spec.hard_fraction if hard_fraction is None else hard_fraction
    if not 0.0 <= hf < 1.0:
        raise ValueError(f"hard_fraction must be in [0, 1), got {hf}")

    labels = _balanced_labels(n, spec.num_classes, rng)
    images = spec.renderer(labels, rng, jitter=spec.jitter)  # (N, H, W)

    n_hard = int(round(hf * n))
    is_hard = np.zeros(n, dtype=bool)
    if n_hard:
        hard_idx = rng.choice(n, size=n_hard, replace=False)
        is_hard[hard_idx] = True
        images[hard_idx] = corrupt_batch(
            images[hard_idx],
            rng,
            severity_range=spec.severity_range,
            ops_per_sample=spec.ops_per_sample,
            op_names=list(spec.corruption_ops) if spec.corruption_ops else None,
        )
    severity = np.where(is_hard, 1.0, 0.0).astype(np.float32)
    return ArrayDataset(
        images[:, None, :, :],  # add channel axis → NCHW
        labels,
        meta={"is_hard": is_hard, "severity": severity},
    )


# Chunk size for parallel generation.  Fixed (not worker-dependent) so
# the generated dataset is bit-identical regardless of worker count: each
# chunk's RNG stream is derived from (seed, chunk index) alone.
_PARALLEL_CHUNK = 1000


def _generate_chunk(args: tuple[str, int, int, float | None]) -> ArrayDataset:
    """Module-level worker (must be picklable for the process pool)."""
    spec_name, chunk_n, chunk_seed, hard_fraction = args
    return generate_split(DATASET_SPECS[spec_name], chunk_n, chunk_seed, hard_fraction)


def generate_split_parallel(
    spec: SyntheticSpec,
    n: int,
    seed: int,
    hard_fraction: float | None = None,
    n_workers: int | None = None,
) -> ArrayDataset:
    """Generate a split by fanning fixed-size chunks over a process pool.

    Deterministic for a given ``seed`` independent of ``n_workers`` (each
    chunk derives its own RNG stream); falls back to the serial generator
    below the chunk size.
    """
    from repro.parallel.pool import parallel_map

    if n <= _PARALLEL_CHUNK:
        return generate_split(spec, n, seed, hard_fraction)
    sizes = [_PARALLEL_CHUNK] * (n // _PARALLEL_CHUNK)
    if n % _PARALLEL_CHUNK:
        sizes.append(n % _PARALLEL_CHUNK)
    jobs = [
        (spec.name, size, derive_seed(seed, "chunk", i), hard_fraction)
        for i, size in enumerate(sizes)
    ]
    chunks = parallel_map(_generate_chunk, jobs, n_workers=n_workers)
    return ArrayDataset(
        np.concatenate([c.images for c in chunks], axis=0),
        np.concatenate([c.labels for c in chunks], axis=0),
        meta={
            key: np.concatenate([c.meta[key] for c in chunks], axis=0)
            for key in chunks[0].meta
        },
    )


def load_dataset(
    name: str,
    n_train: int | None = None,
    n_test: int | None = None,
    seed: int = 0,
    hard_fraction: float | None = None,
    cache: bool = True,
) -> dict[str, ArrayDataset]:
    """Load (or generate and cache) a named dataset.

    Returns ``{"train": ArrayDataset, "test": ArrayDataset}``.  Train and
    test derive from disjoint sub-seeds of ``seed``.  Generation of large
    splits fans out over a process pool (deterministic per seed).

    Cached loads are additionally memoized in-process, so repeat calls
    within one experiment run return the *same* dataset objects: treat
    them as read-only (copy before mutating), and see
    :func:`clear_dataset_memo` for releasing them.
    """
    if name not in DATASET_SPECS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASET_SPECS)}")
    spec = DATASET_SPECS[name]
    n_train = spec.default_train if n_train is None else n_train
    n_test = spec.default_test if n_test is None else n_test

    def build() -> dict[str, ArrayDataset]:
        return {
            "train": generate_split_parallel(
                spec, n_train, derive_seed(seed, name, "train"), hard_fraction
            ),
            "test": generate_split_parallel(
                spec, n_test, derive_seed(seed, name, "test"), hard_fraction
            ),
        }

    if not cache:
        return build()
    key = {
        "kind": "synthetic-dataset",
        "name": name,
        "n_train": n_train,
        "n_test": n_test,
        "seed": seed,
        "hard_fraction": hard_fraction,
        # The generation recipe is part of the identity: editing a spec's
        # difficulty knobs must invalidate cached datasets.
        "spec": {
            "jitter": spec.jitter,
            "severity_range": list(spec.severity_range),
            "ops_per_sample": list(spec.ops_per_sample),
            "corruption_ops": list(spec.corruption_ops) if spec.corruption_ops else None,
            "spec_hard_fraction": spec.hard_fraction,
        },
        "version": 5,  # bump to invalidate caches when renderer *code* changes
    }
    memo_key = json.dumps(key, sort_keys=True)
    datasets = _MEMO.get(memo_key)
    if datasets is None:
        datasets = ArtifactCache().get_or_compute(key, build)
        _MEMO[memo_key] = datasets
    return datasets


# In-process memo over the disk cache: an experiment run asks for the
# same (dataset, sizes, seed) many times — once per study — and should
# pay the deserialization once.  Returned datasets are shared objects;
# callers treat them as read-only (everything downstream indexes, never
# mutates).
_MEMO: dict[str, dict[str, ArrayDataset]] = {}


def clear_dataset_memo() -> None:
    """Drop the in-process dataset memo (tests / memory pressure).

    Long-lived processes touching many (dataset, size, seed) variants
    accumulate them here for the process lifetime; this releases them
    (the disk cache is untouched, so the next ``load_dataset`` is still
    a deserialize, not a regeneration).
    """
    _MEMO.clear()
