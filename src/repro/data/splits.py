"""Stratified subsetting."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import as_generator, stratified_indices

__all__ = ["stratified_subset"]


def stratified_subset(
    dataset: ArrayDataset,
    fraction: float,
    rng: np.random.Generator | int | None = None,
    by: str | None = None,
) -> ArrayDataset:
    """Subset preserving class balance (and, via ``by``, any meta column).

    The scalability experiments (Figs 6-8) stratify on the *joint* key of
    class label and hard/easy flag, so the hard-image proportion stays
    constant as the dataset-size ratio shrinks — exactly the paper's
    protocol ("the proportion of hard test images used in each experiment
    remained roughly the same").
    """
    rng = as_generator(rng)
    labels = dataset.labels
    if by is not None:
        if by not in dataset.meta:
            raise KeyError(f"meta column {by!r} not present; have {sorted(dataset.meta)}")
        flag = dataset.meta[by].astype(np.int64)
        joint = labels * 2 + flag  # unique id per (class, flag) pair
        idx = stratified_indices(joint, fraction, rng)
    else:
        idx = stratified_indices(labels, fraction, rng)
    return dataset.select(idx)
