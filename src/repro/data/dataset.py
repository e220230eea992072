"""Dataset containers.

An image dataset is (images NCHW float32 in [0,1], integer labels), plus
optional per-sample metadata arrays (e.g. the generation-time ``is_hard``
flag, or the BranchyNet-assigned easy/hard label).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["Dataset", "ArrayDataset"]


class Dataset:
    """Abstract random-access dataset of (image, label) pairs."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    @property
    def images(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def labels(self) -> np.ndarray:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """In-memory dataset backed by NumPy arrays.

    Parameters
    ----------
    images:
        float32 array shaped (N, C, H, W), values in [0, 1].
    labels:
        integer array shaped (N,).
    meta:
        optional per-sample arrays, each of length N (e.g. ``is_hard``).
    """

    def __init__(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        meta: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        images = np.asarray(images, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValueError(f"images must be NCHW, got shape {images.shape}")
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise ValueError(
                f"labels must be (N,) matching images: images N={images.shape[0]}, "
                f"labels shape={labels.shape}"
            )
        self._images = images
        self._labels = labels
        self.meta: dict[str, np.ndarray] = {}
        for key, value in (meta or {}).items():
            value = np.asarray(value)
            if value.shape[0] != len(labels):
                raise ValueError(f"meta[{key!r}] length {value.shape[0]} != N {len(labels)}")
            self.meta[key] = value

    def __len__(self) -> int:
        return self._images.shape[0]

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self._images[index], int(self._labels[index])

    @property
    def images(self) -> np.ndarray:
        return self._images

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def num_classes(self) -> int:
        return int(self._labels.max()) + 1 if len(self) else 0

    def select(self, indices: np.ndarray | Sequence[int]) -> "ArrayDataset":
        """Row-subset by index array (meta columns follow along)."""
        indices = np.asarray(indices)
        return ArrayDataset(
            self._images[indices],
            self._labels[indices],
            {k: v[indices] for k, v in self.meta.items()},
        )

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self._labels == label)

