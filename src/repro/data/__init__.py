"""`repro.data` — dataset substrate.

The paper evaluates on MNIST, Fashion-MNIST and Kuzushiji-MNIST.  Offline,
those archives are unavailable, so :mod:`repro.data.synth` procedurally
generates drop-in equivalents: 28x28 grayscale, 10 classes, with a
controlled fraction of *hard* samples (blur/noise/occlusion/warp) tuned so
BranchyNet's early-exit rates match the paper (see DESIGN.md §2).
"""

from repro.data.dataset import Dataset, ArrayDataset
from repro.data.dataloader import DataLoader
from repro.data.splits import stratified_subset
from repro.data.synth.registry import load_dataset, DATASET_SPECS, SyntheticSpec

__all__ = [
    "Dataset",
    "ArrayDataset",
    "DataLoader",
    "stratified_subset",
    "load_dataset",
    "DATASET_SPECS",
    "SyntheticSpec",
]
