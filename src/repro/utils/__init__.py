"""Shared utilities: deterministic RNG plumbing, logging, the artifact cache."""

from repro.utils.rng import as_generator
from repro.utils.logging import get_logger
from repro.utils.cache import ArtifactCache

__all__ = [
    "as_generator",
    "get_logger",
    "ArtifactCache",
]
