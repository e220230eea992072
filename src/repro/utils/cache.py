"""Disk caching for expensive artifacts (trained models, labelled datasets).

Experiments share trained substrates: Table II, Fig 5, and Figs 6-8 all
need the same trained BranchyNet/CBNet per dataset.  The cache keys on a
stable hash of the experiment configuration so a full benchmark session
trains each pipeline exactly once.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable

__all__ = ["stable_hash", "ArtifactCache", "default_cache_dir"]


def default_cache_dir() -> Path:
    """Resolve the artifact cache directory (override: ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / "repro-cache"


def stable_hash(obj: Any) -> str:
    """Deterministic hash of a JSON-serializable configuration object."""
    blob = json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "__dict__"):
        return {"__class__": type(obj).__name__, **_jsonable(vars(obj))}
    return repr(obj)


class ArtifactCache:
    """Pickle-backed artifact store keyed by configuration hash."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: Any) -> Path:
        return self.root / f"{stable_hash(key)}.pkl"

    def get(self, key: Any) -> Any | None:
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, OSError):
            # A corrupt cache entry (e.g. interrupted write) is treated as
            # a miss; the artifact is recomputed and rewritten atomically.
            return None

    def put(self, key: Any, value: Any) -> Path:
        path = self.path_for(key)
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)  # atomic on POSIX: readers never see partial files
        return path

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        found = self.get(key)
        if found is not None:
            return found
        value = compute()
        self.put(key, value)
        return value
