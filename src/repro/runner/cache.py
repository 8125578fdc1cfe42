"""On-disk, content-addressed cache of serialized run results.

Layout: ``<directory>/<key[:2]>/<key>.json`` — one JSON document per
result, sharded by the first key byte so huge sweeps don't produce one
gigantic flat directory.  Writes are atomic (tempfile + rename), so a
crashed or concurrently-writing process can never leave a torn entry;
corrupt or format-incompatible entries read as misses and are simply
recomputed.

Invalidation is purely key-side: a key embeds the request *and* a
fingerprint of the simulator source (see :mod:`repro.runner.keys`), so
stale entries are never returned — they just linger until
``python -m repro cache clear`` removes them.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..sim.results import RunResult, result_from_dict, result_to_dict

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-heb``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-heb"


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of what the cache directory holds."""

    directory: str
    entries: int
    total_bytes: int


class ResultCache:
    """Maps cache keys (hex SHA-256) to serialized :class:`RunResult`."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (miss/corrupt entry)."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            # Valid JSON that is not an object ([], null, 3, "x") is a
            # corrupt entry too.
            if isinstance(payload, dict):
                return result_from_dict(payload)
        except (OSError, ValueError, RecursionError):
            # Unreadable, not UTF-8 or not JSON, or nested too deeply
            # for the parser: a miss, and the run is recomputed.
            pass
        return None

    def put(self, key: str, result: RunResult) -> None:
        """Store a result atomically under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(result_to_dict(result), sort_keys=True,
                             separators=(",", ":"))
        handle, tmp_name = tempfile.mkstemp(dir=path.parent,
                                            suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        return self.stats().entries

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("??/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for shard in self.directory.glob("??"):
            try:
                shard.rmdir()
            except OSError:
                pass  # non-empty (stray files) — leave it
        return removed

    def stats(self) -> CacheStats:
        """Entry count and total size on disk."""
        entries = 0
        total_bytes = 0
        for path in self.directory.glob("??/*.json"):
            try:
                total_bytes += path.stat().st_size
                entries += 1
            except OSError:
                pass
        return CacheStats(directory=str(self.directory), entries=entries,
                          total_bytes=total_bytes)
