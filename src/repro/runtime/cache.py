"""Content-addressed result cache: one JSON and one npz file per entry.

Layout under ``cache_dir``::

    objects/<key>.json    job summary + the SolveResult envelope's meta;
                          its mtime is the entry's last use
    objects/<key>.npz     solution arrays

The key is ``sha256(graph_fingerprint : solve_digest)`` (see
:meth:`~repro.api.SolveRequest.cache_key`, built on
:meth:`~repro.api.SolveRequest.solve_digest`), so identical inputs solved
with identical requests hit the same entry no matter how the graph was
produced or which process stored it.  The objects directory is the index:
every put and hit stamps the entry's meta file
(:func:`~repro.graphs.store.mark_used`), and opening a cache lists the meta
files least recently used first (:func:`~repro.graphs.store.by_last_use`)
to rebuild the LRU order.

Concurrency: the serve layer makes concurrent access the norm, so the
cache is safe under it by construction rather than by convention.  All
object writes are atomic renames (``.json.tmp`` / ``.npz.tmp`` →
``os.replace``), so a reader never observes a half-written object; reads
are *tolerant* — a torn or foreign meta file counts as a miss instead of
raising — and the in-process state is guarded by an ``RLock`` so one
``ResultCache`` instance can be shared across threads (the service's
solve threads and its event loop).  Cross-process, any number of readers
and writers may share a directory: last put wins on identical
content-addressed keys, no process can lose the record of another's
entries, and each evicts from the entries it knows (those listed when it
opened, plus its own puts).
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..api import SolveResult
from ..graphs.store import by_last_use, mark_used

__all__ = ["CacheEntry", "ResultCache"]


@dataclass
class CacheEntry:
    """A resolved cache hit; arrays load lazily from the npz object."""

    key: str
    job: dict  # stored JobResult dict (summary of the original solve)
    result_meta: dict | None  # SolveResult.to_payload() meta
    npz_path: Path

    def arrays(self) -> dict[str, np.ndarray]:
        with np.load(self.npz_path) as z:
            return {name: z[name].copy() for name in z.files}

    def trace(self) -> list | None:
        """The solve's recorded span list, if the job ran traced."""
        if self.result_meta is None:
            return None
        return self.result_meta.get("trace")

    def load_result(self) -> SolveResult | None:
        """Rebuild the stored :class:`~repro.api.SolveResult` envelope —
        solution array, model snapshot, and (for simulated MIS/matching)
        the full per-iteration record — or ``None`` if none was stored."""
        if self.result_meta is None:
            return None
        return SolveResult.from_payload(self.result_meta, self.arrays())


class ResultCache:
    """LRU-evicting, content-addressed store of finished solves."""

    def __init__(self, cache_dir: str | Path, *, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.dir = Path(cache_dir)
        self.objects_dir = self.dir / "objects"
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._lru: OrderedDict[str, None] = OrderedDict.fromkeys(
            path.stem for path in by_last_use(self.objects_dir.glob("*.json"))
        )

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def _meta_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.npz"

    # ------------------------------------------------------------------ #
    # Core API
    # ------------------------------------------------------------------ #

    def __contains__(self, key: str) -> bool:
        return key in self._lru

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: str) -> CacheEntry | None:
        """Look up a key; a hit refreshes its LRU position.

        Tolerant by contract: a vanished, torn, or foreign object file is a
        *miss* (and the entry is discarded), never an exception — concurrent
        writers and crash debris must not take a serving process down.
        """
        with self._lock:
            if key not in self._lru:
                return None
            meta_path = self._meta_path(key)
            try:
                with meta_path.open() as fh:
                    stored = json.load(fh)
                job = stored["job"]
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                # Evicted by another process, or torn (crash mid-write
                # predating atomic renames, out-of-band tampering).
                self.discard(key)
                return None
            self._lru.move_to_end(key)
            mark_used(meta_path)
            return CacheEntry(
                key=key,
                job=job,
                result_meta=stored.get("result_meta"),
                npz_path=self._npz_path(key),
            )

    def put(
        self,
        key: str,
        job: dict,
        arrays: dict[str, np.ndarray],
        result_meta: dict | None = None,
    ) -> None:
        """Store a finished solve under ``key`` (idempotent overwrite).

        Both object files land via atomic rename — npz first, meta second —
        so a concurrent reader either sees the complete entry or (from the
        meta's absence) a clean miss, never a torn one.
        """
        with self._lock:
            stored = {"key": key, "job": job, "result_meta": result_meta}
            npz_path = self._npz_path(key)
            npz_tmp = npz_path.with_suffix(".npz.tmp")
            with npz_tmp.open("wb") as fh:
                np.savez_compressed(fh, **arrays)
            npz_tmp.replace(npz_path)
            meta_path = self._meta_path(key)
            tmp = meta_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(stored, sort_keys=True))
            tmp.replace(meta_path)
            mark_used(meta_path)
            self._lru[key] = None
            self._lru.move_to_end(key)
            while len(self._lru) > self.max_entries:
                self.discard(next(iter(self._lru)))  # least recently used

    def discard(self, key: str) -> None:
        """Drop ``key`` and unlink its files (eviction, or an entry found
        unreadable, so that the next request solves it afresh)."""
        with self._lock:
            self._lru.pop(key, None)
            self._meta_path(key).unlink(missing_ok=True)
            self._npz_path(key).unlink(missing_ok=True)

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        with self._lock:
            keys = list(self._lru)
            for key in keys:
                self.discard(key)
            return len(keys)

    def disk_usage(self) -> int:
        """Total bytes of the stored objects."""
        total = 0
        for p in self.objects_dir.iterdir():
            try:
                total += p.stat().st_size
            except OSError:
                continue  # concurrently evicted by another process
        return total

    def keys(self) -> list[str]:
        """Keys in LRU order (oldest first)."""
        with self._lock:
            return list(self._lru)

    def __repr__(self) -> str:
        return (
            f"ResultCache({os.fspath(self.dir)!r}, entries={len(self._lru)}, "
            f"max_entries={self.max_entries})"
        )
