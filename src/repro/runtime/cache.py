"""Content-addressed result cache (npz + JSONL on disk).

Layout under ``cache_dir``::

    index.jsonl           append-only op log: {"op": "put"|"touch"|"evict", ...}
    objects/<key>.json    job summary + the SolveResult envelope's meta
    objects/<key>.npz     solution arrays

The key is ``sha256(graph_fingerprint : solve_digest)`` (see
:meth:`~repro.api.SolveRequest.cache_key`, built on
:meth:`~repro.api.SolveRequest.solve_digest`), so identical inputs solved
with identical requests hit the same entry no matter how the graph was
produced or which process stored it.  The JSONL log is replayed on open to
rebuild LRU order; it is compacted when it grows far past the live entry
count.

Concurrency: the serve layer makes concurrent access the norm, so the
cache is safe under it by construction rather than by convention.  All
object writes are atomic renames (``.json.tmp`` / ``.npz.tmp`` →
``os.replace``), so a reader never observes a half-written object; reads
are *tolerant* — a torn or foreign meta file counts as a miss instead of
raising — and the in-process state is guarded by an ``RLock`` so one
``ResultCache`` instance can be shared across threads (the service's
solve threads and its event loop).  Cross-process, any number of readers
are safe alongside writers; multiple writers degrade gracefully
(last-put-wins on identical content-addressed keys, torn index lines are
skipped on replay), though routing writes through one scheduler per
directory — what the serve layer does — keeps the LRU log tight.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..api import SolveResult

__all__ = ["CacheEntry", "CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Per-process counters plus on-disk totals."""

    entries: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    disk_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "disk_bytes": self.disk_bytes,
            "hit_rate": self.hit_rate,
        }


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
        self.index_path = self.dir / "index.jsonl"
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._lru: OrderedDict[str, float] = OrderedDict()  # key -> stored-at
        self._ops_replayed = 0
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._replay()
        with self._lock:
            self._maybe_compact()

    # ------------------------------------------------------------------ #
    # Index log
    # ------------------------------------------------------------------ #

    def _replay(self) -> None:
        if not self.index_path.exists():
            return
        with self.index_path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    op = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail write; ignore
                self._ops_replayed += 1
                key = op.get("key", "")
                kind = op.get("op")
                if kind == "put":
                    self._lru[key] = float(op.get("at", 0.0))
                    self._lru.move_to_end(key)
                elif kind == "touch" and key in self._lru:
                    self._lru.move_to_end(key)
                elif kind == "evict":
                    self._lru.pop(key, None)
        # Drop index entries whose object files vanished out-of-band.
        for key in [k for k in self._lru if not self._meta_path(k).exists()]:
            del self._lru[key]
        self.stats.entries = len(self._lru)

    def _append(self, op: dict) -> None:
        with self.index_path.open("a") as fh:
            fh.write(json.dumps(op, sort_keys=True) + "\n")
        self._ops_replayed += 1

    def _maybe_compact(self) -> None:
        if self._ops_replayed <= 4 * max(len(self._lru), 1) + 64:
            return
        tmp = self.index_path.with_suffix(".jsonl.tmp")
        with tmp.open("w") as fh:
            for key, at in self._lru.items():
                fh.write(json.dumps({"op": "put", "key": key, "at": at}) + "\n")
        tmp.replace(self.index_path)
        self._ops_replayed = len(self._lru)

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
        """Look up a key; counts a hit/miss and refreshes LRU position.

        Tolerant by contract: a vanished, torn, or foreign object file is a
        *miss* (and the key is dropped from the in-process LRU), never an
        exception — concurrent writers and crash debris must not take a
        serving process down.
        """
        with self._lock:
            meta_path = self._meta_path(key)
            if key not in self._lru or not meta_path.exists():
                self.stats.misses += 1
                return None
            try:
                with meta_path.open() as fh:
                    stored = json.load(fh)
                job = stored["job"]
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                # Torn entry (crash mid-write predating atomic renames,
                # out-of-band tampering): treat as a miss and forget it.
                self._lru.pop(key, None)
                self.stats.entries = len(self._lru)
                self.stats.misses += 1
                return None
            self._lru.move_to_end(key)
            self._append({"op": "touch", "key": key})
            self._maybe_compact()  # all-warm workloads never put(); bound the log
            self.stats.hits += 1
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
            tmp = self._meta_path(key).with_suffix(".json.tmp")
            tmp.write_text(json.dumps(stored, sort_keys=True))
            tmp.replace(self._meta_path(key))
            at = time.time()
            self._lru[key] = at
            self._lru.move_to_end(key)
            self._append({"op": "put", "key": key, "at": at})
            self.stats.stores += 1
            self.stats.entries = len(self._lru)
            while len(self._lru) > self.max_entries:
                self._evict_one()
            self._maybe_compact()

    def _evict_one(self) -> None:
        victim, _ = self._lru.popitem(last=False)  # least recently used
        self._meta_path(victim).unlink(missing_ok=True)
        self._npz_path(victim).unlink(missing_ok=True)
        self._append({"op": "evict", "key": victim})
        self.stats.evictions += 1
        self.stats.entries = len(self._lru)

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._lru)
            for key in list(self._lru):
                self._meta_path(key).unlink(missing_ok=True)
                self._npz_path(key).unlink(missing_ok=True)
            self._lru.clear()
            self.index_path.unlink(missing_ok=True)
            self._ops_replayed = 0
            self.stats.entries = 0
            return dropped

    def disk_usage(self) -> int:
        """Total bytes of stored objects + index."""
        total = 0
        if self.index_path.exists():
            total += self.index_path.stat().st_size
        for p in self.objects_dir.iterdir():
            try:
                total += p.stat().st_size
            except OSError:
                continue  # concurrently evicted by another process
        self.stats.disk_bytes = total
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
