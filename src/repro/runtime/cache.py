"""Content-addressed result cache: one JSON and one npz file per entry.

Layout under ``cache_dir``::

    objects/<key>.json    job summary + the SolveResult envelope's meta;
                          its mtime is the entry's last use
    objects/<key>.npz     solution arrays

The key is ``sha256(graph_fingerprint : solve_digest)`` (see
:meth:`~repro.api.SolveRequest.cache_key`, built on
:meth:`~repro.api.SolveRequest.solve_digest`), so identical inputs solved
with identical requests hit the same entry no matter how the graph was
produced or which process stored it.

The objects directory is the only index, and the serve layer makes
concurrent access the norm.  An entry exists while its meta file does and
every read opens that file, so an instance hits what another process
stored after it opened and misses cleanly what another removed; a torn or
foreign meta file is a miss, never an exception.  Each object file lands by
atomic rename from its writer's own temp file (``write_atomic``), and an
``RLock`` lets threads (the service's solve threads and its event loop)
share one instance.  Puts and hits stamp the meta file (``mark_used``).  An
instance counts the entries of its last listing plus its puts since; past
``max_entries`` a put lists the meta files (``by_last_use``, all three in
:mod:`repro.graphs.store`) outside the lock and evicts the least recently
used down to ``max_entries - max_entries // 16``, so a full cache of 4096
entries lists once per 256 puts.
"""

from __future__ import annotations

import io
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..api import SolveResult
from ..graphs.store import by_last_use, mark_used, write_atomic

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
        self._entries = len(self._metas())  # at the last listing, plus puts since

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def _meta_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.npz"

    def _metas(self) -> list[Path]:
        return list(self.objects_dir.glob("*.json"))

    # ------------------------------------------------------------------ #
    # Core API
    # ------------------------------------------------------------------ #

    def __contains__(self, key: str) -> bool:
        return self._meta_path(key).exists()

    def __len__(self) -> int:
        return len(self._metas())

    def get(self, key: str) -> CacheEntry | None:
        """Look up a key; a hit stamps it most recently used.

        Tolerant by contract: a vanished, torn, or foreign object file is a
        *miss* (and a torn entry is discarded), never an exception —
        concurrent writers and crash debris must not take a serving process
        down.
        """
        with self._lock:
            meta_path = self._meta_path(key)
            try:
                with meta_path.open() as fh:
                    stored = json.load(fh)
                job = stored["job"]
            except FileNotFoundError:
                return None  # never stored, or removed by another process
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                # Torn (crash mid-write predating atomic renames,
                # out-of-band tampering).
                self.discard(key)
                return None
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
        meta's absence) a clean miss, never a torn one.  A temp file that a
        concurrent :meth:`clear` removed drops the put: the clear wins.
        """
        with self._lock:
            stored = {"key": key, "job": job, "result_meta": result_meta}
            npz = io.BytesIO()
            np.savez_compressed(npz, **arrays)
            meta_path = self._meta_path(key)
            try:
                write_atomic(self._npz_path(key), npz.getvalue())
                write_atomic(meta_path, json.dumps(stored, sort_keys=True).encode())
            except FileNotFoundError:
                return
            mark_used(meta_path)
            self._entries += 1
            if self._entries <= self.max_entries:
                return
            self._entries = 0  # the listing recounts; puts meanwhile add on
        self._evict()

    def _evict(self) -> None:
        """List the meta files and, past ``max_entries``, discard the least
        recently used down to ``max_entries - max_entries // 16``."""
        metas = by_last_use(self._metas())
        keep = len(metas)
        if keep > self.max_entries:
            keep = self.max_entries - self.max_entries // 16
        for meta_path in metas[: len(metas) - keep]:
            self.discard(meta_path.stem)
        with self._lock:
            self._entries += keep

    def discard(self, key: str) -> None:
        """Unlink ``key``'s files (eviction, or an entry found unreadable,
        so that the next request solves it afresh)."""
        with self._lock:
            self._meta_path(key).unlink(missing_ok=True)
            self._npz_path(key).unlink(missing_ok=True)

    def clear(self) -> int:
        """Remove every file under ``objects/``, crash debris included;
        returns how many entries (meta files) were dropped."""
        with self._lock:
            dropped = 0
            for path in self.objects_dir.iterdir():
                dropped += path.suffix == ".json"
                path.unlink(missing_ok=True)
            self._entries = 0
            return dropped

    def disk_usage(self) -> int:
        """Total bytes of the files under ``objects/``."""
        total = 0
        for p in self.objects_dir.iterdir():
            try:
                total += p.stat().st_size
            except OSError:
                continue  # concurrently evicted by another process
        return total

    def keys(self) -> list[str]:
        """Keys in LRU order (oldest first)."""
        return [meta_path.stem for meta_path in by_last_use(self._metas())]

    def __repr__(self) -> str:
        return (
            f"ResultCache({os.fspath(self.dir)!r}, entries={len(self)}, "
            f"max_entries={self.max_entries})"
        )
