"""Out-of-core graph store: disk-backed, memory-mapped CSR shards.

This module is the other half of the paper's low-space story applied to
the harness itself: no process needs to hold a whole input.  Graphs are
built *once*, shard by row range, into plain ``.npy`` files that workers
open with ``np.load(mmap_mode="r")`` — every runtime job ships a
fingerprint instead of a buffer, and peak RSS is bounded by the OS page
cache, not the materialised edge list.

Layout under ``root`` (content-addressed, mirroring
:class:`~repro.runtime.cache.ResultCache` conventions)::

    sources/<call digest>     the fingerprint that generator call produced
                              (a miss once that object is gone)
    objects/<fingerprint>/
        meta.json             n, m, shard table, per-file sha256 checksums;
                              its mtime is the object's last use
        edges_u.npy           int64[m]   canonical edge endpoints (u < v)
        edges_v.npy           int64[m]
        indptr.npy            int64[n+1] CSR row pointers
        indices.npy           int64[2m]  CSR neighbour ids
        arc_edge_ids.npy      int64[2m]  undirected edge id per arc

The five arrays are exactly :meth:`Graph.from_csr_arrays`'s inputs, written
incrementally shard-by-shard (each shard owns a contiguous row range, hence
a contiguous slice of every array), so the full edge list never exists in
the building process either.  The fingerprint is byte-identical to
:func:`~repro.graphs.io.graph_fingerprint` of the equivalent in-memory
graph — computed by a chunked second pass over the written endpoint files —
which is what makes store keys interchangeable with the result cache's
content addressing.

Integrity: writes build in a temp directory named after the writer's pid,
``objects/.tmp-put-<pid>-*``, and ``os.rename`` into place (atomic on
POSIX); ``repro store gc`` removes such a directory only once its writer
has exited.  ``meta.json`` records a sha256 per array file, and
:meth:`GraphStore.verify` / ``repro store gc`` recheck them.  The per-job
open path (:func:`open_stored_graph`) does O(1) structural checks only —
checksumming 100 MB of shards per job would defeat the mmap — and the
runtime worker falls back to regenerating from the spec on *any* open
failure, so a corrupt shard degrades to a warning, not a failed job.  An
unreadable ``meta.json`` is a miss: :meth:`GraphStore.lookup` drops the
entry and the caller rebuilds it.

The disk is the only index, for the store and the result cache alike: an
object exists while its meta file does, every read opens that file, and
:func:`mark_used` stamps it on every put, hit and open.  So processes
sharing a directory see each other's objects as soon as they land, and a
build that finds another writer's object in place keeps it (a dedup hit).
An instance counts the bytes of its last listing plus its puts since; past
the budget a put lists the objects (:func:`by_last_use`), evicts the least
recently used down to a sixteenth below the budget, and drops the
``sources/`` files naming what it removed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..obs import trace as _obs
from ..obs.metrics import METRICS
from .graph import CSR_ARRAY_FILES, Graph
from .io import graph_fingerprint, graph_fingerprint_stream
from .streaming import edge_count_upper_bound, stream_blocks

__all__ = [
    "ARRAY_FILES",
    "GraphStore",
    "NpyAppendWriter",
    "StoreCorruptError",
    "StoreMissError",
    "StoredGraphInfo",
    "build_csr_shards",
    "by_last_use",
    "mark_used",
    "open_stored_graph",
    "write_atomic",
]

#: The array files of one stored graph, in on-disk (and hash) order —
#: exactly :data:`repro.graphs.graph.CSR_ARRAY_FILES`.
ARRAY_FILES = CSR_ARRAY_FILES

#: Target directed arcs per shard during a build (~32 MB of int64 per
#: in-flight array); the shard *count* is planning detail, the stored
#: arrays are identical for any value.
TARGET_ARCS_PER_SHARD = 1 << 22

#: Hard cap on shards (bounds open spill-file handles during a build).
MAX_SHARDS = 512

#: Bytes hashed per chunk in the fingerprint / checksum passes.
_HASH_CHUNK = 1 << 22

_META_VERSION = 1

#: A build is ``objects/.tmp-put-<writer pid>-*`` until its rename.
_BUILD_PREFIX = ".tmp-put-"


class StoreMissError(KeyError):
    """The requested fingerprint is not in the store."""


class StoreCorruptError(RuntimeError):
    """A stored object exists but fails structural/integrity checks."""


@dataclass(frozen=True)
class StoredGraphInfo:
    """What the scheduler needs to dispatch a store-backed job: identity
    and size, without materialising anything.  ``hit`` records whether the
    entry already existed (shard hit) or was built by this call."""

    fingerprint: str
    n: int
    m: int
    hit: bool = False


# --------------------------------------------------------------------- #
# Incremental .npy writing
# --------------------------------------------------------------------- #

_NPY_MAGIC = b"\x93NUMPY" + bytes((1, 0))
#: Fixed total header size (multiple of 64, as the npy format requires of
#: header+magic); leaves ~90 chars for the dict — enough for any 1-D shape.
_NPY_HEADER_TOTAL = 128


class NpyAppendWriter:
    """Write a 1-D ``.npy`` file incrementally, patching the shape on close.

    The npy v1 header is emitted up front at a fixed padded length with a
    placeholder shape; :meth:`append` streams raw chunks; :meth:`close`
    seeks back and rewrites the header with the final element count.  The
    result is a completely standard file that ``np.load(mmap_mode="r")``
    maps without copying.
    """

    def __init__(self, path: str | Path, dtype: str = "<i8") -> None:
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self.count = 0
        self._fh = self.path.open("wb")
        self._fh.write(self._header(0))

    def _header(self, count: int) -> bytes:
        body = (
            "{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }"
            % (self.dtype.str, count)
        ).encode("latin1")
        pad = _NPY_HEADER_TOTAL - len(_NPY_MAGIC) - 2 - len(body) - 1
        if pad < 0:  # pragma: no cover - shapes are bounded well below this
            raise ValueError("npy header does not fit its fixed padding")
        return _NPY_MAGIC + struct.pack("<H", pad + len(body) + 1) + body + b" " * pad + b"\n"

    def append(self, arr: np.ndarray) -> None:
        a = np.ascontiguousarray(arr, dtype=self.dtype)
        self._fh.write(a.tobytes())
        self.count += a.size

    def close(self) -> None:
        self._fh.seek(0)
        self._fh.write(self._header(self.count))
        self._fh.close()


# --------------------------------------------------------------------- #
# Spill buckets (raw little-endian int64 append files)
# --------------------------------------------------------------------- #


class _SpillBuckets:
    """Per-shard append-only spill files for one named int64 field."""

    def __init__(self, root: Path, name: str, buckets: int) -> None:
        self.root = root
        self.name = name
        self._fhs: dict[int, object] = {}
        self.buckets = buckets

    def _path(self, b: int) -> Path:
        return self.root / f"{self.name}.{b}.bin"

    def append(self, b: int, arr: np.ndarray) -> None:
        fh = self._fhs.get(b)
        if fh is None:
            fh = self._path(b).open("ab")
            self._fhs[b] = fh
        fh.write(np.ascontiguousarray(arr, dtype="<i8").tobytes())

    def read(self, b: int) -> np.ndarray:
        fh = self._fhs.pop(b, None)
        if fh is not None:
            fh.close()
        p = self._path(b)
        if not p.exists():
            return np.empty(0, dtype=np.int64)
        out = np.fromfile(p, dtype="<i8").astype(np.int64, copy=False)
        p.unlink()  # shard is consumed exactly once; reclaim as we go
        return out

    def close(self) -> None:
        for fh in self._fhs.values():
            fh.close()
        self._fhs.clear()


# --------------------------------------------------------------------- #
# Shard-partitioned CSR build
# --------------------------------------------------------------------- #


def _plan_shards(n: int, est_edges: int) -> np.ndarray:
    """Row starts (length ``shards + 1``) for a row-range partition sized
    so each shard holds ~:data:`TARGET_ARCS_PER_SHARD` arcs."""
    if n >= 1 << 31:
        raise NotImplementedError("store supports n < 2^31")
    est_arcs = 2 * max(est_edges, 1)
    shards = min(MAX_SHARDS, max(1, -(-est_arcs // TARGET_ARCS_PER_SHARD)))
    shards = min(shards, max(n, 1))
    rows = -(-max(n, 1) // shards)
    starts = np.arange(0, shards + 1, dtype=np.int64) * rows
    starts[-1] = n
    return np.minimum(starts, n)


def build_csr_shards(
    out_dir: str | Path, n: int, blocks, *, est_edges: int = 0
) -> dict:
    """Stream edge blocks into the five CSR ``.npy`` files under ``out_dir``.

    Two passes, both bounded by the shard size rather than ``m``:

    1. **Partition** — each incoming ``(k, 2)`` block is canonicalised
       per-block (``u < v``, self-loops dropped) and spilled to the shard
       owning ``u``'s row range.
    2. **Per shard, in row order** — its edges are sorted/deduplicated
       (duplicates always share a shard, so local dedup is global dedup),
       assigned consecutive global edge ids, and written; each edge's
       ``u``-side arc stays local while the ``v``-side arc is spilled
       forward to ``v``'s shard (``v > u``, so contributions only flow to
       the shard being processed or later ones — one forward pass
       suffices).  Row-sorting ``(src, side, edge id)`` reproduces the
       canonical arc order of :meth:`Graph._from_canonical` exactly.

    Returns the meta dict (without checksums/fingerprint — the caller
    finalises those).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    row_starts = _plan_shards(n, est_edges)
    shards = len(row_starts) - 1
    counts = np.zeros(max(n, 0) + 1, dtype=np.int64)

    with tempfile.TemporaryDirectory(dir=out, prefix="spill-") as spill_dir:
        spill = Path(spill_dir)
        e_u = _SpillBuckets(spill, "eu", shards)
        e_v = _SpillBuckets(spill, "ev", shards)
        for block in blocks:
            arr = np.asarray(block, dtype=np.int64)
            if arr.size == 0:
                continue
            u = np.minimum(arr[:, 0], arr[:, 1])
            v = np.maximum(arr[:, 0], arr[:, 1])
            keep = u != v
            u, v = u[keep], v[keep]
            if u.size and (u.min(initial=0) < 0 or v.max(initial=-1) >= n):
                raise ValueError("edge endpoint out of range [0, n)")
            bucket = np.searchsorted(row_starts, u, side="right") - 1
            order = np.argsort(bucket, kind="stable")
            u, v, bucket = u[order], v[order], bucket[order]
            edges_of = np.searchsorted(bucket, np.arange(shards + 1))
            for b in np.unique(bucket):
                lo, hi = edges_of[b], edges_of[b + 1]
                e_u.append(int(b), u[lo:hi])
                e_v.append(int(b), v[lo:hi])
        e_u.close()
        e_v.close()

        a_src = _SpillBuckets(spill, "asrc", shards)
        a_dst = _SpillBuckets(spill, "adst", shards)
        a_eid = _SpillBuckets(spill, "aeid", shards)

        writers = {name: NpyAppendWriter(out / name) for name in ARRAY_FILES}
        shard_table = []
        edge_offset = 0
        try:
            for s in range(shards):
                r0, r1 = int(row_starts[s]), int(row_starts[s + 1])
                u = e_u.read(s)
                v = e_v.read(s)
                key = u * np.int64(n) + v
                order = np.argsort(key, kind="stable")
                key = key[order]
                uniq = np.ones(key.size, dtype=bool)
                uniq[1:] = key[1:] != key[:-1]
                u, v = u[order][uniq], v[order][uniq]
                eids = edge_offset + np.arange(u.size, dtype=np.int64)
                writers["edges_u.npy"].append(u)
                writers["edges_v.npy"].append(v)
                # v-side arcs flow to v's shard (>= s); spill before reading
                # this shard's arc bucket so same-shard arcs are included.
                vb = np.searchsorted(row_starts, v, side="right") - 1
                vorder = np.argsort(vb, kind="stable")
                arcs_of = np.searchsorted(vb[vorder], np.arange(shards + 1))
                for b in np.unique(vb):
                    lo, hi = arcs_of[b], arcs_of[b + 1]
                    sel = vorder[lo:hi]
                    a_src.append(int(b), v[sel])
                    a_dst.append(int(b), u[sel])
                    a_eid.append(int(b), eids[sel])
                src = np.concatenate([u, a_src.read(s)])
                dst = np.concatenate([v, a_dst.read(s)])
                eid_all = np.concatenate([eids, a_eid.read(s)])
                side = np.zeros(src.size, dtype=np.int64)
                side[u.size :] = 1
                arc_order = np.lexsort((eid_all, side, src))
                writers["indices.npy"].append(dst[arc_order])
                writers["arc_edge_ids.npy"].append(eid_all[arc_order])
                if src.size:
                    counts[r0 + 1 : r1 + 1] += np.bincount(
                        src - r0, minlength=r1 - r0
                    )
                shard_table.append(
                    {
                        "rows": [r0, r1],
                        "edges": int(u.size),
                        "arcs": int(src.size),
                    }
                )
                edge_offset += int(u.size)
            np.cumsum(counts, out=counts)
            writers["indptr.npy"].append(counts)
        finally:
            for w in writers.values():
                w.close()
            for sp in (a_src, a_dst, a_eid):
                sp.close()
    return {
        "version": _META_VERSION,
        "n": int(n),
        "m": edge_offset,
        "shards": shard_table,
    }


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        while True:
            chunk = fh.read(_HASH_CHUNK)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def _mmap_chunks(path: Path):
    arr = np.load(path, mmap_mode="r")
    step = _HASH_CHUNK // 8
    for lo in range(0, arr.size, step):
        yield arr[lo : lo + step]
    if arr.size == 0:
        yield arr


def _fingerprint_of_files(n: int, obj_dir: Path) -> str:
    """Chunked :func:`graph_fingerprint` over the written endpoint files."""
    return graph_fingerprint_stream(
        n,
        _mmap_chunks(obj_dir / "edges_u.npy"),
        _mmap_chunks(obj_dir / "edges_v.npy"),
    )


def _dir_bytes(obj_dir: Path) -> int:
    """Bytes of the files in ``obj_dir``; 0 once another process removed it.
    ``os.scandir`` costs half of ``Path.iterdir`` here, paid per object."""
    try:
        with os.scandir(obj_dir) as entries:
            return sum(e.stat().st_size for e in entries if e.is_file())
    except OSError:
        return 0


def mark_used(path: Path) -> None:
    """Stamp ``path``'s mtime with the wall clock in nanoseconds: the last
    use of the object it describes.  (``os.utime(path)`` alone takes the
    kernel's coarse file clock, which can equal the stamp of the write just
    before it.)  A path removed meanwhile is left alone."""
    t = time.time_ns()
    try:
        os.utime(path, ns=(t, t))
    except OSError:
        pass


def by_last_use(paths) -> list[Path]:
    """``paths`` least recently used first: by mtime, ties by name.  A path
    that does not exist (removed meanwhile) is skipped."""
    stamped = []
    for path in paths:
        try:
            stamped.append((path.stat().st_mtime_ns, os.fspath(path)))
        except OSError:
            continue
    return [Path(name) for _, name in sorted(stamped)]


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` by renaming a temp file over it.  The temp
    file is this writer's own (dot-prefixed, ``.tmp``-suffixed, in the same
    directory), so a reader sees the old file or the whole new one, and two
    writers of one path never share one."""
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


# --------------------------------------------------------------------- #
# Read path (worker-safe: writes nothing)
# --------------------------------------------------------------------- #


def read_meta(root: str | Path, fingerprint: str) -> dict:
    """``meta.json`` of a stored object; :class:`StoreCorruptError` when it
    does not parse as a JSON object holding ``n`` and ``m`` (a torn write)."""
    meta_path = Path(root) / "objects" / fingerprint / "meta.json"
    try:
        meta = json.loads(meta_path.read_bytes())
    except FileNotFoundError:
        raise StoreMissError(fingerprint) from None
    except ValueError as exc:
        raise StoreCorruptError(f"{fingerprint}: meta.json unreadable ({exc})") from exc
    if not isinstance(meta, dict) or not {"n", "m"} <= meta.keys():
        raise StoreCorruptError(f"{fingerprint}: meta.json unreadable (no n and m)")
    return meta


def open_stored_graph(
    root: str | Path, fingerprint: str, *, validate: bool = False
) -> Graph:
    """Open a stored graph read-only through mmap'd buffers.

    O(1) structural checks always run (array lengths against ``meta.json``,
    ``indptr`` endpoints) — they touch only file sizes and two pages.  Full
    buffer validation (``validate=True``) and checksum verification
    (:meth:`GraphStore.verify`) are explicit, costed choices; the runtime
    worker instead treats any failure here as "regenerate and warn".
    """
    meta = read_meta(root, fingerprint)
    obj_dir = Path(root) / "objects" / fingerprint
    n, m = int(meta["n"]), int(meta["m"])
    try:
        g = Graph.from_mmap(n, obj_dir, validate=validate)
    except FileNotFoundError as exc:
        raise StoreCorruptError(f"{fingerprint}: missing shard file ({exc})") from exc
    except (ValueError, OSError) as exc:
        raise StoreCorruptError(
            f"{fingerprint}: unreadable shard file ({exc})"
        ) from exc
    sizes = {
        "edges_u.npy": g.edges_u.size,
        "edges_v.npy": g.edges_v.size,
        "indptr.npy": g.indptr.size,
        "indices.npy": g.indices.size,
        "arc_edge_ids.npy": g.arc_edge_ids.size,
    }
    expect = {
        "edges_u.npy": m,
        "edges_v.npy": m,
        "indptr.npy": n + 1,
        "indices.npy": 2 * m,
        "arc_edge_ids.npy": 2 * m,
    }
    for name in ARRAY_FILES:
        if sizes[name] != expect[name]:
            raise StoreCorruptError(
                f"{fingerprint}: {name} has {sizes[name]} elements, "
                f"expected {expect[name]}"
            )
    if int(g.indptr[0]) != 0 or int(g.indptr[-1]) != 2 * m:
        raise StoreCorruptError(f"{fingerprint}: indptr endpoints corrupt")
    return g


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #


class GraphStore:
    """Content-addressed, LRU disk-budgeted store of mmap-ready CSR graphs.

    ``max_bytes`` bounds the object payload on disk (None = unbounded);
    eviction is least recently used, by each object's ``meta.json`` mtime
    (:func:`mark_used`, :func:`by_last_use`) as in the result cache.  One
    small file per generator call, ``sources/<call digest>``, names the
    fingerprint that call produced, so :meth:`ensure_generator` can answer
    "is G(n, p, seed) already on disk?" without generating anything.
    """

    def __init__(
        self, root: str | Path, *, max_bytes: int | None = None
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.sources_dir = self.root / "sources"
        self.max_bytes = max_bytes
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.sources_dir.mkdir(exist_ok=True)
        # Bytes at the last listing, plus this instance's puts since.
        self._bytes = 0 if max_bytes is None else self.disk_usage()

    # ------------------------------------------------------------------ #
    # Paths / dunder
    # ------------------------------------------------------------------ #

    def _object_dir(self, key: str) -> Path:
        return self.objects_dir / key

    def _meta_path(self, key: str) -> Path:
        return self._object_dir(key) / "meta.json"

    def __contains__(self, key: str) -> bool:
        return self._meta_path(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self) -> list[str]:
        """Fingerprints in LRU order (oldest first), listed from disk."""
        return [
            meta_path.parent.name
            for meta_path in by_last_use(
                child / "meta.json"
                for child in self.objects_dir.iterdir()
                if not child.name.startswith(".")  # a build in progress
            )
        ]

    def __repr__(self) -> str:
        return (
            f"GraphStore({os.fspath(self.root)!r}, entries={len(self)}, "
            f"max_bytes={self.max_bytes})"
        )

    # ------------------------------------------------------------------ #
    # Core API
    # ------------------------------------------------------------------ #

    def meta(self, key: str) -> dict:
        return read_meta(self.root, key)

    def lookup(self, key: str) -> StoredGraphInfo | None:
        """``key``'s info as a hit, stamped most recently used; ``None`` when
        the store does not hold it (nothing is built either way).  An object
        whose ``meta.json`` is unreadable is removed, directory and all, so
        the caller rebuilds it as a miss."""
        try:
            meta = self.meta(key)
        except StoreMissError:
            return None
        except StoreCorruptError:
            shutil.rmtree(self._object_dir(key), ignore_errors=True)
            return None
        mark_used(self._meta_path(key))
        return StoredGraphInfo(key, int(meta["n"]), int(meta["m"]), hit=True)

    def open(self, key: str, *, validate: bool = False) -> Graph:
        """Open a stored graph (mmap) and stamp it most recently used."""
        t0 = _obs.clock()
        g = open_stored_graph(self.root, key, validate=validate)
        mark_used(self._meta_path(key))
        if _obs._TRACING:
            _obs.record_span(
                "store.open", t0, {"fingerprint": key[:16], "n": g.n, "m": g.m}
            )
        return g

    def put_stream(
        self, n: int, blocks, *, source: str | None = None, est_edges: int = 0
    ) -> StoredGraphInfo:
        """Build shards from an edge-block iterator; returns the stored info.

        Content-addressed writes are deduplicating: if the streamed graph
        hashes to an object that has a readable ``meta.json``, whichever
        writer renamed it into place and whenever, the fresh build is
        discarded and that object stamped.  A directory in the way without
        one is a dead writer's debris and is replaced.
        """
        t0 = _obs.clock()
        prefix = f"{_BUILD_PREFIX}{os.getpid()}-"
        tmp = Path(tempfile.mkdtemp(prefix=prefix, dir=self.objects_dir))
        try:
            meta = build_csr_shards(tmp, n, blocks, est_edges=est_edges)
            fingerprint = _fingerprint_of_files(n, tmp)
            meta["fingerprint"] = fingerprint
            meta["created_unix"] = time.time()
            if source is not None:
                meta["source"] = source
            meta["checksums"] = {
                name: _file_sha256(tmp / name) for name in ARRAY_FILES
            }
            meta_tmp = tmp / "meta.json"
            meta_tmp.write_text(json.dumps(meta, indent=1, sort_keys=True))
            final = self._object_dir(fingerprint)
            try:
                os.rename(tmp, final)
                landed = True
            except OSError:  # a directory is in the way
                landed = not _readable_meta(self.root, fingerprint)
                if landed:
                    shutil.rmtree(final, ignore_errors=True)
                    os.rename(tmp, final)
                else:
                    shutil.rmtree(tmp)
            mark_used(self._meta_path(fingerprint))
            if landed and self.max_bytes is not None:
                self._bytes += _dir_bytes(final)
                if self._bytes > self.max_bytes and self._evict(
                    self.max_bytes, self.max_bytes // 16
                ):
                    self._drop_dangling_source_files()
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        if _obs._TRACING:
            _obs.record_span(
                "store.build",
                t0,
                {"fingerprint": fingerprint[:16], "n": n, "m": meta["m"]},
            )
        return StoredGraphInfo(fingerprint, int(meta["n"]), int(meta["m"]))

    def put_graph(self, g: Graph, *, source: str | None = None) -> StoredGraphInfo:
        """Store an already-materialised graph (small inputs, file sources)."""
        info = self.put_stream(
            g.n,
            iter([g.edge_array()]),
            source=source,
            est_edges=g.m,
        )
        assert info.fingerprint == graph_fingerprint(g)
        return info

    def _source_path(self, name: str, args: dict) -> Path:
        call = {"kind": "generator", "name": name, "args": args}
        digest = hashlib.sha256(json.dumps(call, sort_keys=True, separators=(",", ":")).encode())
        return self.sources_dir / digest.hexdigest()

    def generated(self, name: str, args: dict) -> StoredGraphInfo | None:
        """A generator call's stored graph as a hit (counted in
        ``store.shard_hits``), or ``None``; reads files and builds nothing."""
        try:
            info = self.lookup(self._source_path(name, args).read_text())
        except FileNotFoundError:
            return None
        if info is not None:
            METRICS.inc("store.shard_hits")
        return info

    def ensure_generator(
        self, name: str, args: dict, *, label: str = ""
    ) -> StoredGraphInfo:
        """The graph of a generator call: :meth:`generated`, or on a miss
        (counted in ``store.shard_misses``) a stream build of the generator's
        edge blocks, then the call's ``sources/<digest>`` file."""
        info = self.generated(name, args)
        if info is not None:
            return info
        METRICS.inc("store.shard_misses")
        blocks = stream_blocks(name, **args)
        info = self.put_stream(
            int(args["n"]),
            blocks,
            source=label or name,
            est_edges=edge_count_upper_bound(name, args),
        )
        write_atomic(self._source_path(name, args), info.fingerprint.encode())
        return info

    # ------------------------------------------------------------------ #
    # Budget / integrity / maintenance
    # ------------------------------------------------------------------ #

    def disk_usage(self) -> int:
        """Total stored object bytes, listed from disk."""
        return sum(_dir_bytes(self._object_dir(key)) for key in self.keys())

    def _evict(self, budget: int, slack: int = 0) -> list[str]:
        """List the objects and, past ``budget`` bytes, remove the least
        recently used, never the most recent, until the rest fit in
        ``budget - slack``."""
        sized = [(key, _dir_bytes(self._object_dir(key))) for key in self.keys()]
        self._bytes = sum(nbytes for _, nbytes in sized)
        evicted = []
        if self._bytes <= budget:
            return evicted
        for key, nbytes in sized[:-1]:
            if self._bytes <= budget - slack:
                break
            shutil.rmtree(self._object_dir(key), ignore_errors=True)
            METRICS.inc("store.evictions")
            self._bytes -= nbytes
            evicted.append(key)
        return evicted

    def _drop_dangling_source_files(self) -> None:
        """Remove the ``sources/`` files naming no object, skipping writes in
        progress and files that another process removes first."""
        for path in self.sources_dir.iterdir():
            try:
                if not path.name.startswith(".") and path.read_text() not in self:
                    path.unlink(missing_ok=True)
            except FileNotFoundError:
                continue

    def verify(self, key: str) -> list[str]:
        """Checksum every array file of ``key``; returns problems (empty = ok)."""
        try:
            meta = self.meta(key)
        except StoreCorruptError:
            return ["meta.json unreadable"]
        obj_dir = self._object_dir(key)
        problems = []
        for name in ARRAY_FILES:
            path = obj_dir / name
            if not path.exists():
                problems.append(f"{name}: missing")
                continue
            want = meta.get("checksums", {}).get(name)
            if want is None:
                problems.append(f"{name}: no recorded checksum")
                continue
            got = _file_sha256(path)
            if got != want:
                problems.append(f"{name}: sha256 {got[:12]}.. != {want[:12]}..")
        return problems

    def gc(self, *, max_bytes: int | None = None) -> dict:
        """Drop orphaned build debris and enforce a disk budget.

        Removes the ``.tmp-put-*`` build directories of exited writers,
        object directories without a readable ``meta.json``, and — when a
        budget is given (argument overrides the construction-time one) —
        evicts LRU entries until under it; then the ``sources/`` files that
        name no object.  Returns a summary dict.
        """
        removed_tmp = removed_orphans = 0
        for child in self.objects_dir.iterdir():
            if child.name.startswith(_BUILD_PREFIX):
                if _writer_running(child.name):  # a build in progress
                    continue
                removed_tmp += 1
            elif child.is_dir() and not _readable_meta(self.root, child.name):
                removed_orphans += 1
            else:
                continue
            shutil.rmtree(child, ignore_errors=True)
        budget = self.max_bytes if max_bytes is None else max_bytes
        evicted = [] if budget is None else self._evict(budget)
        self._drop_dangling_source_files()
        return {
            "removed_tmp": removed_tmp,
            "removed_orphans": removed_orphans,
            "evicted": evicted,
            "entries": len(self),
            "disk_bytes": self.disk_usage(),
        }

    def stats(self) -> dict:
        """Disk usage, entry count, and a per-fingerprint size table."""
        entries = []
        for key in self.keys():
            try:
                meta = read_meta(self.root, key)
            except StoreMissError:
                meta = {}
            except StoreCorruptError:
                meta = {"source": "meta.json unreadable"}
            entries.append(
                {
                    "fingerprint": key,
                    "n": meta.get("n"),
                    "m": meta.get("m"),
                    "bytes": _dir_bytes(self._object_dir(key)),
                    "shards": len(meta.get("shards", [])),
                    "source": meta.get("source", ""),
                }
            )
        return {
            "root": os.fspath(self.root),
            "entries": len(entries),
            "disk_bytes": sum(obj["bytes"] for obj in entries),
            "max_bytes": self.max_bytes,
            "objects": entries,
        }


def _writer_running(build_dir: str) -> bool:
    """Whether the process named by a ``.tmp-put-<pid>-*`` build directory
    is running; False for a name without a pid (older builds' debris)."""
    pid, sep, _ = build_dir[len(_BUILD_PREFIX):].partition("-")
    if not (sep and pid.isdigit()):
        return False
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # running, as another user
        pass
    return True


def _readable_meta(root: Path, fingerprint: str) -> bool:
    try:
        read_meta(root, fingerprint)
    except (StoreMissError, StoreCorruptError):
        return False
    return True
