"""Immutable undirected graph with CSR adjacency (numpy-backed).

Design notes
------------
The paper's algorithms iteratively *remove* nodes (matched nodes; MIS nodes
and their neighbours) from the working graph.  To keep node ids stable across
iterations -- so hash functions, machine assignment and output arrays all key
on the original ids -- removal produces a new :class:`Graph` on the *same*
vertex set ``[0, n)`` in which removed vertices are simply isolated.

Edges are stored twice:

* CSR arrays ``indptr`` / ``indices`` over directed arcs, for O(1) slicing of
  neighbourhoods, with a parallel ``arc_edge_ids`` array mapping each arc to
  its undirected edge id.
* Canonical endpoint arrays ``edges_u < edges_v`` indexed by edge id, for
  vectorised whole-edge-set computations (degrees of edges, subsampling,
  local-minima selection).

Everything downstream (sparsification, Luby steps, simulators) consumes these
arrays directly; per the HPC guides, hot paths are expressed as whole-array
numpy operations, never per-node Python loops.

Each CSR row lists its *upper* arcs (to larger ids) and then its *lower*
arcs (to smaller ids), each by edge id; :meth:`Graph._from_canonical`
builds it in O(n + m) with no sort.

CSR adjacency backend
---------------------
:meth:`Graph.adjacency_csr` exposes the arc arrays as a ``scipy.sparse``
CSR matrix (entry ``A[v, u] = 1`` per arc).  The matrix is built lazily on
first use and cached for the lifetime of the instance; because every
mutating operation (:meth:`remove_vertices`, :meth:`keep_edges`,
:meth:`relabel`) returns a *new* ``Graph`` whose cache starts empty, a
stale adjacency can never be observed.  To make that contract airtight the
constructor freezes all backing arrays (``writeable=False``), so in-place
mutation of a live graph raises instead of silently desynchronising the
cached CSR.  :meth:`invalidate_csr` drops the cache explicitly (e.g. to
release memory); the next :meth:`adjacency_csr` call rebuilds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = ["CSR_ARRAY_FILES", "Graph"]

#: On-disk file names of a graph's canonical + CSR arrays, in the positional
#: order :meth:`Graph.from_csr_arrays` takes them.  One 1-D int64 ``.npy``
#: per array — plain npy (not npz) so the files are mmap-compatible.  The
#: out-of-core store (:mod:`repro.graphs.store`) writes this layout.
CSR_ARRAY_FILES = (
    "edges_u.npy",
    "edges_v.npy",
    "indptr.npy",
    "indices.npy",
    "arc_edge_ids.npy",
)


def _owned_int64(arr: np.ndarray) -> np.ndarray:
    """A contiguous int64 array the Graph may freeze without side effects.

    The constructor marks its arrays read-only (see the class docs); when a
    conversion would alias a caller's *writeable* buffer, take a private
    copy so constructing a graph never mutates caller state.  Already
    read-only inputs (e.g. arrays exported from another Graph) are shared
    as-is.
    """
    out = np.ascontiguousarray(arr, dtype=np.int64)
    if out is arr and arr.flags.writeable:
        out = out.copy()
    return out


def _canonicalise_edges(
    n: int, edges_u: np.ndarray, edges_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort endpoints within edges, drop self-loops and duplicates."""
    u = np.minimum(edges_u, edges_v).astype(np.int64, copy=False)
    v = np.maximum(edges_u, edges_v).astype(np.int64, copy=False)
    keep = u != v
    u, v = u[keep], v[keep]
    if u.size and (u.min(initial=0) < 0 or v.max(initial=-1) >= n):
        raise ValueError("edge endpoint out of range [0, n)")
    # Deduplicate via lexicographic sort on (u, v).
    key = u * np.int64(n) + v
    order = np.argsort(key, kind="stable")
    key = key[order]
    uniq = np.ones(key.size, dtype=bool)
    uniq[1:] = key[1:] != key[:-1]
    return u[order][uniq], v[order][uniq]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex set ``[0, n)``.

    Construct via :meth:`from_edges`; all arrays are treated as immutable.
    """

    n: int
    edges_u: np.ndarray  # int64[m], edges_u[e] < edges_v[e]
    edges_v: np.ndarray  # int64[m]
    indptr: np.ndarray = field(repr=False)  # int64[n+1]
    indices: np.ndarray = field(repr=False)  # int64[2m] neighbour ids
    arc_edge_ids: np.ndarray = field(repr=False)  # int64[2m] edge id per arc

    def __post_init__(self) -> None:
        # Freeze the backing arrays: the cached CSR (and everything else
        # keyed on graph identity, e.g. fingerprints) relies on instances
        # never changing after construction.
        for name in ("edges_u", "edges_v", "indptr", "indices", "arc_edge_ids"):
            getattr(self, name).flags.writeable = False
        object.__setattr__(self, "_csr_cache", None)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray | Sequence[Sequence[int]],
    ) -> "Graph":
        """Build a graph from an iterable / array of ``(u, v)`` pairs.

        Self-loops and duplicate edges (in either orientation) are dropped.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array of endpoint pairs")
        u, v = _canonicalise_edges(n, arr[:, 0], arr[:, 1])
        return Graph._from_canonical(n, u, v)

    @staticmethod
    def _from_canonical(n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Build CSR from already-canonical (sorted-unique, u<v) edges.

        Row ``x``'s upper arcs are the run of edges ``{x, v}`` in the
        canonical list.  Its lower arcs are column ``x`` of the upper
        triangle, which scipy's stable counting transpose (``csr_tocsc``,
        the kernel behind ``csr_matrix.tocsc()``) lists by edge id.  Both
        runs are then scattered into the rows by offset arithmetic.
        """
        m = u.size
        # csr_tocsc indexes its output by v unchecked: keep it in range.
        if v.shape != (m,) or (m and (v.min() < 0 or v.max() >= n)):
            raise ValueError("canonical edges need 0 <= u < v < n")
        eid = np.arange(m, dtype=np.int64)
        up_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=n), out=up_ptr[1:])
        low_ptr = np.empty(n + 1, dtype=np.int64)
        low_nbr = np.empty(m, dtype=np.int64)
        low_eid = np.empty(m, dtype=np.int64)
        _sparsetools.csr_tocsc(n, n, up_ptr, v, eid, low_ptr, low_nbr, low_eid)
        indptr = up_ptr + low_ptr
        # Edge e's upper arc follows the lower arcs of the rows before u[e];
        # the k-th lower arc (column order) follows the upper arcs of the
        # rows up to and including its own.
        up_pos = eid + low_ptr[u]
        low_pos = eid + np.repeat(up_ptr[1:], np.diff(low_ptr))
        indices = np.empty(2 * m, dtype=np.int64)
        arc_edge_ids = np.empty(2 * m, dtype=np.int64)
        indices[up_pos] = v
        indices[low_pos] = low_nbr
        arc_edge_ids[up_pos] = eid
        arc_edge_ids[low_pos] = low_eid
        return Graph(
            n=n,
            edges_u=u,
            edges_v=v,
            indptr=indptr,
            indices=indices,
            arc_edge_ids=arc_edge_ids,
        )

    @staticmethod
    def empty(n: int) -> "Graph":
        """Edgeless graph on ``n`` vertices."""
        return Graph.from_edges(n, np.empty((0, 2), dtype=np.int64))

    @staticmethod
    def from_csr_arrays(
        n: int,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        arc_edge_ids: np.ndarray,
        *,
        validate: bool = True,
    ) -> "Graph":
        """Rebuild a graph from previously exported canonical + CSR arrays.

        This is the zero-copy fast path :meth:`from_mmap` opens stored
        graphs through: it skips the O(m log m) canonicalisation sort that
        :meth:`from_edges` performs.  With ``validate=True`` (default) the
        buffers are checked for structural consistency in O(n + m); pass
        ``validate=False`` only for buffers this library itself produced.
        """
        u = _owned_int64(edges_u)
        v = _owned_int64(edges_v)
        ptr = _owned_int64(indptr)
        idx = _owned_int64(indices)
        eid = _owned_int64(arc_edge_ids)
        if validate:
            m = u.size
            if n < 0 or v.shape != (m,):
                raise ValueError("edges_u/edges_v must be same-length 1-D")
            if ptr.shape != (n + 1,) or ptr[0] != 0:
                raise ValueError("indptr must have shape (n+1,) starting at 0")
            if np.any(np.diff(ptr) < 0) or ptr[-1] != 2 * m:
                raise ValueError("indptr must be monotone and end at 2m")
            if idx.shape != (2 * m,) or eid.shape != (2 * m,):
                raise ValueError("indices/arc_edge_ids must have shape (2m,)")
            if m:
                if u.min() < 0 or v.max() >= n or np.any(u >= v):
                    raise ValueError("edges must be canonical: 0 <= u < v < n")
                key = u * np.int64(n) + v
                if np.any(key[1:] <= key[:-1]):
                    raise ValueError("edges must be sorted and duplicate-free")
                if idx.min() < 0 or idx.max() >= n:
                    raise ValueError("indices out of range [0, n)")
                if eid.min() < 0 or eid.max() >= m:
                    raise ValueError("arc_edge_ids out of range [0, m)")
                # Cross-check CSR against the edge list: a structurally
                # plausible but inconsistent buffer (corrupted cache file,
                # mangled worker payload) must not produce a graph whose
                # fingerprint says one thing and whose adjacency says
                # another.  O(n + m), all whole-array.
                degs = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
                if not np.array_equal(np.diff(ptr), degs):
                    raise ValueError("indptr row sizes disagree with edge degrees")
                arc_src = np.repeat(np.arange(n, dtype=np.int64), degs)
                src_is_u = u[eid] == arc_src
                ok = np.where(
                    src_is_u, v[eid] == idx, (v[eid] == arc_src) & (u[eid] == idx)
                )
                if not ok.all():
                    raise ValueError("arc_edge_ids endpoints disagree with indices")
                # Canonical arc order within each row: u-side arcs (by edge
                # id) before v-side arcs (by edge id) -- the order
                # _from_canonical produces and the proposal kernels rely on.
                arc_key = (~src_is_u) * np.int64(2 * m) + eid
                row_start = np.zeros(2 * m, dtype=bool)
                row_start[ptr[:-1][np.diff(ptr) > 0]] = True
                if np.any(np.diff(arc_key)[~row_start[1:]] <= 0):
                    raise ValueError("arcs are not in canonical CSR order")
        return Graph(
            n=n, edges_u=u, edges_v=v, indptr=ptr, indices=idx, arc_edge_ids=eid
        )

    @staticmethod
    def from_mmap(
        n: int, directory: "str | Path", *, validate: bool = False
    ) -> "Graph":
        """Open a graph from :data:`CSR_ARRAY_FILES` under ``directory``,
        memory-mapped read-only.

        The ``np.load(mmap_mode="r")`` buffers flow through
        :meth:`from_csr_arrays` unchanged — read-only memmaps are never
        copied by construction, so the resident cost is page-cache only
        and proportional to the pages an algorithm actually touches.
        ``validate`` defaults off because full validation would fault in
        every page, defeating the mmap; enable it for untrusted files.
        """
        root = Path(directory)
        arrays = [
            np.load(root / name, mmap_mode="r") for name in CSR_ARRAY_FILES
        ]
        return Graph.from_csr_arrays(n, *arrays, validate=validate)

    # ------------------------------------------------------------------ #
    # CSR adjacency backend
    # ------------------------------------------------------------------ #

    def adjacency_csr(self):
        """``scipy.sparse.csr_matrix`` adjacency (lazily built, cached).

        Entry ``A[v, u] == 1`` for every arc ``v -> u``; ``A @ x`` therefore
        computes exact int64 neighbourhood sums, which is what the
        vectorised kernels in :mod:`repro.graphs.kernels` consume.  The
        matrix shares this instance's ``indptr``/``indices`` buffers.
        """
        cached = self._csr_cache
        if cached is None:
            data = np.ones(self.indices.size, dtype=np.int64)
            cached = sp.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.n, self.n)
            )
            object.__setattr__(self, "_csr_cache", cached)
        return cached

    @property
    def csr_is_built(self) -> bool:
        """True once :meth:`adjacency_csr` has materialised (and cached)."""
        return self._csr_cache is not None

    def invalidate_csr(self) -> None:
        """Drop the cached CSR matrix (rebuilt on next use).

        Mutating operations never need this -- they return fresh instances
        with empty caches -- but it lets long-lived holders release the
        adjacency memory explicitly.
        """
        object.__setattr__(self, "_csr_cache", None)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.edges_u.size)

    def degrees(self) -> np.ndarray:
        """int64[n] vertex degrees."""
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def max_degree(self) -> int:
        """Maximum degree Delta (0 for the edgeless graph)."""
        if self.n == 0:
            return 0
        return int(self.degrees().max(initial=0))

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of v's neighbour ids: higher ids ascending, then
        lower ids ascending (the row order ``_from_canonical`` builds)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def incident_edge_ids(self, v: int) -> np.ndarray:
        """Edge ids of edges incident to ``v``."""
        return self.arc_edge_ids[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` int64 array of canonical edges."""
        return np.stack([self.edges_u, self.edges_v], axis=1)

    def isolated_mask(self) -> np.ndarray:
        """bool[n]: vertices with degree zero."""
        return self.degrees() == 0

    # ------------------------------------------------------------------ #
    # Edge-level helpers used by the sparsification machinery
    # ------------------------------------------------------------------ #

    def degrees_within(self, edge_mask: np.ndarray) -> np.ndarray:
        """int64[n]: vertex degrees counting only edges where mask is True.

        The paper's ``d_{E'}(v)``.
        """
        mask = np.asarray(edge_mask, dtype=bool)
        if mask.shape != (self.m,):
            raise ValueError("edge_mask must have shape (m,)")
        return np.bincount(self.edges_u[mask], minlength=self.n) + np.bincount(
            self.edges_v[mask], minlength=self.n
        )

    def degrees_toward(self, node_mask: np.ndarray) -> np.ndarray:
        """int64[n]: for each v, #neighbours u with ``node_mask[u]``.

        The paper's ``d_U(v)`` for a vertex subset ``U``.
        """
        mask = np.asarray(node_mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ValueError("node_mask must have shape (n,)")
        # np.add.at, unlike in the unweighted counts: its integer fast path
        # beats compacting the edges by the mask for a bincount.
        counts = np.zeros(self.n, dtype=np.int64)
        inc_u = mask[self.edges_v].astype(np.int64)  # v-side in mask -> u gains
        inc_v = mask[self.edges_u].astype(np.int64)
        np.add.at(counts, self.edges_u, inc_u)
        np.add.at(counts, self.edges_v, inc_v)
        return counts

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def remove_vertices(self, node_mask: np.ndarray) -> "Graph":
        """Graph on the same vertex set with masked vertices isolated.

        All edges touching a masked vertex are removed.  Used after each
        Luby iteration to delete ``I ∪ N(I)`` (MIS) or matched nodes
        (matching) while keeping ids stable.  The surviving arcs keep their
        order within each row, so the result equals the graph
        :meth:`from_edges` would build from the surviving edges.
        """
        mask = np.asarray(node_mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ValueError("node_mask must have shape (n,)")
        return self._filtered(~(mask[self.edges_u] | mask[self.edges_v]))

    def keep_edges(self, edge_mask: np.ndarray) -> "Graph":
        """Graph on the same vertex set containing only the masked edges
        (arc order kept, as in :meth:`remove_vertices`)."""
        mask = np.asarray(edge_mask, dtype=bool)
        if mask.shape != (self.m,):
            raise ValueError("edge_mask must have shape (m,)")
        return self._filtered(mask)

    def _filtered(self, keep: np.ndarray) -> "Graph":
        """The graph of the edges ``keep`` marks, filtered out of the CSR.

        A subsequence of the canonical edge list is still sorted, and each
        row's surviving arcs are still its upper arcs by edge id, then its
        lower ones, so no re-sort is needed: the kept arcs stay in place,
        edge ids are renumbered by a cumsum over ``keep``, and ``indptr``
        is the cumsum of the kept edges' endpoint counts.
        """
        u, v = self.edges_u[keep], self.edges_v[keep]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(u, minlength=self.n) + np.bincount(v, minlength=self.n),
            out=indptr[1:],
        )
        arc_keep = keep[self.arc_edge_ids]
        new_id = np.cumsum(keep, dtype=np.int64)
        new_id -= 1
        return Graph(
            n=self.n,
            edges_u=u,
            edges_v=v,
            indptr=indptr,
            indices=self.indices[arc_keep],
            arc_edge_ids=new_id[self.arc_edge_ids[arc_keep]],
        )

    def relabel(self, new_ids: np.ndarray, new_n: int) -> "Graph":
        """Graph with vertex ``v`` renamed ``new_ids[v]`` (must be injective
        on non-isolated vertices)."""
        ids = np.asarray(new_ids, dtype=np.int64)
        if ids.shape != (self.n,):
            raise ValueError("new_ids must have shape (n,)")
        return Graph.from_edges(
            new_n, np.stack([ids[self.edges_u], ids[self.edges_v]], axis=1)
        )

    # ------------------------------------------------------------------ #
    # Interop / dunder
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Convert to ``networkx.Graph`` (test/verification use only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(zip(self.edges_u.tolist(), self.edges_v.tolist()))
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.edges_u, other.edges_u))
            and bool(np.array_equal(self.edges_v, other.edges_v))
        )

    def __hash__(self) -> int:  # frozen dataclass wants it; cheap digest
        return hash((self.n, self.m, self.edges_u.tobytes(), self.edges_v.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, max_deg={self.max_degree()})"
