"""Graph I/O: edge lists and content fingerprints.

Plain-text edge lists (one ``u v`` pair per line, ``#`` comments) are the
de-facto SNAP/DIMACS-lite interchange format.  :func:`graph_fingerprint`
derives a stable content digest from a graph's canonical edge arrays — two
graphs with identical edge sets hash identically regardless of how they
were constructed, which is what makes the runtime's result cache and the
graph store content-addressed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .graph import Graph

__all__ = [
    "graph_fingerprint",
    "graph_fingerprint_stream",
    "packed_arc_plane",
    "read_edge_list",
    "write_edge_list",
]


def packed_arc_plane(g: Graph) -> np.ndarray:
    """The directed-arc array (``src * n + dst``, both directions) the MPC
    engine loads from — the single canonical encoding of its arc plane.
    Rebuilt per solve: it costs far less than shipping it to a worker."""
    n = max(g.n, 1)
    fwd = g.edges_u * n + g.edges_v
    bwd = g.edges_v * n + g.edges_u
    return np.concatenate([fwd, bwd]).astype(np.int64)

#: Version tag mixed into every fingerprint so a future change to the
#: canonical representation invalidates old cache entries instead of
#: silently colliding with them.
_FINGERPRINT_VERSION = b"repro-graph-v1"


def graph_fingerprint(g: Graph) -> str:
    """Hex sha256 of the graph's canonical content (n + sorted edge arrays).

    Deterministic across processes and platforms: the canonical edge arrays
    are int64 little-endian and uniquely sorted by :class:`Graph`
    construction, so equal graphs yield byte-identical digests.
    """
    h = hashlib.sha256()
    h.update(_FINGERPRINT_VERSION)
    h.update(str(g.n).encode())
    h.update(b"|")
    h.update(np.ascontiguousarray(g.edges_u, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(g.edges_v, dtype="<i8").tobytes())
    return h.hexdigest()


def graph_fingerprint_stream(n: int, u_chunks, v_chunks) -> str:
    """:func:`graph_fingerprint` from chunked canonical edge arrays.

    ``u_chunks`` then ``v_chunks`` must concatenate to exactly the canonical
    ``edges_u`` / ``edges_v`` arrays (sorted, deduplicated, ``u < v``); the
    digest is byte-identical to the in-memory form for any chunking, which
    is what lets the out-of-core store hash graphs it never materialises.
    """
    h = hashlib.sha256()
    h.update(_FINGERPRINT_VERSION)
    h.update(str(int(n)).encode())
    h.update(b"|")
    for chunk in u_chunks:
        h.update(np.ascontiguousarray(chunk, dtype="<i8").tobytes())
    for chunk in v_chunks:
        h.update(np.ascontiguousarray(chunk, dtype="<i8").tobytes())
    return h.hexdigest()


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Write ``g`` as an edge list with an ``# n=<n>`` header."""
    p = Path(path)
    with p.open("w") as fh:
        fh.write(f"# n={g.n} m={g.m}\n")
        for u, v in zip(g.edges_u.tolist(), g.edges_v.tolist()):
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str | Path, n: int | None = None) -> Graph:
    """Read an edge list; ``n`` is taken from the header unless overridden."""
    p = Path(path)
    header_n: int | None = None
    us: list[int] = []
    vs: list[int] = []
    with p.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].replace(",", " ").split():
                    if tok.startswith("n="):
                        header_n = int(tok[2:])
                continue
            a, b = line.split()[:2]
            us.append(int(a))
            vs.append(int(b))
    if n is None:
        n = header_n
    if n is None:
        n = (max(max(us, default=-1), max(vs, default=-1)) + 1) if us else 0
    edges = np.stack(
        [np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)], axis=1
    ) if us else np.empty((0, 2), dtype=np.int64)
    return Graph.from_edges(n, edges)
