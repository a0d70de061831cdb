"""Process-parallel batch scheduler for :class:`~repro.api.SolveRequest`s.

The scheduler owns the whole batch lifecycle:

1. **Resolve** each distinct graph source once in the parent into the
   :class:`~repro.graphs.store.GraphStore`: the directory ``store=`` or
   ``REPRO_GRAPH_STORE`` names, or else a private temporary store that
   :meth:`Scheduler.close` removes.  Resolution *ensures the graph exists
   on disk* — streaming-capable generators build mmap-ready CSR shards
   without materialising the edge list in this process, and a source
   already stored builds nothing.  Every job ships the store key
   ``(graph_store, fingerprint)``, and workers mmap the shards directly.
2. **Serve from cache**: jobs whose ``cache_key`` (graph fingerprint x solve
   digest) is already stored come back instantly as ``cache_hit`` results.
3. **Fan out** the misses over a ``ProcessPoolExecutor``; each worker call
   is total (see :mod:`repro.runtime.worker`), so a failing or timing-out
   job yields a structured failure :class:`JobResult` instead of a pool
   crash.  Failed jobs are retried up to ``retries`` extra attempts.
4. **Store** fresh successes back into the cache.

Results always come back aligned with the input request order.  A
:class:`JobResult` is the structured outcome of one job: solve statistics
on success, or a captured ``(type, message, traceback)`` triple on failure.
Results are JSON-round-trippable; solution arrays live in the result cache,
not in the result record.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..api import SolveRequest
from ..graphs.io import graph_fingerprint
from ..graphs.source import GraphSource
from ..graphs.store import GraphStore, StoredGraphInfo
from ..graphs.streaming import STREAMING_GENERATORS
from ..obs import trace as _obs
from ..obs.metrics import METRICS
from .cache import ResultCache
from .worker import run_job, warm_worker

__all__ = ["BatchResult", "BatchStats", "JobResult", "Scheduler"]

#: Disk budget of a private store (a scheduler given no store directory).
#: It bounds a long-lived service: a fresh n <= 1000 graph takes 80-200 KB.
PRIVATE_STORE_BYTES = 1 << 30


@dataclass(frozen=True)
class JobResult:
    """Structured outcome of one job (success, error, or timeout)."""

    spec: SolveRequest
    status: str = "ok"  # "ok" | "error" | "timeout"
    attempts: int = 1
    cache_hit: bool = False
    wall_time: float = 0.0
    worker_pid: int = 0
    fingerprint: str = ""
    graph_n: int = 0
    graph_m: int = 0
    solution_size: int = -1
    iterations: int = 0
    rounds: int = 0
    max_machine_words: int = 0
    space_limit: int = 0
    verified: bool = False
    path: str = ""  # Theorem-1 path taken: "lowdeg" | "general" | ""
    error_type: str = ""
    error_message: str = ""
    error_traceback: str = field(default="", repr=False)
    #: Free-form JSON-safe annotations: cache-hit lookup accounting
    #: (``cache_hit`` / ``lookup_time``), trace span counts, ...
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(JobResult)}
        d["spec"] = self.spec.to_dict()
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(d: dict) -> "JobResult":
        return JobResult(**{**d, "spec": SolveRequest.from_dict(d["spec"])})

    @staticmethod
    def from_json(s: str) -> "JobResult":
        return JobResult.from_dict(json.loads(s))


#: JobResult fields the worker payload / cache entry carries verbatim.
_PAYLOAD_FIELDS = (
    "wall_time",
    "worker_pid",
    "fingerprint",
    "graph_n",
    "graph_m",
    "solution_size",
    "iterations",
    "rounds",
    "max_machine_words",
    "space_limit",
    "verified",
    "path",
    "error_type",
    "error_message",
    "error_traceback",
    "meta",
)


@dataclass
class BatchStats:
    """Aggregate accounting for one :meth:`Scheduler.run` call."""

    total: int = 0
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries_used: int = 0
    wall_time: float = 0.0
    workers: int = 1
    #: Distinct sources served from / built into the graph store.
    store_hits: int = 0
    store_misses: int = 0
    #: Jobs whose worker fell back to regenerating after a shard failure.
    store_fallbacks: int = 0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def jobs_per_second(self) -> float:
        return self.total / self.wall_time if self.wall_time > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "ok": self.ok,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "retries_used": self.retries_used,
            "wall_time": self.wall_time,
            "jobs_per_second": self.jobs_per_second,
            "workers": self.workers,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "store_fallbacks": self.store_fallbacks,
        }


@dataclass
class BatchResult:
    """Ordered results plus batch-level stats."""

    results: list[JobResult] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]


def _result_from_payload_dict(
    request: SolveRequest, out: dict, *, attempts: int, cache_hit: bool = False
) -> JobResult:
    kwargs = {k: out[k] for k in _PAYLOAD_FIELDS if k in out}
    return JobResult(
        spec=request,
        status=out.get("status", "ok"),
        attempts=attempts,
        cache_hit=cache_hit,
        **kwargs,
    )


class Scheduler:
    """Fan a batch of solve requests out over worker processes, cache-first.

    Parameters
    ----------
    workers:
        Pool size (``>= 1``).  With ``workers == 1`` the pool still runs —
        useful as a like-for-like throughput baseline.
    timeout:
        Per-job wall-clock budget in seconds (enforced worker-side via
        ``SIGALRM``; ``None`` disables).
    retries:
        Extra attempts per failing job (0 = fail fast).
    cache:
        Optional :class:`ResultCache`; hits skip the pool entirely and
        fresh successes are stored back.
    trace:
        ``True`` asks each worker to capture a per-job trace (the trace
        rides inside the result payload, so it lands next to the cached
        arrays); ``None`` follows the parent's ``REPRO_TRACE`` setting.
    store:
        The out-of-core graph store every job's graph reaches its worker
        through: a :class:`GraphStore`, a directory path, or ``None`` to
        follow ``REPRO_GRAPH_STORE``.  With that unset too, the scheduler
        keeps a private store in a ``repro-graphs-*`` temporary directory
        (under ``TMPDIR``) with a :data:`PRIVATE_STORE_BYTES` budget, and
        :meth:`close` removes it.
    persistent:
        ``True`` keeps one ``ProcessPoolExecutor`` alive across ``run``
        calls instead of forking a fresh pool per batch — the always-on
        service mode, where ``run`` is called once per request and
        per-call pool startup would dominate.  Call :meth:`close` (or use
        the scheduler as a context manager) to shut the pool down; a pool
        broken by a hard worker crash is discarded and replaced on the
        next batch.

    ``run`` may be called from several threads at once: concurrent calls
    share the one persistent pool, and graph-store writes are serialized
    so the store keeps a single writer.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        timeout: float | None = None,
        retries: int = 0,
        cache: ResultCache | None = None,
        trace: bool | None = None,
        store: GraphStore | str | Path | None = None,
        persistent: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.cache = cache
        self.trace = _obs.is_tracing() if trace is None else bool(trace)
        if store is None:
            # The deployment's store directory; empty means unset.
            store = os.environ.get("REPRO_GRAPH_STORE") or None
        self._private_dir: tempfile.TemporaryDirectory | None = None
        if store is None:
            self._private_dir = tempfile.TemporaryDirectory(prefix="repro-graphs-")
            store = GraphStore(self._private_dir.name, max_bytes=PRIVATE_STORE_BYTES)
        elif not isinstance(store, GraphStore):
            store = GraphStore(store)
        self.store = store
        self.persistent = persistent
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._store_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #

    def _acquire_pool(self) -> tuple[ProcessPoolExecutor, bool]:
        """``(pool, owned)`` — owned pools are shut down after the batch."""
        if not self.persistent:
            return ProcessPoolExecutor(max_workers=self.workers), True
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool, False

    def _discard_broken_pool(self, pool: ProcessPoolExecutor) -> None:
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def warm_up(self) -> None:
        """Pre-fork a persistent pool's workers (no-op otherwise).

        The serve layer calls this at startup: forking happens while the
        parent is still thread-light (before the event loop spawns
        executor threads) and worker import cost is paid before the first
        request instead of inside it.
        """
        if not self.persistent:
            return
        pool, _ = self._acquire_pool()
        for fut in [pool.submit(warm_worker) for _ in range(self.workers)]:
            fut.result()

    def close(self) -> None:
        """End the scheduler: shut down a persistent pool and remove a
        private store (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self._private_dir is not None:
            self._private_dir.cleanup()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Input resolution
    # ------------------------------------------------------------------ #

    def _resolve_sources(
        self, requests: list[SolveRequest]
    ) -> dict[GraphSource, StoredGraphInfo | Exception]:
        """Resolve each distinct source once into the store."""
        resolved: dict[GraphSource, StoredGraphInfo | Exception] = {}
        for request in requests:
            if request.source in resolved:
                continue
            try:
                resolved[request.source] = self._resolve_one(request.source)
            except Exception as exc:  # structured parent-side failure
                resolved[request.source] = exc
        return resolved

    def _resolve_one(self, source: GraphSource) -> StoredGraphInfo:
        """The stored graph of ``source``, built only when the store lacks it.

        Generators with streaming variants build CSR shards straight to disk
        (never materialising the edge list here), and a repeat call reads the
        store's file for that call and generates nothing.  Other sources are
        resolved and fingerprinted, then built only on a store miss.  Hits
        take no lock, so a build (and its eviction) stalls only other builds.
        """
        if source.kind == "generator" and source.name in STREAMING_GENERATORS:
            name, args = source.name, dict(source.args)
            if info := self.store.generated(name, args):
                return info
            with self._store_lock:
                return self.store.ensure_generator(name, args, label=source.label())
        g = source.resolve()
        fingerprint = graph_fingerprint(g)
        if info := self.store.lookup(fingerprint):
            return info
        with self._store_lock:
            return self.store.lookup(fingerprint) or self.store.put_graph(
                g, source=source.label()
            )

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #

    def run(self, requests: list[SolveRequest]) -> BatchResult:
        """Execute a batch; returns results aligned with ``requests`` order.

        Every request names its input by ``source``; one without raises
        ``ValueError`` before any job runs.
        """
        sourceless = [i for i, r in enumerate(requests) if r.source is None]
        if sourceless:
            raise ValueError(
                f"batch requests need a source; requests {sourceless} have none"
            )
        t0 = time.perf_counter()
        stats = BatchStats(total=len(requests), workers=self.workers)
        results: list[JobResult | None] = [None] * len(requests)
        resolved = self._resolve_sources(requests)
        for res in resolved.values():
            if isinstance(res, StoredGraphInfo):
                if res.hit:
                    stats.store_hits += 1
                else:
                    stats.store_misses += 1

        pending: list[int] = []
        keys: dict[int, str] = {}
        for idx, request in enumerate(requests):
            res = resolved[request.source]
            if isinstance(res, Exception):
                results[idx] = JobResult(
                    spec=request,
                    status="error",
                    error_type=type(res).__name__,
                    error_message=f"input resolution failed: {res}",
                )
                continue
            keys[idx] = request.cache_key(res.fingerprint)
            t_lookup = time.perf_counter()
            hit = self.cache.get(keys[idx]) if self.cache is not None else None
            lookup_time = time.perf_counter() - t_lookup
            if hit is not None:
                # The stored wall_time is the original solve's; the lookup
                # cost is accounted separately in meta, not smeared over it.
                job = dict(hit.job)
                job["status"] = "ok"
                job["meta"] = {
                    **(job.get("meta") or {}),
                    "cache_hit": True,
                    "lookup_time": lookup_time,
                }
                results[idx] = _result_from_payload_dict(
                    request, job, attempts=0, cache_hit=True
                )
                stats.cache_hits += 1
                METRICS.inc("runtime.cache.hits")
            else:
                if self.cache is not None:
                    stats.cache_misses += 1
                    METRICS.inc("runtime.cache.misses")
                pending.append(idx)

        if pending:
            self._run_pool(requests, resolved, keys, pending, results, stats)

        final = [r for r in results if r is not None]
        assert len(final) == len(requests), "scheduler dropped a job"
        for r in final:
            if r.status == "ok":
                stats.ok += 1
            elif r.status == "timeout":
                stats.timeouts += 1
            else:
                stats.errors += 1
        stats.wall_time = time.perf_counter() - t0
        return BatchResult(results=final, stats=stats)

    def _run_pool(
        self,
        requests: list[SolveRequest],
        resolved: dict,
        keys: dict[int, str],
        pending: list[int],
        results: list[JobResult | None],
        stats: BatchStats,
    ) -> None:
        attempts = {idx: 0 for idx in pending}
        store_root = os.fspath(self.store.root)

        def make_payload(idx: int) -> dict:
            request = requests[idx]
            return {
                "spec": request.to_dict(),
                "graph_store": store_root,
                "fingerprint": resolved[request.source].fingerprint,
                "timeout": self.timeout,
                "trace": self.trace,
            }

        pool, owned = self._acquire_pool()
        broken = False
        try:
            queue = list(pending)
            while queue:
                futures = {}
                submit_failed: list[tuple[int, Exception]] = []
                for idx in queue:
                    try:
                        futures[pool.submit(run_job, make_payload(idx))] = idx
                    except Exception as exc:  # pool already broken
                        broken = broken or isinstance(exc, BrokenExecutor)
                        submit_failed.append((idx, exc))
                queue = []
                for idx, exc in submit_failed:
                    results[idx] = JobResult(
                        spec=requests[idx],
                        status="error",
                        attempts=attempts[idx] + 1,
                        error_type=type(exc).__name__,
                        error_message=f"pool submission failed: {exc}",
                    )
                for fut in as_completed(futures):
                    idx = futures[fut]
                    attempts[idx] += 1
                    request = requests[idx]
                    try:
                        out = fut.result()
                    except Exception as exc:
                        # Worker died without returning (e.g. hard crash,
                        # unpicklable payload): structured failure, pool-level.
                        broken = broken or isinstance(exc, BrokenExecutor)
                        out = {
                            "status": "error",
                            "error_type": type(exc).__name__,
                            "error_message": f"pool-level failure: {exc}",
                            "error_traceback": "",
                        }
                    if out.get("status") == "timeout":
                        METRICS.inc("runtime.worker.timeouts")
                    if out.get("status") != "ok" and attempts[idx] <= self.retries:
                        stats.retries_used += 1
                        METRICS.inc("runtime.worker.retries")
                        queue.append(idx)
                        continue
                    # Failure payloads may predate graph loading in the
                    # worker; the parent resolved the input, so report it.
                    desc = resolved[request.source]
                    out.setdefault("graph_n", desc.n)
                    out.setdefault("graph_m", desc.m)
                    if not out.get("fingerprint"):
                        out["fingerprint"] = desc.fingerprint
                    meta = out.get("meta")
                    if isinstance(meta, dict) and "store_fallback" in meta:
                        stats.store_fallbacks += 1
                        METRICS.inc("store.fallbacks")
                    results[idx] = _result_from_payload_dict(
                        request, out, attempts=attempts[idx]
                    )
                    if out.get("status") == "ok" and self.cache is not None:
                        self._store(keys[idx], results[idx], out)
        finally:
            if owned:
                pool.shutdown(wait=True)
            elif broken:
                # A hard worker crash poisons the whole executor; drop it so
                # the next batch on this persistent scheduler forks fresh.
                self._discard_broken_pool(pool)

    def _store(self, key: str, result: JobResult, out: dict) -> None:
        job = result.to_dict()
        job.pop("spec", None)  # the cache is content-addressed
        job.pop("attempts", None)
        job.pop("cache_hit", None)
        self.cache.put(
            key,
            job=job,
            arrays=out.get("arrays", {}),
            result_meta=out.get("result_meta"),
        )
