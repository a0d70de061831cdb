"""Batch-solver runtime: job specs, process-parallel scheduling, caching.

The substrate for serving many solves efficiently:

* :mod:`~repro.runtime.spec` — hashable, JSON-serializable job descriptions
  and structured results;
* :mod:`~repro.runtime.scheduler` — process-pool fan-out with per-job
  timeout, retry, and structured failure capture;
* :mod:`~repro.runtime.cache` — content-addressed result store (graph
  fingerprint x params digest), persisted as npz + JSONL;
* :mod:`~repro.runtime.suites` — the named workload-suite registry behind
  ``repro batch``.

Parallelism here is across jobs only: each solve, its seed scans
included, runs in one worker process.
"""

from .cache import CacheEntry, CacheStats, ResultCache
from .scheduler import BatchResult, BatchStats, ResolvedSource, Scheduler
from .spec import (
    PROBLEMS,
    GraphSource,
    JobResult,
    JobSpec,
    runtime_entry,
    runtime_problem_name,
)
from .suites import (
    WorkloadSuite,
    build_suite,
    get_suite,
    list_suites,
    register_suite,
)
from .worker import execute_spec, run_job

__all__ = [
    "BatchResult",
    "BatchStats",
    "CacheEntry",
    "CacheStats",
    "GraphSource",
    "JobResult",
    "JobSpec",
    "PROBLEMS",
    "ResolvedSource",
    "ResultCache",
    "Scheduler",
    "WorkloadSuite",
    "build_suite",
    "execute_spec",
    "get_suite",
    "list_suites",
    "register_suite",
    "run_job",
    "runtime_entry",
    "runtime_problem_name",
]
