"""Batch-solver runtime: process-parallel scheduling and result caching.

The substrate for serving many solves efficiently.  A job is a
:class:`~repro.api.SolveRequest` whose input is a
:class:`~repro.graphs.source.GraphSource`:

* :mod:`~repro.runtime.scheduler` — process-pool fan-out with per-job
  timeout, retry, and structured failure capture (:class:`JobResult`);
* :mod:`~repro.runtime.cache` — content-addressed result store (graph
  fingerprint x solve digest), one JSON and one npz file per entry;
* :mod:`~repro.runtime.suites` — the named workload-suite registry behind
  ``repro batch``.

Parallelism here is across jobs only: each solve, its seed scans
included, runs in one worker process.
"""

from .cache import CacheEntry, ResultCache
from .scheduler import BatchResult, BatchStats, JobResult, Scheduler
from .suites import (
    WorkloadSuite,
    build_suite,
    get_suite,
    list_suites,
    register_suite,
)
from .worker import run_job

__all__ = [
    "BatchResult",
    "BatchStats",
    "CacheEntry",
    "JobResult",
    "ResultCache",
    "Scheduler",
    "WorkloadSuite",
    "build_suite",
    "get_suite",
    "list_suites",
    "register_suite",
    "run_job",
]
