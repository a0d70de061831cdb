"""Deadline-flushed micro-batching into the process-pool scheduler.

The batcher is the bridge between the service's asyncio front and the
synchronous :class:`~repro.runtime.scheduler.Scheduler`: requests are
enqueued as ``(request, future)`` items, and a single consumer task groups
them into batches — it takes the first item, then keeps collecting until
either ``max_batch`` items are pending or ``max_delay`` seconds have
passed since the batch opened — and runs each batch through
``Scheduler.run`` on the default thread executor.

Batching is what makes the scheduler's per-batch amortizations work for a
request stream: distinct sources resolve once per batch, same-source jobs
ship one buffer (or, with a graph store configured, a key and *no* bytes),
and cache lookups happen before any worker is touched.  Any mix of jobs is
compatible — ``Scheduler.run`` already dispatches heterogeneous
``(problem, model)`` batches — so grouping needs no affinity logic.

One batch runs at a time (the consumer awaits the executor call), which
serializes access to the scheduler and its cache; requests arriving while
a batch is on the pool accumulate into the next batch — exactly the
"batch while busy" shape that grows batches under load and keeps latency
at ``max_delay`` when idle.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..obs.metrics import METRICS
from ..api import SolveRequest
from ..runtime.scheduler import JobResult, Scheduler

__all__ = ["BatcherStats", "MicroBatcher"]


@dataclass
class BatcherStats:
    """Per-process batching counters."""

    jobs: int = 0
    batches: int = 0
    largest_batch: int = 0
    batch_failures: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.jobs / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": self.mean_batch_size,
            "batch_failures": self.batch_failures,
        }


class _Item:
    __slots__ = ("request", "future")

    def __init__(self, request: SolveRequest, future: asyncio.Future) -> None:
        self.request = request
        self.future = future


class MicroBatcher:
    """Queue + consumer task turning single submits into scheduler batches."""

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        max_batch: int = 16,
        max_delay: float = 0.01,
        executor: ThreadPoolExecutor | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.scheduler = scheduler
        self.max_batch = max_batch
        self.max_delay = max_delay
        # A dedicated one-thread executor, never the loop's default: batches
        # must not queue behind whatever the embedding application runs
        # there (starving the solve path deadlocks every waiter), and one
        # thread serializes scheduler access by construction.
        self.executor = executor or ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._own_executor = executor is None
        self.stats = BatcherStats()
        self._queue: asyncio.Queue[_Item] = asyncio.Queue()
        self._outstanding = 0
        self._drained: asyncio.Event = asyncio.Event()
        self._drained.set()
        self._consumer: asyncio.Task | None = None
        self._closing = False

    def start(self) -> None:
        """Spin up the consumer task (idempotent; needs a running loop)."""
        if self._consumer is None or self._consumer.done():
            self._closing = False
            self._consumer = asyncio.get_running_loop().create_task(
                self._consume(), name="repro-serve-batcher"
            )

    async def submit(self, request: SolveRequest) -> JobResult:
        """Enqueue one job; resolves with its :class:`JobResult`."""
        if self._closing:
            raise RuntimeError("batcher is draining; not accepting jobs")
        if self._consumer is None or self._consumer.done():
            raise RuntimeError("batcher not started (call start() first)")
        item = _Item(request, asyncio.get_running_loop().create_future())
        self._outstanding += 1
        self._drained.clear()
        await self._queue.put(item)
        return await item.future

    async def drain(self) -> None:
        """Stop accepting, wait for every queued job, stop the consumer."""
        self._closing = True
        await self._drained.wait()
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None
        if self._own_executor:
            self.executor.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Consumer
    # ------------------------------------------------------------------ #

    async def _collect(self) -> list[_Item]:
        """One batch: first item blocks, the rest race the deadline."""
        batch = [await self._queue.get()]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_delay
        while len(batch) < self.max_batch:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            try:
                batch.append(
                    await asyncio.wait_for(self._queue.get(), remaining)
                )
            except asyncio.TimeoutError:
                break
        return batch

    async def _consume(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._collect()
            requests = [item.request for item in batch]
            self.stats.jobs += len(batch)
            self.stats.batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
            METRICS.inc("serve.batch.flushes")
            METRICS.inc("serve.batch.jobs", len(batch))
            METRICS.observe("serve.batch.size", len(batch))
            try:
                result = await loop.run_in_executor(
                    self.executor, self.scheduler.run, requests
                )
                for item, job_result in zip(batch, result.results):
                    if not item.future.done():
                        item.future.set_result(job_result)
            except Exception as exc:  # noqa: BLE001 - scheduler-level failure
                self.stats.batch_failures += 1
                METRICS.inc("serve.batch.failures")
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(exc)
            finally:
                self._outstanding -= len(batch)
                if self._outstanding == 0:
                    self._drained.set()
