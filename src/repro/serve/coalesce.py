"""In-flight request coalescing: N identical concurrent solves, one job.

The coalescer is a map from :func:`~repro.serve.protocol.coalesce_key` to
the shared :class:`asyncio.Future` of the solve currently in flight under
that key.  The first request to arrive under a key is the **leader** — it
owns actually producing the result (one ``Scheduler.run`` call) and
resolving the future; every request that arrives while the future is
unresolved is a **follower** and simply awaits it.  When the leader
finishes (result *or* failure), the key is released, so a later identical
request starts a fresh solve — in-flight dedup, not a cache (the
content-addressed :class:`~repro.runtime.cache.ResultCache` below the
scheduler handles across-time dedup).

Single-event-loop discipline: all methods must be called from the
service's event loop; no locks are needed because admission is atomic
between awaits.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

__all__ = ["Coalescer", "CoalesceStats"]


@dataclass
class CoalesceStats:
    """Served-process counters (monotone; snapshot with ``to_dict``)."""

    leaders: int = 0
    followers: int = 0

    @property
    def total(self) -> int:
        return self.leaders + self.followers

    @property
    def coalesce_ratio(self) -> float:
        """Requests served per scheduler-bound solve (1.0 = no sharing)."""
        return self.total / self.leaders if self.leaders else 0.0

    def to_dict(self) -> dict:
        return {
            "leaders": self.leaders,
            "followers": self.followers,
            "coalesce_ratio": self.coalesce_ratio,
        }


def _retrieve(fut: asyncio.Future) -> None:
    # Touch the exception so a leader whose every follower timed out does
    # not trigger "exception was never retrieved" noise at GC time.
    if not fut.cancelled():
        fut.exception()


class Coalescer:
    """Key -> in-flight future map with leader/follower admission."""

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future] = {}
        self.stats = CoalesceStats()

    def admit(self, key: str) -> tuple[asyncio.Future, bool]:
        """``(shared_future, is_leader)`` for one arriving request."""
        fut = self._inflight.get(key)
        if fut is not None and not fut.done():
            self.stats.followers += 1
            return fut, False
        fut = asyncio.get_running_loop().create_future()
        fut.add_done_callback(_retrieve)
        self._inflight[key] = fut
        self.stats.leaders += 1
        return fut, True

    def finish(self, key: str) -> None:
        """Release ``key`` (leader-side, after resolving the future)."""
        self._inflight.pop(key, None)

    def inflight(self) -> int:
        """Distinct solves currently in flight."""
        return len(self._inflight)
