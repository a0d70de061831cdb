"""repro.serve — the always-on async solver service.

A long-running asyncio front door over the :data:`repro.api.REGISTRY`:
every registered ``(problem, model)`` solver is remotely callable over
HTTP (``POST /solve``) or a stdio JSON-lines transport, with in-flight
request coalescing, one persistent process-pool
:class:`~repro.runtime.scheduler.Scheduler` call per coalesced request,
explicit admission control (503 backpressure), and graceful drain.

Start one from the CLI (``repro serve``) or embed the pieces::

    service = SolverService(workers=2, cache=ResultCache(path))
    await service.start()
    server = await service.start_http(port=0)
    ...
    await service.drain()
"""

from .coalesce import Coalescer, CoalesceStats
from .protocol import (
    ProtocolError,
    ServeJob,
    coalesce_key,
    error_payload,
    parse_solve,
    solve_payload,
)
from .server import SolverService, stdio_streams

__all__ = [
    "CoalesceStats",
    "Coalescer",
    "ProtocolError",
    "ServeJob",
    "SolverService",
    "coalesce_key",
    "error_payload",
    "parse_solve",
    "solve_payload",
    "stdio_streams",
]
