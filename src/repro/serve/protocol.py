"""Wire format of the solver service (shared by HTTP and stdio).

One request is one JSON object — the same shape whether it arrives as an
HTTP ``POST /solve`` body or as a JSON line on stdin::

    {
      "problem": "mis",
      "model": "cclique",                # optional; default "simulated"
      "source": {"kind": "generator",    # a GraphSource dict
                 "name": "gnp_random_graph",
                 "args": {"n": 300, "p": 0.03, "seed": 0}},
      "eps": 0.5, "force": null, "paper_rule": false,
      "overrides": {}, "options": {}, "tag": "",
      "timeout": 30.0,                   # optional per-request budget (s)
      "include_solution": false,         # ship the solution array back
                                         # (needs the result cache)
      "id": "r-17"                       # optional correlation id (echoed)
    }

The body *is* a :class:`~repro.api.SolveRequest` dict
(:meth:`~repro.api.SolveRequest.to_dict`) plus transport extras, so the
record the service parses is the one ``solve()`` and the batch runtime
take, with the same construction checks: a ``(problem, model)`` pair the
registry does not hold, an ``overrides`` key that is not a ``Params``
field, or a ``force`` / ``paper_rule`` / ``options`` key the entry does
not read, is a 400 naming it.  A reply's ``result.spec`` can be posted
back as it is.  Its digest
(:meth:`~repro.api.SolveRequest.solve_digest`) is the params half of both
the result-cache key and the coalescer key — so "same request" means the
same thing on the wire, in flight, and on disk.

Responses are JSON objects too: ``ok`` / ``status`` / ``coalesced`` /
``cache_hit`` plus the full :class:`~repro.runtime.JobResult` dict under
``result`` (structured solver failures ride back with HTTP 200 — the
*transport* succeeded; 4xx/5xx are reserved for protocol errors and
admission control).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from ..api import SolveRequest
from ..runtime.scheduler import JobResult

__all__ = [
    "ProtocolError",
    "ServeJob",
    "coalesce_key",
    "error_payload",
    "parse_solve",
    "solve_payload",
]

#: Request fields the wire accepts: all but the in-process ``graph``.
_REQUEST_KEYS = frozenset(f.name for f in fields(SolveRequest)) - {"graph"}

#: Top-level keys a solve request may carry; anything else is rejected so
#: a typo ("overides") fails loudly instead of silently solving defaults.
_SOLVE_KEYS = _REQUEST_KEYS | {"op", "id", "timeout", "include_solution"}


class ProtocolError(ValueError):
    """A malformed request; ``code`` is the HTTP status it maps to."""

    def __init__(self, message: str, code: int = 400) -> None:
        super().__init__(message)
        self.code = code


class ServeJob:
    """One parsed solve request: the request plus its transport extras."""

    __slots__ = ("spec", "timeout", "include_solution", "request_id")

    def __init__(
        self,
        spec: SolveRequest,
        *,
        timeout: float | None = None,
        include_solution: bool = False,
        request_id: str | None = None,
    ) -> None:
        self.spec = spec
        self.timeout = timeout
        self.include_solution = include_solution
        self.request_id = request_id


def parse_solve(obj: object) -> ServeJob:
    """Validate one wire object into a :class:`ServeJob` (or raise 400)."""
    if not isinstance(obj, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - _SOLVE_KEYS
    if unknown:
        raise ProtocolError(f"unknown request keys: {sorted(unknown)}")
    problem = obj.get("problem")
    if not isinstance(problem, str) or not problem:
        raise ProtocolError("request needs a 'problem' string")
    if not isinstance(obj.get("source"), dict):
        raise ProtocolError("request needs a 'source' object (GraphSource dict)")
    timeout = obj.get("timeout")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
            raise ProtocolError("'timeout' must be a number of seconds")
        if timeout <= 0:
            raise ProtocolError("'timeout' must be positive")
        timeout = float(timeout)
    request_id = obj.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("'id' must be a string or integer")
    try:
        # A null value stands for the field's default.
        request = SolveRequest.from_dict(
            {k: v for k, v in obj.items() if k in _REQUEST_KEYS and v is not None}
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid solve request: {exc}") from None
    return ServeJob(
        request,
        timeout=timeout,
        include_solution=bool(obj.get("include_solution", False)),
        request_id=request_id,
    )


def coalesce_key(request: SolveRequest) -> str:
    """In-flight identity: source identity x answer digest.

    The params half is :meth:`~repro.api.SolveRequest.solve_digest` — the
    same digest the result-cache key uses — so two requests coalesce
    exactly when they would share a cache entry.  The input half is the
    *source description* (canonical JSON of the GraphSource) rather than
    the resolved graph fingerprint: coalescing must be decided before
    anything is built, and identical descriptions are guaranteed identical
    graphs (the generators are deterministic).  Distinct descriptions of
    the same graph miss the coalescer but still meet in the
    content-addressed cache, which keys on the resolved fingerprint.
    """
    src = json.dumps(request.source.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{src}:{request.solve_digest()}".encode()).hexdigest()


def solve_payload(
    result: JobResult,
    *,
    coalesced: bool,
    request_id: str | int | None = None,
    solution: list | None = None,
) -> dict:
    """The wire response for a completed (ok or structurally failed) job."""
    payload = {
        "ok": result.ok,
        "status": result.status,
        "coalesced": coalesced,
        "cache_hit": result.cache_hit,
        "result": result.to_dict(),
    }
    if request_id is not None:
        payload["id"] = request_id
    if solution is not None:
        payload["solution"] = solution
    return payload


def error_payload(
    code: int,
    error_type: str,
    message: str,
    *,
    request_id: str | int | None = None,
    **extra,
) -> dict:
    """The wire response for protocol errors and admission rejections."""
    payload = {
        "ok": False,
        "code": code,
        "error": {"type": error_type, "message": message, **extra},
    }
    if request_id is not None:
        payload["id"] = request_id
    return payload
