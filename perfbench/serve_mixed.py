"""The ``serve-mixed`` workload: a real ``repro serve`` subprocess over HTTP.

One server (``--workers 1``, empty cache dir) is driven by this process over
2 connections in a closed loop: each connection sends its next request only
after the previous reply arrived.  The request sequence is fixed by the
seed: small graphs (n 400-1000, d = 8) across five registry entries, where
about 70% of requests repeat an earlier key (cache reads) and about 30% are
fresh keys (a solve plus a cache write).  Per-layer numbers come from the
server's public surfaces: reply fields and a ``/metrics`` diff.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from common import ROOT, SETUPS, Ledger, clean_env, median, percentile, tree_peak_rss_mb

ENTRIES = (
    ("mis", "cclique"),
    ("matching", "cclique"),
    ("mis", "simulated"),
    ("matching", "simulated"),
    ("mis", "mpc-engine"),
)
SIZES = tuple(range(400, 1001, 100))
DEGREE = 8
FRESH = 0.3
CONNECTIONS = 2
#: Requests per block; ``solve_s`` is the median wall time of one block.
BLOCK = 250
#: At least this many requests per run, so p99 has ten samples beyond it.
MIN_REQUESTS = 1000
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
WORK = ROOT / "perfbench" / ".work"

#: Counters read from ``/metrics`` before and after the run.
COUNTERS = (
    "runtime_cache_hits",
    "runtime_cache_misses",
    "runtime_bytes_shipped",
    "serve_batch_jobs",
    "serve_batch_flushes",
    "serve_coalesced",
    "serve_rejected",
)


#: Path each simulated entry is held to: a fresh key's graph seed is redrawn
#: until the solver takes this path.  At n >= 700 about 3% of G(n, 8/n)
#: draws put matching/simulated on the low-degree path, whose L(G)^2 raises
#: the worker's peak memory by ~57 MB; unheld, peak RSS flipped with the seed.
PATHS = {("mis", "simulated"): "lowdeg", ("matching", "simulated"): "general"}
#: Requests generated per run; the run stops well before using them all.
MAX_REQUESTS = 3000


def _takes_path(problem: str, model: str, n: int, graph_seed: int) -> bool:
    from repro.core.api import uses_lowdeg_path
    from repro.core.params import Params
    from repro.graphs.streaming import gnp_block_graph

    path = PATHS.get((problem, model))
    if path is None:
        return True
    g = gnp_block_graph(n, DEGREE / n, graph_seed)
    lowdeg = uses_lowdeg_path(g, Params(), for_matching=problem == "matching")
    return lowdeg == (path == "lowdeg")


def request_sequence(seed: int) -> list[tuple]:
    """The seeded request keys ``(problem, model, n, graph seed)``, in order."""
    rng = random.Random(seed)
    keys: list[tuple] = []
    out = []
    for _ in range(MAX_REQUESTS):
        if not keys or rng.random() < FRESH:
            problem, model = rng.choice(ENTRIES)
            n = rng.choice(SIZES)
            base = seed * 10**9 + len(keys) * 1000
            graph_seed = next(
                s for s in range(base, base + 1000) if _takes_path(problem, model, n, s)
            )
            keys.append((problem, model, n, graph_seed))
            out.append(keys[-1])
        else:
            out.append(rng.choice(keys))
    return out


class RequestStream:
    """Hands the request sequence out in order to the client connections."""

    def __init__(self, keys: list[tuple]) -> None:
        self._keys = keys
        self._lock = threading.Lock()
        self.issued = 0

    def next(self, stop) -> tuple[int, tuple] | None:
        with self._lock:
            if self.issued == len(self._keys) or stop(self.issued):
                return None
            self.issued += 1
            return self.issued - 1, self._keys[self.issued - 1]


def _body(key: tuple) -> bytes:
    problem, model, n, graph_seed = key
    return json.dumps(
        {
            "problem": problem,
            "model": model,
            "source": {
                "kind": "generator",
                "name": "gnp_block_graph",
                "args": {"n": n, "p": DEGREE / n, "seed": graph_seed},
            },
        }
    ).encode()


def _http(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body, headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _metrics(port: int) -> dict[str, float]:
    _, text = _http(port, "GET", "/metrics")
    out = {}
    for line in text.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.partition(" ")
            out[name] = float(value)
    return out


class Server:
    """One ``repro serve`` subprocess with its own empty cache dir."""

    def __init__(self, workdir: str) -> None:
        self.dir = tempfile.mkdtemp(dir=workdir)
        self.log = open(os.path.join(self.dir, "server.log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1", "--port", "0",
             "--cache-dir", os.path.join(self.dir, "cache")],
            cwd=self.dir,
            env=clean_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://127.0.0.1:" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r} (exit {self.proc.returncode})")
        self.ready_s = time.perf_counter() - t0
        self.port = int(line.split("http://127.0.0.1:")[1].split()[0])

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill the whole session if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        try:  # pool workers share the session; none may outlive the server
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.stdout.close()
        self.log.close()


def _drive(port: int, stream: RequestStream, stop, out: list, t_start: float) -> None:
    while (item := stream.next(stop)) is not None:
        idx, key = item
        t0 = time.perf_counter()
        try:
            status, raw = _http(port, "POST", "/solve", _body(key))
            reply = json.loads(raw)
            err = None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, reply, err = 0, None, type(exc).__name__
        t1 = time.perf_counter()
        out.append({"idx": idx, "key": key, "latency": t1 - t0, "done": t1 - t_start,
                    "status": status, "reply": reply, "error": err})


def _check(samples: list[dict], ledger: Ledger) -> None:
    """Every reply must be 200 / ok / verified, and repeats must agree."""
    first: dict[tuple, tuple] = {}
    for s in sorted(samples, key=lambda s: s["idx"]):
        ledger.attempt()
        what = "/".join(map(str, s["key"]))
        reply = s["reply"]
        if s["error"]:
            ledger.fail(what, s["error"])
        elif s["status"] != 200:
            ledger.fail(what, f"HTTP{s['status']}", json.dumps(reply)[:200])
        elif not reply.get("ok"):
            res = reply.get("result", {})
            ledger.fail(what, "NotOk:" + (res.get("error_type") or res.get("status", "?")),
                        res.get("error_message", ""))
        elif not reply["result"].get("verified"):
            ledger.fail(what, "Unverified")
        else:
            got = (reply["result"]["rounds"], reply["result"]["solution_size"])
            if first.setdefault(s["key"], got) != got:
                ledger.fail(what, "ResultMismatch", f"{got} != {first[s['key']]}")


def run(seed: int, seconds: float) -> dict:
    keys = request_sequence(seed)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    servers: list[Server] = []
    try:
        # Set-up, several times: start a server and warm its pool; keep the last.
        for _ in range(SETUPS):
            if servers:
                servers[-1].stop()
            servers.append(Server(workdir))
        setup_s = median([s.ready_s for s in servers])
        server = servers[-1]
        before = _metrics(server.port)

        stream = RequestStream(keys)
        samples: list[dict] = []
        t_start = time.perf_counter()

        def stop(issued: int) -> bool:
            if issued < MIN_REQUESTS or issued % BLOCK:
                return False
            elapsed = time.perf_counter() - t_start
            block = elapsed / (issued / BLOCK)
            return elapsed + 0.5 * block >= seconds

        threads = [
            threading.Thread(
                target=_drive, args=(server.port, stream, stop, samples, t_start), daemon=True
            )
            for _ in range(CONNECTIONS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        busy_s = time.perf_counter() - t_start
        after = _metrics(server.port)
        peaks = tree_peak_rss_mb(server.proc.pid)
    finally:
        for s in servers:
            s.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = Ledger()
    _check(samples, ledger)
    done = sorted(s["done"] for s in samples)
    marks = [0.0] + done[BLOCK - 1 :: BLOCK]
    block_s = [b - a for a, b in zip(marks, marks[1:])]
    lat_ms = [s["latency"] * 1e3 for s in samples]
    e2e = {
        "solve_s": median(block_s),
        "peak_rss_mb": sum(peaks.values()),
        "setup_s": setup_s,
        "ok_frac": ledger.ok_frac(),
        "req_per_s": len(samples) / busy_s,
        "latency_p50_ms": median(lat_ms),
        "latency_p99_ms": percentile(lat_ms, 99.0),
    }

    good = [s for s in samples if s["status"] == 200 and s["reply"] and s["reply"].get("ok")]
    hits = [s for s in good if s["reply"]["cache_hit"]]
    coalesced = [s for s in good if s["reply"]["coalesced"]]
    misses = [s for s in good if not s["reply"]["cache_hit"] and not s["reply"]["coalesced"]]
    lookup = [s["reply"]["result"]["meta"].get("lookup_time", 0.0) for s in hits]
    # A hit carries the original solve's wall_time: only misses ran the solver.
    overhead = [
        s["latency"]
        - (0.0 if s["reply"]["cache_hit"] else s["reply"]["result"]["wall_time"])
        - s["reply"]["result"]["meta"].get("lookup_time", 0.0)
        for s in hits + misses
    ]
    diff = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in COUNTERS}
    lookups = diff["runtime_cache_hits"] + diff["runtime_cache_misses"]
    layers = {
        "serve.hit_latency_p50_ms": median([s["latency"] * 1e3 for s in hits]) if hits else 0.0,
        "serve.miss_latency_p50_ms": median([s["latency"] * 1e3 for s in misses]) if misses else 0.0,
        "serve.solve_s": sum(s["reply"]["result"]["wall_time"] for s in misses),
        "serve.overhead_ms": median(overhead) * 1e3 if overhead else 0.0,
        "serve.batch_size_mean": diff["serve_batch_jobs"] / max(diff["serve_batch_flushes"], 1),
        "serve.coalesced": len(coalesced),
        "serve.rejected": diff["serve_rejected"],
        "runtime.cache.hit_ratio": diff["runtime_cache_hits"] / max(lookups, 1),
        "runtime.cache.lookup_ms": median(lookup) * 1e3 if lookup else 0.0,
        "runtime.bytes_shipped": diff["runtime_bytes_shipped"],
    }
    artifact = {
        "requests": len(samples),
        "hits": len(hits),
        "misses": len(misses),
        "coalesced": len(coalesced),
        "busy_s": busy_s,
        "block_s": block_s,
        "setup_runs_s": [s.ready_s for s in servers],
        "process_peaks_mb": peaks,
        "metrics_diff": diff,
        "solve_share_of_busy": layers["serve.solve_s"] / busy_s,
    }
    return {"ledger": ledger, "end_to_end": e2e, "layers": layers, "artifact": artifact}
