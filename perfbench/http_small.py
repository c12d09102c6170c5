"""Workload ``http_small``: small lists through ``repro serve``.

An open loop against a spawned ``repro serve`` with its default config
(port aside).  Arrivals are Poisson at ``RATE`` requests/s; at most
``nproc`` requests are in flight, one keep-alive connection per sender
thread, so a stalled server makes later requests late rather than
piling up clients.  Each request is timed from the moment it was due,
which charges a stall to every request it delays, and the generator's
lateness is reported.

Every ``/v1/match`` request carries an explicit ``next`` array of one
of ``SIZES`` nodes in random layout.  A stated share (``REPEAT``) of
requests resends one of the last ``RECENT`` distinct bodies, so the
server's LRU response cache (128 entries) is hit on that share and on
no other.  Bodies are encoded before the run starts.

The traced run adds client spans per request and, after the load,
times the service's own parse and the batch engine in-process on the
same bodies.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Callable

import numpy as np

from harness import OUT_DIR, ROOT, SETUP_REPS, Outcome, Trace, child_env, \
    clock, matching_error, med, pct, random_next

RATE = 50.0
SIZES = (64, 256, 1024, 4096)
REPEAT = 0.2
RECENT = 64
READY_TIMEOUT_S = 60.0
_HTTP = "op_ms_p50@http_small"
#: The per-layer metrics this workload measures, each with the
#: end-to-end metric and workload it should move ("none": it moves no
#: bounded metric).
PER_LAYER = {
    "service.server_ms_p50": _HTTP,
    "service.server_ms_p99": "none",
    "service.client_ms_p50": _HTTP,
    "service.parse_ms_p50": _HTTP,
    "batch.compute_ms_p50": _HTTP,
    "service.window_ms_p50": _HTTP,
    "service.cache_hit_frac": _HTTP,
    "service.shed": "none",
    "service.timeouts": "none",
    "loadgen.lag_ms_p99": "none",
}


def schedule(seed: int, count: int):
    """``(due offsets, bodies, next arrays)``; a repeated body shares
    its array with the first send."""
    rng = np.random.default_rng([seed, 7])
    due = np.cumsum(rng.exponential(1.0 / RATE, size=count))
    bodies, arrays, recent = [], [], []
    for _ in range(count):
        if recent and rng.random() < REPEAT:
            body, nxt = recent[int(rng.integers(len(recent)))]
        else:
            nxt = random_next(rng, SIZES[int(rng.integers(len(SIZES)))])
            body = json.dumps({"next": nxt.tolist()},
                              separators=(",", ":")).encode()
            recent = (recent + [(body, nxt)])[-RECENT:]
        bodies.append(body)
        arrays.append(nxt)
    return due, bodies, arrays


def spawn_server() -> tuple[subprocess.Popen, int, float]:
    """Start ``repro serve`` on a free port; return it with its port and
    the seconds from spawn until it printed its address."""
    OUT_DIR.mkdir(exist_ok=True)
    t0 = clock()
    with open(OUT_DIR / "server.log", "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log,
            text=True)
    deadline = t0 + READY_TIMEOUT_S
    while True:
        remaining = deadline - clock()
        ready, _, _ = select.select([proc.stdout], [], [], max(0, remaining))
        line = proc.stdout.readline() if ready else ""
        if "serving on" in line:
            return proc, int(line.rsplit(":", 1)[1]), clock() - t0
        if not ready or not line:
            stop_server(proc)
            raise RuntimeError("repro serve did not become ready; see "
                               f"{OUT_DIR / 'server.log'}")


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (the server drains), then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/v1/match", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def _load(port: int, due_abs, bodies, trace: Trace):
    """Send every body at its due time from ``nproc`` threads; returns
    per request ``[send, end, status, data]``."""
    results = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                break
            delay = due_abs[i] - clock()
            if delay > 0:
                time.sleep(delay)
            send = clock()
            try:
                status, data = _post(conn, bodies[i])
            except (OSError, http.client.HTTPException) as exc:
                status, data = -1, repr(exc).encode()
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=30)
            end = clock()
            results[i] = [send, end, status, data]
            trace.add("service.request", send, end, op=i)
        conn.close()

    threads = [threading.Thread(target=sender)
               for _ in range(os.cpu_count() or 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def run(seed: int, seconds: float, trace: Trace, size: str,
        tamper: Callable[[np.ndarray], np.ndarray] | None = None) -> Outcome:
    """``tamper`` (tests only) rewrites each response's tails before
    the check."""
    fix = tamper or (lambda tails: tails)
    out = Outcome()
    count = max(1, round(RATE * seconds))
    due, bodies, arrays = schedule(seed, count)
    out.facts = {"rate_per_s": RATE, "requests": count, "sizes": SIZES,
                 "repeat_share": REPEAT, "recent_window": RECENT,
                 "loop": f"open, at most {os.cpu_count()} in flight"}

    ready = []
    if not trace.enabled:
        for _ in range(SETUP_REPS[size] - 1):
            proc, _, ready_s = spawn_server()
            ready.append(ready_s)
            stop_server(proc)
    proc, port, ready_s = spawn_server()
    try:
        # Warm-up on lists the schedule never sends: first-use costs
        # belong to set-up.
        rng = np.random.default_rng([seed, 8])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        for n in SIZES:
            _post(conn, json.dumps({"next": random_next(rng, n).tolist()})
                  .encode())
        conn.close()
        t0 = clock() + 0.05
        results = _load(port, t0 + due, bodies, trace)
    finally:
        stop_server(proc)

    client_ms, server_ms, hit, miss = [], [], [], []
    statuses: dict[int, int] = {}
    for i, (send, end, status, data) in enumerate(results):
        client_ms.append((end - t0 - due[i]) * 1e3)
        statuses[status] = statuses.get(status, 0) + 1
        if status != 200:
            out.check(f"status {status}: {data[:200]!r}", f"request {i}")
            continue
        payload = json.loads(data)
        out.check(matching_error(arrays[i],
                                 fix(np.asarray(payload["tails"]))),
                  f"request {i}")
        server_ms.append(payload["latency_ms"])
        (hit if payload.get("cache") == "hit" else miss).append(i)
    served = statuses.get(200, 0)
    out.facts["statuses"] = statuses
    out.facts["cache_hit_share"] = len(hit) / max(1, served)
    out.facts["lag_ms_p99"] = pct(
        [(r[0] - t0 - due[i]) * 1e3 for i, r in enumerate(results)], 99)

    if trace.enabled:
        _layers(trace, results, bodies, arrays, hit, miss, server_ms,
                statuses, out, fix)
        return out
    ready.append(ready_s)
    out.end_to_end["setup_s"] = med(ready)
    out.samples["setup_s"] = len(ready)
    out.latencies(client_ms, "mixed")
    out.row("served_per_s", served / (max(r[1] for r in results) - t0),
            "1/s", "mixed", count)
    return out


def _layers(trace, results, bodies, arrays, hit, miss, server_ms, statuses,
            out, fix) -> None:
    from repro.backends.batch import batch_maximal_matching
    from repro.service.workload import parse_workload

    parse_ms, compute_ms = [], []
    for i, body in enumerate(bodies):
        a = clock()
        workload = parse_workload(json.loads(body), default_algorithm="match4",
                                  default_backend="numpy")
        b = clock()
        result = batch_maximal_matching([workload.lst], algorithm="match4",
                                        backend="numpy", p=1)
        c = clock()
        trace.add("service.parse_workload", a, b, op=i)
        trace.add("batch.batch_maximal_matching", b, c, op=i)
        parse_ms.append((b - a) * 1e3)
        compute_ms.append((c - b) * 1e3)
        out.check(matching_error(arrays[i], fix(result[0].tails)),
                  f"in-process {i}")

    ok = [i for i, r in enumerate(results) if r[2] == 200]
    by_index = dict(zip(ok, server_ms))
    layer = out.per_layer
    layer["service.server_ms_p50"] = med(server_ms)
    layer["service.server_ms_p99"] = pct(server_ms, 99)
    layer["service.client_ms_p50"] = med(
        [(results[i][1] - results[i][0]) * 1e3 - by_index[i] for i in ok])
    layer["service.parse_ms_p50"] = med(parse_ms)
    layer["batch.compute_ms_p50"] = med(compute_ms)
    # The server's latency_ms starts at enqueue, after the parse, so
    # only the compute is taken off it.
    layer["service.window_ms_p50"] = med(
        [by_index[i] - compute_ms[i] for i in miss])
    layer["service.cache_hit_frac"] = len(hit) / max(1, len(ok))
    layer["service.shed"] = statuses.get(429, 0) + statuses.get(503, 0)
    layer["service.timeouts"] = statuses.get(504, 0)
    layer["loadgen.lag_ms_p99"] = out.facts["lag_ms_p99"]
    for name in layer:
        out.samples[name] = len(bodies)
    out.state["service.server_ms_p50"] = "mixed"
    out.state["service.server_ms_p99"] = "mixed"
    out.state["service.client_ms_p50"] = "mixed"
