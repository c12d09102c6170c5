"""Workload ``churn_64k``: edits on a dynamic list.

A seeded ``repro.dynamic.churn`` trace (default op mix, burstiness 0.2,
bursts of 8, hotspot 0.5) is generated once per run, before any timing:
the library's generator picks operands in O(n) per step, which is input
generation, not program time.  The trace is then replayed, as many
times as the run lasts, on a fresh ``DynamicList.from_list`` of the
same initial list (n = 2^16, random layout).  Each replayed op must
return the addresses the recorded trace holds.  At a fixed edit
interval a ``components()`` snapshot is taken and, outside the timed
regions, checked by the program's own verifiers and against a model
of the pointers that the benchmark builds from the trace.

Here the list is written, not read: the engine is idle, and the cost
is the O(1) local repair plus the O(component) Python walks of
``concat`` and ``splice_in``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from harness import SETUP_REPS, Outcome, Trace, child_seconds, clock, \
    matching_error, med, pct

EDIT_OPS = ("add_node", "insert_after", "delete", "split", "concat",
            "splice_out", "splice_in")
#: (n_initial, trace steps, snapshot interval) per size.
SIZES = {"full": (1 << 16, 6000, 1500), "tiny": (1 << 8, 200, 50)}
#: The per-layer metrics this workload measures, each with the
#: end-to-end metric and workload it should move ("none": it moves no
#: bounded metric).  ``concat`` and ``splice_in`` walk a component;
#: they sit above the median edit and move only the unbounded tail.
PER_LAYER = {
    **{f"dynamic.{op}_us_{q}": "none" if op in ("concat", "splice_in")
       else "op_ms_p50@churn_64k"
       for op in EDIT_OPS for q in ("p50", "p99")},
    "dynamic.moves_per_edit": "none",
    "dynamic.max_moves_per_edit": "none",
    "dynamic.from_list_ms": "setup_s@churn_64k",
    "dynamic.verify_ms": "none",
    "dynamic.snapshot_ms_p50": "none",
}

SETUP_CODE = """
import time
t0 = time.perf_counter()
from repro.dynamic import DynamicList
from repro.dynamic.churn import make_churn_list
t1 = time.perf_counter()
lst = make_churn_list("random", {n}, {seed})
t2 = time.perf_counter()
DynamicList.from_list(lst)
print(t1 - t0 + time.perf_counter() - t2)
"""


def _script(trace):
    """``(op, call args, expected return)`` per recorded step."""
    steps = []
    for _, op, args in trace:
        if op in ("insert_after", "split"):
            steps.append((op, args[:1], args[1]))
        elif op == "add_node":
            steps.append((op, (), args[0]))
        elif op == "splice_out":
            steps.append((op, args, args[0]))
        else:
            steps.append((op, args, None))
    return steps


def _shadow(lst, steps, snap_every: int) -> dict[int, tuple]:
    """The list after every ``snap_every``-th recorded edit, from a
    plain model of the pointers that applies each edit to dicts.

    Per snapshot step: the live addresses in order and each one's
    successor (-1 for none).  The model takes from the trace only the
    operands and the addresses of new nodes, so the check holds the
    arena to what the edits mean, not to what the arena did before.
    """
    nxt = {v: int(w) for v, w in enumerate(np.asarray(lst.next))}
    prd = dict.fromkeys(nxt, -1)
    for v, w in nxt.items():
        if w >= 0:
            prd[w] = v

    def link(a: int, b: int) -> None:
        if a >= 0:
            nxt[a] = b
        if b >= 0:
            prd[b] = a

    out = {}
    for k, op, args in steps:
        if op == "add_node":
            nxt[args[0]] = prd[args[0]] = -1
        elif op == "insert_after":
            v, u = args
            w = nxt[v]
            link(v, u)
            link(u, w)
        elif op == "delete":
            link(prd.pop(args[0]), nxt.pop(args[0]))
        elif op == "split":
            w = nxt[args[0]]
            nxt[args[0]] = prd[w] = -1
        elif op == "concat":
            link(*args)
        elif op == "splice_out":
            a, b = args
            p, w = prd[a], nxt[b]
            prd[a] = nxt[b] = -1
            link(p, w)
        else:  # splice_in: the component headed by h goes in after v
            v, h = args
            t = h
            while nxt[t] >= 0:
                t = nxt[t]
            w = nxt[v]
            link(v, h)
            link(t, w)
        if k % snap_every == 0:
            nodes = np.array(sorted(nxt), dtype=np.int64)
            out[k] = (nodes, np.array([nxt[v] for v in nodes.tolist()],
                                      dtype=np.int64))
    return out


def _snapshot_error(trace: Trace, root: int, k: int, dyn, comps, expected,
                    fix) -> str | None:
    """Why the snapshot ``comps`` at step ``k`` is wrong: the arena's
    own checks, then the pointers and the matching against the model's
    list ``expected``."""
    from repro.core.matching import verify_maximal_matching
    from repro.errors import VerificationError

    try:
        t0 = clock()
        dyn.verify()
        trace.add("dynamic.verify", t0, clock(), parent=root, op=k)
        for comp in comps:
            verify_maximal_matching(comp.lst, comp.tails)
    except VerificationError as exc:
        return str(exc)
    nodes, succ = expected
    got_nodes, got_succ, tails = [np.zeros(0, np.int64)], \
        [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for comp in comps:
        local = np.asarray(comp.lst.next)
        got_nodes.append(comp.nodes)
        got_succ.append(np.where(local >= 0, comp.nodes[local], -1))
        tails.append(comp.nodes[np.asarray(fix(comp.tails), np.int64)])
    got_nodes = np.concatenate(got_nodes)
    order = np.argsort(got_nodes)
    if not np.array_equal(got_nodes[order], nodes):
        return "the components hold other nodes than the edits leave"
    if not np.array_equal(np.concatenate(got_succ)[order], succ):
        return "a node's successor is not the one the edits leave"
    nxt = np.full(int(nodes.max()) + 1 if nodes.size else 0, -1, np.int64)
    nxt[nodes] = succ
    return matching_error(nxt, np.concatenate(tails))


def run(seed: int, seconds: float, trace: Trace, size: str,
        tamper: Callable[[np.ndarray], np.ndarray] | None = None) -> Outcome:
    """``tamper`` (tests only) rewrites each component's tails before
    the independent check."""
    from repro.dynamic import DynamicList
    from repro.dynamic.churn import ChurnConfig, ChurnSession, \
        make_churn_list

    n, steps, snap_every = SIZES[size]
    fix = tamper or (lambda tails: tails)
    out = Outcome()
    config = ChurnConfig(steps=steps, seed=seed, n_initial=n,
                         layout="random", burstiness=0.2, burst_len=8,
                         hotspot=0.5)
    t0 = clock()
    session = ChurnSession(config)
    session.run()
    script = _script(session.trace)
    lst = make_churn_list("random", n, seed)
    model = _shadow(lst, session.trace, snap_every)
    out.facts = {"n_initial": n, "trace_steps": steps,
                 "snapshot_every": snap_every,
                 "trace_generation_s": clock() - t0,
                 "applied": dict(sorted(session.applied.items()))}
    del session

    if not trace.enabled:
        setup = child_seconds(SETUP_CODE.format(n=n, seed=seed),
                              SETUP_REPS[size])
        out.end_to_end["setup_s"] = med(setup)
        out.samples["setup_s"] = len(setup)

    # Seconds per replay per step; nan where the step raised.
    edit_s: list[np.ndarray] = []
    end = clock() + seconds
    replay = 0
    while replay == 0 or clock() < end:
        root = trace.open("bench.replay", op=replay)
        edit_s.append(np.full(len(script), np.nan))
        t0 = clock()
        dyn = DynamicList.from_list(lst)
        trace.add("dynamic.from_list", t0, clock(), parent=root, op=replay)
        for k, (op, args, expected) in enumerate(script, start=1):
            fn = getattr(dyn, op)
            try:
                t0 = clock()
                got = fn(*args)
                t1 = clock()
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                out.check(f"{type(exc).__name__}: {exc}", f"step {k} {op}")
                continue
            edit_s[-1][k - 1] = t1 - t0
            trace.add(f"dynamic.{op}", t0, t1, parent=root, op=k)
            out.check(None if expected is None or got == expected else
                      f"returned {got}, trace holds {expected}",
                      f"step {k} {op}")
            if k % snap_every == 0:
                t0 = clock()
                comps = dyn.components()
                t1 = clock()
                trace.add("dynamic.components", t0, t1, parent=root, op=k)
                out.check(_snapshot_error(trace, root, k, dyn, comps,
                                          model[k], fix),
                          f"snapshot {k}")
        trace.close(root)
        replay += 1

    out.facts["replays"] = replay
    if trace.enabled:
        _layers(trace, dyn.ledger, out, replay)
        return out
    # Every replay makes the same edits, so each edit's best time over
    # the replays is its time with no other tenant on the core.
    best_ms = np.nanmin(edit_s, axis=0) * 1e3
    out.latencies(best_ms[~np.isnan(best_ms)], "cold")
    done = ~np.isnan(edit_s)
    out.row("edits_per_s", done.sum() / np.nansum(edit_s), "1/s", "cold",
            int(done.sum()))
    return out


def _layers(trace: Trace, ledger, out: Outcome, replays: int) -> None:
    layer = out.per_layer
    for op in EDIT_OPS:
        us = [ms * 1e3 for ms in trace.durations_ms(f"dynamic.{op}")]
        layer[f"dynamic.{op}_us_p50"] = med(us)
        layer[f"dynamic.{op}_us_p99"] = pct(us, 99)
        out.samples[f"dynamic.{op}_us_p50"] = len(us)
        out.samples[f"dynamic.{op}_us_p99"] = len(us)
    layer["dynamic.moves_per_edit"] = ledger.amortized_moves()
    layer["dynamic.max_moves_per_edit"] = ledger.max_moves_per_edit
    layer["dynamic.from_list_ms"] = med(trace.durations_ms(
        "dynamic.from_list"))
    layer["dynamic.verify_ms"] = med(trace.durations_ms("dynamic.verify"))
    layer["dynamic.snapshot_ms_p50"] = med(trace.durations_ms(
        "dynamic.components"))
    out.samples["dynamic.from_list_ms"] = replays
