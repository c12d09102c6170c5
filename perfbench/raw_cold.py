"""Workload ``raw_cold_1m``: the cold library call on raw arrays.

A closed loop with one caller.  Each op hands a fresh random-permutation
``NEXT`` array (int64, n = 2^20) to ``repro.maximal_matching(arr,
backend="numpy")``; no array is used twice, so the engine never sees a
list it has prepared before.  At 2^20 each int64 array is 8 MiB: four
times the 2 MiB per-core L2 of the host the benchmark was tuned on and
well inside its 300 MiB L3, so the figures are L3-resident, not a DRAM
bandwidth measurement.

The traced run splits the same path into its public calls, each on
its own fresh array: validation, ingest, the engine's ``iterate_f``
(cold, then warm), ``cut_and_walk``, ``match4`` (cold, then warm on the
same object), the verifier, the full call, and once per run the bare
default call (reference tier) and the sequential baseline.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from harness import SETUP_REPS, Outcome, Trace, child_seconds, clock, \
    matching_error, med, random_next

SIZES = {"full": 1 << 20, "tiny": 1 << 12}
_COLD = "op_ms_p50@raw_cold_1m"
#: The per-layer metrics this workload measures, each with the
#: end-to-end metric and workload it should move ("none": it moves no
#: bounded metric).
PER_LAYER = {
    "lists.validate_ms": _COLD,
    "lists.ingest_ms": _COLD,
    "engine.iterate_f_cold_ms": _COLD,
    "engine.iterate_f_warm_ms": _COLD,
    "engine.cut_and_walk_ms": _COLD,
    "engine.match4_cold_ms": _COLD,
    "engine.match4_warm_ms": "none",
    "engine.sweep_ms": _COLD,
    "core.dispatch_ms": _COLD,
    "core.verify_ms": "none",
    "core.pram_steps": "none",
    "core.pram_work": "none",
    "core.matched_frac": "none",
    "core.default_call_ms": "none",
    "baselines.sequential_ms": "none",
}
DISPATCH_REPS = 200

SETUP_CODE = """
import time
t0 = time.perf_counter()
import numpy as np
import repro
repro.maximal_matching(np.array([1, 2, -1]), backend="numpy")
print(time.perf_counter() - t0)
"""


def _rng(seed: int, op: int, part: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, op, part])


def run(seed: int, seconds: float, trace: Trace, size: str,
        tamper: Callable[[np.ndarray], np.ndarray] | None = None) -> Outcome:
    """``tamper`` (tests only) rewrites each result's tails before the
    check, to show that a wrong answer is counted, not passed."""
    import repro

    n = SIZES[size]
    out = Outcome()
    out.facts = {"n": n, "array_bytes": 8 * n, "backend": "numpy",
                 "loop": "closed, 1 caller", "residency": "L3"}
    fix = tamper or (lambda tails: tails)
    # One untimed call first: first-use costs of the interpreter and
    # numpy belong to set-up, which setup_s measures separately.
    repro.maximal_matching(random_next(_rng(seed, 0, 9), n), backend="numpy")
    if trace.enabled:
        _traced(repro, seed, seconds, trace, n, out, fix)
        return out

    setup = child_seconds(SETUP_CODE, SETUP_REPS[size])
    out.end_to_end["setup_s"] = med(setup)
    out.samples["setup_s"] = len(setup)

    times = []
    end = clock() + seconds
    op = 0
    while op == 0 or clock() < end:
        nxt = random_next(_rng(seed, op), n)
        private = nxt.copy()
        t0 = clock()
        result = repro.maximal_matching(nxt, backend="numpy")
        t1 = clock()
        times.append(t1 - t0)
        out.check(matching_error(private, fix(result.matching.tails)),
                  f"op {op}")
        op += 1
    ms = [t * 1e3 for t in times]
    out.latencies(ms, "cold")
    out.row("nodes_per_s", n * len(times) / sum(times), "1/s", "cold",
            len(ms))
    return out


def _timed(trace: Trace, name: str, parent: int, op: int, state: str,
           fn, *args, **kwargs):
    t0 = clock()
    value = fn(*args, **kwargs)
    trace.add(name, t0, clock(), parent=parent, op=op, state=state)
    return value


def _traced(repro, seed: int, seconds: float, trace: Trace, n: int,
            out: Outcome, fix) -> None:
    from repro.backends import engine
    from repro.baselines.sequential import sequential_matching
    from repro.core.matching import verify_maximal_matching
    from repro.lists import LinkedList
    from repro.lists.validation import validate_next_array

    reports = []
    end = clock() + seconds
    op = 0
    while op == 0 or clock() < end:
        root = trace.open("bench.op", op=op)
        # validate, ingest, then match4 cold and warm on one fresh list.
        a = random_next(_rng(seed, op, 0), n)
        private_a = a.copy()
        _timed(trace, "lists.validate_next_array", root, op, "cold",
               validate_next_array, a.copy())
        lst = _timed(trace, "lists.LinkedList", root, op, "cold",
                     LinkedList, a)
        m, _, _ = _timed(trace, "engine.match4", root, op, "cold",
                         engine.match4, lst)
        _timed(trace, "engine.match4", root, op, "warm", engine.match4, lst)
        _timed(trace, "core.verify_maximal_matching", root, op, "cold",
               verify_maximal_matching, lst, m.tails)
        out.check(matching_error(private_a, fix(m.tails)), f"match4 op {op}")
        del lst, m
        # The whole call on its own fresh array.
        b = random_next(_rng(seed, op, 1), n)
        private_b = b.copy()
        result = _timed(trace, "core.maximal_matching", root, op, "cold",
                        repro.maximal_matching, b, backend="numpy")
        reports.append((result.report.time, result.report.work,
                        result.matching.size / max(1, n - 1)))
        out.check(matching_error(private_b, fix(result.matching.tails)),
                  f"call op {op}")
        del result
        # f rounds cold and warm, then the cut-and-walk on their labels.
        c = random_next(_rng(seed, op, 2), n)
        private_c = c.copy()
        lc = _timed(trace, "lists.LinkedList", root, op, "cold",
                    LinkedList, c)
        _timed(trace, "engine.iterate_f", root, op, "cold",
               engine.iterate_f, lc, 2)
        labels = _timed(trace, "engine.iterate_f", root, op, "warm",
                        engine.iterate_f, lc, 2)
        tails, _ = _timed(trace, "engine.cut_and_walk", root, op, "warm",
                          engine.cut_and_walk, lc, labels)
        out.check(matching_error(private_c, fix(tails)), f"cut op {op}")
        del lc
        trace.close(root)
        op += 1

    # Reference points, once per run: the bare default call and the
    # sequential greedy walk.
    root = trace.open("bench.reference", op=op)
    d = random_next(_rng(seed, op, 3), n)
    private_d = d.copy()
    result = _timed(trace, "core.maximal_matching", root, op, "default",
                    repro.maximal_matching, d)
    out.check(matching_error(private_d, fix(result.matching.tails)),
              "default call")
    e = random_next(_rng(seed, op, 4), n)
    private_e = e.copy()
    le = LinkedList(e)
    seq, _, _ = _timed(trace, "baselines.sequential_matching", root, op,
                       "cold", sequential_matching, le)
    out.check(matching_error(private_e, fix(seq.tails)), "sequential")
    # The dispatcher's own cost does not grow with n, so it is taken on
    # a 64-node list, where the whole call minus the engine is not
    # swamped by the noise of the O(n) stages.
    x = random_next(_rng(seed, op, 5), 64)
    for _ in range(DISPATCH_REPS):
        _timed(trace, "core.maximal_matching", root, op, "small",
               repro.maximal_matching, LinkedList(x), backend="numpy")
        _timed(trace, "engine.match4", root, op, "small", engine.match4,
               LinkedList(x))
    trace.close(root)

    def ms(name, state=None):
        return med(trace.durations_ms(name, state))

    layer = out.per_layer
    layer["lists.validate_ms"] = ms("lists.validate_next_array")
    layer["lists.ingest_ms"] = ms("lists.LinkedList")
    layer["engine.iterate_f_cold_ms"] = ms("engine.iterate_f", "cold")
    layer["engine.iterate_f_warm_ms"] = ms("engine.iterate_f", "warm")
    layer["engine.cut_and_walk_ms"] = ms("engine.cut_and_walk")
    layer["engine.match4_cold_ms"] = ms("engine.match4", "cold")
    layer["engine.match4_warm_ms"] = ms("engine.match4", "warm")
    layer["engine.sweep_ms"] = (layer["engine.match4_warm_ms"]
                                - layer["engine.cut_and_walk_ms"])
    layer["core.dispatch_ms"] = med(np.subtract(
        trace.durations_ms("core.maximal_matching", "small"),
        trace.durations_ms("engine.match4", "small")))
    layer["core.verify_ms"] = ms("core.verify_maximal_matching")
    layer["core.pram_steps"] = med([r[0] for r in reports])
    layer["core.pram_work"] = med([r[1] for r in reports])
    layer["core.matched_frac"] = med([r[2] for r in reports])
    layer["core.default_call_ms"] = ms("core.maximal_matching", "default")
    layer["baselines.sequential_ms"] = ms("baselines.sequential_matching")
    for name in layer:
        out.samples[name] = op
        if name.endswith("_warm_ms") or name in ("engine.sweep_ms",
                                                 "engine.cut_and_walk_ms"):
            out.state[name] = "warm"
