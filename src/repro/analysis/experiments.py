"""Measurement harness shared by the benchmark suite.

The benches in ``benchmarks/`` all follow one pattern: generate a
workload, run one or more algorithms over an ``(n, p)`` grid, collect
PRAM-time rows, assert the paper's shape claims, and render a table.
This module holds the run-one-cell and run-a-grid pieces so every bench
stays declarative.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..core.maximal_matching import maximal_matching
from ..core.matching import verify_maximal_matching
from ..lists.linked_list import LinkedList

__all__ = ["measure_matching", "sweep_grid"]


def measure_matching(
    lst: LinkedList,
    *,
    algorithm: str,
    p: int,
    verify: bool = True,
    **kwargs: Any,
) -> dict[str, Any]:
    """Run one algorithm once and return a structured row.

    Row keys: ``n, p, algorithm, time, work, cost, matched, phases``
    (phase → time dict) plus the algorithm's stats object under
    ``stats``.
    """
    result = maximal_matching(lst, algorithm=algorithm, p=p, **kwargs)
    matching, report = result.matching, result.report
    if verify:
        verify_maximal_matching(lst, matching.tails)
    return {
        "n": lst.n,
        "p": p,
        "algorithm": algorithm,
        "time": report.time,
        "work": report.work,
        "cost": report.cost,
        "matched": matching.size,
        "phases": {ph.name: ph.time for ph in report.phases},
        "stats": result.stats,
    }


def sweep_grid(
    make_list: Callable[[int], LinkedList],
    ns: Sequence[int],
    ps: Sequence[int] | Callable[[int], Iterable[int]],
    *,
    algorithm: str,
    verify: bool = True,
    **kwargs: Any,
) -> list[dict[str, Any]]:
    """Run an algorithm over an ``(n, p)`` grid.

    ``ps`` may be a fixed list or a callable ``n -> iterable of p`` (for
    sweeps like "p from 1 to n in powers of 4").  Lists are generated
    once per ``n`` and shared across the ``p`` axis (the cost model is
    the only thing that changes).
    """
    rows: list[dict[str, Any]] = []
    for n in ns:
        lst = make_list(int(n))
        p_values = ps(int(n)) if callable(ps) else ps
        for p in p_values:
            rows.append(
                measure_matching(
                    lst, algorithm=algorithm, p=int(p),
                    verify=verify, **kwargs,
                )
            )
    return rows


def powers_up_to(n: int, base: int = 4) -> list[int]:
    """``[1, base, base^2, ...]`` clipped at ``n`` (inclusive) — the
    standard processor axis used by the benches."""
    out = []
    p = 1
    while p < n:
        out.append(p)
        p *= base
    out.append(int(n))
    return out
