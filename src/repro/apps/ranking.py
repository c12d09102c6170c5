"""List ranking — the problem that motivates the paper's machinery.

``rank[v]`` = number of links from ``v`` to the tail.  Three solvers:

- :func:`sequential_ranks` — the ``Theta(n)`` one-processor walk
  (the ``T_1`` reference).
- Wyllie's pointer jumping — ``Theta(n log n)`` work
  (:func:`repro.baselines.wyllie.wyllie_ranks`; re-exported through
  :func:`list_ranks`).
- :func:`contraction_ranks` — the work-optimal deterministic scheme
  the paper's matchings enable (Anderson–Miller [1] style): repeatedly
  compute a maximal matching, splice out every matched pointer's head
  (an independent set, so all splices commute), accumulate link
  weights, recurse on the ≤ 2/3-size remainder, then reinstate the
  spliced nodes level by level.  With Match4 as the matcher each level
  is optimal, giving ``O(n)`` total work.

The splice direction matters: a matched pointer ``<a, b>`` removes
``b`` (its head), and two removed heads are never adjacent — adjacency
would force two matched pointers to share ``b``.  Pointers whose head
is the current tail are skipped so the rank anchor survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .._util import require
from ..errors import InvalidParameterError
from ..lists.linked_list import NIL, LinkedList
from ..baselines.wyllie import wyllie_ranks
from ..backends import ALGORITHMS, resolve
from ..pram.cost import CostModel, CostReport

__all__ = [
    "sequential_ranks",
    "contraction_ranks",
    "list_ranks",
    "ContractionStats",
]


def sequential_ranks(lst: LinkedList) -> np.ndarray:
    """Distance-to-tail ranks by one sequential walk (the oracle)."""
    ranks = np.empty(lst.n, dtype=np.int64)
    ranks[lst.order] = np.arange(lst.n - 1, -1, -1, dtype=np.int64)
    return ranks


@dataclass(frozen=True)
class ContractionStats:
    """Diagnostics of one contraction-ranking run."""

    levels: int
    level_sizes: tuple[int, ...]
    base_size: int
    matcher: str


def contraction_ranks(
    lst: LinkedList,
    *,
    p: int = 1,
    matcher: str = "match4",
    base_size: int = 32,
    **matcher_kwargs: Any,
) -> tuple[np.ndarray, CostReport, ContractionStats]:
    """Work-optimal list ranking by matching contraction.

    Parameters
    ----------
    lst:
        Input list.
    p:
        Processor count for the cost accounting.
    matcher:
        Any algorithm in :data:`repro.backends.ALGORITHMS`.
    base_size:
        Below this many survivors, finish with a sequential walk.
    matcher_kwargs:
        Forwarded to the matcher (e.g. ``i=3`` for Match4).

    Returns ``(ranks, report, stats)``.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
    require(base_size >= 4, f"base_size must be >= 4, got {base_size}")
    resolve(matcher, "reference", lst.n)  # the apps run the oracle tier
    match_fn = ALGORITHMS[matcher].fn
    n = lst.n
    cost = CostModel(p)
    nxt = lst.next.copy()
    weight = np.where(nxt == NIL, 0, 1).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    # Per removed node: (address, weight at removal, successor at removal).
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    level_sizes: list[int] = []

    with cost.phase("contract"):
        while int(alive.sum()) > base_size:
            live_nodes = np.flatnonzero(alive)
            m = live_nodes.size
            level_sizes.append(int(m))
            # Compress live addresses to 0..m-1 for the matcher (a
            # prefix-sums pass: O(m/p + log m)).
            new_id = np.full(n, NIL, dtype=np.int64)
            new_id[live_nodes] = np.arange(m, dtype=np.int64)
            sub_next = np.where(
                nxt[live_nodes] == NIL, NIL, new_id[nxt[live_nodes]]
            )
            cost.parallel(m)
            cost.sequential(max(1, (max(2, m) - 1).bit_length()))
            sub = LinkedList(sub_next, validate=False)
            matching, sub_report, _ = match_fn(sub, p=p, **matcher_kwargs)
            cost.absorb(sub_report)
            # Back to original addresses; drop the pointer into the tail.
            a = live_nodes[matching.tails]
            b = nxt[a]
            keep = nxt[b] != NIL
            a, b = a[keep], b[keep]
            if a.size == 0:
                # Only the tail pointer was matched; with maximality
                # this implies m <= 3 — finish at the base case.
                break
            # Splice: removed heads are pairwise non-adjacent, so these
            # parallel updates never race.
            levels.append((b, weight[b].copy(), nxt[b].copy()))
            weight[a] += weight[b]
            nxt[a] = nxt[b]
            alive[b] = False
            cost.parallel(int(a.size))

    # Base case: sequential weighted walk over the survivors.
    ranks = np.zeros(n, dtype=np.int64)
    with cost.phase("base"):
        live_nodes = np.flatnonzero(alive)
        head = lst.head  # the head is never spliced out (heads of
        # matched pointers are successors of their tails)
        order = []
        v = head
        while v != NIL:
            order.append(v)
            v = int(nxt[v])
        # ranks[v] = weight[v] + ranks[suc(v)]; the tail's weight is 0,
        # so one uniform accumulation covers it.
        acc = 0
        for v in reversed(order):
            acc += int(weight[v])
            ranks[v] = acc
        cost.sequential(len(order))
        _ = live_nodes

    # Expansion: reinstate levels in reverse.
    with cost.phase("expand"):
        for b, w_b, next_b in reversed(levels):
            ranks[b] = w_b + ranks[next_b]
            cost.parallel(int(b.size))

    stats = ContractionStats(
        levels=len(levels),
        level_sizes=tuple(level_sizes[: len(levels)]),
        base_size=base_size,
        matcher=matcher,
    )
    return ranks, cost.report(), stats


def list_ranks(
    lst: LinkedList,
    *,
    p: int = 1,
    algorithm: str = "contraction",
    **kwargs: Any,
) -> tuple[np.ndarray, CostReport]:
    """Dispatch list ranking: ``"contraction"``, ``"wyllie"``, or
    ``"sequential"``."""
    if algorithm == "contraction":
        ranks, report, _ = contraction_ranks(lst, p=p, **kwargs)
        return ranks, report
    if algorithm == "wyllie":
        return wyllie_ranks(lst, p=p)
    if algorithm == "sequential":
        cost = CostModel(p)
        cost.sequential(lst.n)
        return sequential_ranks(lst), cost.report()
    raise InvalidParameterError(
        f"unknown ranking algorithm {algorithm!r}"
    )
