"""Data-dependent folds over a linked list (reference [15]'s problem).

The paper's lineage runs through Wagner–Han's *data dependent prefix
problem* [15]: combine per-node values along the list order with an
associative operator, where the order is known only through the
pointers.  List ranking is the special case ``op = +`` on all-ones;
this module provides the general form, built on the same
matching-contraction engine:

- :func:`list_suffix_fold` — ``out[v] = values[v] op values[suc(v)]
  op ... op values[tail]``;
- :func:`list_prefix_fold` — ``out[v] = values[head] op ... op
  values[v]`` (computed as a suffix fold of the mirrored list — the
  predecessor array *is* the reversed list, no ranking needed to build
  it);

with operators ``"sum"``, ``"max"``, ``"min"`` (any commutative
associative NumPy ufunc slots in via :data:`OPERATORS`).

Contraction correctness: each matched pointer ``<a, b>`` splices out
``b`` after folding ``acc[a] = op(acc[a], acc[b])`` — ``acc[v]`` always
holds the fold of the *contiguous run* of original nodes that ``v``
currently represents, so associativity alone justifies every merge.
Removed heads are pairwise non-adjacent, so all splices of one round
commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .._util import as_index_array, require
from ..errors import InvalidParameterError
from ..lists.linked_list import NIL, LinkedList
from ..backends import ALGORITHMS, resolve
from ..pram.cost import CostModel, CostReport

__all__ = ["OPERATORS", "list_suffix_fold", "list_prefix_fold"]

#: name -> elementwise combiner (associative; applied pairwise).
OPERATORS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
}


@dataclass(frozen=True)
class FoldStats:
    """Diagnostics of one contraction fold."""

    levels: int
    op: str
    matcher: str


def list_suffix_fold(
    lst: LinkedList,
    values: np.ndarray,
    *,
    op: str = "sum",
    p: int = 1,
    matcher: str = "match4",
    base_size: int = 32,
    **matcher_kwargs: Any,
) -> tuple[np.ndarray, CostReport, FoldStats]:
    """Fold each node's suffix of the list with ``op``.

    ``out[v] = values[v] op values[suc(v)] op ... op values[tail]``.

    Parameters mirror :func:`repro.apps.ranking.contraction_ranks`;
    the engine is the same, generalized from ``+``/ones to any
    registered operator and arbitrary values.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
    require(base_size >= 4, f"base_size must be >= 4, got {base_size}")
    if op not in OPERATORS:
        raise InvalidParameterError(
            f"unknown operator {op!r}; choose from {sorted(OPERATORS)}"
        )
    resolve(matcher, "reference", lst.n)  # the apps run the oracle tier
    combine = OPERATORS[op]
    match_fn = ALGORITHMS[matcher].fn
    values = as_index_array(values, name="values")
    n = lst.n
    if values.size != n:
        raise InvalidParameterError(
            f"values has {values.size} entries for {n} nodes"
        )
    cost = CostModel(p)
    nxt = lst.next.copy()
    acc = values.copy()
    alive = np.ones(n, dtype=bool)
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    with cost.phase("contract"):
        while int(alive.sum()) > base_size:
            live_nodes = np.flatnonzero(alive)
            m = live_nodes.size
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
            a = live_nodes[matching.tails]
            b = nxt[a]
            if b.size == 0:
                break
            # record b's state *before* the splice: its own accumulated
            # run-fold and its successor at removal time.
            levels.append((b, acc[b].copy(), nxt[b].copy()))
            acc[a] = combine(acc[a], acc[b])
            nxt[a] = nxt[b]
            alive[b] = False
            cost.parallel(int(a.size))
    out = np.zeros(n, dtype=np.int64)
    with cost.phase("base"):
        order = []
        v = lst.head  # never spliced (heads of matched pointers are
        # successors)
        while v != NIL:
            order.append(v)
            v = int(nxt[v])
        running = None
        for v in reversed(order):
            running = acc[v] if running is None else int(
                combine(np.asarray([acc[v]]), np.asarray([running]))[0]
            )
            out[v] = running
        cost.sequential(len(order))
    with cost.phase("expand"):
        for b, acc_b, next_b in reversed(levels):
            has_suc = next_b != NIL
            out_b = acc_b.copy()
            hb = np.flatnonzero(has_suc)
            out_b[hb] = combine(acc_b[hb], out[next_b[hb]])
            out[b] = out_b
            cost.parallel(int(b.size))
    stats = FoldStats(levels=len(levels), op=op, matcher=matcher)
    return out, cost.report(), stats


def list_prefix_fold(
    lst: LinkedList,
    values: np.ndarray,
    *,
    op: str = "sum",
    p: int = 1,
    matcher: str = "match4",
    base_size: int = 32,
    **matcher_kwargs: Any,
) -> tuple[np.ndarray, CostReport, FoldStats]:
    """Fold each node's prefix of the list with ``op``.

    ``out[v] = values[head] op ... op values[v]``.  Implemented as the
    suffix fold of the *mirrored* list — the predecessor array already
    encodes the reversed order, so the mirror costs one O(n/p) pass and
    no ranking.
    """
    pred = lst.pred.copy()
    mirror = LinkedList(pred, validate=False)
    out, report, stats = list_suffix_fold(
        mirror, values, op=op, p=p, matcher=matcher,
        base_size=base_size, **matcher_kwargs,
    )
    return out, report, stats
