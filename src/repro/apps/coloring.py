"""3-coloring the nodes of a linked list (paper abstract's application).

Iterating the matching partition function on node addresses yields
constant-size node labels with adjacent nodes distinct — i.e. a
``c``-coloring of the path for a small constant ``c`` (at most 6, the
fixed point of the label-magnitude recurrence).  Three parallel
recoloring rounds then eliminate colors 5, 4, 3: all nodes of the
doomed color (an independent set, since the coloring is proper)
simultaneously pick the smallest color in ``{0,1,2}`` unused by their
neighbors — two neighbors can exclude at most two of three candidates.

Total: ``O(n G(n)/p + G(n))`` with the plain iteration, or plug the
Match3/Match4 partition machinery for their respective bounds; the
reduction itself is ``O(n/p)``.
"""

from __future__ import annotations

import numpy as np

from .._util import require
from ..errors import VerificationError
from ..lists.linked_list import NIL, LinkedList
from ..bits.iterated_log import G
from ..core.functions import FunctionKind, iterate_f
from ..pram.cost import CostModel, CostReport

__all__ = [
    "six_coloring",
    "three_coloring",
    "three_coloring_via_matching",
    "verify_coloring",
]


def six_coloring(
    lst: LinkedList,
    *,
    p: int = 1,
    kind: FunctionKind = "msb",
    rounds: int | None = None,
) -> tuple[np.ndarray, CostReport]:
    """Constant-size proper coloring by iterated ``f`` (colors < 6).

    ``rounds`` defaults to ``G(n)``.  Returns ``(colors, report)``.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
    cost = CostModel(p)
    if rounds is None:
        rounds = G(lst.n)
    with cost.phase("iterate"):
        colors = iterate_f(lst, rounds, kind=kind, cost=cost)
    if lst.n > 1 and int(colors.max()) >= 6:
        raise VerificationError(
            f"colors not below 6 after {rounds} rounds; pass more rounds"
        )
    verify_coloring(lst, colors, 6)
    return colors, cost.report()


def three_coloring(
    lst: LinkedList,
    *,
    p: int = 1,
    kind: FunctionKind = "msb",
    rounds: int | None = None,
) -> tuple[np.ndarray, CostReport]:
    """Proper 3-coloring of the list's nodes.

    Runs :func:`six_coloring` then three reduction rounds.  Returns
    ``(colors, report)`` with colors in ``{0, 1, 2}``.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
    colors, base_report = six_coloring(lst, p=p, kind=kind, rounds=rounds)
    colors = colors.copy()
    cost = CostModel(p)
    cost.absorb(base_report)
    nxt = lst.next
    pred = lst.pred
    with cost.phase("reduce"):
        for doomed in (5, 4, 3):
            sel = np.flatnonzero(colors == doomed)
            if sel.size == 0:
                cost.sequential(1)
                continue
            left = pred[sel]
            right = nxt[sel]
            lc = np.where(left != NIL, colors[np.where(left != NIL, left, 0)], -1)
            rc = np.where(right != NIL, colors[np.where(right != NIL, right, 0)], -1)
            c0 = np.int64(0)
            c1 = np.int64(1)
            bad0 = (lc == c0) | (rc == c0)
            bad1 = (lc == c1) | (rc == c1)
            colors[sel] = np.where(~bad0, c0, np.where(~bad1, c1, np.int64(2)))
            cost.parallel(int(sel.size))
    verify_coloring(lst, colors, 3)
    return colors, cost.report()


def verify_coloring(lst: LinkedList, colors: np.ndarray, k: int) -> None:
    """Check that ``colors`` is a proper coloring of the path with
    values in ``[0, k)``; raises :class:`VerificationError` otherwise."""
    colors = np.asarray(colors, dtype=np.int64)
    if colors.size != lst.n:
        raise VerificationError(
            f"colors has {colors.size} entries for {lst.n} nodes"
        )
    if colors.size and (int(colors.min()) < 0 or int(colors.max()) >= k):
        raise VerificationError(f"colors must lie in [0, {k})")
    nxt = lst.next
    v = np.flatnonzero(nxt != NIL)
    clash = colors[v] == colors[nxt[v]]
    if np.any(clash):
        bad = int(v[np.flatnonzero(clash)[0]])
        raise VerificationError(
            f"nodes {bad} and {int(nxt[bad])} are adjacent and share "
            f"color {int(colors[bad])}"
        )


def three_coloring_via_matching(
    lst: LinkedList,
    *,
    p: int = 1,
    matcher: str = "match4",
    base_size: int = 8,
    **matcher_kwargs,
) -> tuple[np.ndarray, CostReport]:
    """3-coloring built *literally* on maximal matchings (contraction).

    The abstract's claim — "this algorithm can be used to compute ...
    a 3 coloring for a linked list" — made concrete: compute a maximal
    matching, splice out every matched pointer's head (an independent
    set), recursively 3-color the at-most-2/3-size remainder, then
    reinstate the spliced nodes, each picking the smallest color its
    two (already colored) neighbors avoid.  ``O(log n)`` matching
    rounds, geometric work.

    An alternative to :func:`three_coloring` (which iterates ``f``
    directly); both are verified proper, and E8 compares their costs.
    """
    from ..backends import ALGORITHMS, resolve

    require(p >= 1, f"p must be >= 1, got {p}")
    require(base_size >= 2, f"base_size must be >= 2, got {base_size}")
    resolve(matcher, "reference", lst.n)  # the apps run the oracle tier
    match_fn = ALGORITHMS[matcher].fn
    n = lst.n
    cost = CostModel(p)
    nxt = lst.next.copy()
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
            # record (removed node, its pred, its suc at removal time)
            levels.append((b, a.copy(), nxt[b].copy()))
            nxt[a] = nxt[b]
            alive[b] = False
            cost.parallel(int(a.size))
    colors = np.zeros(n, dtype=np.int64)
    with cost.phase("base"):
        # 2-color the surviving path by alternation along a walk.
        live_head = lst.head  # heads are never spliced out
        c = 0
        v = live_head
        steps = 0
        while v != NIL:
            colors[v] = c
            c = 1 - c
            v = int(nxt[v])
            steps += 1
        cost.sequential(steps)
    with cost.phase("expand"):
        for b, a, c_next in reversed(levels):
            ca = colors[a]
            cb_right = np.where(c_next != NIL,
                                colors[np.where(c_next != NIL, c_next, 0)],
                                -1)
            c0, c1 = np.int64(0), np.int64(1)
            bad0 = (ca == c0) | (cb_right == c0)
            bad1 = (ca == c1) | (cb_right == c1)
            colors[b] = np.where(~bad0, c0, np.where(~bad1, c1, np.int64(2)))
            cost.parallel(int(b.size))
    verify_coloring(lst, colors, 3)
    return colors, cost.report()
