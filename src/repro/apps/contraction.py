"""Uniform linked-list contraction (Han 2020) atop maximal matchings.

Han's *Uniform Linked Lists Contraction* (arXiv:2002.05034) contracts
a linked list to a single node in rounds: each round computes a
maximal matching of the current list and merges every matched
pointer's head into its tail.  Matched pointers are endpoint-disjoint
(the paper's Lemma 1 invariant), so all merges of a round commute and
apply in one parallel step; maximality guarantees the matching covers
at least ``ceil((m-1)/3)`` pointers of an ``m``-node list, so every
round retires at least a third of the remaining pointers and the
schedule has ``O(log n)`` rounds — the "uniform" rate that gives the
scheme its name.

The contraction *tree* is returned as a ``parent`` array —
``parent[b] = a`` when pointer ``<a, b>`` was matched in some round —
plus per-round diagnostics.  The survivor accumulates merged payload
values, so ``values[survivor] == lst.values.sum()`` is a checkable
conservation invariant.

:func:`contract_dynamic` drives round 0 off a
:class:`~repro.dynamic.DynamicList`'s *maintained* matching instead of
computing one — the dynamic tier's matching is already maximal, so a
live session gets its first contraction round for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .._util import require
from ..errors import VerificationError
from ..lists.linked_list import NIL, LinkedList
from ..core.matching import verify_maximal_matching
from ..backends import ALGORITHMS, resolve
from ..pram.cost import CostModel, CostReport

__all__ = [
    "UniformContractionStats",
    "contract_dynamic",
    "contraction_representatives",
    "uniform_contraction",
    "verify_contraction",
]


@dataclass(frozen=True)
class UniformContractionStats:
    """Diagnostics of one uniform-contraction run."""

    rounds: int
    level_sizes: tuple[int, ...]
    total_merges: int
    matcher: str
    seeded_round: bool

    @property
    def uniform_rate_held(self) -> bool:
        """Whether every round retired >= 1/4 of its nodes (the
        ``(m-1)/3`` guarantee with rounding slack)."""
        for before, after in zip(self.level_sizes, self.level_sizes[1:]):
            if before > 4 and (before - after) * 4 < before:
                return False
        return True


def uniform_contraction(
    lst: LinkedList,
    *,
    p: int = 1,
    matcher: str = "match4",
    first_tails: np.ndarray | None = None,
    **matcher_kwargs: Any,
) -> tuple[np.ndarray, CostReport, UniformContractionStats]:
    """Contract ``lst`` to one node; returns ``(parent, report, stats)``.

    ``parent[v]`` is the node ``v`` was merged into (:data:`NIL` for
    the unique survivor — the list's head, since merges always pull a
    pointer's head into its tail).

    ``first_tails`` optionally supplies round 0's maximal matching
    (tail addresses); it is verified, then later rounds use
    ``matcher``.  This is the hook the dynamic tier uses to feed its
    maintained matching in.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
    resolve(matcher, "reference", lst.n)  # the apps run the oracle tier
    match_fn = ALGORITHMS[matcher].fn
    n = lst.n
    cost = CostModel(p)
    nxt = lst.next.copy()
    values = lst.values.copy()
    alive = np.ones(n, dtype=bool)
    parent = np.full(n, NIL, dtype=np.int64)
    level_sizes: list[int] = [n]
    seeded = first_tails is not None
    first = True

    with cost.phase("contract"):
        while int(alive.sum()) > 1:
            live_nodes = np.flatnonzero(alive)
            m = live_nodes.size
            # Compress live addresses to 0..m-1 for the matcher.
            new_id = np.full(n, NIL, dtype=np.int64)
            new_id[live_nodes] = np.arange(m, dtype=np.int64)
            sub_next = np.where(
                nxt[live_nodes] == NIL, NIL, new_id[nxt[live_nodes]]
            )
            cost.parallel(m)
            sub = LinkedList(sub_next, validate=False)
            if first and seeded:
                tails = np.asarray(first_tails, dtype=np.int64)
                local = np.sort(new_id[tails])
                verify_maximal_matching(sub, local)
                cost.parallel(int(local.size))
            else:
                matching, sub_report, _ = match_fn(
                    sub, p=p, **matcher_kwargs)
                cost.absorb(sub_report)
                local = matching.tails
            first = False
            # Merge each matched pointer's head into its tail — the
            # endpoint-disjointness of a matching makes this one
            # conflict-free parallel step.
            a = live_nodes[local]
            b = nxt[a]
            parent[b] = a
            values[a] += values[b]
            nxt[a] = nxt[b]
            alive[b] = False
            cost.parallel(int(a.size))
            survivors = int(alive.sum())
            if survivors == m:
                raise VerificationError(
                    f"contraction stalled at {m} nodes: the round's "
                    f"matching was empty")
            level_sizes.append(survivors)

    survivor = int(np.flatnonzero(alive)[0])
    if values[survivor] != int(lst.values.sum()):
        raise VerificationError(
            "contraction lost payload: survivor accumulated "
            f"{int(values[survivor])} of {int(lst.values.sum())}")
    stats = UniformContractionStats(
        rounds=len(level_sizes) - 1,
        level_sizes=tuple(level_sizes),
        total_merges=n - 1,
        matcher=matcher,
        seeded_round=seeded,
    )
    return parent, cost.report(), stats


def contraction_representatives(parent: np.ndarray) -> np.ndarray:
    """Resolve every node to its final survivor through ``parent``.

    Pointer-chasing with path compression; ``O(n alpha)`` sequential,
    used by the verifier and by consumers that need cluster labels.
    """
    parent = np.asarray(parent, dtype=np.int64)
    rep = np.arange(parent.size, dtype=np.int64)
    for v in range(parent.size):
        chain = []
        r = v
        while parent[r] != NIL:
            chain.append(r)
            r = int(parent[r])
            if len(chain) > parent.size:
                raise VerificationError(
                    "parent array contains a cycle")
        for c in chain:
            rep[c] = r
    return rep


def verify_contraction(lst: LinkedList, parent: np.ndarray) -> None:
    """Check a contraction tree is complete and rooted at the head.

    Every node must resolve to a single common survivor, the survivor
    must be the only node without a parent, and the round count
    implied by tree depth must exist (acyclicity) — violations raise
    :class:`VerificationError`.
    """
    parent = np.asarray(parent, dtype=np.int64)
    if parent.size != lst.n:
        raise VerificationError(
            f"parent has {parent.size} entries for {lst.n} nodes")
    roots = np.flatnonzero(parent == NIL)
    if roots.size != 1:
        raise VerificationError(
            f"contraction must leave exactly 1 survivor, found "
            f"{roots.size}")
    if int(roots[0]) != lst.head:
        raise VerificationError(
            f"survivor {int(roots[0])} is not the head {lst.head}: "
            f"merges must pull heads into tails")
    rep = contraction_representatives(parent)
    if not np.all(rep == roots[0]):
        stray = int(np.flatnonzero(rep != roots[0])[0])
        raise VerificationError(
            f"node {stray} resolves to {int(rep[stray])}, not the "
            f"survivor {int(roots[0])}")


def contract_dynamic(
    dyn: Any, *, p: int = 1, matcher: str = "match4",
    **matcher_kwargs: Any,
) -> list[tuple[Any, np.ndarray, CostReport, UniformContractionStats]]:
    """Contract every component of a dynamic session.

    Round 0 of each component reuses the session's *maintained*
    matching (``first_tails``).  Each entry is ``(snapshot, parent,
    report, stats)``: ``parent`` is the contraction tree in the
    snapshot's local ids, and ``snapshot.nodes[local]`` translates any
    local id back to its arena address.  ``dyn`` is a
    :class:`~repro.dynamic.DynamicList`; typed loosely to keep the
    apps layer import-light.
    """
    out = []
    for snap in dyn.components():
        parent, report, stats = uniform_contraction(
            snap.lst, p=p, matcher=matcher,
            first_tails=snap.tails, **matcher_kwargs)
        out.append((snap, parent, report, stats))
    return out
