"""The ``"numpy"`` backend engine: whole-array kernels for Han's rounds.

Every PRAM round of the paper's algorithms applies one local rule to
all ``n`` pointers; this module executes each such round as one batch
of vectorized array operations:

- an ``f`` round is ``XOR`` + one bit-length table gather
  (:mod:`repro.bits.bitlen_tables`) + one comparison — or, once labels
  are small, a single gather into a cached pair table ``FT[a, b]``;
- Match4's per-column counting sorts become a block-structured
  counting rank (one ``bincount`` + per-position scatters);
- the WalkDown sweeps become one radix sort of a combined
  (class, step) key followed by per-step gather/scatter rounds over
  *push* arrays holding each pointer's already-labeled neighbors;
- the local-minima cut and the alternate-pointer walk are the same
  gather/scatter loops the reference tier runs, over predecessor and
  successor index arrays.

The rounds run over an *arena*: one or more lists laid back to back in
one flat node space (:class:`_Arena`).  A single list is an arena of
one, and a batch (:func:`repro.backends.batch.batch_maximal_matching`)
is an arena of many; both go through the same driver per algorithm.
Nothing is kept between calls.

Bit-identity and cost parity are the contract: for every supported
input the engine produces exactly the tails, stats, and Brent
:class:`~repro.pram.cost.CostReport` of the reference implementations
(the equivalence test suite and the selfcheck enforce this).  The
reference tier stays the oracle; this tier is how the hot path runs at
hardware speed.

Internal index arrays use ``int64`` (numpy gathers take a fast path
for native ``intp`` indices) while label/row payloads use ``int8`` so
the per-round working set stays cache-resident.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .._util import ceil_div, require
from ..bits.bitlen_tables import LSB16, TWO_MSB16, pair_label_table
from ..bits.iterated_log import G
from ..errors import InvalidParameterError, VerificationError
from ..lists.linked_list import NIL, LinkedList
from ..pram.cost import CostModel, CostReport
from ..core.cutwalk import CutWalkStats
from ..core.functions import max_label_after
from ..core.match1 import CONSTANT_LABEL_BOUND
from ..core.match4 import Match4Stats
from ..core.matching import Matching
from ..telemetry import resources as _resources
from ..telemetry.metrics import METRICS
from ..telemetry.spans import enabled as telemetry_enabled, span as telemetry_span

__all__ = [
    "ENGINE_LIMIT",
    "f_msb",
    "f_lsb",
    "iterate_f",
    "walk_segments",
    "cut_and_walk",
    "match1",
    "match4",
    "check_lists",
    "match_lists",
]

#: Exclusive bound on list sizes (and ``f`` inputs) the engine accepts;
#: the two-level 16-bit tables cover values below ``2**32`` and ``2**31``
#: keeps every intermediate in ``int64`` with headroom.  The reference
#: backend remains available beyond it.
ENGINE_LIMIT = 1 << 31

_MASK16 = np.int64(0xFFFF)


# ---------------------------------------------------------------------------
# f rounds on raw value arrays.
# ---------------------------------------------------------------------------

def _f_values(a: np.ndarray, b: np.ndarray, bound: int, kind: str) -> np.ndarray:
    """One ``f`` round on value arrays ``< bound``, as ``int8`` labels.

    No domain validation — internal fast path; callers guarantee
    ``a != b`` elementwise and ``0 <= a, b < bound <= 2**31``.
    """
    xv = a ^ b
    if kind == "msb":
        if bound <= (1 << 16):
            k2 = TWO_MSB16[xv]
        else:
            lo = TWO_MSB16[xv & _MASK16]
            xv >>= 16
            k2 = np.where(xv != 0, TWO_MSB16[xv] + np.int8(32), lo)
        # k = msb(a ^ b): a and b agree above bit k, so a_k = (a > b).
        return k2 + (a > b)
    iso = xv & -xv
    if bound <= (1 << 16):
        k = LSB16[iso]
    else:
        lo = iso & _MASK16
        k = np.where(lo != 0, LSB16[lo], LSB16[iso >> 16] + np.int8(16))
    bit = (a >> k.astype(np.int64)) & 1
    return (2 * k + bit.astype(np.int8)).astype(np.int8)


def _f_table_round(labels8: np.ndarray, cnext: np.ndarray, m: int,
                   kind: str) -> np.ndarray:
    """One ``f`` round on small labels (``< m``) via the pair table."""
    ft = pair_label_table(kind, m)
    b8 = labels8[cnext]
    idx = labels8.astype(np.int64)
    idx *= m
    idx += b8
    return ft[idx]


def _validate_f_args(a, b) -> tuple[np.ndarray, np.ndarray, int]:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if np.any(a == b):
        raise InvalidParameterError("f requires a != b elementwise")
    if a.size and (int(a.min()) < 0 or int(b.min()) < 0):
        raise InvalidParameterError("f requires non-negative addresses")
    bound = 1
    if a.size:
        bound = int(max(a.max(), b.max())) + 1
    if bound > ENGINE_LIMIT:
        raise InvalidParameterError(
            f"numpy backend f supports values below 2**31; got {bound - 1}. "
            f"Use the reference implementation for larger values."
        )
    return a, b, bound


def f_msb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table-driven :func:`repro.core.functions.f_msb` (bit-identical)."""
    a, b, bound = _validate_f_args(a, b)
    return _f_values(a, b, bound, "msb").astype(np.int64)


def f_lsb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table-driven :func:`repro.core.functions.f_lsb` (bit-identical)."""
    a, b, bound = _validate_f_args(a, b)
    return _f_values(a, b, bound, "lsb").astype(np.int64)


# ---------------------------------------------------------------------------
# The arena: one or more lists in one flat node space.
# ---------------------------------------------------------------------------

class _Arena:
    """Index arrays of one or more lists laid back to back.

    List ``b`` owns arena addresses ``offsets[b] .. offsets[b + 1] - 1``
    and its pointers are offset into that range.  Every pointer,
    predecessor and push stays inside its own list's segment, so a
    lockstep round over the arena is exactly a round of each list run
    alone.

    ``pdx`` is the predecessor array, :data:`NIL` at each head.  The
    per-node work arrays have length ``n + 1``: their last slot is a
    dummy that absorbs pushes and reads across missing neighbors, and
    index ``NIL == -1`` lands on it.  So an arena of one list uses the
    list's own ``NEXT`` and predecessor arrays as they are.
    """

    __slots__ = ("lists", "n", "num_lists", "sizes", "offsets", "nxt",
                 "cnext", "pdx", "has_ptr", "tailnodes")

    def __init__(self, lists: Sequence[LinkedList]) -> None:
        sizes = np.array([lst.n for lst in lists], dtype=np.int64)
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        n = int(offsets[-1])
        if len(lists) == 1:
            (lst,) = lists
            nxt = lst.next
            cnext = lst.circular_next()
            pdx = lst.pred
            tailnodes = np.array([lst.tail], dtype=np.int64)
        else:
            nxt = np.empty(n, dtype=np.int64)
            cnext = np.empty(n, dtype=np.int64)
            pdx = np.empty(n, dtype=np.int64)
            tailnodes = np.empty(len(lists), dtype=np.int64)
            for b, lst in enumerate(lists):
                o = int(offsets[b])
                hi = o + lst.n
                seg = nxt[o:hi]
                seg[:] = lst.next
                seg[seg != NIL] += o
                cnext[o:hi] = lst.circular_next()
                cnext[o:hi] += o
                pd = lst.pred
                pdx[o:hi] = np.where(pd == NIL, NIL, pd + o)
                tailnodes[b] = o + lst.tail
        self.lists = lists
        self.n = n
        self.num_lists = len(lists)
        self.sizes = sizes
        self.offsets = offsets
        self.nxt = nxt
        self.cnext = cnext
        self.pdx = pdx
        self.has_ptr = nxt != NIL
        self.tailnodes = tailnodes

    def local_addr(self) -> np.ndarray:
        """Each node's address within its own list, as a fresh array."""
        addr = np.arange(self.n, dtype=np.int64)
        if self.num_lists > 1:
            addr -= np.repeat(self.offsets[:-1], self.sizes)
        return addr


def _require_supported(n: int) -> None:
    if n >= ENGINE_LIMIT:
        raise InvalidParameterError(
            f"numpy backend supports n < 2**31, got {n}; "
            f"use backend='reference'"
        )


def _as_list(lst) -> LinkedList:
    if not isinstance(lst, LinkedList):
        lst = LinkedList(lst)
    _require_supported(lst.n)
    return lst


def _split_matchings(arena: _Arena, tails: np.ndarray,
                     chosen: np.ndarray) -> tuple[Matching, ...]:
    """Cut the arena's tails back into per-list verified matchings.

    ``tails`` comes out of ``flatnonzero`` — sorted, unique, in-range
    pointer tails — so only independence needs checking, one gather
    against the walk's own ``chosen`` mask.
    """
    if np.any(chosen[arena.pdx[tails]]):
        raise VerificationError(
            "numpy engine produced adjacent matched pointers"
        )
    pieces = np.split(tails, np.searchsorted(tails, arena.offsets[1:-1]))
    return tuple(
        Matching(lst, piece - o, pre_verified=True)
        for lst, piece, o in zip(arena.lists, pieces, arena.offsets.tolist())
    )


# ---------------------------------------------------------------------------
# Label iteration.
# ---------------------------------------------------------------------------

def _labels(arena: _Arena, rounds_per_list: np.ndarray, kind: str,
            cost: CostModel | None) -> np.ndarray:
    """Per-list ``f`` iteration from local addresses (``int8`` labels).

    List ``b`` iterates ``rounds_per_list[b]`` rounds; its nodes freeze
    afterwards while longer lists continue.  Lists with zero rounds
    (singletons) keep their local address ``0``.
    """
    max_rounds = int(rounds_per_list.max())
    if max_rounds == 0:
        return np.zeros(arena.n, dtype=np.int8)
    if telemetry_enabled():
        METRICS.counter("engine.f_rounds").inc(max_rounds)
    sizes = arena.sizes
    bound = int(sizes.max())
    addr = arena.local_addr()
    succ = arena.cnext if arena.num_lists == 1 else addr[arena.cnext]
    labels = _f_values(addr, succ, bound, kind)
    del addr, succ  # free them before the table rounds allocate
    mixed = bool((rounds_per_list != max_rounds).any())
    if mixed:
        needed = np.repeat(rounds_per_list, sizes)
        # Zero-round (singleton) lists keep their local address, 0.
        labels[needed < 1] = 0
    if cost is not None:
        cost.parallel(int(sizes[rounds_per_list >= 1].sum()))
    for r in range(2, max_rounds + 1):
        new = _f_table_round(labels, arena.cnext,
                             max_label_after(bound, r - 1), kind)
        labels = np.where(needed >= r, new, labels) if mixed else new
        if cost is not None:
            cost.parallel(int(sizes[rounds_per_list >= r].sum()))
    return labels


def iterate_f(lst: LinkedList, rounds: int, *, kind: str = "msb",
              cost: CostModel | None = None) -> np.ndarray:
    """Vectorized :func:`repro.core.functions.iterate_f` (final labels).

    Bit-identical to the reference for every supported input; the
    per-round invariant re-checks (and the ``return_history`` option)
    stay on the reference tier.
    """
    require(rounds >= 0, f"rounds must be >= 0, got {rounds}")
    lst = _as_list(lst)
    if lst.n == 1 or rounds == 0:
        return np.arange(lst.n, dtype=np.int64)
    labels = _labels(_Arena([lst]), np.array([rounds]), kind, cost)
    return labels.astype(np.int64)


# ---------------------------------------------------------------------------
# Local-minima cut + alternate-pointer walk (Match1 steps 3-4).
# ---------------------------------------------------------------------------

def walk_segments(nxt: np.ndarray, live: np.ndarray, starts: np.ndarray,
                  limit: int) -> tuple[np.ndarray, int]:
    """Walk alternate pointers through the live segments from ``starts``.

    The kernel of Match1 step 4: each start is the first live pointer of
    one cut segment; the walk chooses it, skips the next live pointer,
    and repeats until the segment ends.  Segments never interact — the
    cut guarantees a chosen pointer's neighbors are dead or skipped.

    ``nxt`` is the NEXT array, ``live`` the length-``n`` survived-the-cut
    mask, ``starts`` the segment-start addresses to walk, ``limit`` the
    round bound.

    Returns ``(chosen, rounds)``: the ascending addresses of the chosen
    pointers and the number of lockstep rounds the walk took (the
    maximum over the walked segments).
    """
    chosen = np.zeros(live.size, dtype=bool)
    current = starts
    rounds = 0
    while current.size:
        if rounds >= limit:
            raise VerificationError(
                f"sublist walk exceeded {limit} rounds: sublists are not "
                f"constant-length (labels too large?)"
            )
        rounds += 1
        chosen[current] = True
        w1 = nxt[current]
        w2 = nxt[w1[live[w1]]]
        current = w2[live[w2]]
    return np.flatnonzero(chosen), rounds


def _cut_and_walk_flat(arena: _Arena, labels: np.ndarray,
                       cost: CostModel | None,
                       max_walk_rounds: int | None = None,
                       ) -> tuple[np.ndarray, CutWalkStats, np.ndarray]:
    """Cut+walk over an arena.

    ``labels`` may be any signed integer dtype with values ``>= 0``
    (``-1`` serves as the absent-neighbor sentinel) whose order relation
    matches the reference labels' — the engine's encoded six-set labels
    (``raw + 1``) qualify.  Returns ``(tails, stats, chosen)`` where
    ``chosen`` is the length ``n + 1`` per-node mask (dummy slot false)
    so callers can verify independence without rebuilding it.
    """
    n = arena.n
    nxt = arena.nxt
    lab_next = labels[arena.cnext]
    lext = np.empty(n + 1, dtype=labels.dtype)
    lext[:n] = labels
    lext[n] = -1
    lab_prev = lext[arena.pdx]
    interior = arena.has_ptr & (arena.pdx != NIL)
    cut = (lab_prev > labels) & (labels < lab_next) & interior
    if cost is not None:
        cost.parallel(n)

    # A pointer is *live* when it survived the cut; liveext's dummy slot
    # makes pred/next probes branch-free.
    liveext = np.zeros(n + 1, dtype=bool)
    np.logical_and(arena.has_ptr, ~cut, out=liveext[:n])
    live = liveext[:n]
    # Segment starts: live pointers not preceded by a live pointer.
    current = np.flatnonzero(live & ~liveext[arena.pdx])
    num_segments = int(current.size)

    chosen = np.zeros(n + 1, dtype=bool)
    limit = max_walk_rounds if max_walk_rounds is not None else n
    idx, rounds = walk_segments(nxt, live, current, limit)
    chosen[idx] = True
    if cost is not None:
        cost.parallel(num_segments, depth=max(1, rounds))

    # End repair, per list (see core.cutwalk's module docstring).
    lp = arena.pdx[arena.tailnodes]
    lp = lp[lp != NIL]
    lp = lp[~chosen[lp]]
    repair = lp[~chosen[arena.pdx[lp]]]
    chosen[repair] = True
    end_repaired = bool(repair.size)
    if cost is not None:
        if arena.num_lists == 1:
            cost.sequential(1)
        else:
            cost.parallel(arena.num_lists)

    tails = np.flatnonzero(chosen[:n])
    stats = CutWalkStats(
        num_cut=int(np.count_nonzero(cut)),
        num_segments=num_segments,
        walk_rounds=rounds,
        end_repaired=end_repaired,
    )
    return tails, stats, chosen


def cut_and_walk(lst: LinkedList, node_labels: np.ndarray, *,
                 cost: CostModel | None = None,
                 max_walk_rounds: int | None = None,
                 ) -> tuple[np.ndarray, CutWalkStats]:
    """Vectorized :func:`repro.core.cutwalk.cut_and_walk` (bit-identical)."""
    labels = np.asarray(node_labels)
    if labels.dtype.kind not in "iu":
        raise InvalidParameterError(
            f"node_labels must be an integer array, got dtype {labels.dtype}"
        )
    n = lst.n
    if labels.size != n:
        raise VerificationError(
            f"node_labels has {labels.size} entries for {n} nodes"
        )
    if n <= 1:
        return np.empty(0, dtype=np.int64), CutWalkStats(0, 0, 0, False)
    if labels.size and int(labels.min()) < 0:
        raise InvalidParameterError("node_labels must be non-negative")
    arena = _Arena([lst])
    if np.any(labels == labels[arena.cnext]):
        raise VerificationError(
            "node_labels must be distinct on adjacent nodes for the cut"
        )
    tails, stats, _ = _cut_and_walk_flat(
        arena, np.asarray(labels, dtype=np.int64), cost, max_walk_rounds
    )
    return tails, stats


# ---------------------------------------------------------------------------
# Match1.
# ---------------------------------------------------------------------------

def _match1(lists: Sequence[LinkedList], *, p: int, kind: str = "msb",
            rounds: int | None = None,
            ) -> tuple[tuple[Matching, ...], CostReport, CutWalkStats]:
    """Match1 over ``lists`` as one arena.

    ``rounds=None`` runs ``G(n)`` rounds on each list of ``n`` nodes;
    singleton lists are never iterated, as in the reference.
    """
    _check_rounds(rounds)
    arena = _Arena(lists)
    cost = CostModel(p)
    rpl = (np.full(arena.num_lists, rounds, dtype=np.int64)
           if rounds is not None
           else np.array([G(int(nb)) for nb in arena.sizes], dtype=np.int64))
    rpl[arena.sizes == 1] = 0
    with cost.phase("iterate"):
        if int(rpl.max()) > 0:
            labels = _labels(arena, rpl, kind, cost)
        else:
            labels = arena.local_addr()
    bound = max(CONSTANT_LABEL_BOUND, 2 * CONSTANT_LABEL_BOUND)
    max_per_list = np.maximum.reduceat(labels, arena.offsets[:-1])
    bad = np.flatnonzero((max_per_list >= bound) & (arena.sizes > 1))
    if bad.size:
        b = int(bad[0])
        where = f"list {b}: " if arena.num_lists > 1 else ""
        raise VerificationError(
            f"{where}labels not constant-size after {int(rpl[b])} rounds "
            f"(max {int(max_per_list[b])}); pass more rounds"
        )
    with cost.phase("cutwalk"):
        tails, stats, chosen = _cut_and_walk_flat(arena, labels, cost)
    return _split_matchings(arena, tails, chosen), cost.report(), stats


def _check_rounds(rounds: int | None) -> None:
    require(rounds is None or rounds >= 0,
            f"rounds must be >= 0, got {rounds}")


def match1(lst: LinkedList, *, p: int = 1, kind: str = "msb",
           rounds: int | None = None,
           ) -> tuple[Matching, CostReport, CutWalkStats]:
    """Algorithm Match1 on the numpy backend.

    Bit-identical tails, stats, and cost report to
    :func:`repro.core.match1.match1` for every supported input.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
    lst = _as_list(lst)
    if lst.n > 1:
        (matching,), report, stats = _match1([lst], p=p, kind=kind,
                                             rounds=rounds)
        return matching, report, stats
    _check_rounds(rounds)
    cost = CostModel(p)
    with cost.phase("iterate"):
        pass
    with cost.phase("cutwalk"):
        pass
    return (Matching(lst, np.empty(0, dtype=np.int64), pre_verified=True),
            cost.report(), CutWalkStats(0, 0, 0, False))


# ---------------------------------------------------------------------------
# Match4: block counting ranks + WalkDown sweeps.
# ---------------------------------------------------------------------------

def _block_ranks(arena: _Arena, labels8: np.ndarray, x: int) -> np.ndarray:
    """Stable rank of each node's label within its address block.

    Equals the row assigned by the reference layout's stable per-column
    counting sort: rank = (#smaller labels in block) + (#equal labels at
    earlier in-block positions).  One bincount builds the per-(block,
    label) start offsets; ``x`` strided scatter rounds place the
    positions, so all blocks must share the width ``x``: an arena of
    one list.
    """
    n = arena.n
    nb = ceil_div(n, x)
    base = arena.local_addr()
    base //= x
    base *= x + 1
    bb = np.arange(nb, dtype=np.int64) * (x + 1)
    counts = np.bincount(base + labels8, minlength=nb * (x + 1))
    # Per-block exclusive prefix via one contiguous cumsum: the global
    # exclusive prefix minus each block's start (column x + 1 of each
    # block is an always-empty separator, so blocks never bleed).
    rf = np.empty(nb * (x + 1), dtype=np.int64)
    rf[0] = 0
    np.cumsum(counts[:-1], out=rf[1:])
    starts = rf[:: x + 1].copy()
    rf.reshape(nb, x + 1)[:, :] -= starts[:, None]
    row = np.empty(n, dtype=np.int8)
    for pos in range(x):
        labp = labels8[pos::x]
        if labp.size == 0:
            break
        idx = bb[:labp.size] + labp
        r = rf[idx]
        row[pos::x] = r
        rf[idx] = r + 1
    return row


def _arena_ranks(arena: _Arena, labels8: np.ndarray, xs: np.ndarray,
                 ys: np.ndarray) -> np.ndarray:
    """:func:`_block_ranks` for lists of differing block widths ``xs``.

    Blocks are numbered globally in ascending address order, so equal
    (block, label) runs stay contiguous under one stable by-label sort;
    a node's rank is its run's start offset plus its place in the run.
    """
    n = arena.n
    nblocks = np.zeros(arena.num_lists + 1, dtype=np.int64)
    np.cumsum(ys, out=nblocks[1:])
    bid = arena.local_addr()
    bid //= np.repeat(xs, arena.sizes)
    bid += np.repeat(nblocks[:-1], arena.sizes)
    width = int(xs.max()) + 1
    flatbin = bid * width + labels8
    counts = np.bincount(flatbin, minlength=int(nblocks[-1]) * width)
    rf = np.empty(counts.size, dtype=np.int64)
    rf[0] = 0
    np.cumsum(counts[:-1], out=rf[1:])
    starts = rf[::width].copy()
    rf.reshape(-1, width)[:, :] -= starts[:, None]
    order1 = np.argsort(labels8, kind="stable")
    srt = flatbin[order1]
    pos = np.arange(n, dtype=np.int64)
    runstart = np.maximum.accumulate(
        np.where(np.r_[True, srt[1:] != srt[:-1]], pos, 0)
    )
    seq = np.empty(n, dtype=np.int64)
    seq[order1] = pos - runstart
    return (rf[flatbin] + seq).astype(np.int8)


_MEX_TABLES: tuple[np.ndarray, ...] | None = None


def _mex_tables() -> tuple[np.ndarray, ...]:
    """49-entry greedy-3-labeling tables over *encoded* neighbor labels.

    Encoding: ``0`` = no/unprocessed neighbor, else ``raw label + 1``.
    Entry ``e1 * 7 + e2`` is the encoded ``_mex3`` choice — built from
    the reference ``_mex3`` so the greedy decisions agree exactly.
    """
    global _MEX_TABLES
    if _MEX_TABLES is None:
        from ..core.walkdown import _mex3

        e1 = np.repeat(np.arange(7, dtype=np.int64), 7) - 1
        e2 = np.tile(np.arange(7, dtype=np.int64), 7) - 1
        mexi = (_mex3(0, e1, e2) + 1).astype(np.int8)
        mexa = (_mex3(3, e1, e2) + 1).astype(np.int8)
        tables = (mexi, (mexi * np.int8(7)), mexa, (mexa * np.int8(7)))
        for t in tables:
            t.setflags(write=False)
        _MEX_TABLES = tables
    return _MEX_TABLES


def _sweep_labels6(arena: _Arena, labels8, row, intra, max_x,
                   ) -> tuple[np.ndarray, int, int]:
    """Both WalkDown sweeps: encoded six-set labels per node.

    Returns ``(labels6_encoded, max_inter_step, max_intra_step)`` with
    the max steps ``-1`` when the class is empty.  The combined key —
    ``row`` for inter-row pointers, ``max_x + label + row`` for
    intra-row ones — preserves the reference schedule: all inter-row
    steps of a list precede all its intra-row steps (``row < x <=
    max_x``), and steps ascend within each class in lockstep across
    lists, which is safe because pushes never cross list boundaries.
    """
    n = arena.n
    if 3 * max_x - 2 < 255:
        sk = np.where(intra,
                      labels8.view(np.uint8) + row.view(np.uint8)
                      + np.uint8(max_x),
                      row.view(np.uint8))
        sk[~arena.has_ptr] = np.uint8(255)
    else:
        sk = np.where(intra,
                      labels8.astype(np.int16) + row + np.int16(max_x),
                      row.astype(np.int16))
        sk[~arena.has_ptr] = np.int16(32000)
    order = np.argsort(sk, kind="stable")
    num_ptrs = n - arena.num_lists
    tt = order[:num_ptrs]
    sks = sk[tt]
    bounds = np.searchsorted(sks, np.arange(3 * max_x, dtype=np.int64)
                             .astype(sk.dtype)).tolist()
    bounds.append(num_ptrs)
    inter_count = bounds[max_x]
    max_inter = int(sks[inter_count - 1]) if inter_count else -1
    max_intra = (int(sks[num_ptrs - 1]) - max_x
                 if num_ptrs > inter_count else -1)
    pdt = arena.pdx[tt]
    ndt = arena.nxt[tt]
    ndt[~arena.has_ptr[ndt]] = NIL   # no right neighbor: the dummy
    mexi, mexi7, mexa, mexa7 = _mex_tables()
    cl7 = np.zeros(n + 1, dtype=np.int8)   # 7 * encoded left-neighbor label
    cre = np.zeros(n + 1, dtype=np.int8)   # encoded right-neighbor label
    labout = np.empty(num_ptrs, dtype=np.int8)
    for s in range(3 * max_x):
        lo = bounds[s]
        hi = bounds[s + 1]
        if lo == hi:
            continue
        g = tt[lo:hi]
        idx = cl7[g] + cre[g]
        if s < max_x:
            lab = mexi[idx]
            lab7 = mexi7[idx]
        else:
            lab = mexa[idx]
            lab7 = mexa7[idx]
        labout[lo:hi] = lab
        cre[pdt[lo:hi]] = lab      # tell the left neighbor its right label
        cl7[ndt[lo:hi]] = lab7     # tell the right neighbor its left label
    l6e = np.zeros(n, dtype=np.int8)
    l6e[tt] = labout
    return l6e, max_inter, max_intra


def _match4(lists: Sequence[LinkedList], *, p: int, iterations: int = 2,
            kind: str = "msb", strategy: str = "iterate",
            memory_limit: int = 1 << 24, step1_table=None,
            check: bool = False,
            ) -> tuple[tuple[Matching, ...], CostReport, Match4Stats]:
    """Match4 over ``lists`` as one arena.

    List ``b`` of ``n_b >= 2`` nodes gets its own block width ``x_b``
    and ``y_b`` blocks; the stats report the widest ``x`` and the total
    ``y``, which for one list are the reference's own.  The ``"table"``
    step-1 strategy stays reference-only; ``memory_limit`` is its
    budget, accepted for signature parity.
    """
    _check_match4(iterations, strategy, step1_table)
    arena = _Arena(lists)
    i = iterations
    cost = CostModel(p)
    n = arena.n
    active = arena.sizes >= 2
    with cost.phase("partition"):
        labels = _labels(arena, np.where(active, i, 0), kind, cost)
    xs = np.array(
        [max(2, max_label_after(int(nb), i)) if nb > 1 else 1
         for nb in arena.sizes],
        dtype=np.int64,
    )
    ys = (arena.sizes + xs - 1) // xs
    x = int(xs.max())
    y = int(ys[active].sum())
    with cost.phase("sort"):
        if arena.num_lists == 1:
            row = _block_ranks(arena, labels, x)
        else:
            row = _arena_ranks(arena, labels, xs, ys)
        cost.parallel(y, depth=x)
    intra = arena.has_ptr & (row == row[arena.cnext])
    num_intra = int(np.count_nonzero(intra))
    num_inter = (n - arena.num_lists) - num_intra

    with telemetry_span("engine.sweep", n=n, x=x, y=y) as sp:
        rt = _resources.phase_begin("engine.sweep")
        try:
            l6e, max_inter, max_intra = _sweep_labels6(arena, labels, row,
                                                       intra, x)
        finally:
            if rt is not None:
                _resources.phase_end(rt, None, sp)
        sp.set(max_inter=max_inter, max_intra=max_intra)
    with cost.phase("walkdown1"):
        if num_inter:
            cost.parallel(y, depth=max(1, max_inter + 1))
    with cost.phase("walkdown2"):
        if num_intra:
            cost.parallel(y, depth=max(1, max_intra + 1))
    if check:
        from ..core.partition import verify_matching_partition

        for lst, o in zip(arena.lists, arena.offsets.tolist()):
            raw = l6e[o:o + lst.n].astype(np.int64) - 1
            verify_matching_partition(lst, raw)

    with cost.phase("cutwalk"):
        tails, cw, chosen = _cut_and_walk_flat(arena, l6e, cost)
    stats = Match4Stats(
        i=i, strategy="iterate", x=x, y=y,
        num_inter=num_inter, num_intra=num_intra, cutwalk=cw,
    )
    return _split_matchings(arena, tails, chosen), cost.report(), stats


def _check_match4(iterations: int, strategy: str, step1_table) -> None:
    require(iterations >= 1, f"iterations must be >= 1, got {iterations}")
    if strategy != "iterate":
        raise InvalidParameterError(
            f"numpy backend implements strategy='iterate' only, got "
            f"{strategy!r}; use backend='reference' for the table strategy"
        )
    if step1_table is not None:
        raise InvalidParameterError(
            "step1_table belongs to the 'table' strategy; the numpy "
            "backend takes neither"
        )


def match4(lst: LinkedList, *, p: int = 1, iterations: int = 2,
           kind: str = "msb", strategy: str = "iterate",
           memory_limit: int = 1 << 24, step1_table=None,
           check: bool = False,
           ) -> tuple[Matching, CostReport, Match4Stats]:
    """Algorithm Match4 on the numpy backend (``strategy="iterate"``).

    Bit-identical tails, stats, and cost report to
    :func:`repro.core.match4.match4` for every supported input.  Unlike
    the reference, ``check`` defaults to ``False``: the engine verifies
    matching independence inline for free, and ``check=True`` adds the
    full six-set partition verification.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
    lst = _as_list(lst)
    if lst.n > 1:
        (matching,), report, stats = _match4(
            [lst], p=p, iterations=iterations, kind=kind, strategy=strategy,
            memory_limit=memory_limit, step1_table=step1_table, check=check,
        )
        return matching, report, stats
    _check_match4(iterations, strategy, step1_table)
    return (
        Matching(lst, np.empty(0, dtype=np.int64), pre_verified=True),
        CostModel(p).report(),
        Match4Stats(iterations, strategy, 1, 1, 0, 0,
                    CutWalkStats(0, 0, 0, False)),
    )


# ---------------------------------------------------------------------------
# Many lists in one call.
# ---------------------------------------------------------------------------

_DRIVERS = {"match1": _match1, "match4": _match4}


def check_lists(algorithm: str, lists: Sequence[LinkedList]) -> None:
    """Raise unless :func:`match_lists` can run ``algorithm`` on ``lists``."""
    if algorithm not in _DRIVERS:
        raise InvalidParameterError(
            f"batch on the numpy backend implements {sorted(_DRIVERS)}, "
            f"not {algorithm!r}; use backend='reference' for the per-list "
            f"loop"
        )
    if lists:
        _require_supported(max(lst.n for lst in lists))


def match_lists(lists: Sequence[LinkedList], algorithm: str, *, p: int = 1,
                **options: Any,
                ) -> tuple[tuple[Matching, ...], CostReport]:
    """Run ``algorithm`` once over all of ``lists``, as one arena.

    ``options`` are the keyword arguments of :func:`match1` or
    :func:`match4`.  Returns one verified :class:`Matching` per list,
    in order, each bit-identical to a per-list call, and the aggregate
    lockstep :class:`CostReport`: one phase structure for the whole
    arena, each round charged at the width of all lists still active.
    """
    check_lists(algorithm, lists)
    if not lists:
        return (), CostModel(p).report()
    matchings, report, _ = _DRIVERS[algorithm](lists, p=p, **options)
    return matchings, report
