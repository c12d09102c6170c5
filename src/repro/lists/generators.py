"""Workload generators: memory layouts for the input linked list.

The algorithms' behaviour depends only on the *address permutation* the
list order visits, so workloads are layouts:

- :func:`random_list` — uniformly random permutation; the canonical
  adversary for symmetry-breaking algorithms and the layout all paper
  experiments default to.
- :func:`sequential_list` — order ``0, 1, 2, ...``: every pointer is a
  forward pointer crossing only fine bisecting lines (the easy case of
  the paper's Fig. 2 intuition; ``f`` degenerates to the lowest few
  labels).
- :func:`reversed_list` — order ``n-1, ..., 1, 0``: all backward
  pointers.
- :func:`sawtooth_list` — alternating long forward / short backward
  hops; maximizes distinct ``f`` labels per unit length and is the
  stress case for Lemma 1's ``2 log n`` bound.
- :func:`blocked_list` — random permutation *within* contiguous blocks,
  sequential across blocks; tunes the inter-row/intra-row pointer mix
  seen by Match4's 2-D layout.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._util import require
from .linked_list import LinkedList

__all__ = [
    "LAYOUTS",
    "list_from_order",
    "bit_reversal_list",
    "gray_code_list",
    "interleaved_list",
    "random_list",
    "sequential_list",
    "reversed_list",
    "sawtooth_list",
    "blocked_list",
]


def list_from_order(order) -> LinkedList:
    """Alias of :meth:`LinkedList.from_order` for symmetric imports."""
    return LinkedList.from_order(order)


def random_list(n: int, rng: np.random.Generator | int | None = None) -> LinkedList:
    """A list visiting a uniformly random permutation of ``0..n-1``.

    ``rng`` may be a :class:`numpy.random.Generator`, a seed, or
    ``None`` (fresh entropy).  All library benchmarks pass explicit
    seeds so runs are reproducible.
    """
    require(n >= 1, f"n must be >= 1, got {n}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return LinkedList.from_order(rng.permutation(n))


def sequential_list(n: int) -> LinkedList:
    """The identity layout: node ``v``'s successor is ``v + 1``."""
    require(n >= 1, f"n must be >= 1, got {n}")
    return LinkedList.from_order(np.arange(n, dtype=np.int64))


def reversed_list(n: int) -> LinkedList:
    """The reversed layout: node ``v``'s successor is ``v - 1``."""
    require(n >= 1, f"n must be >= 1, got {n}")
    return LinkedList.from_order(np.arange(n - 1, -1, -1, dtype=np.int64))


def sawtooth_list(n: int) -> LinkedList:
    """Interleave the low and high halves: ``0, m, 1, m+1, 2, ...``.

    Every pointer alternately jumps ``+m`` and ``-(m-1)`` where
    ``m = ceil(n/2)``, so consecutive pointers cross the coarsest
    bisecting line in opposite directions — the layout exercising the
    largest ``f`` labels on every single pointer.
    """
    require(n >= 1, f"n must be >= 1, got {n}")
    m = (n + 1) // 2
    low = np.arange(m, dtype=np.int64)
    high = np.arange(m, n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    order[0::2] = low
    order[1::2] = high
    return LinkedList.from_order(order)


def blocked_list(
    n: int,
    block: int,
    rng: np.random.Generator | int | None = None,
) -> LinkedList:
    """Random within blocks of ``block`` addresses, sequential across.

    With ``block`` equal to Match4's row count the layout concentrates
    pointers inside single columns; with ``block`` much larger it
    approaches :func:`random_list`.  Used by the E6/E7 ablations.
    """
    require(n >= 1, f"n must be >= 1, got {n}")
    require(block >= 1, f"block must be >= 1, got {block}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    order = np.arange(n, dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        order[start:stop] = start + rng.permutation(stop - start)
    return LinkedList.from_order(order)


def bit_reversal_list(n: int) -> LinkedList:
    """Visit addresses in bit-reversed order (FFT butterfly layout).

    Requires ``n`` a power of two.  Consecutive nodes differ in their
    high bits almost always, concentrating pointers on the *coarse*
    bisecting lines — the mirror image of :func:`sequential_list`.
    """
    require(n >= 1, f"n must be >= 1, got {n}")
    require(n & (n - 1) == 0, f"n must be a power of two, got {n}")
    if n == 1:
        return LinkedList.from_order([0])
    from ..bits.bitops import bit_reverse

    width = n.bit_length() - 1
    order = bit_reverse(np.arange(n, dtype=np.int64), width)
    return LinkedList.from_order(order)


def gray_code_list(n: int) -> LinkedList:
    """Visit addresses in reflected-Gray-code order.

    Requires ``n`` a power of two.  Every pointer's endpoints differ in
    *exactly one* bit, so each pointer crosses exactly one bisecting
    line cleanly — the layout where Fig. 2's picture is sharpest and
    ``f``'s label is fully determined by the flipped bit.
    """
    require(n >= 1, f"n must be >= 1, got {n}")
    require(n & (n - 1) == 0, f"n must be a power of two, got {n}")
    idx = np.arange(n, dtype=np.int64)
    order = idx ^ (idx >> 1)
    return LinkedList.from_order(order)


def interleaved_list(n: int, ways: int) -> LinkedList:
    """Round-robin over ``ways`` contiguous chunks: ``0, m, 2m, ...,
    1, m+1, 2m+1, ...`` where ``m = ceil(n/ways)`` — generalizing
    :func:`sawtooth_list` (the 2-way case).  Every pointer hops about
    ``m`` addresses, loading the mid-depth bisecting lines."""
    require(n >= 1, f"n must be >= 1, got {n}")
    require(1 <= ways <= n, f"need 1 <= ways <= n, got {ways}")
    m = -(-n // ways)
    chunks = [np.arange(s * m, min((s + 1) * m, n), dtype=np.int64)
              for s in range(ways)]
    maxlen = max(c.size for c in chunks)
    order = []
    for j in range(maxlen):
        for c in chunks:
            if j < c.size:
                order.append(int(c[j]))
    return LinkedList.from_order(np.asarray(order, dtype=np.int64))


#: Layout name -> ``maker(n, seed)``: the named layouts the CLI's
#: ``--layout`` and the service's ``{"layout": ...}`` specs accept.
LAYOUTS: dict[str, Callable[[int, int], LinkedList]] = {
    "random": lambda n, seed: random_list(n, rng=seed),
    "sequential": lambda n, seed: sequential_list(n),
    "reversed": lambda n, seed: reversed_list(n),
    "sawtooth": lambda n, seed: sawtooth_list(n),
    "blocked": lambda n, seed: blocked_list(n, block=max(1, n // 8),
                                            rng=seed),
    "gray": lambda n, seed: gray_code_list(n),
    "bitrev": lambda n, seed: bit_reversal_list(n),
    "interleaved": lambda n, seed: interleaved_list(n, ways=max(1, n // 16)),
}
