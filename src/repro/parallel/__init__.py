"""Multiprocess execution: sharded batches.

The paper speaks in PRAM processors ``p``; this package is the
host-side counterpart for the one decomposition where worker
*processes* pay for their data movement: a batch of independent lists.
:mod:`~repro.parallel.executor` shards
:func:`repro.batch_maximal_matching` across a process pool by
node-balanced contiguous ranges and reassembles the results in input
order.

Sharded batches are **bit-identical** to the serial batch by
construction and fall back to serial execution (with a
``parallel.fallback`` telemetry event) when the pool infrastructure
fails.  The one knob is the explicit ``workers=`` integer; see
``docs/parallel.md``.
"""

from __future__ import annotations

from .pools import drop_pool, get_pool, shutdown_pools
from .executor import check_workers, run_sharded_batch, shard_bounds

__all__ = [
    "check_workers",
    "get_pool",
    "drop_pool",
    "shutdown_pools",
    "shard_bounds",
    "run_sharded_batch",
]
