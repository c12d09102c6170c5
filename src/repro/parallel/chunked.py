"""Chunked single-list mode: the cut-walk phase across worker processes.

One huge list cannot be sharded like a batch — the label and sweep
rounds follow list order.  But after the local-minima **cut**, the
surviving pointers form segments whose walks never interact (the cut
kills both neighbors of every boundary: Lemma 1's endpoint
disjointness).  That is the one phase where the work decomposes into
truly independent pieces, so it is the one phase this module
distributes:

1. the parent runs labeling, the cut, and segment discovery exactly as
   the serial engine does;
2. the discovered segment starts are split into contiguous blocks, and
   each worker walks its block over the full ``NEXT``/live buffers
   (walks chase pointers through *address space*, so every worker
   needs the whole array — permuted layouts jump anywhere);
3. the parent ORs the per-block chosen masks and runs the sequential
   end-repair fix-up, untouched from the serial engine.

Because each segment's walk depends only on its own start (and the
shared immutable buffers), the union of the block results equals the
serial :func:`~repro.backends.engine.walk_segments` output *by
construction*, and the round count is the max over blocks — exactly
the serial max over segments.  Bit-identity is structural, not
approximate; ``docs/parallel.md`` spells out the argument.

:class:`ParallelWalker` plugs into the engine through the ``_walker``
hook on :func:`~repro.backends.engine.match1` /
:func:`~repro.backends.engine.match4`; the ``numpy-mp`` backend's
algorithm entries here are those functions with the walker bound to
the process-default :class:`~repro.parallel.config.ParallelConfig`.
"""

from __future__ import annotations

import pickle
from concurrent.futures import BrokenExecutor

import numpy as np

from ..backends import engine
from ..telemetry.metrics import METRICS
from ..telemetry.spans import event as telemetry_event, span as telemetry_span
from .config import ParallelConfig, get_default_config
from . import pools

__all__ = ["ParallelWalker", "match1", "match4"]

POOL_ERRORS = (BrokenExecutor, OSError, pickle.PicklingError)


def _walk_block_task(payload: tuple) -> tuple:
    """Worker entry: walk one block of segment starts.

    Top-level (pickled by reference).  Rebuilds the shared buffers from
    raw bytes and runs the exact serial kernel over its slice of
    starts; a :class:`~repro.errors.VerificationError` from the limit
    check propagates to the parent unchanged, matching serial behavior
    (a block exceeds the round limit iff one of its segments would have
    in the serial walk).
    """
    block, nxt_buf, live_buf, starts_buf, limit = payload
    nxt = np.frombuffer(nxt_buf, dtype=np.int64)
    live = np.frombuffer(live_buf, dtype=bool)
    starts = np.frombuffer(starts_buf, dtype=np.int64)
    idx, rounds = engine.walk_segments(nxt, live, starts, limit)
    return block, idx.tobytes(), rounds


class ParallelWalker:
    """A drop-in :func:`~repro.backends.engine.walk_segments` that walks
    blocks of segments in worker processes.

    Callable with the walker contract ``(nxt, live, starts, limit) ->
    (chosen_idx, rounds)``.  Dispatches only when it is worth a process
    hop: at least two blocks of ``config.chunk_size`` nodes each and at
    least two segment starts; otherwise (and on pool-infrastructure
    failure, after a ``parallel.fallback`` telemetry event) it runs the
    serial kernel in-process.  ``last_blocks`` records how many blocks
    the most recent call dispatched (0 = ran serial), for tests and
    diagnostics.

    A walker built without an explicit config resolves the
    process-default :class:`ParallelConfig` **per call**, not at
    construction — a long-lived walker therefore honors
    :func:`~repro.parallel.config.using_config` scopes active at call
    time.  Passing ``config=`` pins
    the walker to that config for its lifetime.
    """

    def __init__(self, config: ParallelConfig | None = None) -> None:
        self._config = config
        self.last_blocks = 0

    @property
    def config(self) -> ParallelConfig:
        """The config this call would use: the pinned one if given,
        else the live process default."""
        if self._config is not None:
            return self._config
        return get_default_config()

    def __call__(self, nxt: np.ndarray, live: np.ndarray,
                 starts: np.ndarray, limit: int,
                 ) -> tuple[np.ndarray, int]:
        cfg = self.config
        workers = cfg.resolve_workers()
        blocks = min(workers, live.size // cfg.chunk_size, int(starts.size))
        self.last_blocks = 0
        if blocks < 2:
            return engine.walk_segments(nxt, live, starts, limit)
        parts = np.array_split(starts, blocks)
        nxt_buf = np.ascontiguousarray(nxt).tobytes()
        live_buf = np.ascontiguousarray(live).tobytes()
        payloads = [
            (b, nxt_buf, live_buf, np.ascontiguousarray(part).tobytes(),
             limit)
            for b, part in enumerate(parts)
        ]
        try:
            with telemetry_span("engine.parallel_walk", blocks=blocks,
                                workers=workers, segments=int(starts.size)):
                pool = pools.get_pool(workers)
                futures = [pool.submit(_walk_block_task, pl)
                           for pl in payloads]
                results = [f.result() for f in futures]
        except POOL_ERRORS as exc:
            pools.drop_pool(workers)
            METRICS.counter("parallel.fallback").inc()
            telemetry_event(
                "parallel.fallback", stage="walk", workers=workers,
                error=f"{type(exc).__name__}: {exc}",
            )
            return engine.walk_segments(nxt, live, starts, limit)
        self.last_blocks = blocks
        chosen = np.zeros(live.size, dtype=bool)
        rounds = 0
        for _, idx_buf, block_rounds in results:
            chosen[np.frombuffer(idx_buf, dtype=np.int64)] = True
            rounds = max(rounds, block_rounds)
        return np.flatnonzero(chosen), rounds


def match1(lst, *, p: int = 1, **kwargs):
    """Match1 on the ``numpy-mp`` backend: the numpy engine with the
    cut-walk phase distributed per the process-default config."""
    return engine.match1(lst, p=p, _walker=ParallelWalker(), **kwargs)


def match4(lst, *, p: int = 1, **kwargs):
    """Match4 on the ``numpy-mp`` backend: the numpy engine with the
    cut-walk phase distributed per the process-default config."""
    return engine.match4(lst, p=p, _walker=ParallelWalker(), **kwargs)
