"""Batch execution: many independent lists through one engine call.

Real workloads (the forest pipeline, parameter sweeps, resilience
probes) often need maximal matchings of *many* lists.  Dispatching each
through :func:`repro.maximal_matching` pays the per-call fixed costs —
Python dispatch, kernel launches — once per list, which dominates when
the lists are small.  :func:`batch_maximal_matching` instead
concatenates the lists into one flat node arena and runs the numpy
engine's drivers **once over the arena**
(:func:`repro.backends.engine.match_lists`) — the same drivers a
single-list call runs on an arena of one.  Because every pointer,
predecessor, and push stays inside its own list's segment, a lockstep
round over the arena is exactly a round of each list run alone, so the
per-list matchings are bit-identical to per-list calls (and therefore
to the reference tier).

The returned :class:`CostReport` is the *aggregate lockstep* account:
one phase structure for the whole batch, each round charged at the
width of all lists still active.  Per-list reports, when needed, come
from per-list calls; the contract here is per-list **matchings**, not
per-list cost splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from ..errors import InvalidParameterError
from ..lists.linked_list import LinkedList
from ..pram.cost import CostModel, CostReport
from ..core.matching import Matching
from ..telemetry.metrics import METRICS
from ..telemetry.spans import enabled as telemetry_enabled, span as telemetry_span
from . import engine

__all__ = ["BatchStats", "BatchMatchResult", "batch_maximal_matching"]


@dataclass(frozen=True)
class BatchStats:
    """Aggregate diagnostics of one batch run."""

    num_lists: int
    total_nodes: int
    sizes: tuple[int, ...]
    matched: tuple[int, ...]


@dataclass(frozen=True)
class BatchMatchResult:
    """What one batch run produced: per-list matchings + aggregate cost.

    ``backend`` is the concrete backend that ran (``"auto"`` already
    resolved).
    """

    matchings: tuple[Matching, ...]
    report: CostReport
    stats: BatchStats
    backend: str = "numpy"
    algorithm: str = "match4"

    def __iter__(self) -> Iterator[Matching]:
        return iter(self.matchings)

    def __len__(self) -> int:
        return len(self.matchings)

    def __getitem__(self, index: int) -> Matching:
        return self.matchings[index]


def batch_maximal_matching(
    lists: Sequence[LinkedList | np.ndarray | list],
    *,
    algorithm: str = "match4",
    backend: str = "numpy",
    p: int = 1,
    workers: int | None = None,
    **kwargs: Any,
) -> BatchMatchResult:
    """Maximally match many independent lists in one call.

    With ``backend="numpy"`` (the default here — batching exists for
    throughput) the lists are concatenated into one flat arena and each
    engine kernel runs once over all of them; per-list matchings are
    bit-identical to per-list :func:`repro.maximal_matching` calls.
    Implemented for ``match1`` and ``match4``.  With
    ``backend="reference"`` the lists are dispatched one by one and the
    per-call reports absorbed into one aggregate (any algorithm).

    ``workers`` engages :mod:`repro.parallel`: the batch is sharded by
    node-balanced contiguous ranges across that many worker processes,
    each running this function serially on its shard.  ``workers=None``
    (default) is serial.  Anything but an ``int >= 1`` (a ``bool``
    included) raises :class:`InvalidParameterError` (a ``ValueError``)
    before any pool exists.

    **Order guarantee**: ``matchings[i]`` always corresponds to
    ``lists[i]`` — results are reassembled by shard index, never by
    worker completion order.  Matchings are bit-identical to the serial
    call's for every input.  The aggregate report at ``workers > 1`` is
    the shard-order absorb of per-shard reports: equal to the serial
    report on the per-list backends (``reference``), a differently
    grouped (same-total) account on the fused numpy arena — see
    ``docs/parallel.md``.  If the pool infrastructure fails, the batch
    falls back to serial execution (``parallel.fallback`` telemetry
    event) rather than erroring.

    ``backend="auto"`` resolves once for the whole batch (fused
    execution needs one backend) through
    :func:`repro.backends.resolve_auto`, sized by the largest list;
    ``result.backend`` names the concrete pick.

    Kwargs are validated exactly as in :func:`repro.maximal_matching`
    (canonical names, unknown rejected).

    Returns a :class:`BatchMatchResult` holding one verified
    :class:`Matching` per input list (in order), the aggregate
    :class:`CostReport`, and :class:`BatchStats`.
    """
    from ..core.maximal_matching import (
        ALGORITHMS,
        maximal_matching,
        normalize_algorithm_kwargs,
    )
    from . import AUTO, get_backend, resolve_auto
    from ..parallel.executor import check_workers, run_sharded_batch

    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        )
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    lls = [lst if isinstance(lst, LinkedList) else LinkedList(lst)
           for lst in lists]

    if backend == AUTO:
        backend = resolve_auto(algorithm, max((l.n for l in lls), default=1))

    get_backend(backend)  # validate the name even for the loop path
    eff_workers = check_workers(workers)
    kwargs = normalize_algorithm_kwargs(algorithm, kwargs)

    if telemetry_enabled():
        METRICS.histogram("batch.size").observe(len(lls))

    with telemetry_span(
        "batch.maximal_matching", algorithm=algorithm, backend=backend,
        num_lists=len(lls), total_nodes=int(sum(l.n for l in lls)), p=p,
        workers=eff_workers,
    ):
        sharded = None
        if eff_workers > 1 and len(lls) > 1:
            if backend == "numpy":
                # Fail fast (and identically to serial) before forking.
                engine.check_lists(algorithm, lls)
            sharded = run_sharded_batch(
                lls, algorithm=algorithm, p=p, kwargs=kwargs,
                workers=eff_workers, backend=backend,
            )
        if sharded is not None:
            matchings, report = sharded
        elif backend == "numpy":
            matchings, report = engine.match_lists(lls, algorithm, p=p,
                                                   **kwargs)
        else:
            cost = CostModel(p)
            collected = []
            for lst in lls:
                res = maximal_matching(
                    lst, algorithm=algorithm, backend=backend, p=p,
                    **kwargs
                )
                collected.append(res.matching)
                cost.absorb(res.report)
            matchings = tuple(collected)
            report = cost.report()

    stats = BatchStats(
        num_lists=len(lls),
        total_nodes=int(sum(l.n for l in lls)),
        sizes=tuple(l.n for l in lls),
        matched=tuple(m.size for m in matchings),
    )
    return BatchMatchResult(
        matchings=matchings, report=report, stats=stats,
        backend=backend, algorithm=algorithm,
    )
