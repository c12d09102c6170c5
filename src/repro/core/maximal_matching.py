"""Unified entry point for all maximal-matching algorithms.

``maximal_matching(lst, algorithm="match4", p=8)`` dispatches to the
paper's algorithms and the baselines (the static table
:data:`repro.backends.ALGORITHMS`) with one calling convention,
returning a :class:`~repro.core.result.MatchResult`.  Raw ``NEXT``
arrays are accepted in place of a :class:`repro.lists.LinkedList` and
validated.

Caller-facing kwargs are validated against the algorithm's schema here,
with unknown names rejected and the valid ones listed;
:func:`repro.backends.resolve` checks the (algorithm, backend) pair and
resolves ``backend="auto"``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..backends import (
    ALGORITHMS,
    DEFAULT_BACKEND,
    DISPATCH,
    REFERENCE_KWARGS,
    resolve,
)
from ..errors import InvalidParameterError
from ..lists.linked_list import LinkedList
from ..telemetry.metrics import METRICS
from ..telemetry.spans import enabled as telemetry_enabled, span as telemetry_span
from .result import MatchResult

__all__ = [
    "ALGORITHMS",
    "maximal_matching",
    "normalize_algorithm_kwargs",
]


def normalize_algorithm_kwargs(
    algorithm: str, kwargs: Mapping[str, Any]
) -> dict[str, Any]:
    """Validate caller kwargs for ``algorithm``.

    Unknown names raise :class:`InvalidParameterError` listing the
    valid ones.  Returns the kwargs as a fresh dict.
    """
    params = ALGORITHMS[algorithm].params
    for key in kwargs:
        if key not in params:
            raise InvalidParameterError(
                f"unknown kwarg {key!r} for algorithm {algorithm!r}; "
                f"valid kwargs: {sorted(params)}"
            )
    return dict(kwargs)


def maximal_matching(
    lst: LinkedList | np.ndarray | list,
    *,
    algorithm: str = "match4",
    backend: str | None = None,
    p: int = 1,
    **kwargs: Any,
) -> MatchResult:
    """Compute a maximal matching of a linked list.

    Parameters
    ----------
    lst:
        A :class:`LinkedList` or a raw ``NEXT`` array (validated and
        copied).
    algorithm:
        One of :data:`ALGORITHMS` (paper algorithms ``match1`` ...
        ``match4`` plus the baselines).  Default ``"match4"``.
    backend:
        Execution backend (see :mod:`repro.backends`): ``"reference"``
        for the paper-faithful per-pointer implementations, ``"numpy"``
        for the vectorized whole-array engine — or ``"auto"`` for
        :func:`repro.backends.resolve_auto`'s static pick.  Results are
        bit-identical across backends; only host wall-clock differs.
        Default ``"reference"``.
    p:
        Processor count for the cost accounting.
    kwargs:
        Forwarded to the algorithm under canonical names (e.g.
        ``iterations=3`` for Match4, ``sort_law="reif"`` for Match2).

    Returns
    -------
    MatchResult:
        Typed record with fields ``matching``, ``report``, ``stats``,
        ``backend`` (the concrete backend that ran), ``algorithm``,
        ``extras``.
    """
    if not isinstance(lst, LinkedList):
        lst = LinkedList(lst)
    requested_backend = backend or DEFAULT_BACKEND
    resolved_backend = resolve(algorithm, requested_backend, lst.n)
    kwargs = normalize_algorithm_kwargs(algorithm, kwargs)
    if resolved_backend == "reference":
        kwargs = {REFERENCE_KWARGS.get(k, k): v for k, v in kwargs.items()}
    fn = DISPATCH[resolved_backend][algorithm]
    span_attrs: dict[str, Any] = {}
    if requested_backend != resolved_backend:
        span_attrs["requested_backend"] = requested_backend
    with telemetry_span(
        "maximal_matching", algorithm=algorithm,
        backend=resolved_backend, n=lst.n, p=p, **span_attrs,
    ) as sp:
        matching, report, stats = fn(lst, p=p, **kwargs)
        if telemetry_enabled():
            sp.set(time=report.time, work=report.work,
                   matched=matching.size)
            METRICS.counter("matching.runs").inc()
            METRICS.counter("pram.steps").inc(report.time)
            METRICS.counter("pram.work").inc(report.work)
    return MatchResult(
        matching=matching, report=report, stats=stats,
        backend=resolved_backend, algorithm=algorithm,
    )
