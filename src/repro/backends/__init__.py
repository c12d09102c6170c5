"""Execution backends and the one static dispatch table.

Two backends run the matching algorithms:

``"reference"``
    The paper-faithful pure-Python/numpy-scalar implementations in
    :mod:`repro.core` and :mod:`repro.baselines` — the oracle.
    Implements every algorithm in :data:`ALGORITHMS`, every strategy,
    and unbounded ``n``.
``"numpy"``
    The whole-array engine in :mod:`repro.backends.engine`: each PRAM
    round is one batch of vectorized operations.  Implements ``match1``
    and ``match4`` (the keys of its arena drivers) for ``n < 2**31``,
    bit-identical to the reference down to the Brent
    :class:`~repro.pram.cost.CostReport`.

The **cost-accounting contract**: for any input both backends accept,
the returned matching tails, stats, and ``CostReport`` are *equal* — a
backend changes how fast the rounds run on the host, never how many
PRAM operations the paper's machine would charge.  ``tests/backends/``
enforces the contract.

Which (algorithm, backend) pairs exist is :data:`DISPATCH`; what a
``backend=`` value means for one call is :func:`resolve`, the one place
that rejects unknown names and unsupported pairs and resolves
``"auto"``.  Select a backend per call::

    repro.maximal_matching(lst, algorithm="match4", backend="numpy")

or run many independent lists in one engine invocation with
:func:`repro.backends.batch.batch_maximal_matching`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

from ..baselines.random_mate import random_mate_matching
from ..baselines.sequential import sequential_matching
from ..core.match1 import match1
from ..core.match2 import match2
from ..core.match3 import match3
from ..core.match4 import match4
from ..errors import InvalidParameterError
from . import engine
from .engine import ENGINE_LIMIT

__all__ = [
    "ALGORITHMS",
    "AlgorithmInfo",
    "AUTO",
    "BACKEND_CHOICES",
    "DEFAULT_BACKEND",
    "DISPATCH",
    "ENGINE_LIMIT",
    "REFERENCE_KWARGS",
    "engine",
    "resolve",
    "resolve_auto",
]

#: Backend used when ``backend=`` is not given to
#: :func:`repro.maximal_matching` or :func:`repro.resilient_matching`.
DEFAULT_BACKEND = "reference"

#: Backend name meaning "let :func:`resolve_auto` pick"; it always
#: resolves to a concrete backend before any algorithm runs.
AUTO = "auto"

#: Caller-facing kwarg -> its reference-tier spelling.  The one entry:
#: Match4's reference implementation keeps the paper's ``i``.
REFERENCE_KWARGS = {"iterations": "i"}


@dataclass(frozen=True)
class AlgorithmInfo:
    """One algorithm: reference implementation + metadata.

    Attributes
    ----------
    name:
        Table key (``algorithm=`` value).
    fn:
        The reference implementation, ``(lst, *, p=1, **kw) ->
        (Matching, CostReport, stats)``.
    params:
        Caller-facing kwarg names (keyword-only parameters of ``fn``
        minus ``p``, under their :data:`REFERENCE_KWARGS` names).
    paper_section:
        Where in Han's paper (or which baseline) the algorithm comes
        from.
    optimal:
        Whether the paper claims O(n) work / optimal speedup for it.
    """

    name: str
    fn: Callable[..., Any]
    params: frozenset[str]
    paper_section: str
    optimal: bool = False


def _info(name: str, fn: Callable[..., Any], paper_section: str,
          optimal: bool = False) -> AlgorithmInfo:
    canonical = {impl: canon for canon, impl in REFERENCE_KWARGS.items()}
    params = frozenset(
        canonical.get(q.name, q.name)
        for q in inspect.signature(fn).parameters.values()
        if q.kind is inspect.Parameter.KEYWORD_ONLY and q.name != "p"
    )
    return AlgorithmInfo(name, fn, params, paper_section, optimal)


#: Every algorithm, by name: Han's Match1–4 and the two baselines.
ALGORITHMS: dict[str, AlgorithmInfo] = {
    info.name: info for info in (
        _info("match1", match1,
              "§2, Algorithm Match1 (O(log n) time, O(n log n) work)"),
        _info("match2", match2,
              "§3, Algorithm Match2 (first optimization)"),
        _info("match3", match3,
              "§4, Algorithm Match3 (precomputed matching tables)",
              optimal=True),
        _info("match4", match4,
              "§5, Algorithm Match4 (optimal: O(log n) time, O(n) work)",
              optimal=True),
        _info("sequential", sequential_matching,
              "§1, the T_1 = Θ(n) bound in the optimality definition "
              "p·T = O(T_1)"),
        _info("random_mate", random_mate_matching,
              "§1, the randomized symmetry breaking of [13,16] the "
              "paper's deterministic algorithms replace"),
    )
}

#: backend -> algorithm -> implementation, each taking ``(lst, *, p=1,
#: **kwargs)`` and returning ``(Matching, CostReport, stats)``.  The
#: numpy engine implements exactly the algorithms its arena drivers
#: cover.
DISPATCH: dict[str, dict[str, Callable[..., Any]]] = {
    "numpy": {name: getattr(engine, name) for name in engine._DRIVERS},
    "reference": {name: info.fn for name, info in ALGORITHMS.items()},
}

#: Every valid ``backend=`` value.
BACKEND_CHOICES = sorted([AUTO, *DISPATCH])


def resolve_auto(algorithm: str, n: int) -> str:
    """The concrete backend ``backend="auto"`` means for one call.

    A static rule, not a measurement: every backend returns the same
    answer, and the numpy engine is faster than the reference tier even
    cold and at small ``n``.  So ``"numpy"`` when the engine implements
    ``algorithm`` and ``n < ENGINE_LIMIT``, else ``"reference"``.  For
    a batch, ``n`` is the largest list.
    """
    if n < ENGINE_LIMIT and algorithm in DISPATCH["numpy"]:
        return "numpy"
    return "reference"


def resolve(algorithm: str, backend: str, n: int) -> str:
    """The concrete backend one call of ``algorithm`` on ``n`` nodes runs.

    ``"auto"`` goes through :func:`resolve_auto`; any other name must
    be a backend that implements ``algorithm``.  Raises
    :class:`InvalidParameterError` naming the valid choices for an
    unknown algorithm, an unknown backend, or a backend that does not
    implement the algorithm.
    """
    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        )
    if backend == AUTO:
        return resolve_auto(algorithm, n)
    if backend not in DISPATCH:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; choose from {BACKEND_CHOICES}"
        )
    if algorithm not in DISPATCH[backend]:
        implementing = sorted(b for b in DISPATCH if algorithm in DISPATCH[b])
        raise InvalidParameterError(
            f"algorithm {algorithm!r} is not implemented on backend "
            f"{backend!r} (available there: {sorted(DISPATCH[backend])}); "
            f"backends implementing it: {implementing}"
        )
    return backend
