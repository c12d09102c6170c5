"""Typed result of a maximal-matching run.

:class:`MatchResult` names what :func:`repro.maximal_matching` produced
(``.matching``, ``.report``, ``.stats``) and records *how* the run was
produced (algorithm, backend).  It is a record, not a sequence: it does
not unpack as a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..pram.cost import CostReport
from .matching import Matching

__all__ = ["MatchResult"]


@dataclass(frozen=True)
class MatchResult:
    """What one maximal-matching run produced, and how.

    Attributes
    ----------
    matching:
        The verified :class:`Matching`.
    report:
        The Brent :class:`CostReport` (identical across backends for
        the same input — the cost-accounting contract).
    stats:
        Algorithm-specific diagnostics (e.g. ``Match4Stats``).
    backend:
        Name of the backend that executed the run.
    algorithm:
        Name of the algorithm that was dispatched.
    extras:
        Optional provenance a wrapper attached on the way out — e.g.
        the resilience runner records which ladder rung actually
        served the result (``served_by``, ``rung``, ``attempts``).
        Empty for a plain :func:`repro.maximal_matching` call.
    """

    matching: Matching
    report: CostReport
    stats: Any
    backend: str = "reference"
    algorithm: str = ""
    extras: Mapping[str, Any] = field(default_factory=dict)
