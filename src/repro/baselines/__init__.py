"""Baselines the paper compares against (explicitly or implicitly).

- :mod:`repro.baselines.sequential` — the greedy sequential walk: the
  ``T_1 = Theta(n)`` reference in the paper's optimality definition
  ``p*T = O(T_1)``.
- :mod:`repro.baselines.random_mate` — randomized coin-flip symmetry
  breaking (the paper's introduction dismisses the randomized prefix
  algorithms [13,16]; this is their matching kernel), with expected
  ``O(log n)`` rounds.
- :mod:`repro.baselines.wyllie` — Wyllie's pointer-jumping list
  ranking: the ``Theta(n log n)``-work baseline the matching-based
  optimal ranking of :mod:`repro.apps.ranking` is measured against.

Both matching baselines are entries of the static algorithm table
:data:`repro.backends.ALGORITHMS` (``"sequential"``, ``"random_mate"``).
"""

from .sequential import sequential_matching
from .random_mate import random_mate_matching
from .wyllie import wyllie_ranks

__all__ = ["sequential_matching", "random_mate_matching", "wyllie_ranks"]
