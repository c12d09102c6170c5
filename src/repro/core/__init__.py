"""The paper's contribution: matching partition and maximal matching.

Layout mirrors the paper's sections:

- :mod:`repro.core.functions` — the matching partition functions ``f``
  (section 2, Lemma 1) in MSB and LSB variants, and their iteration
  ``f^(k)`` (Lemma 2).
- :mod:`repro.core.partition` — partition artifacts and their verifier
  (the defining inequality of matching partition functions).
- :mod:`repro.core.matching` — matching artifacts, independence and
  maximality verifiers.
- :mod:`repro.core.cutwalk` — steps 3–4 of Match1 (local-minima cut +
  constant-length sublist walk), shared by Match1/3/4.
- :mod:`repro.core.match1` … :mod:`repro.core.match4` — the four
  algorithms (sections 2–3).
- :mod:`repro.core.layout` / :mod:`repro.core.walkdown` — Match4's 2-D
  array view, the per-column sorts, and the WalkDown1/WalkDown2 sweeps
  (Lemmas 6–7).
- :mod:`repro.core.maximal_matching` — the unified public entry point.
"""

from .functions import (
    apply_f,
    f_lsb,
    f_msb,
    iterate_f,
    label_bound_sequence,
    max_label_after,
    pair_function,
)
from .partition import MatchingPartition, verify_matching_partition
from .matching import Matching, verify_matching, verify_maximal_matching
from .cutwalk import cut_and_walk
from .match1 import match1
from .match2 import SORT_COST_LAWS, match2
from .match3 import Match3Plan, match3, plan_match3
from .match4 import match4
from .layout import Layout2D, build_layout
from .walkdown import (
    walkdown1,
    walkdown2,
    walkdown2_automaton,
    walkdown2_step_of,
)
from .maximal_matching import (
    ALGORITHMS,
    maximal_matching,
    normalize_algorithm_kwargs,
)
from .result import MatchResult
from .rings import (
    ring_maximal_matching,
    ring_three_coloring,
    verify_ring_maximal_matching,
)
from .forests import forest_maximal_matching, verify_forest_maximal_matching

__all__ = [
    "ring_maximal_matching",
    "ring_three_coloring",
    "verify_ring_maximal_matching",
    "forest_maximal_matching",
    "verify_forest_maximal_matching",
    "apply_f",
    "f_lsb",
    "f_msb",
    "iterate_f",
    "label_bound_sequence",
    "max_label_after",
    "pair_function",
    "MatchingPartition",
    "verify_matching_partition",
    "Matching",
    "verify_matching",
    "verify_maximal_matching",
    "cut_and_walk",
    "match1",
    "match2",
    "SORT_COST_LAWS",
    "Match3Plan",
    "match3",
    "plan_match3",
    "match4",
    "Layout2D",
    "build_layout",
    "walkdown1",
    "walkdown2",
    "walkdown2_automaton",
    "walkdown2_step_of",
    "ALGORITHMS",
    "MatchResult",
    "maximal_matching",
    "normalize_algorithm_kwargs",
]
