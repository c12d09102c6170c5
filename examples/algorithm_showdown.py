#!/usr/bin/env python
"""Scenario: Match1 vs Match2 vs Match3 vs Match4 across the p axis.

Reproduces, in one screenful, the paper's narrative arc: Match1 is
simple but wasteful, Match2 is optimal but gated by a global sort,
Match3 is fast but wasteful, and Match4's scheduling gets optimality
with a far wider processor range.

Run:  python examples/algorithm_showdown.py
"""

import repro
from repro.analysis.experiments import powers_up_to
from repro.analysis.report import format_table
from repro.bits.iterated_log import G, log_G
from repro.core.match4 import plan_rows


def main() -> None:
    n = 1 << 18
    lst = repro.random_list(n, rng=99)
    print(f"maximal matching of a random {n}-node list "
          f"(G(n) = {G(n)}, log G(n) = {log_G(n)}, "
          f"log^(3) n rows = {plan_rows(n, 3)})\n")

    rows = []
    for p in powers_up_to(n, base=16):
        row = {"p": p}
        for alg, kw in (
            ("match1", {}),
            ("match2", {}),
            ("match3", {}),
            ("match4", {"iterations": 3, "check": False}),
        ):
            report = repro.maximal_matching(
                lst, algorithm=alg, p=p, **kw
            ).report
            row[alg] = report.time
            row[alg + "_eff"] = n / (p * report.time)
        rows.append(row)

    print(format_table(
        rows,
        ["p", ("match1", "M1 time"), ("match2", "M2 time"),
         ("match3", "M3 time"), ("match4", "M4 time")],
        title="simulated PRAM time by processor count",
    ))
    print()
    print(format_table(
        rows,
        ["p", ("match1_eff", "M1"), ("match2_eff", "M2"),
         ("match3_eff", "M3"), ("match4_eff", "M4")],
        title="efficiency T1/(p*T): flat = optimal, falling = wasted p",
    ))

    # The asymptotic separation lives in how the p = n time (the
    # additive term) grows with n: Match2's is log n, Match4's is
    # log^(i) n — essentially constant.
    print()
    growth_rows = []
    for e in (12, 16, 20):
        m = 1 << e
        sub = repro.random_list(m, rng=e)
        row = {"n": f"2^{e}"}
        for alg, kw in (("match1", {}), ("match2", {}),
                        ("match3", {}), ("match4", {"iterations": 3,
                                                    "check": False})):
            report = repro.maximal_matching(
                sub, algorithm=alg, p=m, **kw
            ).report
            row[alg] = report.time
        growth_rows.append(row)
    print(format_table(
        growth_rows,
        ["n", ("match1", "M1"), ("match2", "M2"),
         ("match3", "M3"), ("match4", "M4")],
        title="time at p = n: the additive terms' growth",
    ))
    print()
    print("reading the tables: every plateau height is a constant-factor")
    print("work story (all four are within small constants of T1), but")
    print("the growth row is the theory: Match2's p=n time climbs with")
    print("log n while Match1/3/4's stay put (G(n), log G(n), and")
    print("log^(i) n are all flat over any feasible n).  Match4 is the")
    print("only one that is simultaneously *optimal* (flat efficiency)")
    print("and free of the log n additive — Theorems 1 and 2.")


if __name__ == "__main__":
    main()
