#!/usr/bin/env python
"""Quickstart: compute a maximal matching of a linked list on a PRAM.

Reproduces the core object of Han (SPAA 1989): given a linked list
stored as an array of pointers, break its symmetry deterministically by
computing a maximal matching of its pointers — in parallel, without
coin flips.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Build a linked list.  The paper's Fig. 1 stores a list in an
    #    array X[0..n-1] with a NEXT pointer array; the *memory layout*
    #    (which permutation of addresses the list visits) is what makes
    #    the problem interesting, so we use a random layout.
    # ------------------------------------------------------------------
    n = 1 << 14
    lst = repro.random_list(n, rng=42)
    print(f"list: {n} nodes, head at address {lst.head}")

    # ------------------------------------------------------------------
    # 2. One application of the matching partition function f splits
    #    the n-1 pointers into at most 2*log2(n) matching sets
    #    (Lemma 1): pointers with equal labels never share a node.
    # ------------------------------------------------------------------
    labels = repro.iterate_f(lst, 1)
    print(f"Lemma 1: f produced {np.unique(labels).size} matching sets "
          f"(bound {2 * (n - 1).bit_length()})")

    # ------------------------------------------------------------------
    # 3. The headline algorithm: Match4, the paper's optimal
    #    processor-scheduling technique.  p is the simulated processor
    #    count; iterations trades partition depth against sweep length.
    # ------------------------------------------------------------------
    p = n // 16
    result = repro.maximal_matching(
        lst, algorithm="match4", p=p, iterations=2
    )
    matching, report, stats = result.matching, result.report, result.stats
    print(f"\nMatch4 on p={p} processors:")
    print(f"  matched {matching.size} of {n - 1} pointers "
          f"(maximal: {matching.is_maximal})")
    print(f"  simulated PRAM time: {report.time} steps")
    print(f"  total work: {report.work} "
          f"({report.work / n:.1f} ops per node — work-optimal)")
    print(f"  2-D layout: {stats.x} rows x {stats.y} columns; "
          f"{stats.num_inter} inter-row / {stats.num_intra} intra-row "
          f"pointers")

    # ------------------------------------------------------------------
    # 4. Optimality check (Theorem 1): time * p within a constant of
    #    the sequential baseline's time.
    # ------------------------------------------------------------------
    _, seq_report, _ = repro.sequential_matching(lst)
    eff = seq_report.time / (report.time * p)
    print(f"\nTheorem 1: efficiency T1/(p*T) = {eff:.3f} "
          f"(constant across the optimal region p <= n/log^(i) n)")

    # ------------------------------------------------------------------
    # 5. Phase breakdown: where the steps went.
    # ------------------------------------------------------------------
    print("\nphase breakdown:")
    for phase in report.phases:
        print(f"  {phase.name:<12} {phase.time:>6} steps")


if __name__ == "__main__":
    main()
