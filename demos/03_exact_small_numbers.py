#!/usr/bin/env python3
"""Exact weak Schur numbers for 1, 2 and 3 subsets by exhaustive search.

The backtracker colours 1, 2, ..., n in order, keeps the forbidden sums
of every colour interleaved in one bitmask, and breaks colour symmetry by
first use.  When it
exhausts the tree at n+1, the value at n is exact, not a bound.  These
values come from search alone; the construction never enters.
"""

import time

from weakschur import ConditionSet, bound, compute_ws, serialize_partition, verify


def main():
    print(f"{'s':>3} {'exact WS':>9} {'nodes':>9} {'time':>8}  witness order")
    for s in (1, 2, 3):
        t0 = time.perf_counter()
        r = compute_ws(s, 100)
        dt = time.perf_counter() - t0
        assert r.mode == "exact" and r.exhausted
        assert verify(r.witness, ConditionSet.condition1()).passed
        print(f"{s:>3} {r.best_n:>9} {r.nodes_visited:>9} {dt:>7.2f}s  {r.witness.n}")

    print("\nbest witness at s = 3:")
    print(serialize_partition(compute_ws(3, 100).witness))

    print("the construction's order at s = 3 is", bound(3), "- valid, but the")
    print("exact maximum is 23, so the iteration starts from a sub-maximal seed")
    print("\n(s = 4 is already out of desk scale for plain backtracking: use")
    print(" compute_ws(4, cap, budget=...) and expect a capped result)")


if __name__ == "__main__":
    main()
