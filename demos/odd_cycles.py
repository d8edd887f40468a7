#!/usr/bin/env python3
"""Minimum (0,1,2,*)-addressing lengths of odd cycles.

The first few odd cycles fit the pattern N_3(C_{2n+1}) = n + 1, but it breaks
at C_13.  This demo verifies the bundled optimal tables for C_5 .. C_19 and
recomputes every value exactly, from the lower bound up to the first feasible
length (about 3 seconds, most of it the length-10 infeasibility proof for
C_19); it exits 1 if a recomputed value differs from the table.
"""

import sys
import time

from squashcube import bfs_distances, cycle_graph, verify_addressing
from squashcube.fixtures import load_fixture
from squashcube.search import SearchConfig, solve_N

CYCLES = (5, 7, 9, 11, 13, 15, 17, 19)


def main():
    print("Bundled optimal (0,1,2,*)-addressings:")
    table = {}
    for n in CYCLES:
        adr, graph = load_fixture(f"cycles/c{n}_r3")
        table[n] = adr.length
        bad = verify_addressing(bfs_distances(graph), adr)
        half = (n - 1) // 2
        marker = "= (n-1)/2 + 1" if adr.length == half + 1 else "  breaks the pattern"
        print(f"  C_{n:<3d} length {adr.length:>2d} {marker:<22s} "
              f"{'VALID' if not bad else 'BROKEN'}")

    print("\nExact recomputation (lower bound ... step up until feasible):")
    mismatches = 0
    for n in CYCLES:
        t0 = time.time()
        res = solve_N(SearchConfig(graph=cycle_graph(n), r=3))
        print(f"  N_3(C_{n}) = {res.value}   "
              f"({res.nodes_explored} nodes, {time.time() - t0:.1f}s)")
        mismatches += res.value != table[n]
    if mismatches:
        print(f"{mismatches} recomputed value(s) differ from the table")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
