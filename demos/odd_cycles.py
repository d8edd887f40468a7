#!/usr/bin/env python3
"""Minimum (0,1,2,*)-addressing lengths of odd cycles.

The first few odd cycles fit the pattern N_3(C_{2n+1}) = n + 1, but it breaks
at C_13.  This demo verifies the bundled optimal tables for C_5 .. C_19 and
recomputes the small values exactly; pass --recompute-big to also rerun
C_13 .. C_19 from scratch (about 20 seconds of CPU, dominated by the
length-10 infeasibility proof for C_19).
"""

import argparse
import time

from squashcube import bfs_distances, cycle_graph, verify_addressing
from squashcube.fixtures import load_fixture
from squashcube.search import SearchConfig, solve_N


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--recompute-big", action="store_true")
    args = ap.parse_args()

    print("Bundled optimal (0,1,2,*)-addressings:")
    for n in (5, 7, 9, 11, 13, 15, 17, 19):
        adr, graph = load_fixture(f"cycles/c{n}_r3")
        bad = verify_addressing(bfs_distances(graph), adr)
        half = (n - 1) // 2
        marker = "= (n-1)/2 + 1" if adr.length == half + 1 else "  breaks the pattern"
        print(f"  C_{n:<3d} length {adr.length:>2d} {marker:<22s} "
              f"{'VALID' if not bad else 'BROKEN'}")

    print("\nExact recomputation (lower bound ... step up until feasible):")
    targets = [5, 7, 9, 11] + ([13, 15, 17, 19] if args.recompute_big else [])
    for n in targets:
        t0 = time.time()
        res = solve_N(SearchConfig(graph=cycle_graph(n), r=3))
        print(f"  N_3(C_{n}) = {res.value}   "
              f"({res.nodes_explored} nodes, {time.time() - t0:.1f}s)")
    if not args.recompute_big:
        print("  (--recompute-big extends this through C_19; ~20 seconds.)")


if __name__ == "__main__":
    main()
