#!/usr/bin/env python3
"""Walk through the Johnson graph addressing construction.

Builds the k(n-k)-length addressings of J(4,1), J(5,2) and J(6,3), shows the
matching and the coordinate rule on one vertex, verifies everything against
BFS distances, and compares the general construction with the shorter
length-8 table for J(6,3).

Optional: pass --search-j63 to certify N_2(J(6,3)) = 8 from scratch with the
exact solver: it exhausts length 7 (about 7 seconds of CPU) and rediscovers
a length-8 addressing (about a second).  Pass --search-j62 to certify
N_2(J(6,2)) = 8: it exhausts length 7 (about 6 seconds), so the general
construction's length k(n-k) = 8 is optimal there.
"""

import argparse
import time

from squashcube import (
    bfs_distances,
    good_pairs,
    johnson_addressing,
    johnson_graph,
    johnson_subsets,
    matching_f,
    symbol_rule,
    union_graph_h,
    verify_addressing,
)
from squashcube.fixtures import load_fixture
from squashcube.johnson import johnson_coordinates
from squashcube.search import SearchConfig, feasible_at_length


def show_table(n, k, order="by-x"):
    adr = johnson_addressing(n, k, order=order)
    subsets = johnson_subsets(n, k)
    print(f"\nJ({n},{k}) with words of length k(n-k) = {adr.length}:")
    for s, w in zip(subsets, adr.words):
        print(f"  {{{','.join(map(str, s))}}}  {w}")
    bad = verify_addressing(bfs_distances(johnson_graph(n, k)), adr)
    print(f"  verification: {'VALID' if not bad else bad[:3]}")


def exhaust_length_7(n, k):
    cfg = SearchConfig(graph=johnson_graph(n, k), r=2)
    print(f"\nExhausting length 7 for J({n},{k})...")
    t0 = time.time()
    out = feasible_at_length(cfg, 7)
    print(f"  found={out.feasible} exhausted={out.exhausted} "
          f"nodes={out.nodes_explored} ({time.time() - t0:.0f}s)")
    return cfg


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--search-j63", action="store_true",
                    help="also prove N_2(J(6,3)) = 8 by search (about 8 seconds)")
    ap.add_argument("--search-j62", action="store_true",
                    help="also prove N_2(J(6,2)) = 8 by search (about 6 seconds)")
    args = ap.parse_args()

    show_table(4, 1)
    show_table(5, 2)

    print("\nHow one symbol is decided, S = {2,3} in J(5,2):")
    print("  matching f(S) =", matching_f((2, 3), 5, 2))
    for x, y in johnson_coordinates(5, 2):
        print(f"  coordinate ({x},{y}) -> {symbol_rule((2, 3), x, y, 5, 2)}")

    print("\nWhy it works: path components of f(S) union f(T) count the distance,")
    print("and each one contributes exactly one {0,1} coordinate.")
    s, t = (1, 2, 5), (3, 4, 6)
    comps = union_graph_h(s, t, 6, 3)
    print(f"  S={s} T={t}: components:")
    for c in comps:
        print(f"    {c.kind:12s} vertices {c.vertices}")
    print(f"  good pairs: {sorted(good_pairs(s, t, 6, 3))}")

    show_table(6, 3, order="by-y")

    adr8, g63 = load_fixture("johnson/j_6_3_len8")
    bad = verify_addressing(bfs_distances(g63), adr8)
    print(f"\nThe shorter length-8 table for J(6,3) verifies too: "
          f"{'VALID' if not bad else 'BROKEN'}")
    print("So N_2(J(6,3)) <= 8 < 9 = k(n-k): the general construction is not")
    print("always optimal.  (Certifying that 8 is optimal means exhausting")
    print("length 7: pass --search-j63, about 8 seconds.)")

    if args.search_j63:
        cfg = exhaust_length_7(6, 3)
        print("Searching for a fresh length-8 addressing of J(6,3)...")
        t0 = time.time()
        out = feasible_at_length(cfg, 8)
        print(f"  found={out.feasible} nodes={out.nodes_explored} "
              f"({time.time() - t0:.0f}s)")
        for s, w in zip(johnson_subsets(6, 3), out.addressing.words):
            print(f"  {{{','.join(map(str, s))}}}  {w}")

    if args.search_j62:
        exhaust_length_7(6, 2)
        show_table(6, 2)
        print("So N_2(J(6,2)) = 8 = k(n-k): here the general construction is optimal.")


if __name__ == "__main__":
    main()
