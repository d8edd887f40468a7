#!/usr/bin/env python3
"""Lower bounds versus exact optima on small showcase graphs.

The eigenvalue bound max(n+, n-/(r-1)) plus the log2 covering bound are
computed exactly (fraction-free integer (Bareiss) congruence elimination, no
floating point at these sizes), then the exact solver closes each case with a verified
witness.  The Petersen graph is the classic near-miss: bound 5, optimum 6.
"""

import time

from squashcube import bfs_distances, cycle_graph, is_eigensharp, lower_bound, petersen_graph
from squashcube.graphs import complete_graph, path_graph
from squashcube.search import SearchConfig, solve_N

CASES = [
    ("K_6", complete_graph(6), 2),
    ("P_5 (a tree)", path_graph(5), 2),
    ("C_6", cycle_graph(6), 2),
    ("C_5", cycle_graph(5), 2),
    ("Petersen", petersen_graph(), 2),
    ("Petersen", petersen_graph(), 3),
    ("C_9", cycle_graph(9), 3),
]


def main():
    print(f"{'graph':<14} {'r':>2} {'bound':>6} {'N_r':>4} {'eigensharp':>11} {'time':>7}")
    for label, graph, r in CASES:
        d = bfs_distances(graph)
        rep = lower_bound(d, r)
        t0 = time.time()
        res = solve_N(SearchConfig(graph=graph, r=r))
        sharp = ""
        if r == 2:
            sharp = "yes" if is_eigensharp(d, res.addressing) else "no"
        print(f"{label:<14} {r:>2} {rep.best:>6} {res.value:>4} {sharp:>11} "
              f"{time.time() - t0:>6.1f}s")
    print("\nEvery optimum above is a proof: the search is exhaustive at N_r - 1")
    print("and the returned witness is re-verified against all pairwise distances.")


if __name__ == "__main__":
    main()
