#!/usr/bin/env python3
"""Census of N_2 for connected graphs of order 8 or 9 -- the big ones.

Order 8 means 11117 connected graphs: under a minute on two cores, about
half of it generation (15-24 s), and the result matches the reference row.
Order 9 means 261080 graphs; budget some hours (generation alone is 6.5 to
7.5 minutes and 1 GiB of memory, solving dominates), which is why these
rows are a script rather than a test.  Generation times were measured on a
shared 2-core Xeon with CPython 3.11.  Order 10 (11.7M graphs) remains out
of reach for a full run.

Usage:
    python demos/census_large.py [--order 8] [--jobs N] [--limit COUNT]

--limit solves only the first COUNT graphs (a quick way to sample the cost).
"""

import argparse
import os
import time

from squashcube.graphs import connected_graphs, emit_graph6
from squashcube.search import census_distribution

REFERENCE = {
    8: {1: 1852, 2: 7765, 3: 1469, 4: 30, 5: 1},
    9: {1: 12940, 2: 159229, 3: 87094, 4: 1811, 5: 6},
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=8)
    ap.add_argument("--jobs", type=int, default=os.cpu_count())
    ap.add_argument("--limit", type=int, default=None)
    args = ap.parse_args()

    if args.order > 9:
        print(f"order {args.order}: a full run is not realistic here; "
              "use --limit to sample.")
    print(f"generating connected graphs of order {args.order}...")
    t0 = time.time()
    graphs = connected_graphs(args.order, cap=args.order)
    lines = [emit_graph6(g) for g in graphs]
    print(f"  {len(lines)} graphs ({time.time() - t0:.0f}s)")
    if args.limit:
        lines = lines[: args.limit]
        print(f"  solving only the first {len(lines)}")

    t0 = time.time()
    res = census_distribution(lines, r=2, jobs=args.jobs)
    for n in sorted(res.by_n):
        counts = dict(sorted(res.by_n[n].items()))
        print(f"n={n}: {counts}")
        if not args.limit and n in REFERENCE:
            match = counts == REFERENCE[n]
            print(f"  reference row: {REFERENCE[n]} -> {'MATCH' if match else 'MISMATCH'}")
    print(f"elapsed {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
