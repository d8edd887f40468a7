#!/usr/bin/env python3
"""Census of N_2 for connected graphs of order 8 or 9 -- the big ones.

Order 8 means 11117 connected graphs: about 15 s on two cores, of which
generation takes about 5 s and 34 MiB, and the result matches the
reference row.  Order 9 means 261080 graphs; budget some hours
(generation alone takes about 135 s and 175 MiB of memory, solving
dominates), which is why these rows are a script rather than a test.
Measured on a shared 2-core Xeon with CPython 3.11.7.
Order 10 (11.7M graphs) is beyond `all_graphs`' 9-vertex cap.

The generated connected-graph count is checked against the reference for
orders 8 and 9, and a full run's row against the reference row; either
mismatch exits with code 1.

Usage:
    python demos/census_large.py [--order {8,9}] [--jobs N] [--limit COUNT]

--limit solves only the first COUNT graphs (a quick way to sample the cost).
"""

import argparse
import os
import sys
import time

from squashcube.graphs import connected_graphs, emit_graph6
from squashcube.search import census_distribution

CONNECTED = {8: 11117, 9: 261080}
REFERENCE = {
    8: {1: 1852, 2: 7765, 3: 1469, 4: 30, 5: 1},
    9: {1: 12940, 2: 159229, 3: 87094, 4: 1811, 5: 6},
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, choices=sorted(CONNECTED), default=8)
    ap.add_argument("--jobs", type=int, default=os.cpu_count())
    ap.add_argument("--limit", type=int, default=None)
    args = ap.parse_args()

    print(f"generating connected graphs of order {args.order}...")
    t0 = time.time()
    graphs = connected_graphs(args.order)
    lines = [emit_graph6(g) for g in graphs]
    print(f"  {len(lines)} graphs ({time.time() - t0:.0f}s)")
    if len(lines) != CONNECTED[args.order]:
        print(f"  MISMATCH: reference count is {CONNECTED[args.order]}")
        sys.exit(1)
    if args.limit:
        lines = lines[: args.limit]
        print(f"  solving only the first {len(lines)}")

    t0 = time.time()
    res = census_distribution(lines, r=2, jobs=args.jobs)
    mismatch = False
    for n in sorted(res.by_n):
        counts = dict(sorted(res.by_n[n].items()))
        print(f"n={n}: {counts}")
        if not args.limit:
            match = counts == REFERENCE[n]
            mismatch |= not match
            print(f"  reference row: {REFERENCE[n]} -> {'MATCH' if match else 'MISMATCH'}")
    print(f"elapsed {time.time() - t0:.0f}s")
    if mismatch:
        sys.exit(1)


if __name__ == "__main__":
    main()
