#!/usr/bin/env python3
"""Complete multipartite graphs: tables, lemmas, and blow-up bounds.

Shows the bundled optimal 3-partite tables, then derives new verified
addressings from them three ways:

  * plus-three: clone a vertex three times at the cost of 3 coordinates
    (gives the a+b-1 optimum for K_{a,b,1} inductively);
  * merge-column: one extra coordinate merges two classes;
  * blow-up: s copies of K(a;m) plus s-1 coordinates give K(a;ms),
    producing the 8s-1 / 15s-1 / 24s-1 upper bound family.
"""

from squashcube import (
    bfs_distances,
    complete_multipartite,
    inertia,
    kam_graph,
    verify_addressing,
)
from squashcube.addressing import Addressing
from squashcube.constructions import append_merge_column, blow_up, plus_three
from squashcube.fixtures import REGISTRY, load_fixture


def class_sizes(name):
    """[4, 3, 2] from a fixture name like multipartite/k_4_3_2."""
    return [int(x) for x in name.split("/k_")[1].split("_")]


def main():
    print("Bundled 3-partite tables (all optimal):")
    for name in REGISTRY:
        if not name.startswith("multipartite/"):
            continue
        adr, graph = load_fixture(name)
        sizes = class_sizes(name)
        bad = verify_addressing(bfs_distances(graph), adr)
        print(f"  K_{tuple(sizes)}: length {adr.length}  "
              f"{'VALID' if not bad else 'BROKEN'}")

    print("\nplus-three ladder from K_{2,2,1} (length a+b-1 at every rung):")
    adr, sizes = load_fixture("multipartite/k_2_2_1")[0], [2, 2, 1]
    for _ in range(3):
        adr = plus_three(adr, sizes, 0, 0)
        sizes = [sizes[0] + 3, sizes[1], sizes[2]]
        ok = not verify_addressing(bfs_distances(complete_multipartite(sizes)), adr)
        print(f"  K_{tuple(sizes)}: length {adr.length} "
              f"(= {sizes[0]}+{sizes[1]}-1) {'VALID' if ok else 'BROKEN'}")

    print("\nmerge-column reductions:")
    for name, merged in [("multipartite/k_2_2_1", (4, 1)),
                         ("multipartite/k_3_3_2", (6, 2)),
                         ("multipartite/k_3_2_2", (5, 2))]:
        base, _ = load_fixture(name)
        sizes = class_sizes(name)
        out = append_merge_column(base, sizes)
        ok = not verify_addressing(bfs_distances(complete_multipartite(list(merged))), out)
        print(f"  K_{tuple(sizes)} + one column -> K_{merged}: length {out.length} "
              f"{'VALID' if ok else 'BROKEN'}")

    print("\nblow-up upper bounds (lower bounds from the distance spectrum):")
    k22 = Addressing(2, 2, ["00", "11", "01", "10"])
    bases = [
        ("K(2;2)", k22, 2, 2),
        ("K(4;4)", load_fixture("kam/k4m4")[0], 4, 4),
        ("K(5;5)", load_fixture("kam/k5m5")[0], 5, 5),
    ]
    for label, base, a, m in bases:
        for s in (1, 2):
            out = blow_up(base, a, m, s)
            graph = kam_graph(a, m * s)
            ine = inertia(bfs_distances(graph))
            ok = not verify_addressing(bfs_distances(graph), out)
            print(f"  {label} x {s}: K({a};{m * s}) addressed at length {out.length}, "
                  f"spectral lower bound {max(ine.n_plus, ine.n_minus)} "
                  f"{'VALID' if ok else 'BROKEN'}")


if __name__ == "__main__":
    main()
