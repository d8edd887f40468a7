"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the lines).
The opt-in longer cases (N_3(C_11), N_2(J(6,3)) = 8, N_2(J(6,2)) = 8,
N_3(K_{3,3,3,3}) = 7, N_4 and N_5 of C_17 and C_19 and the order-5
brute-force sweep at r = 4) are gated on SQUASHCUBE_OPT_IN_TESTS=1.
"""

import itertools
import os
import time

import numpy as np
import pytest

from squashcube.addressing import partition_coverage, verify_addressing
from squashcube.constructions import (
    blow_up,
    ceil_two_sqrt,
    k_threshold,
    plus_three,
    random_partition,
)
from squashcube.errors import PreconditionError
from squashcube.fixtures import iter_fixtures, load_fixture
from squashcube.graphs import (
    bfs_distances,
    complete_multipartite,
    connected_graphs,
    cycle_graph,
    emit_graph6,
    is_connected,
    johnson_graph,
    johnson_subsets,
    kam_graph,
    petersen_graph,
    random_graph,
)
from squashcube.johnson import (
    good_pairs,
    good_pairs_characterized,
    johnson_addressing,
    union_graph_h,
)
from squashcube.search import (
    SearchConfig,
    census_distribution,
    feasible_at_length,
    solve_N,
)
from squashcube.spectral import inertia
from oracles import brute_force_solve, sturm_inertia


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_johnson_tables_bit_exact():
    start = time.time()
    ok = (
        johnson_addressing(4, 1).words == ("000", "100", "*10", "**1")
        and johnson_addressing(4, 1) == load_fixture("johnson/j_4_1")[0]
        and johnson_addressing(5, 2) == load_fixture("johnson/j_5_2")[0]
        and johnson_addressing(6, 3, order="by-y") == load_fixture("johnson/j_6_3")[0]
    )
    _report(1, ok and time.time() - start < 1.0,
            f"J(4,1)/J(5,2)/J(6,3) tables symbol-for-symbol ({time.time() - start:.2f}s)")


def test_criterion_2_johnson_valid_up_to_n8():
    start = time.time()
    checked = 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            adr = johnson_addressing(n, k)
            assert adr.length == k * (n - k)
            bad = verify_addressing(bfs_distances(johnson_graph(n, k)), adr)
            assert bad == [], f"J({n},{k}) has violations: {bad[:3]}"
            checked += 1
    elapsed = time.time() - start
    _report(2, elapsed < 30, f"{checked} Johnson addressings verified, n <= 8 ({elapsed:.1f}s)")


def test_criterion_3_good_pair_oracle_j73():
    start = time.time()
    n, k = 7, 3
    subsets = johnson_subsets(n, k)
    pairs = 0
    for s, t in itertools.combinations(subsets, 2):
        gp = good_pairs(s, t, n, k)
        assert gp == good_pairs_characterized(s, t, n, k)
        assert len(gp) == len(set(s) - set(t))
        paths = [c for c in union_graph_h(s, t, n, k) if c.kind == "path"]
        assert gp == {(c.x_max, c.y_min) for c in paths}
        pairs += 1
    elapsed = time.time() - start
    _report(3, elapsed < 60, f"good pairs on all {pairs} J(7,3) pairs ({elapsed:.1f}s)")


def test_criterion_4_fixture_verification():
    start = time.time()
    count = 0
    for name, adr, graph in iter_fixtures():
        bad = verify_addressing(bfs_distances(graph), adr)
        assert bad == [], f"{name}: {bad[:3]}"
        count += 1
    _report(4, count == 26, f"{count} fixtures verify with zero violations "
                            f"({time.time() - start:.1f}s)")


def test_criterion_5_solver_vs_paper_values():
    start = time.time()
    cases = [
        (cycle_graph(5), 3, 3),
        (cycle_graph(7), 3, 4),
        (cycle_graph(9), 3, 5),
        (petersen_graph(), 2, 6),
        (petersen_graph(), 3, 4),
        (cycle_graph(6), 2, 3),
    ]
    for graph, r, expected in cases:
        res = solve_N(SearchConfig(graph=graph, r=r))
        assert res.exhausted and res.value == expected, (
            f"N_{r} came out {res.value}, expected {expected}"
        )
    elapsed = time.time() - start
    _report(5, elapsed < 600, f"six solver values match ({elapsed:.1f}s)")


opt_in = pytest.mark.skipif(
    not os.environ.get("SQUASHCUBE_OPT_IN_TESTS"),
    reason="opt-in longer case; set SQUASHCUBE_OPT_IN_TESTS=1",
)


@opt_in
def test_criterion_5_opt_in_c11():
    res = solve_N(SearchConfig(graph=cycle_graph(11), r=3))
    _report(5, res.value == 6 and res.exhausted, "N_3(C_11) = 6")


@opt_in
def test_criterion_5_opt_in_j63():
    # N_2(J(6,3)) = 8 < 9 = k(n-k): length 7 is exhausted, length 8 found.
    start = time.time()
    g = johnson_graph(6, 3)
    short = feasible_at_length(SearchConfig(graph=g, r=2), 7)
    found = feasible_at_length(SearchConfig(graph=g, r=2), 8)
    ok = (
        (short.feasible, short.exhausted, short.nodes_explored) == (False, True, 437_635)
        and found.feasible
        and verify_addressing(bfs_distances(g), found.addressing) == []
    )
    _report(5, ok, f"N_2(J(6,3)) = 8: length 7 refuted in {short.nodes_explored} "
                   f"nodes ({time.time() - start:.1f}s)")


@opt_in
def test_criterion_5_opt_in_j62():
    # N_2(J(6,2)) = 8 = k(n-k): length 7 is exhausted, and the general
    # construction's length-8 addressing verifies.
    start = time.time()
    g = johnson_graph(6, 2)
    short = feasible_at_length(SearchConfig(graph=g, r=2), 7)
    adr = johnson_addressing(6, 2)
    ok = (
        (short.feasible, short.exhausted, short.nodes_explored) == (False, True, 696_453)
        and adr.length == 8
        and verify_addressing(bfs_distances(g), adr) == []
    )
    _report(5, ok, f"N_2(J(6,2)) = 8: length 7 refuted in {short.nodes_explored} "
                   f"nodes ({time.time() - start:.1f}s)")


@opt_in
def test_criterion_5_opt_in_k3333_r3():
    # N_3(K_{3,3,3,3}) = 7: lengths 6 and below are exhausted and length 7
    # is found, with the weight floors at every depth.
    start = time.time()
    g = complete_multipartite([3, 3, 3, 3])
    res = solve_N(SearchConfig(graph=g, r=3))
    ok = (
        (res.value, res.exhausted, res.nodes_explored) == (7, True, 5_164_849)
        and verify_addressing(bfs_distances(g), res.addressing) == []
    )
    _report(5, ok, f"N_3(K_3,3,3,3) = 7 in {res.nodes_explored} nodes "
                   f"({time.time() - start:.1f}s)")


@opt_in
def test_criterion_5_opt_in_c17_c19_larger_alphabets():
    # N_4 and N_5 of C_17 and C_19, each witness verified.
    start = time.time()
    found = {}
    for n, r in itertools.product((17, 19), (4, 5)):
        g = cycle_graph(n)
        res = solve_N(SearchConfig(graph=g, r=r))
        assert verify_addressing(bfs_distances(g), res.addressing) == []
        found[n, r] = res.value if res.exhausted else None
    ok = found == {(17, 4): 10, (17, 5): 9, (19, 4): 11, (19, 5): 10}
    _report(5, ok, f"N_4, N_5 of C_17 and C_19 = {sorted(found.items())} "
                   f"({time.time() - start:.1f}s)")


def test_criterion_6_census_matches_published_table():
    start = time.time()
    expected = {
        2: {1: 1},
        3: {1: 2},
        4: {1: 5, 2: 1},
        5: {1: 17, 2: 4},
        6: {1: 67, 2: 42, 3: 3},
        7: {1: 316, 2: 498, 3: 38, 4: 1},
    }
    lines = []
    for n in range(2, 8):
        lines.extend(emit_graph6(g) for g in connected_graphs(n))
    res = census_distribution(lines, r=2, jobs=os.cpu_count())
    assert res.errors == []
    got = {n: dict(c) for n, c in res.by_n.items()}
    elapsed = time.time() - start
    _report(6, got == expected and elapsed < 1800,
            f"census rows n=2..7 match, incl. n=7 -> (316, 498, 38, 1) ({elapsed:.1f}s)")


def test_criterion_7_inertia_vs_sturm_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 8))
        g = random_graph(n, int(rng.integers(0, 10 ** 9)))
        if not is_connected(g):
            continue
        d = bfs_distances(g)
        ine = inertia(d)
        assert sturm_inertia(d) == (ine.n_plus, ine.n_zero, ine.n_minus)
        checked += 1
    for a in range(1, 21):
        assert inertia(bfs_distances(complete_multipartite([a, 1, 1]))).n_minus == a + 1
    elapsed = time.time() - start
    _report(7, elapsed < 60, f"inertia == Sturm oracle on {checked} matrices, "
                             f"n_-(K_a11) = a+1 for a <= 20 ({elapsed:.1f}s)")


def test_criterion_8_construction_lemmas():
    start = time.time()
    from squashcube.addressing import Addressing

    base22 = Addressing(2, 2, ["00", "11", "01", "10"])
    for s in range(1, 6):
        out = blow_up(base22, 2, 2, s)
        assert out.length == 3 * s - 1
        assert verify_addressing(bfs_distances(kam_graph(2, 2 * s)), out) == []

    k44 = load_fixture("kam/k4m4")[0]
    out = blow_up(k44, 4, 4, 2)
    assert out.length == 29
    assert verify_addressing(bfs_distances(kam_graph(4, 8)), out) == []

    k55 = load_fixture("kam/k5m5")[0]
    out = blow_up(k55, 5, 5, 2)
    assert out.length == 47
    assert verify_addressing(bfs_distances(kam_graph(5, 10)), out) == []

    k221 = load_fixture("multipartite/k_2_2_1")[0]
    out = plus_three(k221, [2, 2, 1], 0, 0)
    assert out.length == 6 == 5 + 2 - 1
    assert verify_addressing(bfs_distances(complete_multipartite([5, 2, 1])), out) == []
    elapsed = time.time() - start
    _report(8, elapsed < 60, f"blow-ups K(2;2s)/K(4;8)/K(5;10) and plus-three verified "
                             f"({elapsed:.1f}s)")


def test_criterion_9_random_partition_20_seeds():
    start = time.time()
    n = 64
    k = k_threshold(n)
    bound = n - k + ceil_two_sqrt(k) + 1
    succeeded, failed = 0, 0
    for seed in range(20):
        g = random_graph(n, seed)
        try:
            parts = random_partition(g, k)
        except PreconditionError as exc:
            failed += 1
            print(f"  seed {seed}: reported failure: {exc}")
            continue
        assert len(parts) <= bound
        assert np.array_equal(partition_coverage(parts, n), bfs_distances(g))
        succeeded += 1
    elapsed = time.time() - start
    _report(9, succeeded + failed == 20 and elapsed < 300,
            f"{succeeded} verified partitions (size <= {bound}), {failed} reported "
            f"failures, nothing silent ({elapsed:.1f}s)")


def test_criterion_10_solver_equals_brute_force():
    start = time.time()
    checked = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            dist = [[int(x) for x in row] for row in bfs_distances(g)]
            for r in (2, 3):
                res = solve_N(SearchConfig(graph=g, r=r))
                want = brute_force_solve(dist, r)
                assert res.value == want, f"n={n} r={r}: {res.value} != {want}"
                checked += 1
    elapsed = time.time() - start
    _report(10, elapsed < 600,
            f"solver == pruning-free oracle on {checked} (graph, r) cases ({elapsed:.1f}s)")


@opt_in
def test_criterion_10_opt_in_r4():
    start = time.time()
    checked = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            dist = [[int(x) for x in row] for row in bfs_distances(g)]
            res = solve_N(SearchConfig(graph=g, r=4))
            want = brute_force_solve(dist, 4)
            assert res.value == want, f"n={n} r=4: {res.value} != {want}"
            checked += 1
    _report(10, True, f"solver == pruning-free oracle on {checked} graphs at r=4 "
                      f"({time.time() - start:.1f}s)")
