import functools
import random

import pytest

import squashcube.addressing
import squashcube.graphs
import squashcube.search
from squashcube.addressing import verify_addressing
from squashcube.errors import SelfCheckError
from squashcube.graphs import (
    Graph,
    automorphisms,
    bfs_distances,
    complete_graph,
    complete_multipartite,
    connected_graphs,
    cycle_graph,
    emit_graph6,
    is_connected,
    johnson_graph,
    orbit_and_stabilizer,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_graph,
)
from squashcube.search import (
    SearchConfig,
    census_distribution,
    feasible_at_length,
    solve_N,
)
from squashcube.spectral import lower_bound
from oracles import brute_force_solve


def test_petersen_r2():
    pet = petersen_graph()
    out = feasible_at_length(SearchConfig(graph=pet, r=2), 5)
    assert not out.feasible and out.exhausted
    out = feasible_at_length(SearchConfig(graph=pet, r=2), 6)
    assert out.feasible and out.exhausted
    assert verify_addressing(bfs_distances(pet), out.addressing) == []


def test_petersen_r3_length4():
    out = feasible_at_length(SearchConfig(graph=petersen_graph(), r=3), 4)
    assert out.feasible


def test_c5_r3():
    cfg = SearchConfig(graph=cycle_graph(5), r=3)
    assert not feasible_at_length(cfg, 2).feasible
    assert feasible_at_length(cfg, 3).feasible


@pytest.mark.parametrize(
    "graph,r,expected",
    [
        (cycle_graph(7), 3, 4),
        (complete_graph(4), 2, 3),
        (cycle_graph(6), 2, 3),
        (cycle_graph(9), 3, 5),
        (complete_graph(3), 2, 2),
    ],
)
def test_solve_known_values(graph, r, expected):
    res = solve_N(SearchConfig(graph=graph, r=r))
    assert res.value == expected and res.exhausted
    assert res.addressing.length == expected
    assert verify_addressing(bfs_distances(graph), res.addressing) == []


def test_solve_single_vertex():
    res = solve_N(SearchConfig(graph=complete_graph(1), r=2))
    assert res.value == 0


def test_node_limit_gives_inconclusive_result():
    out = feasible_at_length(SearchConfig(graph=petersen_graph(), r=2, node_limit=5), 6)
    assert not out.feasible and not out.exhausted
    res = solve_N(SearchConfig(graph=petersen_graph(), r=2, node_limit=5))
    assert res.value is None and not res.exhausted
    assert res.lower == 5 and res.upper == 9


def test_matches_brute_force_oracle():
    # Every connected graph of order <= 5 at r = 2 and 3, and of order <= 4
    # at r = 4; the order-5 sweep at r = 4 is an opt-in acceptance case.
    for r, top in ((2, 5), (3, 5), (4, 4)):
        for n in range(1, top + 1):
            for g in connected_graphs(n):
                dist = [[int(x) for x in row] for row in bfs_distances(g)]
                assert solve_N(SearchConfig(graph=g, r=r)).value == brute_force_solve(dist, r)


def test_N_r_does_not_grow_with_r():
    # A word over r symbols is also a word over r + 1, so N_{r+1} <= N_r.
    graphs = [cycle_graph(n) for n in (5, 6, 7, 8, 9, 10, 11)] + [
        complete_multipartite(sizes) for sizes in ([2, 2, 2], [3, 2, 2], [3, 3, 1])
    ]
    for g in graphs:
        values = [solve_N(SearchConfig(graph=g, r=r)).value for r in range(2, 6)]
        assert values == sorted(values, reverse=True), (g.n, values)


def test_johnson_k2_construction_is_optimal_for_n4_and_n5():
    # The paper's claim that k(n-k) is optimal for k = 2 at n = 4, 5:
    # length 5 is refuted for J(5,2), and the solver returns 4 and 6.
    out = feasible_at_length(SearchConfig(graph=johnson_graph(5, 2), r=2), 5)
    assert (out.feasible, out.exhausted) == (False, True)
    for n, expected in ((4, 4), (5, 6)):
        g = johnson_graph(n, 2)
        res = solve_N(SearchConfig(graph=g, r=2))
        assert (res.value, res.exhausted) == (expected, True)
        assert verify_addressing(bfs_distances(g), res.addressing) == []


def test_large_alphabet_fallback_packing():
    # r = 5 is the smallest alphabet whose digits take three bitplanes;
    # check it against brute force
    for g in (complete_graph(3), path_graph(3), cycle_graph(5)):
        dist = [[int(x) for x in row] for row in bfs_distances(g)]
        res = solve_N(SearchConfig(graph=g, r=5))
        assert res.value == brute_force_solve(dist, 5)
        assert verify_addressing(bfs_distances(g), res.addressing) == []


def test_pruning_does_not_change_results():
    for seed in range(12):
        g = random_graph(6, seed + 100)
        if not is_connected(g):
            continue
        on = solve_N(SearchConfig(graph=g, r=2, use_aut_pruning=True))
        off = solve_N(SearchConfig(graph=g, r=2, use_aut_pruning=False))
        assert on.value == off.value


def test_feasibility_is_monotone_in_length():
    cfg = SearchConfig(graph=cycle_graph(5), r=2)
    feasible = [feasible_at_length(cfg, length).feasible for length in range(7)]
    assert feasible == sorted(feasible)     # once True, stays True
    assert feasible[4] is True


def test_first_vertices_override():
    cfg = SearchConfig(graph=cycle_graph(6), r=2, first_vertices=(0, 1, 2))
    assert feasible_at_length(cfg, 3).feasible
    # One to three distinct vertices in range, checked when the config is
    # made: a fourth anchor would never run, so it is refused, not dropped.
    for first in [(0, 0, 1), (), (0, 1, 99), (0, 1, -1), (0, 1, 2, 3)]:
        with pytest.raises(ValueError):
            SearchConfig(graph=cycle_graph(5), first_vertices=first)


def test_the_solver_never_lists_the_automorphism_group(monkeypatch):
    def refuse(g):
        raise AssertionError("the solver listed the whole automorphism group")

    monkeypatch.setattr(squashcube.graphs, "automorphisms", refuse)
    for g, value in ((complete_multipartite([3, 3, 3]), 7), (petersen_graph(), 6),
                     (cycle_graph(12), 6), (complete_graph(12), 11)):
        cfg = SearchConfig(graph=g, r=2)
        searcher = squashcube.search._Searcher(cfg)
        assert searcher.run(value).feasible
        assert any(searcher.orbits.values())      # the floors engage
        res = solve_N(cfg)
        assert (res.value, res.exhausted) == (value, True)


def _placements(g, rng):
    """Placement orders whose prefixes are the placed sets to check: each
    subset's vertices in increasing order for n <= 6, so that every set is
    a prefix, and 20 random orders above."""
    if g.n <= 6:
        return [[v for v in range(g.n) if mask >> v & 1] for mask in range(1 << g.n)]
    orders = []
    for _ in range(20):
        order = list(range(g.n))
        rng.shuffle(order)
        orders.append(order)
    return orders


def test_stabilizer_orbits_from_generators_match_the_whole_group():
    # For every placed set P and every v outside it, the memoised orbit of v
    # under the automorphisms fixing P is the one the listed group gives.
    rng = random.Random(0)
    named = [petersen_graph(), complete_multipartite([3, 3, 3]), complete_multipartite([4, 4, 1]),
             complete_multipartite([4, 3, 2]), cycle_graph(12)]
    for g in [g for n in range(1, 7) for g in connected_graphs(n)] + named:
        perms = automorphisms(g)
        searcher = squashcube.search._Searcher(SearchConfig(graph=g))
        for order in _placements(g, rng):
            # prefix k's stabilizer is memoised while checking prefix k - 1
            for k in range(len(order) + 1):
                prefix = order[:k]
                mask = sum([1 << u for u in prefix])
                fixing = [p for p in perms if all(p[u] == u for u in prefix)]
                for v in set(range(g.n)) - set(prefix):
                    expected = {p[v] for p in fixing} - {v}
                    got = searcher.rest_of_orbit(mask, v)
                    assert set(got) == expected, (emit_graph6(g), prefix, v)


def _hypercube(d):
    return Graph(1 << d, [(u, u | 1 << i) for u in range(1 << d) for i in range(d) if not u >> i & 1])


def test_stabilizer_generators_stay_short():
    # Schreier generators are not sifted, so their number could grow with
    # each placed vertex; on these large groups it stays at most n.
    rng = random.Random(1)
    for g in (complete_graph(12), complete_multipartite([3, 3, 3, 3]),
              complete_multipartite([6, 6]), complete_multipartite([5, 5, 5]),
              johnson_graph(6, 3), johnson_graph(7, 3), _hypercube(6)):
        searcher = squashcube.search._Searcher(SearchConfig(graph=g))
        for order in _placements(g, rng):
            placed = 0
            for v in order:
                searcher.rest_of_orbit(placed, v)
                placed |= 1 << v
        assert len(searcher.stabilizers) > 100
        assert max(map(len, searcher.stabilizers.values())) <= g.n


def test_search_config_rejects_bad_r():
    with pytest.raises(ValueError):
        SearchConfig(graph=complete_graph(3), r=1)
    with pytest.raises(ValueError):
        SearchConfig(graph=complete_graph(3), r=11)


@pytest.mark.parametrize("order,r", [(6, 2), (5, 3), (7, 2)])
def test_census_is_invariant_under_relabelling_pruning_and_anchors(order, r):
    # Metamorphic check over the connected graphs of one order (all 112 on 6
    # vertices and all 21 on 5; every 20th of the 853 on 7, 43 graphs): none
    # of these changes of the question or of the search may change N_r.
    rng = random.Random(order)
    step = 20 if order == 7 else 1
    for g in connected_graphs(order)[::step]:
        value = solve_N(SearchConfig(graph=g, r=r)).value
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        variants = [
            SearchConfig(graph=relabelled, r=r),
            SearchConfig(graph=g, r=r, use_aut_pruning=False),
            SearchConfig(graph=g, r=r, first_vertices=(g.n - 1, 0, 2)),
        ]
        for cfg in variants:
            assert solve_N(cfg).value == value, (emit_graph6(g), cfg)


def test_node_counts_are_deterministic():
    runs = [
        feasible_at_length(SearchConfig(graph=petersen_graph(), r=2), 5).nodes_explored
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_node_counts_and_witnesses_are_pinned():
    # Candidate order and every pruning decide these exact numbers and words;
    # a change to either shows up here.
    pet = SearchConfig(graph=petersen_graph(), r=2)
    out = feasible_at_length(pet, 5)
    assert (out.feasible, out.exhausted, out.nodes_explored) == (False, True, 590)
    out = feasible_at_length(pet, 6)
    assert out.nodes_explored == 43
    assert out.addressing.words == (
        "00****", "01**00", "11000*", "11001*", "01**11",
        "1001**", "1111*0", "110101", "110110", "1111*1",
    )
    petersen_r4 = ("00**", "3*00", "11**", "12*1", "021*",
                   "20*1", "2200", "211*", "2201", "2210")
    cases = [
        (cycle_graph(9), 3, 44,
         ("0000*", "00010", "00110", "01110", "1111*",
          "1112*", "21*21", "*2021", "00021")),
        (complete_multipartite([3, 2, 2]), 2, 127,
         ("00***", "1100*", "1111*", "01***", "10**0", "1*011", "1*101")),
        (cycle_graph(5), 5, 36, ("00*", "010", "11*", "12*", "021")),
        # r=4: the first pinned case with digit 3, both bitplanes set.
        (petersen_graph(), 4, 451, petersen_r4),
        # r >= 5: unused digits are interchangeable at every depth, so the
        # tree grows only slowly with r.
        (petersen_graph(), 5, 956, petersen_r4),
        (petersen_graph(), 6, 1659, petersen_r4),
        (petersen_graph(), 7, 2620, petersen_r4),
    ]
    for graph, r, nodes, words in cases:
        res = solve_N(SearchConfig(graph=graph, r=r))
        assert (res.value, res.exhausted) == (len(words[0]), True)
        assert (res.nodes_explored, res.addressing.words) == (nodes, words)
        assert verify_addressing(bfs_distances(graph), res.addressing) == []


def test_odd_cycles_at_r3_keep_their_node_counts_and_witnesses():
    # Long lists: the search joins half-words at every anchor depth here.
    # Value and witness are those of the filter-only search.  The node
    # counts are those with the weight floors, which now apply to graphs of
    # more than 12 vertices too.
    cases = [
        (13, 1794, ("000000**", "0000010*", "0000110*", "00101100", "01101100",
                    "1110110*", "111111**", "111112**", "1112*21*", "112*021*",
                    "2*2*0211", "002*0211", "0000021*")),
        (15, 3400, ("0000000**", "00000010*", "00000110*", "000101100",
                    "001101100", "011101100", "11110110*", "1111111**",
                    "1111112**", "11112*21*", "1112*021*", "21*2*0211",
                    "*202*0211", "0002*0211", "00000021*")),
    ]
    for n, nodes, words in cases:
        g = cycle_graph(n)
        res = solve_N(SearchConfig(graph=g, r=3))
        assert (res.value, res.exhausted) == (len(words[0]), True)
        assert (res.nodes_explored, res.addressing.words) == (nodes, words)
        assert verify_addressing(bfs_distances(g), res.addressing) == []


LARGER_ALPHABET_PINS = [
    # (graph, {r: (N_r, nodes)}): the paper's odd cycles and complete
    # multipartite graphs over alphabets of four and five symbols
    *[(cycle_graph(n), {4: (value, n4), 5: (value, n5)})
      for n, value, n4, n5 in [(5, 3, 27, 36), (7, 4, 56, 96), (9, 5, 122, 301),
                               (11, 6, 299, 1_085), (13, 7, 801, 4_174),
                               (15, 8, 2_419, 16_486)]],
    (complete_multipartite([3, 3, 3]), {3: (5, 3_925), 4: (4, 366)}),
    (complete_multipartite([4, 4, 1]), {3: (6, 23_551), 4: (5, 3_540)}),
    (complete_multipartite([4, 3, 2]), {3: (5, 1_812), 4: (4, 420)}),
    (complete_multipartite([2, 2, 2, 2]), {3: (4, 186), 4: (3, 32)}),
    (complete_multipartite([3, 3, 3, 3]), {4: (6, 193_000)}),
]


@pytest.mark.parametrize("graph,pins", LARGER_ALPHABET_PINS)
def test_larger_alphabet_values_and_node_counts_are_pinned(graph, pins):
    dist = bfs_distances(graph)
    values = []
    for r, (value, nodes) in sorted(pins.items()):
        res = solve_N(SearchConfig(graph=graph, r=r))
        assert (res.value, res.exhausted, res.nodes_explored) == (value, True, nodes), r
        assert verify_addressing(dist, res.addressing) == []
        assert lower_bound(dist, r).best <= value
        values.append(value)
    assert values == sorted(values, reverse=True)     # N_{r+1} <= N_r


MULTIPARTITE_PINS = [
    # (class sizes, r, N_r, nodes): the weight floors engage at every depth
    ([3, 3, 3], 2, 7, 25_151),
    ([3, 3, 3], 3, 5, 3_925),
    ([4, 4, 1], 2, 7, 15_054),
    ([4, 3, 2], 2, 7, 18_585),
]


@pytest.mark.parametrize("sizes,r,value,nodes", MULTIPARTITE_PINS)
def test_multipartite_node_counts_are_pinned(sizes, r, value, nodes):
    g = complete_multipartite(sizes)
    res = solve_N(SearchConfig(graph=g, r=r))
    assert (res.value, res.exhausted, res.nodes_explored) == (value, True, nodes)
    assert verify_addressing(bfs_distances(g), res.addressing) == []


def test_johnson_6_2_length_6_is_refuted_with_floors():
    # J(6,2) has 15 vertices; the weight floors apply up to 64.
    out = feasible_at_length(SearchConfig(graph=johnson_graph(6, 2), r=2), 6)
    assert (out.feasible, out.exhausted, out.nodes_explored) == (False, True, 14_537)


@pytest.mark.parametrize("graph,r", [(complete_multipartite(sizes), r)
                                     for sizes, r, _, _ in MULTIPARTITE_PINS]
                         + [(petersen_graph(), 2), (cycle_graph(13), 3), (cycle_graph(15), 3)])
def test_floors_only_cut_the_tree(graph, r):
    # The floors neither change N_r nor reorder the tree: on a refuted
    # length the pruned tree is part of the unpruned one.
    on, off = SearchConfig(graph=graph, r=r), SearchConfig(graph=graph, r=r, use_aut_pruning=False)
    value = solve_N(on).value
    assert solve_N(off).value == value
    for length in range(lower_bound(bfs_distances(graph), r).best, value):
        pruned, unpruned = feasible_at_length(on, length), feasible_at_length(off, length)
        assert not pruned.feasible and not unpruned.feasible
        assert pruned.nodes_explored <= unpruned.nodes_explored, length


@pytest.mark.parametrize("g,r,cap", [(parse_graph6("FCzV_"), 2, None), (cycle_graph(7), 3, 6)])
def test_no_symmetry_is_one_case_whatever_its_source(monkeypatch, g, r, cap):
    # A graph with no automorphism (FCzV_, of order 7), one above
    # graphs.SYMMETRY_CAP (C7 under a cap of 6) and use_aut_pruning=False
    # all run with no generators, so each gives the node count and witness
    # of the floors-off search.
    off = solve_N(SearchConfig(graph=g, r=r, use_aut_pruning=False))
    if cap is not None:
        assert squashcube.search._Searcher(SearchConfig(graph=g, r=r)).stabilizers[0]
        monkeypatch.setattr(squashcube.graphs, "SYMMETRY_CAP", cap)
    for pruning in (True, False):
        cfg = SearchConfig(graph=g, r=r, use_aut_pruning=pruning)
        assert squashcube.search._Searcher(cfg).stabilizers == {0: []}
        res = solve_N(cfg)
        assert (res.value, res.nodes_explored, res.addressing.words) == (
            off.value, off.nodes_explored, off.addressing.words)
    assert orbit_and_stabilizer(3, [], g.n) == ({3}, [])


@pytest.mark.parametrize(
    "graph,r",
    [
        (cycle_graph(9), 3),
        (cycle_graph(11), 3),
        (petersen_graph(), 2),
        (complete_multipartite([3, 3, 3]), 3),
        (complete_graph(2), 2),
        (path_graph(3), 2),
        (complete_graph(3), 3),
    ],
)
def test_fewer_anchors_give_the_same_value(graph, r):
    # With one or two first vertices the last anchor depth is 0 or 1, so
    # the join builds every list there instead of at depth 2.
    value = solve_N(SearchConfig(graph=graph, r=r)).value
    n = graph.n
    for first in [(0,), (n - 1,), (0, n - 1), (n - 1, (n - 1) // 2)]:
        res = solve_N(SearchConfig(graph=graph, r=r, first_vertices=first))
        assert res.value == value, first
        assert verify_addressing(bfs_distances(graph), res.addressing) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_census_counts_every_other_graph_past_a_self_check_failure(monkeypatch, jobs):
    # Verification fails only for the path P4, the one connected 4-vertex
    # graph of diameter 3: its line becomes one internal-error record, and
    # the other five graphs are still counted.
    import squashcube.addressing

    real = squashcube.addressing.verify_addressing

    def verify(dist, adr):
        if max(map(max, dist)) == 3:
            return [(0, 1, 1, 2)]
        return real(dist, adr)

    monkeypatch.setattr(squashcube.addressing, "verify_addressing", verify)
    graphs = connected_graphs(4)
    path_line = 1 + next(i for i, g in enumerate(graphs) if bfs_distances(g).max() == 3)
    res = census_distribution([emit_graph6(g) for g in graphs], r=2, jobs=jobs)
    assert res.total == 5 and dict(res.by_n[4]) == {1: 4, 2: 1}
    assert res.errors == []
    assert [lineno for lineno, _ in res.internal_errors] == [path_line]
    assert "search witness fails verification" in res.internal_errors[0][1]


def test_the_self_check_does_not_trust_the_filter_it_checks(monkeypatch):
    # A filter that keeps every word lets the search assign garbage; the
    # witness check must catch it, since it shares no code with the filter.
    # The shapes get a fresh cache for the test, so that the search builds
    # them with the garbage filter and no shape built with it outlives it.
    keep_all = lambda length, r: lambda words, w, t: list(words)
    monkeypatch.setattr(squashcube.search, "distance_filter", keep_all)
    monkeypatch.setattr(squashcube.search, "_shape",
                        functools.lru_cache(maxsize=64)(squashcube.search._Shape))
    with pytest.raises(SelfCheckError, match="search witness fails verification"):
        solve_N(SearchConfig(graph=petersen_graph(), r=2))


@pytest.mark.parametrize("r, node_limit", [(1, None), (11, None), (2, -1)])
def test_census_rejects_a_bad_alphabet_or_node_limit(r, node_limit):
    with pytest.raises(ValueError):
        census_distribution(["Bw"], r=r, node_limit=node_limit)
    with pytest.raises(ValueError):
        SearchConfig(graph=complete_graph(3), r=r, node_limit=node_limit)


@pytest.mark.parametrize("jobs", [0, -3])
def test_census_rejects_a_job_count_below_one(monkeypatch, jobs):
    def solve(cfg):
        raise AssertionError("no line may be solved")

    monkeypatch.setattr(squashcube.search, "solve_N", solve)
    with pytest.raises(ValueError, match="job count"):
        census_distribution(["Bw"], r=2, jobs=jobs)


def test_census_small_orders():
    lines = [emit_graph6(g) for g in connected_graphs(4)]
    res = census_distribution(lines, r=2)
    assert dict(res.by_n[4]) == {1: 5, 2: 1}
    assert res.total == 6 and res.errors == []

    lines = [emit_graph6(g) for g in connected_graphs(5)]
    res = census_distribution(lines, r=2)
    assert dict(res.by_n[5]) == {1: 17, 2: 4}


def test_order_7_census_total_nodes_are_pinned():
    # Thousands of small trees, each anchor node joining its list from the
    # split memo that the graphs share at each word shape.
    row, nodes = {}, 0
    for g in connected_graphs(7):
        res = solve_N(SearchConfig(graph=g, r=2))
        row[g.n - res.value] = row.get(g.n - res.value, 0) + 1
        nodes += res.nodes_explored
    assert nodes == 47_195
    assert row == {1: 316, 2: 498, 3: 38, 4: 1}


def _census_runs(graphs, before_each=lambda: None):
    """(N_2, nodes, witness words) of each graph, solved in turn."""
    runs = []
    for g in graphs:
        before_each()
        res = solve_N(SearchConfig(graph=g, r=2))
        runs.append((res.value, res.nodes_explored, res.addressing.words))
    return runs


def test_shape_memo_hits_and_misses_give_the_same_searches(monkeypatch):
    # Shapes built afresh for every graph, shapes kept warm across the
    # graphs, and shapes whose split memo takes at most two words, so that
    # almost every split is made afresh: all three must agree.
    shape = squashcube.search._shape
    graphs = connected_graphs(6)
    fresh = _census_runs(graphs, shape.cache_clear)
    warm = _census_runs(graphs)
    assert sum(shape(length, 2).split_words for length in range(3, 6)) > 2
    shape.cache_clear()
    monkeypatch.setattr(squashcube.search, "STEP_TABLE_WORDS", 2)
    capped = _census_runs(graphs)
    assert all(shape(length, 2).split_words <= 2 for length in range(3, 6))
    shape.cache_clear()
    assert fresh == warm == capped
    row = [6 - value for value, _, _ in fresh]
    assert [row.count(d) for d in (1, 2, 3)] == [67, 42, 3]       # the order-6 census row


def test_census_n2():
    res = census_distribution([b"A_"], r=2)
    assert dict(res.by_n[2]) == {1: 1}


def test_census_reports_bad_lines():
    lines = [emit_graph6(complete_graph(3)), b"A?", b"garbage!"]
    res = census_distribution(lines, r=2)
    assert res.total == 1
    assert len(res.errors) == 2
    assert {lineno for lineno, _ in res.errors} == {2, 3}


def test_census_empty_stream():
    res = census_distribution([], r=2)
    assert res.by_n == {} and res.total == 0


def test_census_node_limit_reports_inconclusive_lines():
    lines = [emit_graph6(petersen_graph())]
    res = census_distribution(lines, r=2, node_limit=3)
    assert res.total == 0
    assert len(res.errors) == 1 and "inconclusive" in res.errors[0][1]


def test_census_parallel_matches_serial():
    lines = [emit_graph6(g) for g in connected_graphs(5)]
    serial = census_distribution(lines, r=2, jobs=1)
    parallel = census_distribution(lines, r=2, jobs=2)
    assert serial.by_n == parallel.by_n


def test_census_pool_is_no_larger_than_the_input(monkeypatch):
    # A stand-in Pool records its size and maps serially, so no process starts.
    import squashcube.search

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return list(map(fn, tasks))

    monkeypatch.setattr(squashcube.search.multiprocessing, "Pool", FakePool)
    lines = [emit_graph6(g) for g in connected_graphs(3)] + [b""]
    res = census_distribution(lines, r=2, jobs=64)
    assert sizes == [2]
    assert res.total == 2 and dict(res.by_n[3]) == {1: 2}


def test_witness_words_have_expected_shape():
    res = solve_N(SearchConfig(graph=cycle_graph(7), r=3))
    assert all(len(w) == res.value for w in res.addressing.words)
    assert res.addressing.r == 3
