import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from squashcube.errors import CapabilityError, DisconnectedGraphError, Graph6ParseError
from squashcube.graphs import (
    MAX_VERTICES,
    Graph,
    all_graphs,
    automorphisms,
    bfs_distances,
    canonical_form,
    complete_graph,
    complete_multipartite,
    connected_graphs,
    cycle_graph,
    emit_graph6,
    is_connected,
    johnson_graph,
    johnson_subsets,
    kam_graph,
    multipartite_classes,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_graph,
    set_bits,
)
from squashcube.fixtures import iter_fixtures
import squashcube.graphs as graphs_module
from oracles import first_new_augmentations, simple_bfs_all_pairs


def test_graph_rejects_self_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(TypeError):
        Graph(3, [(0.0, 1.0)])


def test_numpy_integer_endpoints_give_python_int_masks():
    # numpy ints would give numpy masks, which have no bit_length and
    # overflow at 1 << 64
    edges = [(i, i + 1) for i in range(69)]
    g = Graph(70, [(np.int64(u), np.int64(v)) for u, v in edges])
    assert g == Graph(70, edges)
    assert np.array_equal(bfs_distances(g), bfs_distances(path_graph(70)))


def test_set_bits_lists_the_binary_digits():
    rng = random.Random(5)
    masks = [0, 1, 6, 1 << 4095, (1 << 4096) - 1] + [rng.getrandbits(2048) for _ in range(5)]
    for mask in masks:
        assert set_bits(mask) == [i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1"]


def test_adjacency_masks_agree_with_the_edge_list():
    graphs = [random_graph(n, seed) for n in (1, 2, 7, 12, 40) for seed in range(3)]
    graphs += [g for _, _, g in iter_fixtures()]
    for g in graphs:
        brute = [[u for u in range(g.n) if g.adj[v] >> u & 1] for v in range(g.n)]
        assert [set_bits(a) for a in g.adj] == brute
        assert g.edges == tuple((u, v) for u in range(g.n) for v in brute[u] if u < v)
        assert g.num_edges == len(g.edges)
        assert [g.degree(v) for v in range(g.n)] == [len(b) for b in brute]
        for u, v in itertools.product(range(g.n), repeat=2):
            assert g.has_edge(u, v) is g.has_edge(v, u) is (u in brute[v])
        assert Graph(g.n, g.edges) == g


def test_johnson_n4_k1_is_complete():
    g = johnson_graph(4, 1)
    assert g.n == 4 and g.num_edges == 6


def test_johnson_n5_k2_degrees_brute_force():
    # independent count: pairs of 2-subsets of [5] sharing exactly one element
    subsets = list(itertools.combinations(range(1, 6), 2))
    degree = {
        s: sum(1 for t in subsets if t != s and len(set(s) & set(t)) == 1)
        for s in subsets
    }
    assert set(degree.values()) == {6}
    g = johnson_graph(5, 2)
    assert g.n == 10 and all(g.degree(v) == 6 for v in range(10))


def test_johnson_n6_k3_diameter_via_independent_bfs():
    subsets = johnson_subsets(6, 3)
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(subsets)), 2)
        if len(set(subsets[i]) & set(subsets[j])) == 2
    ]
    rows = simple_bfs_all_pairs(len(subsets), edges)
    assert max(max(r) for r in rows) == 3
    assert bfs_distances(johnson_graph(6, 3)).max() == 3


def test_johnson_edges_follow_the_intersection_rule():
    # The builder swaps one element per neighbour; the rule here tests
    # every pair: S and T are adjacent iff |S & T| = k - 1.
    for n in range(1, 9):
        for k in range(1, n + 1):
            subsets = list(itertools.combinations(range(1, n + 1), k))
            subsets.sort(key=lambda s: s[::-1])
            edges = {
                (i, j)
                for i, j in itertools.combinations(range(len(subsets)), 2)
                if len(set(subsets[i]) & set(subsets[j])) == k - 1
            }
            g = johnson_graph(n, k)
            assert g.n == len(subsets) and set(g.edges) == edges, (n, k)


def test_johnson_parameter_validation():
    with pytest.raises(ValueError):
        johnson_graph(4, 0)
    with pytest.raises(ValueError):
        johnson_graph(4, 5)


def test_johnson_subsets_colex_matches_published_order():
    assert johnson_subsets(5, 2) == [
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4),
        (3, 4), (1, 5), (2, 5), (3, 5), (4, 5),
    ]


def test_johnson_complement_isomorphism():
    # J(n,k) and J(n,n-k) via the explicit complement bijection
    for n in range(2, 8):
        for k in range(1, n):
            a = johnson_graph(n, k)
            b = johnson_graph(n, n - k)
            subs_b = {s: i for i, s in enumerate(johnson_subsets(n, n - k))}
            full = set(range(1, n + 1))
            mapping = [
                subs_b[tuple(sorted(full - set(s)))] for s in johnson_subsets(n, k)
            ]
            for u, v in a.edges:
                assert b.has_edge(mapping[u], mapping[v])
            assert a.num_edges == b.num_edges


def test_cycle_basics():
    c5 = cycle_graph(5)
    assert all(c5.degree(v) == 2 for v in range(5))
    assert bfs_distances(c5).max() == 2
    assert bfs_distances(cycle_graph(13)).max() == 6
    assert bfs_distances(cycle_graph(4))[0][2] == 2
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_complete_multipartite():
    assert complete_multipartite([2, 2, 1]).num_edges == 8
    assert complete_multipartite([1, 1, 1]) == complete_graph(3)
    g = kam_graph(4, 4)
    assert g.n == 16 and g.num_edges == 96
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])
    with pytest.raises(ValueError):
        complete_multipartite([3])


def test_multipartite_distances():
    d = bfs_distances(complete_multipartite([2, 3]))
    assert d[0][1] == 2 and d[0][2] == 1


def test_random_graph_draws_one_coin_per_pair_in_combinations_order():
    # The packed matrix rows must give the masks that Graph builds edge by
    # edge from the same coins, across byte and word boundaries of a row.
    for n in (1, 2, 3, 8, 9, 17, 64, 65, 128, 256):
        for seed in (5, [5, n]):
            pairs = list(itertools.combinations(range(n), 2))
            coins = np.random.default_rng(seed).random(len(pairs)) < 0.5
            g = random_graph(n, seed)
            assert g == Graph(n, [p for p, c in zip(pairs, coins) if c])
            assert all(type(a) is int for a in g.adj)
    with pytest.raises(ValueError):
        random_graph(MAX_VERTICES + 1, 0)


def test_random_graph_determinism_and_statistics():
    assert random_graph(1, 0).num_edges == 0
    for seed in (0, 1, 2):
        g1, g2 = random_graph(64, seed), random_graph(64, seed)
        assert g1 == g2
        # 2016 coin flips at p = 1/2: mean 1008, sigma ~22.4
        assert abs(g1.num_edges - 1008) <= 90
    assert random_graph(20, 0) != random_graph(20, 1)
    with pytest.raises(ValueError):
        random_graph(0, 0)


def test_bfs_small_cases():
    d = bfs_distances(complete_graph(4))
    assert d.sum() == 12 and d.max() == 1
    d = bfs_distances(cycle_graph(5))
    assert set(np.unique(d)) == {0, 1, 2}
    assert all(row.sum() == 6 for row in d)


def test_bfs_johnson_antipodal_pair():
    subs = johnson_subsets(6, 3)
    d = bfs_distances(johnson_graph(6, 3))
    assert d[subs.index((1, 2, 3))][subs.index((4, 5, 6))] == 3


def test_bfs_disconnected_names_a_pair():
    with pytest.raises(DisconnectedGraphError) as exc:
        bfs_distances(Graph(4, [(0, 1), (2, 3)]))
    u, v = exc.value.pair
    assert u in (0, 1) and v in (2, 3)


def test_bfs_disconnected_pair_is_vertex_0_and_smallest_unreachable():
    cases = [
        (Graph(4, [(0, 1), (2, 3)]), 2),
        (Graph(6, [(0, 3), (3, 5), (1, 2), (2, 4)]), 1),
        (Graph(70, [(i, i + 1) for i in range(68)]), 69),
        (Graph(3), 1),
    ]
    for g, missing in cases:
        with pytest.raises(DisconnectedGraphError) as exc:
            bfs_distances(g)
        assert exc.value.pair == (0, missing)


def _random_connected_edges(rng, n, p):
    """A random spanning tree plus each other pair with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    edges.update(pair for pair in itertools.combinations(range(n), 2) if rng.random() < p)
    return sorted(edges)


def test_bfs_matches_independent_bfs():
    rng = random.Random(2024)
    cases = [(1, [])]
    for p in (0.0, 0.05, 0.2, 0.5, 0.9):
        for n in (2, 9, 33, 64, 65, 90):
            cases.append((n, _random_connected_edges(rng, n, p)))
    for n in (2, 3, 63, 64, 65, 128, 200):
        cases.append((n, path_graph(n).edges))
        if n >= 3:
            cases.append((n, cycle_graph(n).edges))
    for n, edges in cases:
        d = bfs_distances(Graph(n, edges))
        assert d.dtype == np.int32
        assert d.tolist() == simple_bfs_all_pairs(n, edges), (n, len(edges))


def test_bfs_bodies_agree(monkeypatch):
    """The per-source and the bitset body give the same int32 matrix, or
    the same (0, smallest unreachable vertex) pair on disconnected input."""

    def both(g):
        out = []
        for start in (MAX_VERTICES + 1, 1):        # per-source body, then bitset body
            monkeypatch.setattr(graphs_module, "BITSET_FROM", start)
            try:
                d = bfs_distances(g)
            except DisconnectedGraphError as exc:
                out.append(exc.pair)
            else:
                assert d.dtype == np.int32
                out.append(d.tolist())
        return out

    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    graphs += [random_graph(n, [s, n]) for n in (31, 32, 33, 63, 64, 65, 127, 128, 129)
               for s in (0, 9001)]
    graphs += [path_graph(n) for n in (2, 3, 31, 64, 65, 130)]
    graphs += [cycle_graph(n) for n in (3, 4, 31, 64, 65, 130)]
    for g in graphs:
        per_source, bitset = both(g)
        assert per_source == bitset == simple_bfs_all_pairs(g.n, g.edges), g
    disconnected = [
        (Graph(40), 1),
        (Graph(60, [(i, i + 2) for i in range(58)]), 1),             # even and odd vertices
        (Graph(70, [(i, i + 1) for i in range(69) if i != 40]), 41),
    ]
    for g, missing in disconnected:
        assert both(g) == [(0, missing), (0, missing)], g


def test_is_connected_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    graphs = []
    for n in range(1, 41):
        for p in (0.02, 0.08, 0.2, 0.5):
            edges = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
            graphs.append(Graph(n, edges))
        tree = _random_connected_edges(rng, n, 0.1)
        graphs.append(Graph(n, tree))
        graphs.append(Graph(n + 1, tree))                      # one isolated vertex
        graphs.append(Graph(2 * n, tree + [(u + n, v + n) for u, v in tree]))  # two components
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        assert is_connected(g) == nx.is_connected(h), (g.n, g.edges)


def test_bfs_triangle_inequality():
    graphs = [random_graph(18, seed) for seed in range(6)] + [random_graph(30, 1)]
    for g in graphs:
        if not is_connected(g):
            continue
        d = [[int(x) for x in row] for row in bfs_distances(g)]
        n = g.n
        for u in range(n):
            for v in range(n):
                duv = d[u][v]
                for w in range(n):
                    assert d[u][w] <= duv + d[v][w]


def test_graph6_hand_decoded_examples():
    g = parse_graph6("C~")
    assert g == complete_graph(4)
    # 'A_' carries bits 100000: the single pair (0,1) is an edge
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges == ((0, 1),)
    g = parse_graph6("A?")
    assert g.n == 2 and g.num_edges == 0
    assert parse_graph6(b">>graph6<<C~") == complete_graph(4)


def test_graph6_cross_check_against_networkx():
    nx = pytest.importorskip("networkx")
    sizes = [int(np.random.default_rng(seed).integers(2, 30)) for seed in range(12)]
    for seed, n in enumerate(sizes + [300]):        # 300 takes the 4-byte header
        g = random_graph(n, seed)
        line = emit_graph6(g)
        h = nx.from_graph6_bytes(line)
        assert set(g.edges) == {tuple(sorted(e)) for e in h.edges()}
        assert parse_graph6(nx.to_graph6_bytes(h, header=False).strip()) == g


def test_graph6_roundtrip():
    for seed in range(10):
        for n in (1, 2, 5, 13, 20):
            g = random_graph(n, seed * 31 + n)
            assert parse_graph6(emit_graph6(g)) == g


def test_graph6_large_n_header():
    g = random_graph(70, 5)
    line = emit_graph6(g)
    assert line[0] == 126
    assert parse_graph6(line) == g


def test_graph6_errors_carry_offsets():
    cases = [
        ("", "empty graph6 line", 0),
        ("C~~", "expected 1 adjacency bytes, got 2", 1),        # trailing byte
        ("C", "expected 1 adjacency bytes, got 0", 1),          # truncated adjacency bits
        (bytes([30, 63]), "invalid header byte 30", 0),
        ("A~", "nonzero padding bits", 1),
        ("D?\x7f", "invalid byte 127", 2),                      # adjacency byte out of range
        ("E??\x7f", "invalid byte 127", 3),                     # ... in the last byte
        ("~?", "truncated vertex count", 2),
        ("~~??", "truncated vertex count", 4),
        ("~?\x20?", "invalid byte 32", 2),                      # vertex-count byte
        ("~~???\x7f??", "invalid byte 127", 5),
        ("~~??A???", "vertex count 524288 exceeds cap 4096", 0),
        ("~?@@", "expected 347 adjacency bytes, got 0", 4),
        ("C\xe9", "invalid byte 233", 1),                       # non-ASCII str
        (b"C\xe9", "invalid byte 233", 1),                      # ... and as bytes
        ("D?\u20ac", "invalid byte 255", 2),                    # past Latin-1
    ]
    for line, message, offset in cases:
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6(line)
        assert str(exc.value) == f"{message} (byte offset {offset})", line
        assert exc.value.offset == offset, line


def test_automorphism_counts():
    assert len(automorphisms(cycle_graph(5))) == 10
    assert len(automorphisms(path_graph(3))) == 2
    assert len(automorphisms(petersen_graph())) == 120


def test_automorphisms_k33_brute_force():
    g = complete_multipartite([3, 3])
    brute = [
        p
        for p in itertools.permutations(range(6))
        if all(g.has_edge(p[u], p[v]) == g.has_edge(u, v)
               for u in range(6) for v in range(u + 1, 6))
    ]
    assert len(brute) == 72
    assert sorted(automorphisms(g)) == sorted(brute)


def test_automorphisms_form_a_group():
    for g in (cycle_graph(6), complete_multipartite([2, 2, 1]), petersen_graph()):
        perms = set(automorphisms(g))
        assert tuple(range(g.n)) in perms
        for p in perms:
            inv = tuple(sorted(range(g.n), key=lambda i: p[i]))
            assert inv in perms
            for q in perms:
                assert tuple(p[q[i]] for i in range(g.n)) in perms
        if g.n > 8:
            break  # composing all pairs of Petersen's 120 is enough once


def _from_nx(h):
    return Graph(len(h), h.edges)  # networkx generators number nodes 0..n-1


def _to_nx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_automorphisms_match_networkx_matcher():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    named = [
        cycle_graph(12),
        _from_nx(nx.frucht_graph()),
        _from_nx(nx.icosahedral_graph()),
        _from_nx(nx.truncated_tetrahedron_graph()),
        complete_multipartite([3, 3, 3]),
        complete_multipartite([4, 4, 1]),
        cycle_graph(13),
        _from_nx(nx.convert_node_labels_to_integers(nx.hypercube_graph(4))),
        johnson_graph(6, 2),
        path_graph(20),
    ]
    small = [g for n in range(1, 7) for g in connected_graphs(n)]
    for g in small + named:
        h = _to_nx(nx, g)
        expected = {
            tuple(m[v] for v in range(g.n))
            for m in GraphMatcher(h, h).isomorphisms_iter()
        }
        assert set(automorphisms(g)) == expected, emit_graph6(g)
    # The matcher takes half a minute over K_{4,4,5}'s 4!4!5!2! automorphisms.
    # They are the permutations that map classes onto classes, so listing
    # that many distinct ones that do is listing them all.
    classes = {frozenset(c) for c in multipartite_classes([4, 4, 5])}
    perms = automorphisms(complete_multipartite([4, 4, 5]))
    assert len(set(perms)) == len(perms) == 24 * 24 * 120 * 2
    assert all({frozenset([p[v] for v in c]) for c in classes} == classes for p in perms)


def test_automorphism_cap():
    assert len(automorphisms(cycle_graph(64))) == 128
    with pytest.raises(CapabilityError):
        automorphisms(cycle_graph(65))


def test_automorphisms_refuse_a_group_above_the_order_cap():
    # K_{5,5,5} has 5!^3 3! = 10,368,000 automorphisms; the transversal
    # sizes give that order before any is listed.  K_{4,4,5}'s 138,240 are
    # below graphs.GROUP_ORDER_CAP = 2^20 and still list (tested above).
    start = time.process_time()
    with pytest.raises(CapabilityError, match="10368000"):
        automorphisms(complete_multipartite([5, 5, 5]))
    assert time.process_time() - start < 1


def test_canonical_form_cap():
    canonical_form(cycle_graph(64))
    with pytest.raises(CapabilityError):
        canonical_form(cycle_graph(65))


def test_group_orders_above_twelve_vertices():
    """The product of the orbit sizes down a stabilizer chain, with
    generators from the ordering search and Schreier's lemma, is the group
    order.  Each search takes milliseconds; taking the least row instead of
    the greatest, Q5 alone ran for minutes."""
    nx = pytest.importorskip("networkx")

    def hypercube(d):
        return _from_nx(nx.convert_node_labels_to_integers(nx.hypercube_graph(d)))

    cases = [
        (cycle_graph(41), 82),
        (hypercube(5), 2 ** 5 * 120),
        (hypercube(6), 2 ** 6 * 720),
        (johnson_graph(7, 3), 5040),
        (complete_multipartite([5, 5, 5]), 120 ** 3 * 6),
    ]
    for g, expected in cases:
        gens = graphs_module.automorphism_generators(g)
        order = 1
        for v in range(g.n):
            orbit, gens = graphs_module.orbit_and_stabilizer(v, gens, g.n)
            order *= len(orbit)
        assert order == expected, g


def test_canonical_form_is_isomorphism_invariant():
    rng = np.random.default_rng(3)
    for seed in range(6):
        g = random_graph(7, seed)
        perm = list(rng.permutation(7))
        h = Graph(7, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(g) == canonical_form(h)


def test_small_graph_census_counts():
    assert [len(all_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_all_graphs_is_the_unpruned_first_new_loop():
    """Skipping all but the least mask of each Aut(parent) orbit keeps the
    representatives, and their order, of labelling every mask."""
    for n in range(1, 7):
        expected = [emit_graph6(Graph(n, edges)) for edges in first_new_augmentations(n)]
        assert [emit_graph6(g) for g in all_graphs(n)] == expected


def test_all_graphs_refuses_order_10_before_generating(monkeypatch):
    calls = []
    monkeypatch.setattr(graphs_module, "canonical_form", calls.append)
    with pytest.raises(CapabilityError):
        all_graphs(10)
    with pytest.raises(CapabilityError):
        connected_graphs(10)
    assert calls == []


def test_all_graphs_labels_one_child_per_orbit(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g.n)
        return canonical_form(g)

    monkeypatch.setattr(graphs_module, "canonical_form", counted)
    labelled = []
    for n in range(2, 8):
        calls.clear()
        all_graphs(n)
        labelled.append(len(calls))
    # the unpruned loop labels 2^(m-1) children of each graph of order m-1
    sizes = [len(all_graphs(m)) for m in range(1, 7)]
    unpruned = [sum(sizes[m - 2] << (m - 1) for m in range(2, n + 1)) for n in range(2, 8)]
    assert labelled == [2, 8, 28, 118, 662, 5758]
    assert unpruned == [2, 10, 42, 218, 1306, 11290]


def test_connected_graphs_label_only_connected_children(monkeypatch):
    """The last level labels only masks that meet every component of the
    parent, and keeps the representatives of filtering `all_graphs`."""
    for n in range(1, 7):
        assert connected_graphs(n) == [g for g in all_graphs(n) if is_connected(g)]
    calls = []

    def counted(g):
        calls.append(g.n)
        return canonical_form(g)

    monkeypatch.setattr(graphs_module, "canonical_form", counted)
    labelled = []
    for n in range(2, 8):
        calls.clear()
        connected_graphs(n)
        labelled.append(len(calls))
    assert labelled == [1, 5, 19, 86, 525, 4968]


def test_the_ordering_search_of_k12_returns_a_few_generators():
    """K_12 has 12! automorphisms; the search prunes by those it finds and
    returns the 11 adjacent transpositions, one per level of the stabilizer
    chain."""
    assert canonical_form(complete_graph(12)) == (12, tuple((1 << p) - 1 for p in range(12)))
    _, base, gens = graphs_module._greatest_orderings(complete_graph(12))
    assert base == tuple(range(12))
    moved = sorted([v for v in range(12) if s[v] != v] for s in gens)
    assert moved == [[v, v + 1] for v in range(11)]


def test_canonical_form_separates_same_degree_graphs():
    """Equal labels exactly for isomorphic pairs, at 9-32 vertices.

    Every graph in a group has the same degree sequence, and regular graphs
    are blind to color refinement, so only the ordering search tells them
    apart.  Each graph also meets a relabelled copy of itself.
    """
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(11)

    def relabel(g):
        perm = [int(x) for x in rng.permutation(g.n)]
        return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])

    def cycles(*lengths):
        return _from_nx(nx.disjoint_union_all([nx.cycle_graph(k) for k in lengths]))

    groups = [
        [cycles(9), cycles(3, 6), cycles(4, 5), cycles(3, 3, 3)],
        [cycles(12), cycles(6, 6), cycles(4, 4, 4), cycles(3, 3, 3, 3), cycles(5, 7)],
        [_from_nx(nx.random_regular_graph(4, 9, seed=s)) for s in range(6)],
        [_from_nx(nx.random_regular_graph(3, 10, seed=s)) for s in range(6)],
        [_from_nx(nx.random_regular_graph(3, 12, seed=s)) for s in range(8)],
        [_from_nx(nx.random_regular_graph(4, 11, seed=s)) for s in range(6)],
        [_from_nx(nx.random_regular_graph(3, 14, seed=s)) for s in range(6)],
        [_from_nx(nx.random_regular_graph(4, 13, seed=s)) for s in range(6)],
        [_from_nx(nx.random_regular_graph(3, 20, seed=s)) for s in range(6)],
        [_from_nx(nx.random_regular_graph(4, 24, seed=s)) for s in range(4)],
        [_from_nx(nx.random_regular_graph(3, 32, seed=s)) for s in range(4)],
    ]
    for group in groups:
        graphs = group + [relabel(g) for g in group]
        labels = [canonical_form(g) for g in graphs]
        for (g, a), (h, b) in itertools.combinations(zip(graphs, labels), 2):
            assert (a == b) == nx.is_isomorphic(_to_nx(nx, g), _to_nx(nx, h))


def test_connected_graphs_7_pinned():
    """The representatives and their order, which census node counts depend on."""
    lines = [emit_graph6(g) for g in connected_graphs(7)]
    digest = hashlib.sha1(b"\n".join(lines)).hexdigest()
    assert digest == "a683311f27d8fd14c3badaf794315a317cbff5fe"
