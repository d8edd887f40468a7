import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

import squashcube.constructions
from squashcube.addressing import Addressing, partition_coverage, verify_addressing
from squashcube.constructions import (
    OneTwoCover,
    append_merge_column,
    blow_up,
    ceil_two_sqrt,
    cover_to_H,
    induced_embedding,
    k_threshold,
    one_two_cover,
    plus_three,
    random_partition,
)
from squashcube.errors import PreconditionError, SelfCheckError
from squashcube.fixtures import load_fixture
from squashcube.graphs import (
    Graph,
    all_graphs,
    bfs_distances,
    complete_graph,
    complete_multipartite,
    connected_graphs,
    cycle_graph,
    kam_graph,
    petersen_graph,
    random_graph,
)

from oracles import first_induced_map, full_k_threshold

K22_BASE = Addressing(2, 2, ["00", "11", "01", "10"])
K221_BASE = Addressing(2, 3, ["000", "110", "100", "010", "**1"])


def test_ceil_two_sqrt():
    assert [ceil_two_sqrt(k) for k in (1, 2, 4, 5, 8, 9)] == [2, 3, 4, 5, 6, 6]


def test_blow_up_k22_chain():
    for s in range(1, 6):
        out = blow_up(K22_BASE, 2, 2, s)
        assert out.length == 3 * s - 1
        assert verify_addressing(bfs_distances(kam_graph(2, 2 * s)), out) == []


def test_blow_up_identity_at_s1():
    assert blow_up(K22_BASE, 2, 2, 1) == K22_BASE


def test_blow_up_rejects_invalid_base():
    broken = Addressing(2, 2, ["00", "00", "01", "10"])
    with pytest.raises(ValueError):
        blow_up(broken, 2, 2, 2)
    with pytest.raises(ValueError):
        blow_up(K22_BASE, 2, 2, 0)


def test_blow_up_appendix_fixtures():
    k44, _ = load_fixture("kam/k4m4")
    out = blow_up(k44, 4, 4, 2)
    assert out.length == 29
    assert verify_addressing(bfs_distances(kam_graph(4, 8)), out) == []


def test_plus_three_k221():
    out = plus_three(K221_BASE, [2, 2, 1], 0, 0)
    assert out.length == 6   # matches the optimum a + b - 1 for K_{5,2,1}
    assert verify_addressing(bfs_distances(complete_multipartite([5, 2, 1])), out) == []
    # the bundled K_{2,2,1} table row grows the same way
    k221 = load_fixture("multipartite/k_2_2_1")[0]
    out = plus_three(k221, [2, 2, 1], 0, 0)
    assert out.length == 6 == 5 + 2 - 1
    assert verify_addressing(bfs_distances(complete_multipartite([5, 2, 1])), out) == []


def test_plus_three_twice():
    once = plus_three(K221_BASE, [2, 2, 1], 0, 0)
    twice = plus_three(once, [5, 2, 1], 0, 1)
    assert twice.length == K221_BASE.length + 6
    assert verify_addressing(bfs_distances(complete_multipartite([8, 2, 1])), twice) == []


def test_plus_three_any_vertex_and_class():
    sizes = [2, 2, 1]
    for cls in range(3):
        lo = sum(sizes[:cls])
        for v in range(lo, lo + sizes[cls]):
            out = plus_three(K221_BASE, sizes, cls, v)
            grown = list(sizes)
            grown[cls] += 3
            assert verify_addressing(
                bfs_distances(complete_multipartite(grown)), out
            ) == []


def test_plus_three_vertex_class_mismatch():
    with pytest.raises(ValueError):
        plus_three(K221_BASE, [2, 2, 1], 0, 4)   # vertex 4 is in class C
    with pytest.raises(ValueError):
        plus_three(K221_BASE, [2, 2, 1], 3, 0)


def test_append_merge_column():
    out = append_merge_column(K221_BASE, [2, 2, 1])
    assert out.length == 4
    assert verify_addressing(bfs_distances(complete_multipartite([4, 1])), out) == []

    k332, _ = load_fixture("multipartite/k_3_3_2")
    out = append_merge_column(k332, [3, 3, 2])
    assert out.length == 7
    assert verify_addressing(bfs_distances(complete_multipartite([6, 2])), out) == []

    k322, _ = load_fixture("multipartite/k_3_2_2")
    out = append_merge_column(k322, [3, 2, 2])
    assert out.length == 6
    assert verify_addressing(bfs_distances(complete_multipartite([5, 2])), out) == []


def test_append_merge_needs_three_classes():
    with pytest.raises(ValueError):
        append_merge_column(K22_BASE, [2, 2])


def _coverage_counter(cover):
    counts = Counter()
    for a, b in cover.pieces:
        for u in a:
            for v in b:
                counts[min(u, v), max(u, v)] += 1
    return counts


def _grid_shape(k):
    a = math.isqrt(k - 1) + 1
    return a, -(-k // a)


@pytest.mark.parametrize("k", range(1, 65))
def test_one_two_cover_meets_bound(k):
    cover = one_two_cover(k)
    a, b = _grid_shape(k)
    assert len(cover.pieces) == a + b - 2 <= ceil_two_sqrt(k)
    counts = _coverage_counter(cover)
    for i in range(k):
        for j in range(i + 1, k):
            assert counts[i, j] in (1, 2)


def test_one_two_cover_k2():
    cover = one_two_cover(2)
    assert len(cover.pieces) == 1 <= ceil_two_sqrt(2)


def test_one_two_cover_minimum_small():
    # any biclique cover of K_k needs ceil(log2 k) pieces; the grid meets it
    for k in (1, 2, 3, 4, 5, 6, 9):
        assert len(one_two_cover(k).pieces) == (k - 1).bit_length()


def test_one_two_cover_limits():
    # K_1 has no edge, so the empty cover is exact
    assert one_two_cover(1) == OneTwoCover(1, ())
    with pytest.raises(ValueError):
        one_two_cover(0)


def test_cover_to_H():
    assert cover_to_H(one_two_cover(2)) == complete_graph(2)
    # all-twice cover of K_4 by the four stars: H is edgeless
    stars = OneTwoCover(
        4, (((0,), (1, 2, 3)), ((1,), (0, 2, 3)), ((2,), (0, 1, 3)), ((3,), (0, 1, 2)))
    )
    assert cover_to_H(stars).num_edges == 0
    cover = one_two_cover(4)
    h = cover_to_H(cover)
    counts = _coverage_counter(cover)
    for (i, j), c in counts.items():
        assert h.has_edge(i, j) == (c == 1)
    # the grid cover's H is the rook's graph on the filled cells
    for k in (7, 10, 16):
        h = cover_to_H(one_two_cover(k))
        _, b = _grid_shape(k)
        for i in range(k):
            for j in range(i + 1, k):
                assert h.has_edge(i, j) == (i // b == j // b or i % b == j % b)


def test_induced_embedding():
    assert induced_embedding(petersen_graph(), cycle_graph(5)) is not None
    assert induced_embedding(petersen_graph(), complete_graph(3)) is None  # triangle-free
    phi = induced_embedding(complete_graph(5), complete_graph(3))
    assert phi is not None and len(set(phi)) == 3


def test_induced_embedding_is_the_first_induced_map():
    # the bitmask candidates are visited in increasing order, so the map
    # found is the first induced one in permutations order, on every host
    patterns = [p for m in range(1, 5) for p in all_graphs(m)]
    for n in range(1, 7):
        for host in all_graphs(n):
            for pattern in patterns:
                assert induced_embedding(host, pattern) == first_induced_map(host, pattern)


def test_k_threshold_values():
    assert k_threshold(64) == 5
    assert k_threshold(2) == 1
    with pytest.raises(ValueError):
        k_threshold(1)


def test_k_threshold_matches_the_full_loop():
    # stopping at the first failing k is exact (see the docstring)
    values = [k_threshold(n) for n in range(2, 1501)]
    assert values == [full_k_threshold(n) for n in range(2, 1501)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_random_partition_n64():
    k = k_threshold(64)
    bound = 64 - k + ceil_two_sqrt(k) + 1
    for seed in range(3):
        g = random_graph(64, seed)
        parts = random_partition(g, k)
        assert len(parts) <= bound
        # independent multiset check on top of the internal one
        assert np.array_equal(partition_coverage(parts, 64), bfs_distances(g))


def digest(g, k):
    return hashlib.sha1(json.dumps(random_partition(g, k)).encode()).hexdigest()


def test_random_partition_pieces_are_pinned():
    """The piece lists themselves, in order, not only their coverage."""
    k = k_threshold(64)
    assert [digest(random_graph(64, seed), k) for seed in range(3)] == [
        "6ddc117463717c515f8bc3ddebd961f7bc0920f9",
        "4fbb6d05b5438bde942ff888d6c015a42ab27ab4",
        "4359c887f18579bd17e9cb95d240c06093bfac04",
    ]
    assert digest(random_graph(256, [0, 256]), 9) == "7a4b2b661e1ac1497e3c1999e376d5f349099d95"


def test_random_partition_reads_distances_off_the_adjacency(monkeypatch):
    # every pair has a common neighbour, so the distances are 1 and 2: no BFS
    def no_bfs(g):
        raise AssertionError("random_partition ran a BFS")

    monkeypatch.setattr(squashcube.constructions, "bfs_distances", no_bfs)
    test_random_partition_pieces_are_pinned()


def test_random_partition_degenerate_k1():
    for seed in range(30):
        g = random_graph(12, seed)
        try:
            parts = random_partition(g, 1)
        except PreconditionError:
            continue
        assert np.array_equal(partition_coverage(parts, 12), bfs_distances(g))
        return
    pytest.skip("no diameter-2 seed found at n=12")


def test_random_partition_preconditions():
    with pytest.raises(PreconditionError):
        random_partition(complete_graph(5), 2)          # diameter 1
    with pytest.raises(PreconditionError):
        random_partition(cycle_graph(4), 2)             # adjacent pair, no common nbr
    with pytest.raises(PreconditionError):
        random_partition(Graph(4, [(0, 1), (2, 3)]), 2)  # disconnected
    with pytest.raises(PreconditionError):
        random_partition(cycle_graph(7), 2)             # diameter 3


def test_random_partition_precondition_messages():
    cases = [
        (Graph(4, [(0, 1), (2, 3)]), "vertices 0,1 have no common neighbor"),
        (cycle_graph(7), "vertices 0,1 have no common neighbor"),
        (complete_graph(5), "graph diameter is 1, need exactly 2"),
        (Graph(1), "graph diameter is 0, need exactly 2"),
    ]
    for g, message in cases:
        with pytest.raises(PreconditionError) as info:
            random_partition(g, 2)
        assert str(info.value) == message
    with pytest.raises(PreconditionError, match="the empty graph has no distance matrix"):
        random_partition(Graph(0), 2)


def test_random_partition_names_the_first_pair_without_common_neighbour():
    # the first pair, in (u, v) order, whose neighbourhoods do not intersect
    named = 0
    for g in connected_graphs(6):
        if bfs_distances(g).max() != 2:
            continue
        lonely = [(u, v) for u in range(6) for v in range(u + 1, 6)
                  if not g.adj[u] & g.adj[v]]
        try:
            random_partition(g, 2)
            got = None
        except PreconditionError as exc:
            got = str(exc)
            named += 1
        assert got == ("vertices {},{} have no common neighbor".format(*lonely[0])
                       if lonely else None)
    assert named > 10


def test_random_partition_rejects_overlapping_classes(monkeypatch):
    # a cover whose piece sides share vertex 0 maps to pieces with
    # overlapping classes; the self-check must refuse them
    g = complete_multipartite([2, 2, 2])
    assert np.array_equal(partition_coverage(random_partition(g, 2), 6), bfs_distances(g))
    overlapping = OneTwoCover(2, (((0,), (0, 1)),))
    monkeypatch.setattr(squashcube.constructions, "one_two_cover", lambda k: overlapping)
    with pytest.raises(SelfCheckError, match="failed verification"):
        random_partition(g, 2)
