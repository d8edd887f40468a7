import itertools

import pytest

from squashcube.addressing import Addressing, verify_addressing
from squashcube.graphs import bfs_distances, johnson_graph, johnson_subsets
from squashcube.johnson import (
    good_pairs,
    good_pairs_characterized,
    johnson_addressing,
    johnson_coordinates,
    matching_f,
    symbol_rule,
    union_graph_h,
)


def test_matching_examples():
    assert matching_f((1, 4, 6, 8, 12), 12, 5) == [(12, 2), (8, 3), (6, 5)]
    assert matching_f((1, 2), 5, 2) == []
    assert matching_f((3, 4), 5, 2) == [(4, 1), (3, 2)]


def test_matching_rejects_bad_subsets():
    with pytest.raises(ValueError):
        matching_f((1, 2, 3), 5, 2)
    with pytest.raises(ValueError):
        matching_f((0, 1), 5, 2)


def test_symbol_rule_order_sensitive_cases():
    # steps 3 and 4 both fire here; 3 must win
    assert symbol_rule((2, 3), 3, 2, 4, 2) == "*"
    # step 3 fires, step 4 fails, step 5 would fire
    assert symbol_rule((3, 4, 5), 5, 2, 5, 3) == "*"
    assert symbol_rule((2, 3), 3, 1, 5, 2) == "1"
    with pytest.raises(ValueError):
        symbol_rule((2, 3), 2, 1, 5, 2)   # x must exceed k


def _swapped_rule(s, x, y, n, k):
    """Steps 4 and 5 hoisted above step 3 -- known to break the addressing."""
    pairs = matching_f(s, n, k)
    by_x = dict(pairs)
    by_y = {b: a for a, b in pairs}
    if by_x.get(x) == y:
        return "1"
    if max(s) < x:
        return "0"
    if y in s:
        return "0"
    if y in by_y and by_y[y] < x:
        return "0"
    if x in by_x and by_x[x] < y:
        return "*"
    return "*"


def test_step_order_matters_on_j42():
    n, k = 4, 2
    coords = johnson_coordinates(n, k)
    subsets = johnson_subsets(n, k)
    good = johnson_addressing(n, k)
    swapped = Addressing(
        2,
        k * (n - k),
        ["".join(_swapped_rule(s, x, y, n, k) for x, y in coords) for s in subsets],
    )
    assert swapped.words != good.words
    d = bfs_distances(johnson_graph(n, k))
    assert verify_addressing(d, good) == []
    assert verify_addressing(d, swapped) != []


def test_published_table_rows():
    assert johnson_addressing(4, 1).words == ("000", "100", "*10", "**1")
    a52 = johnson_addressing(5, 2)
    assert a52.words[johnson_subsets(5, 2).index((4, 5))] == "***11*"
    a63 = johnson_addressing(6, 3, order="by-y")
    assert a63.words[johnson_subsets(6, 3).index((4, 5, 6))] == "**1*1*1**"


def test_coordinate_orders():
    assert johnson_coordinates(5, 2) == [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]
    assert johnson_coordinates(6, 3, "by-y")[:3] == [(4, 1), (5, 1), (6, 1)]
    with pytest.raises(ValueError):
        johnson_coordinates(5, 2, "diagonal")


def test_addressing_valid_small():
    for n in range(1, 7):
        for k in range(1, n + 1):
            adr = johnson_addressing(n, k)
            assert adr.length == k * (n - k)
            d = bfs_distances(johnson_graph(n, k))
            assert verify_addressing(d, adr) == []
            # column order never affects validity
            assert verify_addressing(d, johnson_addressing(n, k, order="by-y")) == []


def test_union_graph_components():
    n, k = 6, 3
    subsets = johnson_subsets(n, k)
    for s, t in itertools.combinations(subsets, 2):
        comps = union_graph_h(s, t, n, k)
        paths = [c for c in comps if c.kind == "path"]
        assert len(paths) == len(set(s) - set(t))
        for c in comps:
            assert c.kind in ("path", "isolated", "double-edge")
        # degree-one vertices are exactly the symmetric difference
        edges = matching_f(s, n, k) + matching_f(t, n, k)
        deg = {}
        for x, y in edges:
            deg[x] = deg.get(x, 0) + 1
            deg[y] = deg.get(y, 0) + 1
        assert {v for v, d in deg.items() if d == 1} == set(s) ^ set(t)


def test_union_graph_adjacent_pair_single_path():
    comps = union_graph_h((1, 2, 3), (1, 2, 4), 6, 3)
    assert sum(1 for c in comps if c.kind == "path") == 1


def test_union_graph_rejects_equal_subsets():
    with pytest.raises(ValueError):
        union_graph_h((1, 2), (1, 2), 5, 2)


def test_extreme_vertices_adjacent_in_components():
    # x_max with y_min, and x_min with y_max, in every nontrivial component
    for n, k in ((6, 2), (6, 3), (7, 3)):
        subsets = johnson_subsets(n, k)
        for s, t in itertools.combinations(subsets, 2):
            edges = set(matching_f(s, n, k)) | set(matching_f(t, n, k))
            for c in union_graph_h(s, t, n, k):
                if c.kind == "isolated":
                    continue
                assert (c.x_max, c.y_min) in edges
                assert (c.x_min, c.y_max) in edges


def test_good_pairs_match_characterization_and_count():
    for n, k in ((5, 2), (6, 2), (6, 3)):
        subsets = johnson_subsets(n, k)
        for s, t in itertools.combinations(subsets, 2):
            gp = good_pairs(s, t, n, k)
            assert gp == good_pairs_characterized(s, t, n, k)
            assert len(gp) == len(set(s) - set(t))


def test_good_pairs_equal_subsets_empty():
    assert good_pairs((1, 3), (1, 3), 5, 2) == set()


def test_good_pair_is_xmax_ymin_of_each_path():
    n, k = 6, 2
    subsets = johnson_subsets(n, k)
    for s, t in itertools.combinations(subsets, 2):
        paths = [c for c in union_graph_h(s, t, n, k) if c.kind == "path"]
        assert good_pairs(s, t, n, k) == {(c.x_max, c.y_min) for c in paths}


def test_no_good_pair_joins_two_degree_two_vertices():
    for n, k in ((6, 2), (6, 3)):
        subsets = johnson_subsets(n, k)
        for s, t in itertools.combinations(subsets, 2):
            edges = matching_f(s, n, k) + matching_f(t, n, k)
            deg = {}
            for x, y in edges:
                deg[x] = deg.get(x, 0) + 1
                deg[y] = deg.get(y, 0) + 1
            for x, y in good_pairs(s, t, n, k):
                assert deg.get(x, 0) == 1 or deg.get(y, 0) == 1
