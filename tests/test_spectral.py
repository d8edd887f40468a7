import math

import numpy as np
import pytest

from squashcube.addressing import Addressing
from squashcube.graphs import (
    bfs_distances,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    is_connected,
    kam_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from squashcube.spectral import Inertia, inertia, is_eigensharp, lower_bound
from oracles import sturm_inertia


def test_inertia_complete_graphs():
    for n in range(2, 8):
        assert inertia(bfs_distances(complete_graph(n))) == Inertia(1, 0, n - 1)


def test_inertia_k_a11():
    for a in range(1, 21):
        ine = inertia(bfs_distances(complete_multipartite([a, 1, 1])))
        assert ine.n_minus == a + 1


def test_inertia_zero_matrix():
    assert inertia(np.zeros((3, 3), dtype=int)) == Inertia(0, 3, 0)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        inertia([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        inertia([[0, 1, 2], [1, 0, 1]])


def test_inertia_matches_sturm_oracle_exhaustively_to_n6():
    from squashcube.graphs import connected_graphs

    for n in range(2, 7):
        for g in connected_graphs(n):
            d = bfs_distances(g)
            ine = inertia(d)
            assert sturm_inertia(d) == (ine.n_plus, ine.n_zero, ine.n_minus)


def test_inertia_matches_sturm_oracle_sampled_n7():
    checked = 0
    for seed in range(80):
        g = random_graph(7, seed)
        if not is_connected(g):
            continue
        d = bfs_distances(g)
        ine = inertia(d)
        assert sturm_inertia(d) == (ine.n_plus, ine.n_zero, ine.n_minus)
        checked += 1
    assert checked > 40


def test_inertia_congruence_invariance():
    rng = np.random.default_rng(11)
    for seed in range(10):
        g = random_graph(7, seed)
        if not is_connected(g):
            continue
        d = np.array(bfs_distances(g), dtype=object)
        p = np.eye(7, dtype=object)
        for _ in range(10):
            i, j = rng.integers(0, 7, 2)
            if i != j:
                p[i] += p[j] * int(rng.integers(-2, 3))
        assert inertia(p.T @ d @ p) == inertia(d)


def _random_symmetric(rng, n, mode):
    a = rng.integers(-3, 4, (n, n))
    a = np.triu(a) + np.triu(a, 1).T
    if mode == 1:     # zero diagonal: pair steps first
        np.fill_diagonal(a, 0)
    elif mode == 2:   # negative diagonal, zero leading entry
        np.fill_diagonal(a, -rng.integers(1, 4, n))
        a[0, 0] = 0
    elif mode == 3:   # low rank: zero pivots once the rank is used up
        b = rng.integers(-2, 3, (n, int(rng.integers(1, n + 1))))
        a = b @ np.diag(rng.choice([-2, -1, 0, 1, 2], b.shape[1])) @ b.T
    elif mode == 4:   # repeated row and column: a singular leading block
        a[1], a[:, 1] = a[0], a[:, 0]
    return a


def test_inertia_matches_sturm_oracle_on_random_symmetric_matrices():
    rng = np.random.default_rng(5)
    for trial in range(250):
        n = int(rng.integers(2, 9))
        a = _random_symmetric(rng, n, trial % 5)
        ine = inertia(a)
        assert sturm_inertia(a) == (ine.n_plus, ine.n_zero, ine.n_minus), a.tolist()


def test_inertia_of_permuted_direct_sums_of_hyperbolic_planes():
    # [a] + H(d1) + H(d2) + 0, with H(d) = [[0, d], [d, 0]] and |a| > 1,
    # rows and columns permuted.  a is the only nonzero diagonal entry, so
    # each H block is reached with a zero diagonal and a divisor D = det of
    # the eliminated block that is not +-1: every call takes the pair step
    # twice with divisions that are not trivially exact.
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = int(rng.choice([-1, 1]) * rng.integers(2, 10))
        d1, d2 = (int(rng.choice([-1, 1]) * rng.integers(1, 10)) for _ in range(2))
        n = 5 + int(rng.integers(0, 4))
        m = np.zeros((n, n), dtype=int)
        m[0, 0] = a
        m[1, 2] = m[2, 1] = d1
        m[3, 4] = m[4, 3] = d2
        perm = rng.permutation(n)
        m = m[np.ix_(perm, perm)]
        want = (2 + (a > 0), n - 5, 2 + (a < 0))
        ine = inertia(m)
        assert (ine.n_plus, ine.n_zero, ine.n_minus) == sturm_inertia(m) == want, m.tolist()


def test_inertia_johnson_distance_matrices():
    from squashcube.graphs import johnson_graph

    for n, k in ((6, 3), (7, 3), (8, 4), (7, 2)):
        ine = inertia(bfs_distances(johnson_graph(n, k)))
        assert ine == Inertia(1, math.comb(n, k) - n, n - 1)


def test_lower_bound_petersen():
    rep = lower_bound(bfs_distances(petersen_graph()), 2)
    assert rep.inertia == Inertia(1, 4, 5)
    assert rep.eigen_bound_r2 == 5 and rep.log2_bound == 4 and rep.best == 5
    rep3 = lower_bound(bfs_distances(petersen_graph()), 3)
    assert rep3.eigen_bound_r == 3 and rep3.best == 3


def test_lower_bound_multipartite():
    assert lower_bound(bfs_distances(kam_graph(3, 3)), 2).best >= 6
    assert lower_bound(bfs_distances(kam_graph(5, 5)), 2).best >= 20
    assert lower_bound(bfs_distances(complete_graph(2)), 2).best == 1


def test_lower_bound_log2_applies_only_for_r2():
    d = bfs_distances(complete_graph(5))
    r2 = lower_bound(d, 2)
    assert r2.log2_bound == 3
    assert r2.best == max(r2.eigen_bound_r, r2.log2_bound)
    r4 = lower_bound(d, 4)
    assert r4.best == r4.eigen_bound_r == max(1, -(-4 // 3))


def test_log2_bound_is_the_least_b_with_2_to_the_b_at_least_n():
    for n in range(1, 65):
        b = 0
        while 1 << b < n:
            b += 1
        assert lower_bound(bfs_distances(complete_graph(n)), 2).log2_bound == b, n
    assert lower_bound([], 2).log2_bound == 0


def test_lower_bound_rejects_bad_r():
    with pytest.raises(ValueError):
        lower_bound(bfs_distances(complete_graph(3)), 1)


def test_eigensharp_path():
    d = bfs_distances(path_graph(4))
    adr = Addressing(2, 3, ["000", "100", "110", "111"])
    assert is_eigensharp(d, adr)


def test_eigensharp_even_cycle():
    from squashcube.search import SearchConfig, solve_N

    res = solve_N(SearchConfig(graph=cycle_graph(6), r=2))
    assert res.value == 3
    assert is_eigensharp(bfs_distances(cycle_graph(6)), res.addressing)


def test_petersen_not_eigensharp():
    from squashcube.search import SearchConfig, solve_N

    res = solve_N(SearchConfig(graph=petersen_graph(), r=2))
    assert res.value == 6
    assert not is_eigensharp(bfs_distances(petersen_graph()), res.addressing)


def test_eigensharp_single_vertex_vacuous():
    assert is_eigensharp(np.zeros((1, 1), dtype=int), Addressing(2, 0, [""]))


def test_eigensharp_rejects_invalid_addressing():
    d = bfs_distances(path_graph(3))
    with pytest.raises(ValueError):
        is_eigensharp(d, Addressing(2, 2, ["00", "00", "11"]))
    with pytest.raises(ValueError):
        is_eigensharp(d, Addressing(3, 2, ["00", "01", "02"]))


def test_valid_addressings_respect_eigen_bound():
    # length >= max(n+, n-) for every r = 2 addressing we can build
    from squashcube.graphs import johnson_graph
    from squashcube.johnson import johnson_addressing

    for n, k in ((4, 1), (5, 2), (6, 3)):
        ine = inertia(bfs_distances(johnson_graph(n, k)))
        assert johnson_addressing(n, k).length >= max(ine.n_plus, ine.n_minus)
