import numpy as np
import pytest

from squashcube.addressing import partition_coverage, to_partition, verify_addressing
from squashcube.fixtures import fixture_names, iter_fixtures, load_fixture
from squashcube.graphs import bfs_distances
from squashcube.johnson import johnson_addressing


def test_expected_fixture_inventory():
    names = fixture_names()
    assert len(names) == 26
    assert sum(1 for n in names if n.startswith("cycles/")) == 8
    assert sum(1 for n in names if n.startswith("multipartite/")) == 12
    assert "johnson/j_6_3_len8" in names and "kam/k5m5" in names


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_verifies(name):
    adr, graph = load_fixture(name)
    assert verify_addressing(bfs_distances(graph), adr) == []


def test_fixture_shapes():
    shapes = {name: (adr.r, adr.length, adr.n) for name, adr, _ in iter_fixtures()}
    assert shapes["johnson/j_6_3_len8"] == (2, 8, 20)
    assert shapes["cycles/c19_r3"] == (3, 11, 19)
    assert shapes["kam/k4m4"] == (2, 14, 16)
    assert shapes["kam/k5m5"] == (2, 23, 25)


def test_fixture_partitions_hit_the_distance_multiset():
    # validity and multiset equality are two views of the same fact
    for name, adr, graph in iter_fixtures():
        coverage = partition_coverage(to_partition(adr), graph.n)
        assert np.array_equal(coverage, bfs_distances(graph)), name


def test_r2_fixtures_respect_the_eigenvalue_bound():
    from squashcube.spectral import inertia

    for name, adr, graph in iter_fixtures():
        if adr.r != 2:
            continue
        ine = inertia(bfs_distances(graph))
        assert adr.length >= max(ine.n_plus, ine.n_minus), name


def test_johnson_fixtures_match_construction_bit_exact():
    assert load_fixture("johnson/j_4_1")[0] == johnson_addressing(4, 1)
    assert load_fixture("johnson/j_5_2")[0] == johnson_addressing(5, 2)
    assert load_fixture("johnson/j_6_3")[0] == johnson_addressing(6, 3, order="by-y")


def test_unknown_fixture():
    with pytest.raises(KeyError):
        load_fixture("johnson/j_9_9")
