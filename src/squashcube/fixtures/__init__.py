"""Bundled reference addressings in the text format, one file per table.

Layout: fixtures/<family>/<name>.addr.  The registry below pairs each file
with a factory for the graph it addresses, so callers can re-verify any
fixture from scratch.  Note for cycles/c15_r3: the published table repeats
one row; the shipped file carries the unique repaired word for vertex 9
(found by exhausting all 4^9 candidates, after which the column verifies).
"""

from importlib import resources

from ..addressing import parse_addressing
from ..graphs import complete_multipartite, cycle_graph, johnson_graph, kam_graph

REGISTRY = {
    "johnson/j_4_1": lambda: johnson_graph(4, 1),
    "johnson/j_5_2": lambda: johnson_graph(5, 2),
    "johnson/j_6_3": lambda: johnson_graph(6, 3),
    "johnson/j_6_3_len8": lambda: johnson_graph(6, 3),
    "cycles/c5_r3": lambda: cycle_graph(5),
    "cycles/c7_r3": lambda: cycle_graph(7),
    "cycles/c9_r3": lambda: cycle_graph(9),
    "cycles/c11_r3": lambda: cycle_graph(11),
    "cycles/c13_r3": lambda: cycle_graph(13),
    "cycles/c15_r3": lambda: cycle_graph(15),
    "cycles/c17_r3": lambda: cycle_graph(17),
    "cycles/c19_r3": lambda: cycle_graph(19),
    "multipartite/k_2_2_1": lambda: complete_multipartite([2, 2, 1]),
    "multipartite/k_3_2_1": lambda: complete_multipartite([3, 2, 1]),
    "multipartite/k_4_2_1": lambda: complete_multipartite([4, 2, 1]),
    "multipartite/k_3_3_1": lambda: complete_multipartite([3, 3, 1]),
    "multipartite/k_4_3_1": lambda: complete_multipartite([4, 3, 1]),
    "multipartite/k_4_4_1": lambda: complete_multipartite([4, 4, 1]),
    "multipartite/k_3_2_2": lambda: complete_multipartite([3, 2, 2]),
    "multipartite/k_3_3_2": lambda: complete_multipartite([3, 3, 2]),
    "multipartite/k_4_2_2": lambda: complete_multipartite([4, 2, 2]),
    "multipartite/k_3_3_3": lambda: complete_multipartite([3, 3, 3]),
    "multipartite/k_4_3_2": lambda: complete_multipartite([4, 3, 2]),
    "multipartite/k_5_2_2": lambda: complete_multipartite([5, 2, 2]),
    "kam/k4m4": lambda: kam_graph(4, 4),
    "kam/k5m5": lambda: kam_graph(5, 5),
}


def fixture_names():
    return sorted(REGISTRY)


def load_fixture(name):
    """(addressing, graph) for one registry entry."""
    if name not in REGISTRY:
        raise KeyError(f"unknown fixture {name!r}")
    family, fname = name.split("/")
    text = (
        resources.files(__package__)
        .joinpath(family, fname + ".addr")
        .read_text(encoding="ascii")
    )
    return parse_addressing(text), REGISTRY[name]()


def iter_fixtures():
    for name in fixture_names():
        adr, graph = load_fixture(name)
        yield name, adr, graph


__all__ = [
    "REGISTRY",
    "fixture_names",
    "load_fixture",
    "iter_fixtures",
]
