"""The four benchmark workloads: inputs made from a seed, the operations that
are timed, and the reference every result is checked against.

Why each workload exists is written up in README.md next to this file.

Constructing a workload object is the set-up that `setup_s` times.  Each
`Op` is one timed call into squashcube; its `traced` form makes the same
calls with a span around each public function.  A workload's `probe`
re-runs, outside the timed operations and with spans, the layer calls that
an operation makes inside the library (spans inside the library are not
available), so that their time can be attributed to a layer.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from squashcube import (
    CapabilityError,
    Graph,
    Inertia,
    automorphisms,
    bfs_distances,
    census_distribution,
    complete_multipartite,
    connected_graphs,
    cover_to_H,
    cycle_graph,
    emit_graph6,
    feasible_at_length,
    induced_embedding,
    johnson_addressing,
    johnson_graph,
    johnson_subsets,
    lower_bound,
    one_two_cover,
    parse_graph6,
    random_graph,
    random_partition,
    solve_N,
    verify_addressing,
)
from squashcube.search import CensusResult, SearchConfig
from squashcube.graphs import all_graphs

# Every per-layer metric with its unit, in the order BENCHMARK.json lists
# them.  A workload that does not exercise a layer reports 0 for it.
SOLVE_CASE_NAMES = ["C13", "C15", "K333_r2", "K333_r3", "K441", "K432"]
PER_LAYER = {
    "graphs.bfs_distances.s": "s",
    "graphs.automorphisms.s": "s",
    "graphs.automorphisms.calls": "count",
    "graphs.automorphisms.group_order": "count",
    "graphs.automorphisms.capped": "count",
    "graphs.connected_graphs.s": "s",
    "graphs.all_graphs.kept_ratio": "ratio",
    "spectral.inertia.s": "s",
    "spectral.inertia.calls": "count",
    "spectral.inertia.s.lowrank": "s",
    "spectral.inertia.s.dense": "s",
    "search.setup.s": "s",
    "search.refute.s": "s",
    "search.witness.s": "s",
    "search.nodes": "count",
    "search.nodes.refute": "count",
    "search.nodes.witness": "count",
    "search.lengths_tried": "count",
    "search.nodes_per_s": "1/s",
    **{f"search.solve_N.s.{c}": "s" for c in SOLVE_CASE_NAMES},
    "search.solve_N.p50_ms": "ms",
    "search.solve_N.p98_ms": "ms",
    "search.census_overhead.s": "s",
    "addressing.verify_addressing.s": "s",
    "addressing.verify_addressing.pairs": "count",
    "johnson.johnson_addressing.s": "s",
    "constructions.one_two_cover.s": "s",
    "constructions.induced_embedding.s": "s",
    "constructions.random_partition.s": "s",
    "constructions.random_partition.pieces": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


@dataclass
class Op:
    """One timed operation: `run()` calls the library; `check(result)`
    returns None when the result matches the reference, else a message."""

    name: str
    stage: str                       # solve, generate, census, bound, address, partition
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    counts: Callable[[object], dict]  # exact counts recorded next to the time
    traced: Callable                 # traced(tracer, layer_dict) -> same result as run()


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def verify(tr, lay, dist, adr):
    """verify_addressing inside a span, counting the pairs it checks."""
    lay["addressing.verify_addressing.pairs"] += adr.n * (adr.n - 1) // 2
    return tr.call("addressing.verify_addressing", verify_addressing, dist, adr)


def automorphisms_probe(tr, lay, g):
    try:
        perms = tr.call("graphs.automorphisms", automorphisms, g)
    except CapabilityError:
        lay["graphs.automorphisms.capped"] += 1
    else:
        lay["graphs.automorphisms.group_order"] += len(perms)


def setup_probe(tr, lay, g, r):
    """The work solve_N does before it searches: distances, bound, automorphisms."""
    with tr.span("search.setup"):
        dist = tr.call("graphs.bfs_distances", bfs_distances, g)
        bound = tr.call("spectral.lower_bound", lower_bound, dist, r).best
        automorphisms_probe(tr, lay, g)
    return dist, bound


def check_witness(dist, value, res):
    """Problems with a solve_N result against the reference value."""
    if res.value != value:
        return f"N_r = {res.value}, reference {value}"
    if not res.exhausted:
        return "verdict is not exhaustive"
    if res.addressing.length != value:
        return f"witness length {res.addressing.length} != {value}"
    bad = verify_addressing(dist, res.addressing)
    if bad:
        return f"witness fails verification at {bad[:2]}"
    return None


def solve_counts(res):
    return {"value": res.value, "nodes": res.nodes_explored, "exhausted": res.exhausted}


# ---------------------------------------------------------------------------
# cycles-r3 and multipartite: exact solves

def cycle_distances(n):
    i = np.arange(n)
    gap = np.abs(i[:, None] - i[None, :])
    return np.minimum(gap, n - gap)


def multipartite_distances(sizes):
    cls = np.repeat(np.arange(len(sizes)), sizes)
    same = cls[:, None] == cls[None, :]
    return np.where(same, 2, 1) - 2 * np.eye(len(cls), dtype=int)


@dataclass
class SolveCase:
    name: str
    graph: Graph
    r: int
    value: int          # the proven N_r
    dist: np.ndarray    # reference distances, computed without the library


class SolveWorkload:
    """solve_N on fixed graphs.  The labels are the same at every seed: a
    random relabelling changes the search's node count several-fold (see
    README.md), which would swamp the run-to-run comparison."""

    def __init__(self, cases):
        self.cases = cases

    def prepare(self):
        pass

    def ops(self):
        for case in self.cases:
            cfg = SearchConfig(graph=case.graph, r=case.r)
            yield Op(
                name=f"solve:{case.name}",
                stage="solve",
                run=lambda cfg=cfg: solve_N(cfg),
                check=lambda res, c=case: check_witness(c.dist, c.value, res),
                counts=solve_counts,
                traced=lambda tr, lay, cfg=cfg: tr.call("search.solve_N", solve_N, cfg),
            )

    def probe(self, tr, lay, results):
        """Setup, then feasible_at_length below N (refute) and at N (witness)."""
        problems = []
        for case in self.cases:
            g = case.graph
            _, bound = setup_probe(tr, lay, g, case.r)
            cfg = SearchConfig(graph=g, r=case.r)
            found = None
            for length in range(bound, g.n):
                with tr.span("search.feasible_at_length") as s:
                    out = feasible_at_length(cfg, length)
                s["note"] = "witness" if out.feasible else "refute"
                lay["search.nodes." + s["note"]] += out.nodes_explored
                lay["search.lengths_tried"] += 1
                if out.feasible or not out.exhausted:
                    found = length if out.feasible else None
                    break
            problem = None
            if found != case.value:
                problem = f"feasible_at_length first succeeds at {found}, reference {case.value}"
            elif verify(tr, lay, case.dist, out.addressing):
                problem = "feasible_at_length witness fails verification"
            problems.append((f"probe:{case.name}", problem))
            lay["search.nodes"] += results[f"solve:{case.name}"].nodes_explored
        return problems


def cycles_r3(seed):
    return SolveWorkload([
        SolveCase("C13", cycle_graph(13), 3, 8, cycle_distances(13)),
        SolveCase("C15", cycle_graph(15), 3, 9, cycle_distances(15)),
    ])


def multipartite(seed):
    def case(name, sizes, r, value):
        return SolveCase(name, complete_multipartite(sizes), r, value,
                         multipartite_distances(sizes))

    return SolveWorkload([
        case("K333_r2", [3, 3, 3], 2, 7),
        case("K333_r3", [3, 3, 3], 3, 5),
        case("K441", [4, 4, 1], 2, 7),
        case("K432", [4, 3, 2], 2, 7),
    ])


# ---------------------------------------------------------------------------
# census-7: generation, then N_2 of every connected graph of order 7

CENSUS_ORDER = 7
CENSUS_GRAPHS = 853                            # connected graphs on 7 vertices
CENSUS_ROW = {1: 316, 2: 498, 3: 38, 4: 1}     # n - N_2 -> number of graphs


class CensusWorkload:
    """At seed 0 the census reads the generated graphs as they are; any
    other seed relabels every graph at random before it is encoded."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.lines = None
        self.plain = None
        self.kept_ratio = None
        self.replay = None

    def prepare(self):
        graphs = connected_graphs(CENSUS_ORDER)
        self.plain = sorted(emit_graph6(g) for g in graphs)
        if self.seed:
            graphs = [relabel(g, self.rng) for g in graphs]
        self.lines = [emit_graph6(g).decode("ascii") for g in graphs]

    def check_generate(self, graphs):
        if len(graphs) != CENSUS_GRAPHS:
            return f"{len(graphs)} connected graphs of order 7, reference {CENSUS_GRAPHS}"
        if sorted(emit_graph6(g) for g in graphs) != self.plain:
            return "generated graphs differ from the first generation in this run"
        return None

    @staticmethod
    def check_census(res):
        if res.errors:
            return f"census errors: {res.errors[:3]}"
        row = dict(res.by_n.get(CENSUS_ORDER, {}))
        if res.total != CENSUS_GRAPHS or set(res.by_n) != {CENSUS_ORDER} or row != CENSUS_ROW:
            return f"census row {row} over {res.total} graphs, reference {CENSUS_ROW}"
        return None

    def traced_census(self, tr, lay):
        """census_distribution's work as public calls: parse, then solve_N."""
        result = CensusResult()
        self.replay = []
        for line in self.lines:
            g = tr.call("graphs.parse_graph6", parse_graph6, line)
            res = tr.call("search.solve_N", solve_N, SearchConfig(graph=g, r=2))
            self.replay.append((g, res))
            if res.value is None:
                result.errors.append((len(self.replay), "inconclusive"))
            else:
                result.add(g.n, res.value)
        return result

    def ops(self):
        yield Op(
            name="generate",
            stage="generate",
            run=lambda: connected_graphs(CENSUS_ORDER),
            check=self.check_generate,
            counts=lambda gs: {"graphs": len(gs)},
            traced=lambda tr, lay: tr.call("graphs.connected_graphs", connected_graphs, CENSUS_ORDER),
        )
        yield Op(
            name="census",
            stage="census",
            run=lambda: census_distribution(self.lines, r=2, jobs=1),
            check=self.check_census,
            counts=lambda res: {
                "row": {str(k): v for k, v in sorted(res.by_n.get(CENSUS_ORDER, {}).items())},
                "errors": len(res.errors),
            },
            traced=self.traced_census,
        )

    def probe(self, tr, lay, results):
        problems = []
        if self.kept_ratio is None:
            # all_graphs(m) augments each graph of order m-1 in 2^(m-1) ways
            sizes = {1: 1}
            for m in range(2, CENSUS_ORDER + 1):
                sizes[m] = len(tr.call("graphs.all_graphs", all_graphs, m))
            tried = sum(sizes[m - 1] << (m - 1) for m in range(2, CENSUS_ORDER + 1))
            kept = sum(sizes[m] for m in range(2, CENSUS_ORDER + 1))
            self.kept_ratio = kept / tried
        lay["graphs.all_graphs.kept_ratio"] = self.kept_ratio

        bad = 0
        for g, res in self.replay:
            dist, bound = setup_probe(tr, lay, g, 2)
            lay["search.nodes"] += res.nodes_explored
            if res.value is None or verify(tr, lay, dist, res.addressing):
                bad += 1
                continue
            lay["search.lengths_tried"] += res.value - bound + 1
        problems.append(("probe:census", f"{bad} witnesses fail" if bad else None))
        return problems


# ---------------------------------------------------------------------------
# bounds-large: exact inertia, the Johnson addressing, the random partition

JOHNSON = (10, 5)
JOHNSON_INERTIA = Inertia(1, 242, 9)
DENSE_N = 128
PARTITION_N = 256
PARTITION_K = 9


def johnson_distances(n, k):
    """k - |A & B| over the library's vertex order of k-subsets."""
    subsets = johnson_subsets(n, k)
    x = np.zeros((len(subsets), n), dtype=int)
    for i, subset in enumerate(subsets):
        x[i, [s - 1 for s in subset]] = 1
    return k - x @ x.T


def diameter2_distances(g):
    """1 on edges, 2 elsewhere off the diagonal; None unless the diameter is 2."""
    a = np.zeros((g.n, g.n), dtype=int)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    common = (a @ a) > 0
    off = ~np.eye(g.n, dtype=bool)
    if not np.all(a.astype(bool) | common | ~off):
        return None
    return np.where(off, 2 - a, 0)


class BoundsWorkload:
    """The seed draws both G(n, 1/2) graphs."""

    def __init__(self, seed):
        self.johnson = johnson_graph(*JOHNSON)
        self.dense = random_graph(DENSE_N, [seed, DENSE_N])
        self.partition_host = random_graph(PARTITION_N, [seed, PARTITION_N])
        self.ref = None

    def prepare(self):
        dense = diameter2_distances(self.dense)
        host = diameter2_distances(self.partition_host)
        if dense is None or host is None:
            raise SystemExit("seed draws a G(n,1/2) graph of diameter > 2; pick another seed")
        eig = np.linalg.eigvalsh(dense.astype(float))
        self.ref = {
            "johnson": johnson_distances(*JOHNSON),
            "dense": dense,
            "host": host,
            "dense_inertia": Inertia(int((eig > 0).sum()), 0, int((eig < 0).sum())),
            "dense_min_abs_eig": float(np.abs(eig).min()),
        }

    def check_bound(self, key, expected, out):
        dist, report = out
        if not np.array_equal(dist, self.ref[key]):
            return "bfs_distances differs from the reference distances"
        if report.inertia != expected:
            return f"inertia {report.inertia}, reference {expected}"
        return None

    def check_dense(self, out):
        if self.ref["dense_min_abs_eig"] < 1e-6:
            return "eigenvalue signs too close to 0 for the float cross-check"
        return self.check_bound("dense", self.ref["dense_inertia"], out)

    def check_address(self, out):
        adr, bad = out
        n, k = JOHNSON
        if adr.length != k * (n - k) or bad:
            return f"length {adr.length}, {len(bad)} violations"
        if verify_addressing(self.ref["johnson"], adr):
            return "addressing fails verification against the reference distances"
        return None

    def check_partition(self, pieces):
        n, k = PARTITION_N, PARTITION_K
        ceil_two_sqrt_k = math.isqrt(4 * k - 1) + 1
        limit = n - k + ceil_two_sqrt_k + 1
        if len(pieces) > limit:
            return f"{len(pieces)} pieces, limit {limit}"
        cover = np.zeros((n, n), dtype=int)
        for piece in pieces:
            for i in range(len(piece)):
                for j in range(i + 1, len(piece)):
                    cover[np.ix_(piece[i], piece[j])] += 1
                    cover[np.ix_(piece[j], piece[i])] += 1
        if not np.array_equal(cover, self.ref["host"]):
            return "partition edge multiset differs from the distance multiset"
        return None

    def traced_bound(self, g, note):
        def traced(tr, lay):
            dist = tr.call("graphs.bfs_distances", bfs_distances, g)
            with tr.span("spectral.lower_bound") as s:
                s["note"] = note
                report = lower_bound(dist)
            return dist, report
        return traced

    def traced_address(self, tr, lay):
        adr = tr.call("johnson.johnson_addressing", johnson_addressing, *JOHNSON)
        return adr, verify(tr, lay, self.ref["johnson"], adr)

    def ops(self):
        def bound(g):
            dist = bfs_distances(g)
            return dist, lower_bound(dist)

        def address():
            adr = johnson_addressing(*JOHNSON)
            return adr, verify_addressing(self.ref["johnson"], adr)

        def bound_counts(out):
            ine = out[1].inertia
            return {"inertia": [ine.n_plus, ine.n_zero, ine.n_minus], "bound": out[1].best}

        yield Op("bound:J10_5", "bound", lambda: bound(self.johnson),
                 lambda out: self.check_bound("johnson", JOHNSON_INERTIA, out),
                 bound_counts, self.traced_bound(self.johnson, "lowrank"))
        yield Op("bound:G128", "bound", lambda: bound(self.dense), self.check_dense,
                 bound_counts, self.traced_bound(self.dense, "dense"))
        yield Op("address:J10_5", "address", address, self.check_address,
                 lambda out: {"length": out[0].length, "violations": len(out[1])},
                 self.traced_address)
        yield Op("partition:G256", "partition",
                 lambda: random_partition(self.partition_host, PARTITION_K),
                 self.check_partition,
                 lambda pieces: {"pieces": len(pieces)},
                 lambda tr, lay: tr.call("constructions.random_partition", random_partition,
                                         self.partition_host, PARTITION_K))

    def probe(self, tr, lay, results):
        """The layer calls random_partition makes inside the library."""
        g = self.partition_host
        tr.call("graphs.bfs_distances", bfs_distances, g)
        cover = tr.call("constructions.one_two_cover", one_two_cover, PARTITION_K)
        image = tr.call("constructions.induced_embedding", induced_embedding, g, cover_to_H(cover))
        lay["constructions.random_partition.pieces"] = len(results["partition:G256"])
        return [("probe:partition", None if image is not None else "no induced cover graph")]


WORKLOADS = {
    "cycles-r3": cycles_r3,
    "multipartite": multipartite,
    "census-7": CensusWorkload,
    "bounds-large": BoundsWorkload,
}
