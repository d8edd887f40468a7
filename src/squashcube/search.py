"""Exhaustive minimum-length addressing search with symmetry pruning.

Feasibility at a fixed length is decided by backtracking over packed words.
Three prunings keep the tree small, all sound and none affecting the verdict:

  * the first vertex's word is a block of 0s then a block of *s;
  * the first three words form a canonical triple under the address-space
    group (coordinate permutations x per-coordinate symbol permutations):
    every column is relabeled so its digits appear top-down as 0,1,2,.. and
    the columns are in nondecreasing order.  Each prefix of a canonical
    triple is itself canonical, so the test nests across depths;
  * optionally, weight-vector minimality over graph automorphism orbits:
    vertices in the orbit of the first anchor never get a lighter word than
    the anchor did, and likewise for the second and third anchors under the
    one- and two-point stabilizers.

Remaining vertices keep explicit candidate lists (built by a
meet-in-the-middle join over half-words, so the full symbol space is never
materialized) that are filtered on every assignment; the vertex with the
fewest candidates is assigned next.  Every witness is re-verified before it
is returned.
"""

import multiprocessing
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .addressing import (
    MAX_ALPHABET,
    STAR,
    Addressing,
    check_addressing,
    distance_kernel,
    pack_word,
    unpack_word,
)
from .errors import CapabilityError, SelfCheckError
from .graphs import Graph, automorphisms, bfs_distances, parse_graph6
from .spectral import lower_bound


@dataclass
class SearchConfig:
    graph: Graph
    r: int = 2
    node_limit: Optional[int] = None
    use_aut_pruning: bool = True
    first_vertices: Optional[tuple] = None

    def __post_init__(self):
        if not 2 <= self.r <= MAX_ALPHABET:
            raise ValueError(
                f"alphabet size must be in [2, {MAX_ALPHABET}], got {self.r}"
            )


@dataclass
class SearchOutcome:
    feasible: bool
    addressing: Optional[Addressing]
    nodes_explored: int
    exhausted: bool          # True iff the verdict is a proof (no limit hit)


@dataclass
class SolveResult:
    value: Optional[int]     # N_r, or None when the node limit interfered
    addressing: Optional[Addressing]
    nodes_explored: int
    exhausted: bool
    lower: int               # when value is None: N_r is in [lower, upper]
    upper: int


class _NodeLimit(Exception):
    pass


def _is_canonical_prefix(rows, star_rank=10):
    """Is this 1-3 row partial assignment the canonical member of its orbit?"""
    length = len(rows[0])
    prev = None
    for j in range(length):
        col = tuple(row[j] for row in rows)
        expected = 0
        seen = set()
        for ch in col:
            if ch == STAR or ch in seen:
                continue
            if ch != str(expected):
                return False
            seen.add(ch)
            expected += 1
        key = tuple(star_rank if ch == STAR else ord(ch) - 48 for ch in col)
        if prev is not None and key < prev:
            return False
        prev = key
    return True


def _enumerate_half(positions, length, r):
    """All packed words whose non-* symbols live in the given positions."""
    symbols = [STAR] + [str(d) for d in range(r)]
    out = []
    for combo in product(symbols, repeat=len(positions)):
        word = [STAR] * length
        for pos, ch in zip(positions, combo):
            word[pos] = ch
        out.append(pack_word("".join(word), r))
    return out


class _Searcher:
    """Search state shared across lengths for one (graph, r) pair."""

    def __init__(self, cfg):
        self.cfg = cfg
        g = cfg.graph
        self.n = g.n
        self.r = cfg.r
        dist = bfs_distances(g)
        self.dist = [[int(x) for x in row] for row in dist]
        self.diameter = max(max(row) for row in self.dist) if g.n > 1 else 0
        self.anchors = self._pick_anchors()
        self.orbit_floors = self._orbit_constraints() if cfg.use_aut_pruning else []

    def _pick_anchors(self):
        n, dist = self.n, self.dist
        if self.cfg.first_vertices is not None:
            chosen = list(self.cfg.first_vertices)[: min(3, n)]
            if len(set(chosen)) != len(chosen) or any(
                not 0 <= v < n for v in chosen
            ):
                raise ValueError(f"bad first_vertices {self.cfg.first_vertices}")
            return chosen
        if n == 1:
            return [0]
        best = max(
            ((u, v) for u in range(n) for v in range(u + 1, n)),
            key=lambda p: (dist[p[0]][p[1]], -p[0], -p[1]),
        )
        anchors = list(best)
        if n > 2:
            third = max(
                (w for w in range(n) if w not in anchors),
                key=lambda w: (dist[w][anchors[0]] + dist[w][anchors[1]], -w),
            )
            anchors.append(third)
        return anchors

    def _orbit_constraints(self):
        """(anchor_index, members) pairs for the weight-floor pruning."""
        try:
            perms = automorphisms(self.cfg.graph)
        except CapabilityError:
            return []
        floors = []
        for i, v in enumerate(self.anchors):
            members = {p[v] for p in perms}
            members.discard(v)
            if members:
                floors.append((i, members))
            perms = [p for p in perms if p[v] == v]
        return floors

    def run(self, length):
        n = self.n
        if length < 0:
            raise ValueError("length must be >= 0")
        if n == 1:
            adr = Addressing(self.r, length, [STAR * length])
            return SearchOutcome(True, adr, 0, True)
        if self.diameter > length:
            return SearchOutcome(False, None, 0, True)

        r = self.r
        care = (1 << length) - 1     # the care bits; their popcount is the weight
        pdist = distance_kernel(length, r)
        dist = self.dist
        anchors = self.anchors
        nodes = 0
        limit = self.cfg.node_limit

        low = _enumerate_half(range(length // 2), length, r)
        high = _enumerate_half(range(length // 2, length), length, r)

        def mitm(constraints):
            buckets = {}
            for h in high:
                key = tuple(pdist(h, w) for w, _ in constraints)
                buckets.setdefault(key, []).append(h)
            out = []
            for lo in low:
                need = tuple(t - pdist(lo, w) for w, t in constraints)
                if min(need) >= 0:
                    out.extend(lo | h for h in buckets.get(need, ()))
            out.sort()
            return out

        # Weight floors from automorphism orbits, filled in as anchors get words.
        floor_of = {}

        def weight_ok(v, packed):
            bound = floor_of.get(v)
            return bound is None or (packed & care).bit_count() >= bound

        witness = {}

        def dfs(lists, rows, depth):
            nonlocal nodes
            if not lists:
                return True
            if depth < len(anchors):
                v = anchors[depth]
            else:
                v = min(lists, key=lambda u: (len(lists[u]), u))
            for cand in lists[v]:
                nodes += 1
                if limit is not None and nodes > limit:
                    raise _NodeLimit
                if not weight_ok(v, cand):
                    continue
                if depth < len(anchors):
                    new_rows = rows + [unpack_word(cand, length, r)]
                    if not _is_canonical_prefix(new_rows):
                        continue
                else:
                    new_rows = rows
                new_lists = {}
                dead = False
                dv = dist[v]
                for u, lst in lists.items():
                    if u == v:
                        continue
                    target = dv[u]
                    flt = [c for c in lst if pdist(c, cand) == target]
                    if not flt:
                        dead = True
                        break
                    new_lists[u] = flt
                if dead:
                    continue
                witness[v] = cand
                pushed = None
                for idx, members in self.orbit_floors:
                    if anchors[idx] == v:
                        bound = (cand & care).bit_count()
                        pushed = [(u, floor_of.get(u)) for u in members]
                        for u in members:
                            floor_of[u] = max(floor_of.get(u, 0), bound)
                        break
                if dfs(new_lists, new_rows, depth + 1):
                    return True
                if pushed is not None:
                    for u, old in pushed:
                        if old is None:
                            del floor_of[u]
                        else:
                            floor_of[u] = old
                del witness[v]
            return False

        v1 = anchors[0]
        ecc = max(dist[v1])
        found = False
        try:
            for wt in range(ecc, length + 1):
                w1 = pack_word("0" * wt + STAR * (length - wt), r)
                nodes += 1
                if limit is not None and nodes > limit:
                    raise _NodeLimit
                lists = {}
                dead = False
                for u in range(n):
                    if u == v1:
                        continue
                    cands = mitm([(w1, dist[v1][u])])
                    if not cands:
                        dead = True
                        break
                    lists[u] = cands
                if dead:
                    continue
                witness.clear()
                floor_of.clear()
                witness[v1] = w1
                for idx, members in self.orbit_floors:
                    if anchors[idx] == v1:
                        for u in members:
                            floor_of[u] = wt
                if dfs(lists, [unpack_word(w1, length, r)], 1):
                    found = True
                    break
        except _NodeLimit:
            return SearchOutcome(False, None, nodes, False)

        if not found:
            return SearchOutcome(False, None, nodes, True)

        words = [unpack_word(witness[v], length, r) for v in range(n)]
        adr = check_addressing(self.dist, Addressing(r, length, words), "search witness")
        return SearchOutcome(True, adr, nodes, True)


def feasible_at_length(cfg, length):
    """Complete search for an addressing of exactly this length."""
    return _Searcher(cfg).run(length)


def solve_N(cfg):
    """Minimum addressing length with a verified witness.

    Starts at the spectral/log lower bound and steps up; n-1 is a hard upper
    cutoff (the squashed-cube theorem for r=2, and larger alphabets never
    need more).  With a node limit the result may come back as a range.
    """
    g = cfg.graph
    searcher = _Searcher(cfg)
    bound = lower_bound(searcher.dist, cfg.r).best
    total = 0
    for length in range(bound, max(g.n, 1)):
        out = searcher.run(length)
        total += out.nodes_explored
        if out.feasible:
            return SolveResult(length, out.addressing, total, True, length, length)
        if not out.exhausted:
            return SolveResult(None, None, total, False, length, g.n - 1)
    raise SelfCheckError("no addressing found up to length n-1; search is broken")


# ---------------------------------------------------------------------------
# censuses over graph6 streams

@dataclass
class CensusResult:
    """Counts of n - N_r keyed per order, plus per-line problems."""

    by_n: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    total: int = 0

    def add(self, n, value):
        self.by_n.setdefault(n, Counter())[n - value] += 1
        self.total += 1


def _census_line(args):
    lineno, line, r, node_limit = args
    try:
        g = parse_graph6(line)
        res = solve_N(SearchConfig(graph=g, r=r, node_limit=node_limit))
    except ValueError as exc:     # bad input: parse errors, disconnected graphs
        return lineno, None, None, f"{exc}"
    if res.value is None:
        return lineno, g.n, None, f"inconclusive in [{res.lower}, {res.upper}] (node limit)"
    return lineno, g.n, res.value, None


def census_distribution(lines, r=2, jobs=1, node_limit=None):
    """Solve every graph6 line and histogram n - N_r per graph order.

    Bad lines (parse errors, disconnected graphs, node-limit hits) are
    skipped and reported in the result's `errors` list.
    """
    tasks = [
        (i, line, r, node_limit)
        for i, line in enumerate(lines, start=1)
        if line.strip()
    ]
    result = CensusResult()
    if jobs is None:
        jobs = multiprocessing.cpu_count()
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_census_line, tasks, chunksize=16)
    else:
        rows = map(_census_line, tasks)
    for lineno, n, value, err in rows:
        if err is not None:
            result.errors.append((lineno, err))
        else:
            result.add(n, value)
    return result
