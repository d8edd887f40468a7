"""Exhaustive minimum-length addressing search with symmetry pruning.

Feasibility at a fixed length is decided by backtracking over packed words.
Three prunings keep the tree small, all sound and none affecting the verdict:

  * the first vertex's word is a block of 0s then a block of *s;
  * the words on the path, in the order they were assigned, are canonical
    under the address-space group (coordinate permutations x per-coordinate
    symbol permutations): every column's digits appear top-down as
    0,1,2,.. and the columns are in nondecreasing order.  The test is the
    packed lex-leader step `addressing.canonical_step`: every assigned word
    advances a state of still-tied adjacent columns and per-column digit
    counts, and a word that breaks the order is skipped;
  * optionally, weight-vector minimality over graph automorphism orbits:
    vertices in the orbit of the first anchor never get a lighter word than
    the anchor did, and likewise for the second and third anchors under the
    one- and two-point stabilizers.  The floors ride the path: an anchor
    passes its raised floors down the recursion in a new dict, so nothing
    is saved or restored on the way back.

The lex-leader pruning is sound at every depth, under the dynamic vertex
order too.  Take the partial assignment P on the path and a solution S that
extends it, with v the next vertex.  Some g in the stabilizer of P makes
P plus g(S)(v) canonical: g relabels the digits a column of P does not use
(a new digit becomes the column's next one) and sorts the columns whose
P-prefixes are identical.  g(S) is still a valid addressing that extends P,
so g(S)(v) is in v's list, and g keeps every word's weight, so the weight
floors hold for g(S) exactly when they hold for S.  By induction some
solution survives down to a leaf.

One recursion does all the work, from the root down.  The root's
candidates are the words 0^wt *^(L-wt) for wt from the first anchor's
eccentricity to L.  Every list, at the root and below it, goes through one
per-shape filter, `addressing.distance_filter`, built once per length (one
list comprehension per list, with no call per word).  Once the first anchor
has its word, the filter buckets the low and the high half-words by their
distance to it, and one meet-in-the-middle join of the buckets builds, for
each distance that some vertex needs, the sorted list of all words at that
distance (so the full symbol space is never materialized); vertices at
equal distance from the first anchor share one list, which is safe because
lists are never mutated, only filtered into new ones.  Below the root,
every assignment filters each remaining vertex's list by its distance to
the new word; vertices holding the same list at the same distance get one
shared filtered list.  The vertex with the fewest candidates is assigned
next.  Every witness is re-verified before it is returned, through the
coverage matrix of its partition, which shares no code with the filter.
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
    canonical_step,
    check_addressing,
    distance_filter,
    pack_word,
    unpack_word,
)
from .errors import CapabilityError, SelfCheckError
from .graphs import Graph, automorphisms, bfs_distances, parse_graph6
from .spectral import lower_bound


def _check_limits(r, node_limit):
    """Raise ValueError on a bad alphabet size or a negative node limit."""
    if not 2 <= r <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {r}")
    if node_limit is not None and node_limit < 0:
        raise ValueError(f"node limit must be >= 0, got {node_limit}")


@dataclass
class SearchConfig:
    graph: Graph
    r: int = 2
    node_limit: Optional[int] = None
    use_aut_pruning: bool = True
    first_vertices: Optional[tuple] = None

    def __post_init__(self):
        _check_limits(self.r, self.node_limit)


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


def _enumerate_half(singles):
    """All packed words holding at most one of each position's
    single-symbol words, with * everywhere else."""
    return [sum(combo) for combo in product(*([0] + s for s in singles))]


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
        self.orbit_floors = self._orbit_constraints() if cfg.use_aut_pruning else {}

    def _pick_anchors(self):
        n, dist = self.n, self.dist
        if self.cfg.first_vertices is not None:
            chosen = list(self.cfg.first_vertices)
            if not chosen or len(set(chosen)) != len(chosen) or any(
                not 0 <= v < n for v in chosen
            ):
                raise ValueError(f"bad first_vertices {self.cfg.first_vertices}")
            return chosen[:3]
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
        """{anchor index: the rest of its orbit} for the weight-floor pruning."""
        try:
            perms = automorphisms(self.cfg.graph)
        except CapabilityError:
            return {}
        floors = {}
        for i, v in enumerate(self.anchors):
            members = {p[v] for p in perms}
            members.discard(v)
            if members:
                floors[i] = members
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
        at = distance_filter(length, r)
        start, step = canonical_step(length, r)
        dist = self.dist
        anchors = self.anchors
        nodes = 0
        limit = self.cfg.node_limit

        # single[p][d]: the word with digit d at position p and * elsewhere
        single = [
            [pack_word(STAR * p + str(d) + STAR * (length - 1 - p), r) for d in range(r)]
            for p in range(length)
        ]
        low = _enumerate_half(single[: length // 2])
        high = _enumerate_half(single[length // 2:])

        def words_at(w, targets):
            """The sorted words at each target distance from w, joined from
            the half-words bucketed by their distance to w."""
            top = range(max(targets) + 1)
            by_low = [at(low, w, d) for d in top]
            by_high = [at(high, w, d) for d in top]
            return {
                t: sorted(
                    lo | h for d in range(t + 1) for lo in by_low[d] for h in by_high[t - d]
                )
                for t in targets
            }

        def children(v, cand, lists, depth):
            """Every other vertex's candidates once v has cand; None if one runs dry.

            Vertices that need the same distance share one list: at the
            root, one join serves each distance; below it, vertices that
            hold the same list get one filtered copy.  Sharing is safe
            because lists are only ever filtered into new ones, never
            mutated, and keying on id() is safe because `lists` keeps every
            list alive during the call.
            """
            dv = dist[v]
            if depth == 0:
                others = [u for u in range(n) if u != v]
                by_dist = words_at(cand, {dv[u] for u in others})
                return {u: by_dist[dv[u]] for u in others}
            out = {}
            shared = {}
            for u, lst in lists.items():
                if u != v:
                    key = (id(lst), dv[u])
                    flt = shared.get(key)
                    if flt is None:
                        flt = shared[key] = at(lst, cand, dv[u])
                        if not flt:
                            return None
                    out[u] = flt
            return out

        witness = {}

        def dfs(lists, state, floors, depth):
            """floors: the weight floors from automorphism orbits, raised as
            the anchors get words."""
            nonlocal nodes
            if not lists:
                return True
            if depth < len(anchors):
                v = anchors[depth]
            else:
                v = min(lists, key=lambda u: (len(lists[u]), u))
            floor = floors.get(v, 0)
            members = self.orbit_floors.get(depth, ())
            for cand in lists[v]:
                nodes += 1
                if limit is not None and nodes > limit:
                    raise _NodeLimit
                wt = (cand & care).bit_count()
                if wt < floor:
                    continue
                new_state = step(state, cand)
                if new_state is None:
                    continue
                new_lists = children(v, cand, lists, depth)
                if new_lists is None:
                    continue
                witness[v] = cand
                below = floors
                if members:
                    below = {**floors, **{u: max(floors.get(u, 0), wt) for u in members}}
                if dfs(new_lists, new_state, below, depth + 1):
                    return True
            return False

        v1 = anchors[0]
        roots = [
            sum(s[0] for s in single[:wt]) for wt in range(max(dist[v1]), length + 1)
        ]
        try:
            found = dfs({v1: roots}, start, {}, 0)
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
    """Counts of n - N_r keyed per order, plus per-line problems.

    `errors` holds (line, message) for lines skipped as bad input or as
    inconclusive; `internal_errors` holds (line, message) for lines whose
    solve failed a library self-check, which is a bug, not bad input.
    """

    by_n: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    internal_errors: list = field(default_factory=list)
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
        return lineno, None, None, f"{exc}", False
    except SelfCheckError as exc:  # kept to this line, so the other graphs still count
        return lineno, None, None, f"{exc}", True
    if res.value is None:
        return lineno, g.n, None, f"inconclusive in [{res.lower}, {res.upper}] (node limit)", False
    return lineno, g.n, res.value, None, False


def census_distribution(lines, r=2, jobs=1, node_limit=None):
    """Solve every graph6 line and histogram n - N_r per graph order.

    Bad lines (parse errors, disconnected graphs, node-limit hits) are
    skipped and reported in the result's `errors` list; a line whose solve
    fails a self-check is reported in `internal_errors` instead.  A bad
    alphabet size or node limit raises ValueError before any line is solved.
    """
    _check_limits(r, node_limit)
    tasks = [
        (i, line, r, node_limit)
        for i, line in enumerate(lines, start=1)
        if line.strip()
    ]
    result = CensusResult()
    if jobs is None:
        jobs = multiprocessing.cpu_count()
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            rows = pool.map(_census_line, tasks, chunksize=16)
    else:
        rows = map(_census_line, tasks)
    for lineno, n, value, err, internal in rows:
        if internal:
            result.internal_errors.append((lineno, err))
        elif err is not None:
            result.errors.append((lineno, err))
        else:
            result.add(n, value)
    return result
