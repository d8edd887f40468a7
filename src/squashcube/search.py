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
eccentricity to L.  Every list goes through one per-shape filter,
`addressing.distance_filter`, built once per length (one list comprehension
per list, with no call per word).  While the (up to three) anchors get
their words, a list is the set of all words at given distances from the
anchor words placed so far, so it can be built without the full symbol
space: the low and the high half-words sit in buckets keyed by their
vector of distances to those words, a new anchor word splits every bucket
by distance (one filter pass per distance), which extends the key by one
entry, and a vertex's list is the sorted union of lo | hi over the bucket
pairs whose keys add up to its target vector (a meet-in-the-middle join).
The root is the empty vector: one bucket per half.  Before the last anchor
only the next anchor's list is built, and a vertex whose bucket pairs are
all empty ends the node; at the last anchor every list is built.  A node
whose lists are short filters them instead (the rule is in `joins`), and
below the anchors every assignment filters each remaining vertex's list by
its distance to the new word.  Both routes give the same sorted lists, so
the tree does not depend on the route.  Vertices that need the same
distances share one list, which is safe because lists are never mutated,
only filtered into new ones.  The vertex with the fewest candidates is
assigned next.  Every witness is re-verified before it is returned,
through the coverage matrix of its partition, which shares no code with
the filter.
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
        half_care = ((1 << length // 2) - 1, care >> length // 2 << length // 2)

        # A half-word's key packs its distances to the anchor words placed so
        # far, anchor i's in the field at bit i * width, so a low key plus a
        # high key is the whole word's key.  A goal minus a low key that
        # exceeds it in some field borrows, and the fields are wide enough
        # that the borrowing field then exceeds any distance: no high key.
        width = (2 * length + 1).bit_length()
        last = len(anchors) - 1
        # goal[d][u]: the key of u's words once anchors 0..d-1 have theirs
        goal = [[0] * n]
        for i, a in enumerate(anchors):
            shift = i * width
            goal.append([g | x << shift for g, x in zip(goal[-1], dist[a])])
        # plan[d]: for the node that gives anchor d its word, the vertices
        # still without one after it, their largest distance to the anchor
        # and the goals of their lists in the child.
        rest = [u for u in range(n) if u not in anchors]
        plan = []
        for d, v in enumerate(anchors):
            others = anchors[d + 1:] + rest
            child = goal[d + 1]
            plan.append((
                others,
                max(map(dist[v].__getitem__, others), default=0),
                {child[u] for u in others},
            ))

        def split(buckets, w, top, shift):
            """Each bucket split by its words' distance to w, up to top."""
            out = {}
            for key, words in buckets.items():
                for t in range(top + 1):
                    part = at(words, w, t)
                    if part:
                        out[key | t << shift] = part
            return out

        def joined(lo, hi, g):
            """The sorted words of goal g: lo | hi over the pairs of buckets
            whose keys add up to g."""
            return sorted([a | b for k in lo if g - k in hi for b in hi[g - k] for a in lo[k]])

        def every_list(lo, hi, vertices, goals):
            """The joined lists of these vertices, one list per goal."""
            by_goal = {g: joined(lo, hi, g) for g in {goals[u] for u in vertices}}
            return {u: by_goal[goals[u]] for u in vertices}

        def joins(halves, depth):
            """Whether this node's children cost less to join than to filter.

            Both routes spend their time in passes of the filter `at`:
            filtering makes one pass per distinct list and distance, over
            the list's words (a list's size is the sum of |lo bucket| *
            |hi bucket| over its bucket pairs, so no list is built to count
            it); the join makes one pass per bucket and distance up to top,
            over the bucket's words, in each half.  A pass costs about eight
            word tests on top of its words (a call, a loop step and a store:
            about 0.75 us against 0.1 us per word tested with CPython 3.11,
            r = 2), so the join runs where its passes cost less.  Short
            lists split into buckets of a few words each, so they keep the
            filter; long lists are cheaper to join at every anchor depth.
            """
            lo, hi = halves
            _, top, goals = plan[depth]
            words = sum(map(len, lo.values())) + sum(map(len, hi.values()))
            splitting = (top + 1) * (8 * (len(lo) + len(hi)) + words)
            mask = (1 << depth * width) - 1      # a child goal's parent goal
            filtering = 0
            for g in goals:
                g &= mask
                filtering += 8 + sum([len(a) * len(hi[g - k]) for k, a in lo.items()
                                      if g - k in hi])
            return filtering > splitting

        def join_children(cand, halves, depth):
            """The child's (lists, halves) once the anchor has cand; (None,
            None) if some vertex runs dry.

            Every bucket is split by its words' distance to cand, which
            extends its key by one entry.  A vertex's list joins the bucket
            pairs whose keys add up to its goal, so it is empty exactly when
            no pair does.  Before the last anchor only the next anchor's list
            is built, and the buckets that no goal pairs up are dropped; at
            the last anchor every list is built and the buckets are let go.
            """
            others, top, goals = plan[depth]
            shift = depth * width
            lo = split(halves[0], cand, min(top, (cand & half_care[0]).bit_count()), shift)
            hi = split(halves[1], cand, min(top, (cand & half_care[1]).bit_count()), shift)
            pairs = {}
            for g in goals:
                keys = pairs[g] = [k for k in lo if g - k in hi]
                if not keys:
                    return None, None
            if depth == last:
                return every_list(lo, hi, others, goal[depth + 1]), None
            nxt = anchors[depth + 1]
            return {nxt: joined(lo, hi, goal[depth + 1][nxt])}, (
                {k: lo[k] for keys in pairs.values() for k in keys},
                {g - k: hi[g - k] for g, keys in pairs.items() for k in keys},
            )

        def children(v, cand, lists):
            """Every other vertex's candidates once v has cand; None if one runs dry.

            This is the route below the anchors, and at an anchor depth
            whose lists `joins` finds cheaper to filter than to join; both
            routes give the same sorted lists.  Vertices that hold the same
            list at the same distance from v
            get one filtered copy.  Sharing is safe because lists are only
            ever filtered into new ones, never mutated, and keying on id()
            is safe because `lists` keeps every list alive during the call.
            """
            dv = dist[v]
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

        def dfs(lists, halves, state, floors, depth):
            """floors: the weight floors from automorphism orbits, raised as
            the anchors get words."""
            nonlocal nodes
            if not lists:
                return True
            if depth <= last:
                v = anchors[depth]
                if halves is not None and not joins(halves, depth):
                    lists = {**every_list(*halves, plan[depth][0], goal[depth]), v: lists[v]}
                    halves = None
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
                if halves is None:
                    new_lists = children(v, cand, lists)
                    new_halves = None
                else:
                    new_lists, new_halves = join_children(cand, halves, depth)
                if new_lists is None:
                    continue
                witness[v] = cand
                below = floors
                if members:
                    below = {**floors, **{u: max(floors.get(u, 0), wt) for u in members}}
                if dfs(new_lists, new_halves, new_state, below, depth + 1):
                    return True
            return False

        v1 = anchors[0]
        roots = [
            sum(s[0] for s in single[:wt]) for wt in range(max(dist[v1]), length + 1)
        ]
        try:
            found = dfs({v1: roots}, ({0: low}, {0: high}), start, {}, 0)
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
    alphabet size, node limit or job count raises ValueError before any line
    is solved; `jobs=None` means one process per core.
    """
    _check_limits(r, node_limit)
    if jobs is not None and jobs < 1:
        raise ValueError(f"job count must be >= 1, got {jobs}")
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
