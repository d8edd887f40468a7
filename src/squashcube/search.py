"""Exhaustive minimum-length addressing search with symmetry pruning.

Feasibility at a fixed length is decided by backtracking over packed words.
A word of length L is packed into one int so that a pairwise distance costs
a handful of bitwise ops and a popcount.  Bits 0..L-1 are the care bits (set
where the symbol is a digit); then come (r-1).bit_length() bitplanes of L
bits each, plane b holding bit b of every digit in binary.  One format
serves every alphabet: r = 2 needs one plane, r <= 4 two, r <= 8 three and
r <= 10 four.  The search relies on two facts of the layout: a word's
weight is the popcount of its low L bits, and words with disjoint positions
add up to the word that carries both (the half-words and the root words are
built as such sums).

State lives at three levels.  Per word shape (L, r), built once per process
and shared by every graph searched at that shape: `_shape`, which holds the
filter `distance_filter` gives, the row-by-row lex-leader test
`canonical_step` gives with its word table, the root words and root
half-word buckets, the anchor join and a memo of anchor splits.  Per graph
(`_Searcher`): the distances, the anchors, the stabilizer and orbit memos,
and per length the goals and plan of `run`.  Per node: the candidate lists, the anchor
buckets, the lex-leader state and the weight floors, each handed down new
and never mutated.

Two prunings keep the tree small, both sound and neither affecting the
verdict:

  * the words on the path, in the order they were assigned, are canonical
    under the address-space group (coordinate permutations x per-coordinate
    symbol permutations): every column's digits appear top-down as
    0,1,2,.. and the columns, read top-down with * above every digit, are
    nondecreasing.  `canonical_step` tests this one row at a time, with two
    mask tests against a one-int state, and a word that breaks the order is
    skipped.  A first row is canonical exactly when it is a block of 0s
    then a block of *s, so the root list is the lex-leader's first rows of
    weight at least the first anchor's eccentricity: 0^wt *^(L-wt) for wt
    from that eccentricity to L;
  * weight-vector minimality over graph automorphism orbits, at every
    depth: when v gets its word below the placed vertices, the other
    vertices of v's orbit under the automorphisms that fix each placed
    vertex never get a lighter word.  The orbits come from generators
    (`graphs.orbit_and_stabilizer`), and the group is never listed: the
    stabilizer of the placed set plus v comes from that of the placed set
    by Schreier's lemma.  It is memoised per placed set and
    shared across lengths, since the group depends on the set alone, not
    on the order the path placed it in; once a stabilizer is trivial, every
    larger set's is too.  The floors ride the path: each assignment passes
    its raised floors down the recursion in a new dict, so nothing is saved
    or restored on the way back.

The lex-leader pruning is sound at every depth, under the dynamic vertex
order too.  Take the partial assignment P on the path and a solution S that
extends it, with v the next vertex.  Some g in the stabilizer of P makes
P plus g(S)(v) canonical: g relabels the digits a column of P does not use
(a new digit becomes the column's next one) and sorts the columns whose
P-prefixes are identical.  g(S) is still a valid addressing that extends P,
so g(S)(v) is in v's list, and g keeps every word's weight, so the weight
floors hold for g(S) exactly when they hold for S.  By induction some
solution survives down to a leaf.

The floors are sound by the same induction, on the graph's side (McKay and
Piperno, "Practical graph isomorphism, II", JSC 2014).  Let h fix every
placed vertex and take v to the vertex of its orbit whose word in S is
lightest.  S after h is a valid addressing that extends P, and it gives v
the lightest word of the orbit, so it meets v's new floors.  It meets every
earlier floor too: such a floor is uniform over an orbit of the stabilizer
of fewer placed vertices, and h lies in that stabilizer, so it maps the
orbit onto itself.  The vertex chosen next depends only on the node, so the
tree below is the same for S and S after h, and the two symmetry groups act
on different sides of the addressing, so they combine.

One recursion does all the work, from the root down.  Every list goes
through the one filter, built once per shape and process.  Length alone
decides a list's representation, wherever a list is made (the root
buckets, the joins and the filter): from WIDE_FILTER_WORDS words on, where
the packed words fit in 64 bits, a list is wide, the read-only memoryview of
one uint64 array, and it stays one through every filter pass until a pass
leaves it shorter; any other list is a list of ints.  A view iterates as
ints and tests true like a list, so the candidate loop and the dead-list
test take both as they are.  The filter has one body per representation: a
list comprehension, with no call per word, and one numpy pass over the
array.  While the (up to three) anchors get their words, a list is the set
of all words at given distances from the anchor words placed so far, so it
can be built without the full symbol space: the low and the high half-words
sit in buckets keyed by their vector of distances to those words, a new
anchor word splits every bucket by distance (one filter pass per distance,
up to the most a half-word can differ from it), which extends the key by
one entry, and a vertex's list is the sorted union of lo | hi over the
bucket pairs whose keys add up to its target vector (a meet-in-the-middle
join, `_Shape.join`: word by word for a short list, one outer OR per bucket
pair and one sort for a wide one).  A split depends only on
the anchor words placed so far, so the shape memoises it for every graph.
The root is the empty vector: one bucket per half.  Anchor nodes join,
nodes below the anchors filter: an anchor node holds only its own list and
the buckets, a vertex whose bucket pairs are all empty ends the node, and
the children of the last anchor get every list, joined once, and no
buckets.  Below the anchors each assignment filters every remaining
vertex's list by its distance to the new word.  Both routes give the same
sorted lists.  Vertices that need the same distances share one list, which
is safe because lists are never mutated, only filtered into new ones.  The
vertex with the fewest candidates is assigned next.  Every witness is
re-verified before it is returned, through the coverage matrix of its
partition, which shares no code with the filter.
"""

import functools
import multiprocessing
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from .addressing import MAX_ALPHABET, STAR, Addressing, check_addressing
from .errors import CapabilityError, SelfCheckError
from .graphs import (Graph, automorphism_generators, bfs_distances, orbit_and_stabilizer,
                     parse_graph6)
from .spectral import lower_bound

STEP_TABLE_WORDS = 1 << 16    # words each table of one shape keeps
# The list length from which a candidate list is wide, a uint64 array that
# the filter tests in one numpy pass and the join builds by outer ORs.  Timed
# with no conversion per pass, 64 beats 128 by the most on the r = 3 odd
# cycles (32 by less, and 256 is slower) and leaves the r = 2 census and the
# multipartite searches as they were (ROADMAP, aim 2).
WIDE_FILTER_WORDS = 64


def pack_word(word, r):
    """Pack a word into one int: the care bits, then the digits' bitplanes."""
    length = len(word)
    packed = 0
    for i, ch in enumerate(word):
        if ch != STAR:
            code = (ord(ch) - 48) << 1 | 1      # care bit, then the digit's bits
            for p in range(code.bit_length()):
                if code >> p & 1:
                    packed |= 1 << (p * length + i)
    return packed


def unpack_word(packed, length, r):
    """Inverse of pack_word."""
    planes = range((r - 1).bit_length())
    chars = []
    for i in range(length):
        if packed >> i & 1:
            d = sum((packed >> ((b + 1) * length + i) & 1) << b for b in planes)
            chars.append(chr(48 + d))
        else:
            chars.append(STAR)
    return "".join(chars)


def _wide_from(length, r):
    """The length from which a candidate list of shape (length, r) is wide:
    WIDE_FILTER_WORDS where a packed word fits in 64 bits, never otherwise."""
    fits = length * ((r - 1).bit_length() + 1) <= 64
    return WIDE_FILTER_WORDS if fits else float("inf")


def _as_list(a, wide_from):
    """The uint64 array a as a candidate list: a list of ints below
    wide_from words, and from there on the memoryview of a, made read-only
    (lists are shared, never mutated).  Like a list, the view iterates as
    ints and is true exactly when it is not empty."""
    if len(a) < wide_from:
        return a.tolist()
    a.flags.writeable = False
    return a.data


def distance_filter(length, r):
    """The filter at(words, w, t): the words of `words` at distance t from w.

    A digit differs where some bitplane of c ^ w is set; the distance counts
    such positions where both care bits are set.  The words keep their
    order, and all must be packed with this length and alphabet size.

    Length alone decides a list's representation.  A list is wide from
    `_wide_from(length, r)` words on, which is WIDE_FILTER_WORDS where a
    packed word fits in 64 bits: a wide list is the read-only memoryview of
    one uint64 array (`_as_list`), any other a list of ints.  The filter
    has two bodies, one per representation:

      * a list of ints is tested inline in one list comprehension, so that
        no call is made per word.  One expression per bitplane count: the
        four-shift one also serves three planes, since a shift past the top
        plane gives 0;
      * a wide list is tested once over its array, with no copy in, and the
        result is wide or a list of ints by its own length.  An empty
        result is [] in both.
    """
    care = (1 << length) - 1
    s1, s2, s3, s4 = (p * length for p in range(1, 5))
    planes = (r - 1).bit_length()
    wide_from = _wide_from(length, r)
    shifts = [np.uint64(p * length) for p in range(1, planes + 1)]

    def wide(words, w, t):
        a = words.obj                   # the uint64 array behind the view
        x = a ^ np.uint64(w)
        d = x >> shifts[0]
        for s in shifts[1:]:
            d |= x >> s
        d &= a
        d &= np.uint64(w & care)
        return _as_list(a[np.bitwise_count(d) == t], wide_from)

    if planes == 1:
        def at(words, w, t):
            if len(words) >= wide_from:
                return wide(words, w, t)
            cw = w & care
            return [c for c in words if (c & cw & ((c ^ w) >> s1)).bit_count() == t]
    elif planes == 2:
        def at(words, w, t):
            if len(words) >= wide_from:
                return wide(words, w, t)
            cw = w & care
            return [
                c for c in words
                if (c & cw & ((x := c ^ w) >> s1 | x >> s2)).bit_count() == t
            ]
    else:
        def at(words, w, t):
            if len(words) >= wide_from:
                return wide(words, w, t)
            cw = w & care
            return [
                c for c in words
                if (c & cw & ((x := c ^ w) >> s1 | x >> s2 | x >> s3 | x >> s4)
                    ).bit_count() == t
            ]
    return at


def canonical_step(length, r):
    """The lex-leader test (start, step) on rows of packed words of one
    shape, for the canonical order that the module docstring defines.

    A state is one int.  Its low length - 1 bits are the ties: bit j is set
    while columns j and j + 1 are equal.  Above them sit r - 1 fields of
    length bits: field d holds the columns in which digit d has not
    appeared yet.  A row w breaks the order exactly where state & bad(w) is
    nonzero, and otherwise gives state & keep(w):

      * bad(w) marks the tied columns j whose symbols descend from j to
        j + 1, and, in field d, each column where w has digit d + 1;
      * keep(w) marks the tied columns whose symbols are equal, and every
        field bit but column j of field d where w has digit d.

    Both masks depend on w alone.  The search steps through the same words
    many times, so each shape keeps one table from word to (bad, keep),
    filled on a word's first step; past STEP_TABLE_WORDS words, new words
    get their masks afresh on every step.  Each call makes a new table, and
    `_shape` makes one call per shape, so all searches at one shape share
    its table.  step(state, w) is the state after row w, or None if w
    breaks the order; start is the state of no rows.  Every prefix of
    canonical rows is canonical.
    """
    care = (1 << length) - 1
    shifts = [p * length for p in range(1, (r - 1).bit_length() + 1)]
    ties = max(length - 1, 0)
    fields = ((1 << (r - 1) * length) - 1) << ties
    table = {}

    def masks(w):
        digit = [w >> s & care for s in shifts]            # bit 0 plane first
        # Compare each column with the next, the * plane then the digit
        # planes from high to low; bit j of x >> 1 is column j + 1's.
        down, eq = 0, (1 << ties) - 1
        for x in [care & ~w] + digit[::-1]:
            down |= eq & x & ~(x >> 1)
            eq &= ~(x ^ x >> 1)
        bad, keep = down, eq | fields
        for d in range(r):
            cols = w & care                                # the columns holding d
            for b, x in enumerate(digit):
                cols &= x if d >> b & 1 else ~x
            if d:
                bad |= cols << ties + (d - 1) * length
            if d < r - 1:
                keep &= ~(cols << ties + d * length)
        return bad, keep

    def step(state, w):
        try:
            bad, keep = table[w]
        except KeyError:
            bad, keep = masks(w)
            if len(table) < STEP_TABLE_WORDS:
                table[w] = bad, keep
        return None if state & bad else state & keep

    return (1 << ties) - 1 | fields, step


def _enumerate_half(singles):
    """All packed words holding at most one of each position's
    single-symbol words, with * everywhere else."""
    return [sum(combo) for combo in product(*([0] + s for s in singles))]


class _Shape:
    """What every search at one word shape (length, r) shares: the filter,
    the lex-leader test, the root buckets and root words, the half-word care
    masks, a memo of anchor splits and the join.  Nothing here depends on a graph, and
    nothing handed out is ever mutated, so searches of different graphs
    share it safely."""

    def __init__(self, length, r):
        self.at = distance_filter(length, r)
        self.wide_from = wide = _wide_from(length, r)
        self.start, self.step = canonical_step(length, r)
        # single[p][d]: the word with digit d at position p and * elsewhere
        single = [
            [pack_word(STAR * p + str(d) + STAR * (length - 1 - p), r) for d in range(r)]
            for p in range(length)
        ]
        # roots[wt]: the lex-leader's first row of weight wt, 0^wt *^(length-wt)
        self.roots = [sum(s[0] for s in single[:wt]) for wt in range(length + 1)]
        care = (1 << length) - 1
        self.half_care = ((1 << length // 2) - 1, care >> length // 2 << length // 2)
        # A half-word's key packs its distances to the anchor words placed so
        # far, anchor i's in the field at bit i * width.
        self.width = (2 * length + 1).bit_length()
        # Anchor buckets are (low, high, path): path holds the anchor words
        # placed so far, which fix the buckets.
        halves = _enumerate_half(single[: length // 2]), _enumerate_half(single[length // 2:])
        self.root = tuple(
            {0: _as_list(np.array(half, dtype=np.uint64), wide) if len(half) >= wide else half}
            for half in halves
        ) + ((),)
        self.splits = {}         # child path -> its (low, high, path)
        self.split_words = 0     # the words the split memo holds

    def split(self, halves, w):
        """The anchor buckets below halves once the next anchor has word w:
        each bucket split by its words' distance to w, from 0 up to the care
        bits w has in the half, which extends its key by the distance.  Every
        word lands in exactly one child, so the split depends on the anchor
        words alone; parts at distances beyond a graph's are never joined
        (`_Searcher.run`).  Memoised on the path; the memo stops taking
        splits once it holds STEP_TABLE_WORDS words."""
        path = halves[2]
        child = path + (w,)
        out = self.splits.get(child)
        if out is None:
            shift = len(path) * self.width
            out = tuple(
                {key | t << shift: part
                 for key, words in buckets.items()
                 for t in range((w & care).bit_count() + 1)
                 if (part := self.at(words, w, t))}
                for buckets, care in zip(halves, self.half_care)
            ) + (child,)
            words = sum(len(part) for half in out[:2] for part in half.values())
            if self.split_words + words <= STEP_TABLE_WORDS:
                self.splits[child] = out
                self.split_words += words
        return out

    def join(self, lo, hi, g):
        """The sorted candidate list of goal g: lo | hi over the pairs of
        buckets whose keys add up to g.  A list below `wide_from` words is
        ORed word by word; a wide one takes one outer OR per bucket pair
        and one sort.  A pair with a wide bucket gives a wide list, since
        no bucket is empty, so the word-by-word route sees lists of ints
        only."""
        pairs = [(a, b) for k, a in lo.items() if (b := hi.get(g - k))]
        words = 0
        for a, b in pairs:
            words += len(a) * len(b)
        if words < self.wide_from:
            out = [x | y for a, b in pairs for y in b for x in a]
            out.sort()
            return out
        out = np.concatenate([
            np.bitwise_or.outer(np.asarray(a, dtype=np.uint64),
                                np.asarray(b, dtype=np.uint64)).ravel()
            for a, b in pairs
        ])
        out.sort()
        return _as_list(out, self.wide_from)


@functools.lru_cache(maxsize=64)
def _shape(length, r):
    """The one _Shape of (length, r) per process."""
    return _Shape(length, r)


def _as_int(x, message):
    """x as a Python int (operator.index: ints, bools and numpy integers),
    or ValueError(message)."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(message) from None


def _check_limits(r, node_limit):
    """r and node_limit as Python ints, or ValueError on a bad alphabet size
    or a negative or non-integer node limit."""
    message = f"alphabet size must be in [2, {MAX_ALPHABET}], got {r}"
    r = _as_int(r, message)
    if not 2 <= r <= MAX_ALPHABET:
        raise ValueError(message)
    if node_limit is not None:
        message = f"node limit must be >= 0, got {node_limit}"
        node_limit = _as_int(node_limit, message)
        if node_limit < 0:
            raise ValueError(message)
    return r, node_limit


@dataclass
class SearchConfig:
    """`use_aut_pruning=False` runs with no automorphism generators, as a
    trivial group or more than graphs.SYMMETRY_CAP = 64 vertices does.
    `first_vertices`, when set, are the anchors, the vertices that get their
    words first, in order: one to three distinct vertices of the graph, or
    ValueError.  Unset, the search picks a diametral pair and the vertex
    farthest from both.  `r`, `node_limit` and the vertices are stored as
    Python ints; any other non-integer raises ValueError."""
    graph: Graph
    r: int = 2
    node_limit: Optional[int] = None
    use_aut_pruning: bool = True
    first_vertices: Optional[tuple] = None

    def __post_init__(self):
        self.r, self.node_limit = _check_limits(self.r, self.node_limit)
        chosen = self.first_vertices
        if chosen is not None:
            message = (f"first_vertices must be 1 to 3 distinct vertices "
                       f"in [0, {self.graph.n}), got {chosen}")
            try:
                chosen = tuple(map(operator.index, chosen))
            except TypeError:
                raise ValueError(message) from None
            if not (1 <= len(chosen) <= 3 and len(set(chosen)) == len(chosen)
                    and all(0 <= v < self.graph.n for v in chosen)):
                raise ValueError(message)
            self.first_vertices = chosen


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


class _Searcher:
    """Search state shared across lengths for one (graph, r) pair."""

    def __init__(self, cfg):
        self.cfg = cfg
        g = cfg.graph
        self.n = g.n
        self.r = cfg.r
        self.dist = bfs_distances(g).tolist()
        self.diameter = max(max(row) for row in self.dist) if g.n > 1 else 0
        self.anchors = self._pick_anchors()
        # placed set (bitmask) -> generators of the automorphisms that fix
        # each placed vertex.  No generators is the trivial group, whatever
        # the cause: pruning off, a graph with no symmetry, or one above
        # graphs.SYMMETRY_CAP.
        self.stabilizers = {0: []}
        if cfg.use_aut_pruning:
            try:
                self.stabilizers[0] = automorphism_generators(g)
            except CapabilityError:
                pass
        self.orbits = {}         # (placed, v) -> the rest of v's orbit

    def _pick_anchors(self):
        n, dist = self.n, self.dist
        if self.cfg.first_vertices is not None:
            return list(self.cfg.first_vertices)
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

    def rest_of_orbit(self, placed, v):
        """The other vertices of v's orbit under the automorphisms that fix
        every placed vertex (a bitmask), memoised; the stabilizer of placed
        plus v is memoised on the way, for the first path that reaches it."""
        members = self.orbits.get((placed, v))
        if members is None:
            orbit, below = orbit_and_stabilizer(v, self.stabilizers[placed], self.n)
            self.stabilizers.setdefault(placed | 1 << v, below)
            members = self.orbits[placed, v] = tuple(orbit - {v})
        return members

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
        shape = _shape(length, r)
        at, step = shape.at, shape.step
        dist = self.dist
        anchors = self.anchors
        nodes = 0
        limit = self.cfg.node_limit

        # A low key plus a high key is the whole word's key (`_Shape`).  A
        # goal minus a low key that exceeds it in some field borrows, and
        # the fields are wide enough that the borrowing field then exceeds
        # any distance: no high key.  So the parts of a split at distances
        # beyond the graph's are never joined.
        width = shape.width
        last = len(anchors) - 1
        # goal[d][u]: the key of u's words once anchors 0..d-1 have theirs
        goal = [[0] * n]
        for i, a in enumerate(anchors):
            shift = i * width
            goal.append([g | x << shift for g, x in zip(goal[-1], dist[a])])
        # plan[d]: for the node that gives anchor d its word, the vertices
        # still without one after it and the goals of their lists in the
        # child.
        rest = [u for u in range(n) if u not in anchors]
        plan = []
        for d in range(len(anchors)):
            others = anchors[d + 1:] + rest
            plan.append((others, {goal[d + 1][u] for u in others}))

        def join_children(cand, halves, depth):
            """The child's (lists, halves) once the anchor has cand; (None,
            None) if some vertex runs dry.

            Every bucket is split by its words' distance to cand
            (`_Shape.split`, shared by every search at the shape).  A
            vertex's list joins the bucket pairs whose keys add up to its
            goal, so it is empty exactly when no pair does.  A child anchor
            gets only its own list and the split buckets; a child of the
            last anchor gets every list, one join per distinct goal, and no
            buckets.
            """
            others, goals = plan[depth]
            below = shape.split(halves, cand)
            lo, hi, _ = below
            if not all(any(g - k in hi for k in lo) for g in goals):
                return None, None
            child = goal[depth + 1]
            if depth == last:
                by_goal = {g: shape.join(lo, hi, g) for g in goals}
                return {u: by_goal[child[u]] for u in others}, None
            nxt = anchors[depth + 1]
            return {nxt: shape.join(lo, hi, child[nxt])}, below

        def children(v, cand, lists):
            """Every other vertex's candidates once v has cand; None if one runs dry.

            This is the route of every node below the anchors, which holds
            no buckets.  Vertices that hold the same list at the same
            distance from v get one filtered copy.  Sharing is safe because
            lists are only ever filtered into new ones, never mutated, and
            keying on id() is safe because `lists` keeps every list alive
            during the call.
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

        def dfs(lists, halves, state, floors, placed, depth):
            """floors: the weight floors from automorphism orbits, raised at
            every depth; placed: the bitmask of the vertices with a word."""
            nonlocal nodes
            if not lists:
                return True
            v = min(lists, key=lambda u: (len(lists[u]), u))
            floor = floors.get(v, 0)
            members = self.rest_of_orbit(placed, v)
            placed |= 1 << v
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
                if halves:
                    new_lists, new_halves = join_children(cand, halves, depth)
                else:
                    new_lists, new_halves = children(v, cand, lists), None
                if new_lists is None:
                    continue
                witness[v] = cand
                below = floors
                if members:
                    below = {**floors, **{u: max(floors.get(u, 0), wt) for u in members}}
                if dfs(new_lists, new_halves, new_state, below, placed, depth + 1):
                    return True
            return False

        v1 = anchors[0]
        try:
            found = dfs({v1: shape.roots[max(dist[v1]):]}, shape.root, shape.start, {}, 0, 0)
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
    Floors off, a trivial group and more than 64 vertices all run with no generators.
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
    r, node_limit = _check_limits(r, node_limit)
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
