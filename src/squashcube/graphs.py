"""Graphs, generators, distances, the graph6 codec and small-graph tooling.

Vertices are always 0..n-1.  Johnson graph vertices are k-subsets of
{1,..,n} listed in colexicographic order; multipartite vertices are listed
class by class.
"""

import math
import operator
from itertools import combinations

import numpy as np

from .errors import CapabilityError, DisconnectedGraphError, Graph6ParseError

MAX_VERTICES = 4096
SYMMETRY_CAP = 64
GROUP_ORDER_CAP = 1 << 20     # larger groups `automorphisms` refuses before listing any
CANONICAL_CAP = 9


def set_bits(mask):
    """The set bits of a non-negative int, in increasing order."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class Graph:
    """Undirected simple graph on {0, .., n-1}; bit u of `adj[v]` is set iff uv is an edge."""

    __slots__ = ("n", "adj")

    @classmethod
    def _from_adj(cls, adj):
        """The graph with these neighbour masks, taken as they are."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        return g

    def __init__(self, n, edges=()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        adj = [0] * n
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @property
    def edges(self):
        # each pair once, as (u, v) with u < v: the bits of adj[u] above u
        return tuple((u, u + 1 + v) for u, a in enumerate(self.adj) for v in set_bits(a >> u + 1))

    @property
    def num_edges(self):
        return sum(a.bit_count() for a in self.adj) // 2

    def degree(self, v):
        return self.adj[v].bit_count()

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


# ---------------------------------------------------------------------------
# generators

def complete_graph(n):
    return Graph(n, combinations(range(n), 2))


def path_graph(n):
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    """Cycle 0-1-..-(n-1)-0."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def johnson_subsets(n, k):
    """All k-subsets of {1..n} as sorted tuples, in colexicographic order.

    Colex compares the largest elements first, which is the order the
    addressing tables in this package use for Johnson graph vertices.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n} k={k}")
    return sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])


def johnson_graph(n, k):
    """Johnson graph J(n,k): k-subsets of {1..n}, adjacent iff they share k-1 elements.

    Each subset reaches its k(n-k) neighbours by swapping one element out
    and one in, looked up by bitmask."""
    masks = [sum(1 << x for x in s) for s in johnson_subsets(n, k)]
    index = {m: i for i, m in enumerate(masks)}
    ground = (1 << n + 1) - 2                  # bits 1..n
    edges = [(i, j) for i, m in enumerate(masks) for x in set_bits(m)
             for y in set_bits(ground & ~m) if (j := index[m ^ (1 << x | 1 << y)]) > i]
    return Graph(len(masks), edges)


def complete_multipartite(class_sizes):
    """Complete multipartite graph; vertices listed class by class."""
    sizes = list(class_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least 2 classes")
    if any(s < 1 for s in sizes):
        raise ValueError(f"empty class in {sizes}")
    classes = multipartite_classes(sizes)
    edges = []
    for a, b in combinations(range(len(sizes)), 2):
        edges.extend((u, v) for u in classes[a] for v in classes[b])
    return Graph(sum(sizes), edges)


def multipartite_classes(class_sizes):
    """Vertex ranges of each class under the class-by-class vertex order."""
    classes = []
    start = 0
    for s in class_sizes:
        classes.append(list(range(start, start + s)))
        start += s
    return classes


def kam_graph(a, m):
    """Complete m-partite graph with all classes of size a."""
    if a < 1 or m < 1:
        raise ValueError(f"need a,m >= 1, got a={a} m={m}")
    if m == 1:
        return Graph(a)
    return complete_multipartite([a] * m)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def random_graph(n, seed):
    """G(n, 1/2): every pair an edge independently with probability 1/2.

    One coin per pair, in combinations order, fills the upper triangle of
    a boolean matrix; that matrix ORed with its transpose gives each row's
    neighbour mask as its little-endian packed bits.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES}, got {n}")
    coins = np.random.default_rng(seed).random(n * (n - 1) // 2) < 0.5
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu(np.ones((n, n), dtype=bool), 1)] = coins    # row-major: combinations order
    adj |= adj.T
    rows = np.packbits(adj, axis=1, bitorder="little")
    return Graph._from_adj(tuple(int.from_bytes(row.tobytes(), "little") for row in rows))


# ---------------------------------------------------------------------------
# distances
#
# Two bodies give the same matrix: one `_bfs_row` per source, and from
# BITSET_FROM vertices on `_bitset_distances`, one BFS for every source at
# once.  The bitset body pays a fixed numpy cost per level and per table
# column, which a small graph's per-source BFS never reaches.  bfs_distances
# per graph, per-source body -> bitset body (timeit, best of 7, CPython
# 3.11.7, numpy 2.4.6, shared 2-core Xeon):
#
#   C7       14 ->   54 us     G(7,1/2)     14 ->   64 us
#   C15      63 ->   95 us     G(15,1/2)    47 ->   95 us
#   C24     163 ->  143 us     G(24,1/2)   124 ->  169 us
#   C28     227 ->  164 us     G(28,1/2)   139 ->  109 us
#   C32     310 ->  185 us     G(32,1/2)   228 ->  114 us
#   C64    1360 ->  354 us     G(128,1/2) 3190 ->  420 us
#   J(10,5)  15.5 -> 0.70 ms   J(14,7)     5.3 -> 0.16 s
#   P2000    2.6  -> 0.93 s    G(2048,1/2) 1.37 -> 0.12 s

BITSET_FROM = 28


def _bfs_row(adj, src):
    """Distances from src, -1 where a vertex is unreachable.

    Level-synchronous BFS on neighbour bitmasks: each level ORs the masks of
    the frontier and keeps the bits not yet seen.
    """
    n = len(adj)
    everyone = (1 << n) - 1
    row = [-1] * n
    row[src] = 0
    seen = 1 << src
    frontier = [src]
    level = 0
    while frontier and seen != everyone:
        level += 1
        reach = 0
        for u in frontier:
            reach |= adj[u]
        new = reach & ~seen
        seen |= new
        frontier = set_bits(new)
        for v in frontier:
            row[v] = level
    return row


def is_connected(g):
    return g.n <= 1 or -1 not in _bfs_row(g.adj, 0)


def _neighbour_table(adj):
    """int16 array whose row k holds each vertex's k-th neighbour, in
    increasing order, and n past its last one."""
    n = len(adj)
    nbytes = (n + 7) // 8
    packed = np.frombuffer(b"".join([a.to_bytes(nbytes, "little") for a in adj]), np.uint8)
    nbr = np.unpackbits(packed.reshape(n, nbytes), axis=1, count=n, bitorder="little").view(bool)
    degree = int(np.count_nonzero(nbr, axis=1).max())
    # u sorts as u in v's row when it is a neighbour and as n | u >= n when
    # it is not, so the neighbours come first (n | u < 8192 fits int16)
    key = (~nbr).astype(np.int16)
    key *= n
    key |= np.arange(n, dtype=np.int16)
    key.sort(axis=1)
    return np.minimum(key[:, :degree].T, np.int16(n), order="C")


def _bitset_distances(g):
    """The distance matrix by one BFS that runs every source at once.

    Bit s of row v of `front` is set when v is on source s's frontier, so
    a level ORs the rows of each vertex's neighbours, one column of the
    neighbour table at a time (row n of `front` is all zero: the table's
    padding), and keeps the bits that row v has not seen (Then et al.,
    "The More the Merrier: Efficient Multi-Source Graph Traversal", PVLDB
    2014).  One column at a time holds n rows, where all columns at once
    would hold one per edge end.  The new bits join the planes of the set
    bits of their level, and the planes are unpacked into the int32 matrix
    once at the end: a level ORs a few n-row bitsets, where writing it into
    the n x n matrix would cost a long path n^2 bytes per level.
    """
    n = g.n
    table = _neighbour_table(g.adj)
    words = (n + 63) // 64
    u64 = np.dtype("<u8")       # little-endian: a row's bytes list the sources in order
    front = np.zeros((n + 1, words), u64)
    v = np.arange(n)
    front[v, v >> 6] = np.uint64(1) << (v & 63).astype(u64)
    unseen = ~front[:n]
    nxt = np.zeros_like(front)
    reach = np.empty((n, words), u64)
    planes = []                 # plane b: the pairs whose distance has bit b set
    left = n * (n - 1)          # the pairs not yet reached
    level = 0
    while left:
        level += 1
        new = nxt[:n]
        new.fill(0)
        for col in table:
            np.take(front, col, axis=0, out=reach, mode="clip")
            new |= reach
        new &= unseen
        count = int(np.bitwise_count(new).sum())
        if not count:
            raise DisconnectedGraphError(0, int(np.flatnonzero(unseen[:, 0] & 1)[0]))
        unseen ^= new
        left -= count
        if level == 1 << len(planes):
            planes.append(np.zeros((n, words), u64))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= new
        front, nxt = nxt, front
    dist = np.zeros((n, n), np.int32)
    for plane in reversed(planes):
        dist <<= 1
        dist |= np.unpackbits(plane.view(np.uint8), axis=1, count=n, bitorder="little")
    return dist


def bfs_distances(g):
    """All-pairs shortest path matrix (int32).

    Below BITSET_FROM vertices each source runs its own level-by-level
    BFS over the neighbour masks (`_bfs_row`); from BITSET_FROM on,
    `_bitset_distances` runs one BFS for every source at once over uint64
    bitsets, one bit per source.  Both bodies give the same matrix and the
    same errors: DisconnectedGraphError(0, v) on disconnected input, v the
    smallest vertex that vertex 0 cannot reach, and ValueError on the empty
    graph.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph has no distance matrix")
    if n >= BITSET_FROM:
        return _bitset_distances(g)
    rows = []
    for src in range(n):
        row = _bfs_row(g.adj, src)
        if -1 in row:
            raise DisconnectedGraphError(src, row.index(-1))
        rows.append(row)
    return np.array(rows, dtype=np.int32)


# ---------------------------------------------------------------------------
# graph6 codec
#
# Standard format: N(n) header, then the upper triangle of the adjacency
# matrix in column order x(0,1), x(0,2), x(1,2), x(0,3), ..., packed 6 bits
# per byte, each byte offset by 63.  Padding bits must be zero.

_G6_HEADER = b">>graph6<<"


def parse_graph6(line):
    if isinstance(line, str):
        if line.isascii():
            line = line.encode("ascii")
        else:
            # One byte per character, so a str gets the offsets of the same
            # line as bytes: Latin-1 where it reaches, else 0xff.  No check
            # below accepts a byte above 126.
            line = bytes(min(ord(c), 255) for c in line)
    data = line.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise Graph6ParseError("empty graph6 line", 0)

    pos = 0
    b0 = data[0]
    if b0 == 126:
        if len(data) >= 2 and data[1] == 126:
            size_bytes, pos = data[2:8], 8
        else:
            size_bytes, pos = data[1:4], 4
        if len(data) < pos:
            raise Graph6ParseError("truncated vertex count", len(data))
        n = 0
        for i, b in enumerate(size_bytes):
            if not 63 <= b <= 126:
                raise Graph6ParseError(f"invalid byte {b}", (2 if pos == 8 else 1) + i)
            n = (n << 6) | (b - 63)
    elif 63 <= b0 <= 125:
        n = b0 - 63
        pos = 1
    else:
        raise Graph6ParseError(f"invalid header byte {b0}", 0)
    if n > MAX_VERTICES:
        raise Graph6ParseError(f"vertex count {n} exceeds cap {MAX_VERTICES}", 0)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} adjacency bytes, got {len(data) - pos}", pos
        )
    body = data[pos:]
    if body and not (63 <= min(body) and max(body) <= 126):
        i = next(i for i, b in enumerate(body) if not 63 <= b <= 126)
        raise Graph6ParseError(f"invalid byte {body[i]}", pos + i)
    bits = "".join([format(b - 63, "06b") for b in body])
    if "1" in bits[nbits:]:
        raise Graph6ParseError("nonzero padding bits", pos + nbytes - 1)

    # Column j holds x(0,j) .. x(j-1,j): reversed, it is j's mask of lower
    # neighbours, and each of its bits is mirrored into the lower vertex.
    adj = [0] * n
    for j in range(1, n):
        col = bits[j * (j - 1) // 2:j * (j + 1) // 2]
        adj[j] = int(col[::-1], 2)
        bit = 1 << j
        i = col.find("1")
        while i >= 0:
            adj[i] |= bit
            i = col.find("1", i + 1)
    return Graph._from_adj(tuple(adj))


def emit_graph6(g):
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    else:                                   # n <= MAX_VERTICES fits in 18 bits
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    # column j is j's mask of lower neighbours, x(0,j) first
    bits = "".join([format(g.adj[j] & (1 << j) - 1, f"0{j}b")[::-1] for j in range(1, n)])
    bits += "0" * (-len(bits) % 6)
    return head + bytes([int(bits[i:i + 6], 2) + 63 for i in range(0, len(bits), 6)])


# ---------------------------------------------------------------------------
# symmetry: one search over refined vertex orderings gives both the canonical
# label and generators of the automorphism group; the small censuses dedupe
# on the label.  The label takes the greatest row at each position, which
# belongs to a neighbour of the vertices placed last, so an ordering walks
# along edges and ties break within a few steps; the least row of a sparse
# graph is the empty row of a non-neighbour, which tells the search nothing
# (on C19 that took 5.8 s, against 0.4 ms).  SYMMETRY_CAP bounds what was
# measured: up to 64 vertices the worst graphs found, random 3- and
# 4-regular ones on 64 vertices, take up to about 1 s, while J(10,5) (252
# vertices) and a random cubic graph on 200 vertices did not finish in
# 120 s, and the recursion is n deep.

def _refine_colors(nbrs):
    colors = [len(a) for a in nbrs]
    for _ in range(len(nbrs)):
        keys = [(c, tuple(sorted([colors[u] for u in a]))) for c, a in zip(colors, nbrs)]
        relabel = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [relabel[k] for k in keys]
        if new == colors or len(relabel) == len(nbrs):   # stable, or every class a singleton
            return new
        colors = new
    return colors


def _close(mask, perms):
    """The union of the orbits of mask's bits under the group the
    permutations generate, as a bitmask."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        for s in perms:
            bit = 1 << s[v]
            if not mask & bit:
                mask |= bit
                todo |= bit
    return mask


def _greatest_orderings(g):
    """Canonical label `(n, rows)`, the first ordering that reaches it, and
    automorphisms that generate the group.

    The orderings list the `_refine_colors` classes in color order.  A
    vertex's row is the bitmask of the placed positions it is adjacent to,
    so the rows in placement order spell out the graph; the label is the
    lexicographically greatest row sequence.  Bit q of a row is position q,
    so each position takes a vertex adjacent to the latest placed vertex
    that has a neighbour left in the slot's class.  Any choice that
    isomorphisms respect gives a canonical label; this one splits ties
    early on sparse graphs.  Two orderings with equal rows differ by an
    automorphism, and automorphisms preserve the refined colors and the
    rows, so they map the tree of orderings onto itself.

    A leaf whose rows equal those of the first leaf that reached the current
    best gives the automorphism from that leaf to it, which stays one if a
    better label turns up later.  Two prunings use what has been found
    (McKay and Piperno, "Practical graph isomorphism, II", JSC 2014): a node
    skips a child in the orbit of an explored child under the automorphisms
    found so far that fix the placed vertices, and a leaf that gives an
    automorphism returns to the node where it parts from that first leaf,
    since the rest of the subtree below is the image of one already
    explored.  Neither hides a row sequence from the search.  For every k,
    the automorphisms found that fix the first k vertices of the returned
    ordering generate the group that fixes them, so they are a strong
    generating set on that ordering as base.
    """
    n = g.n
    if n > SYMMETRY_CAP:
        raise CapabilityError(f"symmetry search capped at {SYMMETRY_CAP} vertices (n={n})")
    nbrs = [set_bits(a) for a in g.adj]
    colors = _refine_colors(nbrs)
    members = {}
    for v in range(n):
        members.setdefault(colors[v], []).append(v)
    slots = [members[c] for c in sorted(colors)]   # position -> its class
    rows = [0] * n
    free = [True] * n
    order, best, gens, fixes = [], [], [], []
    first = None      # the first ordering that reached best
    back = n          # after an automorphism: the depth to return to

    def place(p, placed):
        # invariant: the rows placed so far equal best[:p]
        nonlocal first, back
        if p == n:
            if first is None:
                first = tuple(order)
                return
            perm = [0] * n
            for a, b in zip(first, order):
                perm[a] = b
            gens.append(tuple(perm))
            fixes.append(sum([1 << v for v in range(n) if perm[v] == v]))
            back = next(q for q in range(n) if first[q] != order[q])
            return
        greatest, cands = -1, []     # the free vertices of the slot with the greatest row
        for v in slots[p]:
            if free[v]:
                if rows[v] > greatest:
                    greatest, cands = rows[v], [v]
                elif rows[v] == greatest:
                    cands.append(v)
        if p == len(best):
            best.append(greatest)
        elif greatest != best[p]:
            if greatest < best[p]:
                return
            del best[p:]
            best.append(greatest)
            first = None
        # The first child is never skipped, so the orbits are only worked
        # out from the second on, and not after the last.
        bit = 1 << p
        seen = 0          # the explored children's orbits
        stab = []         # the automorphisms found that fix the placed vertices
        used = 0          # how many of gens stab has looked at
        for i, v in enumerate(cands):
            if i:
                if used < len(gens):
                    stab.extend([s for s, f in zip(gens[used:], fixes[used:])
                                 if f & placed == placed])
                    used = len(gens)
                    seen = _close(seen, stab)
                if seen >> v & 1:
                    continue
            free[v] = False
            order.append(v)
            for u in nbrs[v]:
                rows[u] |= bit
            place(p + 1, placed | 1 << v)
            for u in nbrs[v]:
                rows[u] ^= bit
            order.pop()
            free[v] = True
            if back < p:
                return
            back = n
            if i + 1 < len(cands):
                seen = _close(seen | 1 << v, stab)

    place(0, 0)
    return (n, tuple(best)), first, gens


def _transversal(v, gens, n):
    """{w: an element of the group the permutations generate that takes v to w}."""
    trans = {v: tuple(range(n))}
    queue = [v]
    for x in queue:
        t = trans[x]
        for s in gens:
            y = s[x]
            if y not in trans:
                trans[y] = tuple(map(s.__getitem__, t))
                queue.append(y)
    return trans


def _schreier(trans, gens):
    """Generators of the stabilizer of the transversal's base point, by
    Schreier's lemma: t(s x)^-1 s t(x) over orbit points x and generators s,
    without repeats or the identity."""
    n = len(gens[0])
    inverse = {y: sorted(range(n), key=u.__getitem__) for y, u in trans.items()}
    identity = tuple(range(n))
    out = {}
    for x, t in trans.items():
        for s in gens:
            inv = inverse[s[x]]
            h = tuple([inv[s[i]] for i in t])
            if h != identity:
                out[h] = None
    return list(out)


def automorphisms(g):
    """Full automorphism group as a list of vertex permutations (tuples).

    Multiplies out the transversals of the stabilizer chain that the base
    and strong generators of `_greatest_orderings` give, level by level, so
    each automorphism is built once from an earlier one.  Raises
    CapabilityError above SYMMETRY_CAP = 64 vertices, past the graphs the
    ordering search was measured on, or above GROUP_ORDER_CAP automorphisms.
    """
    _, base, gens = _greatest_orderings(g)
    chain = []
    for k in range(g.n):
        stab = [s for s in gens if all(s[v] == v for v in base[:k])]
        chain.append(_transversal(base[k], stab, g.n))
    order = math.prod(map(len, chain))
    if order > GROUP_ORDER_CAP:
        raise CapabilityError(f"group order {order} above GROUP_ORDER_CAP = {GROUP_ORDER_CAP}")
    perms = [tuple(range(g.n))]
    for trans in reversed(chain):
        if len(trans) > 1:
            perms = [tuple(map(t.__getitem__, p)) for t in trans.values() for p in perms]
    return perms


def automorphism_generators(g):
    """Permutations (tuples) that generate the automorphism group, from
    `_greatest_orderings`, without listing the group.  Raises CapabilityError
    above SYMMETRY_CAP vertices."""
    return _greatest_orderings(g)[2]


def orbit_and_stabilizer(v, gens, n):
    """v's orbit under the group the permutations generate, as a set, and
    generators of v's stabilizer in that group (by Schreier's lemma, so
    without listing either group).  No generators means the trivial group."""
    trans = _transversal(v, gens, n)
    return set(trans), _schreier(trans, gens) if len(trans) > 1 else gens


def canonical_form(g):
    """Canonical label (hashable): equal exactly for isomorphic graphs.

    See `_greatest_orderings`.  Raises CapabilityError above SYMMETRY_CAP =
    64 vertices, past the graphs the ordering search was measured on.
    """
    return _greatest_orderings(g)[0]


def _components(adj):
    """The vertex sets of the connected components, as bitmasks."""
    parts = []
    left = (1 << len(adj)) - 1
    while left:
        row = _bfs_row(adj, (left & -left).bit_length() - 1)
        part = sum([1 << u for u, d in enumerate(row) if d >= 0])
        parts.append(part)
        left &= ~part
    return parts


def _augmented(n, connected):
    """The graphs of `all_graphs(n)`, or with `connected` just the
    connected ones: a child of the last level is then labelled only when
    its mask meets every component of the parent."""
    if n > CANONICAL_CAP:
        raise CapabilityError(f"graph census capped at {CANONICAL_CAP} vertices (n={n})")
    if n < 1:
        raise ValueError("need n >= 1")
    level = [Graph(1)]
    for m in range(2, n + 1):
        seen = set()
        nxt = []
        new = 1 << (m - 1)
        for g in level:
            gens = _greatest_orderings(g)[2]
            parts = _components(g.adj) if connected and m == n else ()
            done = set()
            for mask in range(new):
                if mask in done or not all([mask & c for c in parts]):
                    continue
                orbit = [mask]
                for x in orbit:
                    bits = set_bits(x)
                    for s in gens:
                        y = sum([1 << s[u] for u in bits])
                        if y not in done:
                            done.add(y)
                            orbit.append(y)
                h = Graph._from_adj(
                    tuple([a | new if mask >> u & 1 else a for u, a in enumerate(g.adj)]) + (mask,))
                key = canonical_form(h)
                if key not in seen:
                    seen.add(key)
                    nxt.append(h)
        level = nxt
    return level


def all_graphs(n):
    """All graphs on n vertices up to isomorphism, by vertex augmentation.

    Level m joins a new vertex m-1 to each graph g of level m-1 along a
    neighbourhood mask, masks in increasing order, and keeps a child when
    its canonical label is new.  Masks in one orbit of Aut(g) give
    isomorphic children, so only the least mask of each orbit is labelled:
    each labelled mask marks its orbit under the generators as done.  The
    kept representatives and their order are those of labelling every
    mask, since a skipped mask's child is isomorphic to that of a smaller
    mask of the same parent, labelled earlier, and so is never new
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).
    """
    return _augmented(n, False)


def connected_graphs(n):
    """All connected graphs on n vertices up to isomorphism, in the order of
    `all_graphs(n)`.  A child is connected exactly when the new vertex's
    mask meets every component of its parent, and a disconnected child is
    never isomorphic to a connected one, so the last level labels only the
    masks that do."""
    return _augmented(n, True)
