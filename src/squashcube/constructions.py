"""Addressing constructions: multipartite blow-ups, vertex tripling, class
merging, and partitions of dense random graphs built from an explicit
one-or-two biclique cover of K_k (the grid cover of `one_two_cover`).

Nothing here is trusted: every constructed addressing or partition is
re-verified against the graph's distance matrix before it is returned.
"""

import math
from dataclasses import dataclass

import numpy as np

from .addressing import Addressing, STAR, check_addressing, partition_coverage, require_valid
from .errors import PreconditionError, SelfCheckError
from .graphs import (
    Graph,
    bfs_distances,
    complete_multipartite,
    kam_graph,
    multipartite_classes,
    set_bits,
)
from .johnson import johnson_addressing


def _checked(adr, graph, what):
    return check_addressing(bfs_distances(graph), adr, what)


def ceil_two_sqrt(k):
    """ceil(2 * sqrt(k)) without floating point."""
    return math.isqrt(4 * k - 1) + 1 if k > 0 else 0


def blow_up(base, a, m, s):
    """Addressing of K(a; m*s) from one of K(a; m), length s*len + s - 1.

    The s copies are addressed in disjoint coordinate blocks; s - 1 extra
    coordinates address the complete graph whose vertices are the copies.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    require_valid(bfs_distances(kam_graph(a, m)), base, "blow-up base")
    if s == 1:
        return base
    copy_words = johnson_addressing(s, 1).words   # K_s rows, length s - 1
    ell = base.length
    words = []
    for c in range(s):
        prefix = STAR * (ell * c)
        suffix = STAR * (ell * (s - 1 - c))
        for w in base.words:
            words.append(prefix + w + suffix + copy_words[c])
    out = Addressing(base.r, s * ell + s - 1, words)
    return _checked(out, kam_graph(a, m * s), "blow-up result")


def plus_three(base, class_sizes, grow_class, v):
    """Grow one class by three clones of vertex v, adding three coordinates.

    v keeps its word extended by 000; the clones get 011, 101, 110; every
    other vertex gets ***.  The clones are appended at the end of the grown
    class in the class-by-class vertex order.
    """
    sizes = list(class_sizes)
    if not 0 <= grow_class < len(sizes):
        raise ValueError(f"no class {grow_class} in {sizes}")
    classes = multipartite_classes(sizes)
    if v not in classes[grow_class]:
        raise ValueError(f"vertex {v} is not in class {grow_class}")
    require_valid(bfs_distances(complete_multipartite(sizes)), base, "plus-three base")

    insert_at = classes[grow_class][-1] + 1
    new_words = []
    for u, w in enumerate(base.words):
        new_words.append(w + ("000" if u == v else STAR * 3))
    clones = [base.words[v] + tail for tail in ("011", "101", "110")]
    new_words[insert_at:insert_at] = clones

    new_sizes = list(sizes)
    new_sizes[grow_class] += 3
    out = Addressing(base.r, base.length + 3, new_words)
    return _checked(out, complete_multipartite(new_sizes), "plus-three result")


def append_merge_column(adr, class_sizes):
    """Merge the first two classes by appending one 0/1 column.

    Turns a valid addressing of K_{a,b,c,..} into one of K_{a+b,c,..} that
    is one coordinate longer: class A gets 0, class B gets 1, the rest *.
    """
    sizes = list(class_sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 classes to merge two of them")
    require_valid(bfs_distances(complete_multipartite(sizes)), adr, "merge-column base")
    classes = multipartite_classes(sizes)
    column = [STAR] * adr.n
    for u in classes[0]:
        column[u] = "0"
    for u in classes[1]:
        column[u] = "1"
    words = [w + column[u] for u, w in enumerate(adr.words)]
    merged = [sizes[0] + sizes[1]] + sizes[2:]
    out = Addressing(adr.r, adr.length + 1, words)
    return _checked(out, complete_multipartite(merged), "merge-column result")


# ---------------------------------------------------------------------------
# one-or-two biclique covers of K_k

@dataclass(frozen=True)
class OneTwoCover:
    """Bicliques on {0..k-1} covering every K_k edge exactly once or twice."""

    k: int
    pieces: tuple    # of (side_a, side_b) vertex tuples


def one_two_cover(k):
    """One-or-two cover of K_k by a+b-2 <= ceil(2*sqrt(k)) bicliques.

    The k vertices fill an a x b grid row by row, a = ceil(sqrt(k)) and
    b = ceil(k/a).  Each row but the last gives the piece (that row, the
    rows below it), each column but the last the piece (that column, the
    columns right of it).  A pair in different rows is covered by exactly
    one row piece, a pair in different columns by exactly one column piece,
    and two cells never share both; so a pair that shares a row or a column
    is covered once and every other pair twice.  The once-covered graph H
    is the rook's graph on the filled cells.  k = 1 gives the empty cover:
    K_1 has no edge.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    a = math.isqrt(k - 1) + 1
    b = -(-k // a)
    rows = [tuple(range(i, min(i + b, k))) for i in range(0, k, b)]
    cols = [tuple(range(j, k, b)) for j in range(b)]
    pieces = [
        (lines[i], tuple(v for line in lines[i + 1:] for v in line))
        for lines in (rows, cols)
        for i in range(len(lines) - 1)
    ]
    cover = OneTwoCover(k, tuple(pieces))
    _check_cover(cover)
    return cover


def _coverage(cover):
    return partition_coverage([[a, b] for a, b in cover.pieces], cover.k)


def _check_cover(cover):
    counts = _coverage(cover)
    if counts.diagonal().any():
        raise SelfCheckError("piece sides overlap")
    bad = np.argwhere(np.triu((counts != 1) & (counts != 2), 1)).tolist()
    if bad:
        i, j = bad[0]
        raise SelfCheckError(f"edge ({i},{j}) covered {counts[i, j]} times")


def cover_to_H(cover):
    """The graph on {0..k-1} whose edges are the once-covered pairs."""
    return Graph(cover.k, np.argwhere(np.triu(_coverage(cover) == 1, 1)).tolist())


# ---------------------------------------------------------------------------
# the random-graph partition

def induced_embedding(host, pattern):
    """An induced copy of `pattern` in `host` (vertex map), or None.

    Plain backtracking in pattern-vertex order with degree pruning; complete,
    so None is a proof that no induced copy exists.  Pattern vertex v's
    candidates are a host bitmask: the unused host vertices of degree at
    least v's, ANDed with the neighbourhood of image[u], or its complement,
    for each u < v.  They are tried in increasing order, so the first copy
    found is the first in lexicographic order of the vertex map.
    """
    hn, pn = host.n, pattern.n
    if pn > hn:
        return None
    big_enough = [
        sum(1 << c for c in range(hn) if host.degree(c) >= pattern.degree(v))
        for v in range(pn)
    ]
    image = []

    def extend(v, used):
        if v == pn:
            return True
        cands = big_enough[v] & ~used
        for u, w in enumerate(image):
            cands &= host.adj[w] if pattern.has_edge(v, u) else ~host.adj[w]
        for c in set_bits(cands):
            image.append(c)
            if extend(v + 1, used | 1 << c):
                return True
            image.pop()
        return False

    return list(image) if extend(0, 0) else None


def k_threshold(n):
    """Largest k with C(n,k) >= 4 k^4 2^(k(k-1)/2), by exact integer arithmetic.

    Falls back to the degenerate k = 1 when no k >= 2 qualifies (tiny n).
    The loop stops at the first failing k.  That is exact: on k >= 2,
    f(k) = C(n,k) / (4 k^4 2^C(k,2)) is log-concave, since f(k+1)/f(k) =
    (n-k)/(k+1) * (k/(k+1))^4 / 2^k, whose first factor falls with k, whose
    second rises by less than a factor 2 per step and whose third halves
    per step.  So the passing k (f(k) >= 1) form an interval.  It starts at
    2 once n >= 17, where f(2) = n(n-1)/256 >= 1; and for n < 62,
    f(3) < f(2), so f falls from k = 2 on and below n = 17 no k passes.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    best = 1
    for k in range(2, n + 1):
        if math.comb(n, k) < 4 * k ** 4 * (1 << (k * (k - 1) // 2)):
            break
        best = k
    return best


def random_partition(g, k):
    """Partition of the distance multigraph of a diameter-2 graph into at
    most n - k + ceil(2*sqrt(k)) + 1 multipartite pieces.

    The precondition is that every pair has a common neighbour and g is not
    complete, so the distances are read off the adjacency: 1 on the edges,
    2 off them, 0 on the diagonal.  The k-vertex once-covered graph H of a
    one-or-two cover of K_k is located as an induced subgraph (its image is
    W); the cover pieces are mapped onto W, one biclique separates W from
    the rest, and one star per outside vertex finishes the job.  Before it
    is returned, the partition's coverage matrix must equal the distance
    matrix.  Raises PreconditionError on the first pair (u, v) without a
    common neighbour, on a diameter other than 2, or when g holds no
    induced copy of H.
    """
    n = g.n
    if n == 0:
        raise PreconditionError("the empty graph has no distance matrix")
    adj = g.adj
    for u, a in enumerate(adj):
        if not all(map(a.__and__, adj[u + 1:])):
            v = next(v for v in range(u + 1, n) if not a & adj[v])
            raise PreconditionError(f"vertices {u},{v} have no common neighbor")
    rows = np.frombuffer(b"".join(a.to_bytes(n // 8 + 1, "little") for a in adj), np.uint8)
    bits = np.unpackbits(rows.reshape(n, -1), axis=1, count=n, bitorder="little")
    dist = np.subtract(2, bits, dtype=np.int32)
    del rows, bits   # freed before the coverage check, the peak of this call
    np.fill_diagonal(dist, 0)
    if dist.max() != 2:
        raise PreconditionError(f"graph diameter is {int(dist.max())}, need exactly 2")

    cover = one_two_cover(k)
    phi = induced_embedding(g, cover_to_H(cover))
    if phi is None:
        raise PreconditionError(f"no induced copy of the {k}-vertex cover graph in this graph")

    is_outside = np.ones(n, bool)
    is_outside[phi] = False
    outside = np.flatnonzero(is_outside).tolist()
    pieces = [[sorted(phi[u] for u in a), sorted(phi[v] for v in b)] for a, b in cover.pieces]
    if outside:
        pieces.append([sorted(phi), outside])
    for z in outside:
        # z's star: its non-neighbours, and its outside neighbours below z
        star = dist[z] == 2
        star[:z] |= (dist[z, :z] == 1) & is_outside[:z]
        leaves = np.flatnonzero(star).tolist()
        if leaves:
            pieces.append([[z], leaves])

    if not np.array_equal(partition_coverage(pieces, n), dist):
        raise SelfCheckError(
            "partition failed verification although all preconditions held; "
            "please report this graph"
        )
    if len(pieces) > n - k + ceil_two_sqrt(k) + 1:
        raise SelfCheckError(
            f"partition has {len(pieces)} pieces, more than the "
            f"n - k + ceil(2*sqrt(k)) + 1 = {n - k + ceil_two_sqrt(k) + 1} bound; "
            "please report this graph"
        )
    return pieces
