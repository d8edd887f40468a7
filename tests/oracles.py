"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: inertia comes from
Sturm sequences over the exact characteristic polynomial, minimum addressing
lengths from a pruning-free enumeration, the lex-leader test from a column
by column pass over string rows, verification from the string distance
pair by pair, distances from a throwaway BFS, the partition threshold from
every k, induced embeddings from itertools.permutations order and the
graph census from an unpruned augmentation loop with a brute-force label.
"""

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from squashcube.addressing import STAR, word_distance

# ---------------------------------------------------------------------------
# exact characteristic polynomial + Sturm root counting


def _det_fraction(rows):
    m = [row[:] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def char_poly(matrix):
    """Coefficients (low to high) of det(xI - M), via Lagrange interpolation."""
    n = len(matrix)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        rows = [
            [Fraction(x if i == j else 0) - Fraction(int(matrix[i][j])) for j in range(n)]
            for i in range(n)
        ]
        ys.append(_det_fraction(rows))
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            basis = [Fraction(0)] + basis[:]
            for t in range(len(basis) - 1):
                basis[t] -= xj * basis[t + 1]
        # basis now holds prod_{j != i} (x - x_j), low to high
        scale = ys[i] / denom
        for t, b in enumerate(basis):
            coeffs[t] += scale * b
    return coeffs


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p):
    return _poly_trim([Fraction(i) * p[i] for i in range(1, len(p))])


def _poly_rem(a, b):
    a = a[:]
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        _poly_trim(a)
        if not a:
            break
    return a


def _sturm_chain(p):
    chain = [p[:], _poly_deriv(p)]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [q for q in chain if q]


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _sign_at_zero(p):
    return 0 if not p or p[0] == 0 else (1 if p[0] > 0 else -1)


def _sign_at_inf(p, positive):
    lead = p[-1]
    s = 1 if lead > 0 else -1
    if not positive and (len(p) - 1) % 2 == 1:
        s = -s
    return s


def _distinct_signed_roots(p):
    """(#distinct negative roots, #distinct positive roots) of p, p(0) != 0."""
    chain = _sturm_chain(p)
    v_minus = _variations([_sign_at_inf(q, False) for q in chain])
    v_zero = _variations([_sign_at_zero(q) for q in chain])
    v_plus = _variations([_sign_at_inf(q, True) for q in chain])
    return v_minus - v_zero, v_zero - v_plus


def _poly_gcd(a, b):
    a, b = a[:], b[:]
    while b:
        a, b = b, _poly_rem(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def sturm_inertia(matrix):
    """(n_plus, n_zero, n_minus) by Sturm counts with multiplicity."""
    p = _poly_trim(char_poly(matrix))
    n_zero = next(i for i, c in enumerate(p) if c != 0)
    p = p[n_zero:]
    n_plus = n_minus = 0
    g = p[:]
    while len(g) > 1:
        neg, pos = _distinct_signed_roots(g)
        n_minus += neg
        n_plus += pos
        g = _poly_gcd(g, _poly_deriv(g))
    return n_plus, n_zero, n_minus


# ---------------------------------------------------------------------------
# pruning-free minimum addressing length

def brute_force_feasible(dist, r, length):
    """Plain depth-first enumeration over all words, label order, no pruning."""
    n = len(dist)
    symbols = [STAR] + [str(d) for d in range(r)]
    words = [None] * n

    def extend(v):
        if v == n:
            return True
        for combo in product(symbols, repeat=length):
            w = "".join(combo)
            if all(word_distance(words[u], w) == dist[u][v] for u in range(v)):
                words[v] = w
                if extend(v + 1):
                    return True
        words[v] = None
        return False

    return extend(0)


def brute_force_solve(dist, r):
    length = 0
    while True:
        if brute_force_feasible(dist, r, length):
            return length
        length += 1


# ---------------------------------------------------------------------------
# reference lex-leader test on string rows

def is_canonical_prefix(rows):
    """Are these rows the canonical member of their address-space orbit?

    Column by column on the strings: each column's digits first appear
    top-down as 0, 1, 2, .., and the columns, read top-down with * ranked
    above every digit, are in nondecreasing order.
    """
    prev = None
    for j in range(len(rows[0])):
        col = [row[j] for row in rows]
        expected = 0
        seen = set()
        for ch in col:
            if ch == STAR or ch in seen:
                continue
            if ch != str(expected):
                return False
            seen.add(ch)
            expected += 1
        key = [10 if ch == STAR else int(ch) for ch in col]
        if prev is not None and key < prev:
            return False
        prev = key
    return True


# ---------------------------------------------------------------------------
# reference verification on string words

def reference_violations(dist, words):
    """Every pair u < v whose word distance is not dist[u][v], as
    (u, v, expected, got) in (u, v) order."""
    n = len(words)
    return [
        (u, v, int(dist[u][v]), word_distance(words[u], words[v]))
        for u in range(n)
        for v in range(u + 1, n)
        if word_distance(words[u], words[v]) != dist[u][v]
    ]


# ---------------------------------------------------------------------------
# the random-graph partition's threshold and embedding

def full_k_threshold(n):
    """Largest k in 2..n with C(n,k) >= 4 k^4 2^C(k,2), testing every k;
    1 when none passes.  A k with C(k,2) >= n fails without the big-integer
    test, since C(n,k) <= 2^n."""
    best = 1
    for k in range(2, n + 1):
        if k * (k - 1) // 2 < n and math.comb(n, k) >= 4 * k ** 4 * (1 << (k * (k - 1) // 2)):
            best = k
    return best


def first_induced_map(host, pattern):
    """The first injective map, in itertools.permutations order, under which
    `pattern` is an induced subgraph of `host`; None if there is none."""
    pairs = [(u, v) for u in range(pattern.n) for v in range(u + 1, pattern.n)]
    for image in permutations(range(host.n), pattern.n):
        if all(host.has_edge(image[u], image[v]) == pattern.has_edge(u, v)
               for u, v in pairs):
            return list(image)
    return None


# ---------------------------------------------------------------------------
# the small-graph census without symmetry pruning

def first_new_augmentations(n):
    """Graphs on n vertices up to isomorphism, as sorted edge tuples.

    Level m joins vertex m-1 to each graph of level m-1 along every
    neighbourhood mask in increasing order, and keeps the first child of
    each isomorphism class.  The class label is the least packed adjacency
    over all m! relabellings: pair i = (u, v) sets bit i, and relabelling
    by p moves it to the bit of (p[u], p[v]).
    """
    level = [()]
    for m in range(2, n + 1):
        pairs = list(combinations(range(m), 2))
        index = {pair: i for i, pair in enumerate(pairs)}
        moved = np.array(
            [[1 << index[tuple(sorted((p[u], p[v])))] for u, v in pairs]
             for p in permutations(range(m))],
            dtype=np.int64,
        )
        seen = set()
        nxt = []
        for edges in level:
            for mask in range(1 << (m - 1)):
                child = edges + tuple((u, m - 1) for u in range(m - 1) if (mask >> u) & 1)
                adjacency = np.zeros(len(pairs), dtype=np.int64)
                adjacency[[index[e] for e in child]] = 1
                label = int((moved @ adjacency).min())
                if label not in seen:
                    seen.add(label)
                    nxt.append(child)
        level = nxt
    return level


# ---------------------------------------------------------------------------
# throwaway BFS (so distance tests do not lean on the module under test)

def simple_bfs_all_pairs(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    q.append(v)
        out.append(row)
    return out
