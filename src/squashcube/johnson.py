"""The explicit k(n-k)-length addressing of the Johnson graph J(n,k).

Each vertex is a k-subset S of {1..n}.  A matching f(S) between S \\ [k]
(taken decreasing) and [k] \\ S (taken increasing) drives a six-step rule
that assigns one of 0/1/* to every coordinate (x, y) with x in [n] \\ [k]
and y in [k].  The rule's step order matters; see tests for the two cases
where swapping steps changes (and breaks) the output.

The union h(S,T) of the two matchings explains why the construction works:
its path components count the Johnson distance, and each contributes exactly
one coordinate where the two addresses show {0,1}.
"""

from dataclasses import dataclass

from .addressing import Addressing
from .errors import SelfCheckError
from .graphs import johnson_subsets


def matching_f(s, n, k):
    """The matching f(S): S \\ [k] decreasing, zipped with [k] \\ S increasing."""
    s = tuple(sorted(s))
    if len(s) != k or len(set(s)) != k or not all(1 <= x <= n for x in s):
        raise ValueError(f"{s} is not a k-subset of [{n}] with k={k}")
    members = set(s)
    upper = sorted((x for x in s if x > k), reverse=True)
    missing = sorted(y for y in range(1, k + 1) if y not in members)
    return list(zip(upper, missing))


def symbol_rule(s, x, y, n, k):
    """Symbol of vertex S at coordinate (x, y), by the six-step procedure."""
    if not (k + 1 <= x <= n and 1 <= y <= k):
        raise ValueError(f"coordinate ({x},{y}) outside ([{k + 1}..{n}] x [1..{k}])")
    return _symbols(s, [(x, y)], n, k)


def _symbols(s, coords, n, k):
    """The symbols of vertex S at each coordinate, with f(S) computed once."""
    pairs = matching_f(s, n, k)
    by_x = dict(pairs)
    by_y = {b: a for a, b in pairs}
    top = max(s)
    out = []
    for x, y in coords:
        if by_x.get(x) == y:                       # 1: (x,y) in f(S)
            out.append("1")
        elif top < x:                              # 2: x beyond all of S
            out.append("0")
        elif x in by_x and by_x[x] < y:            # 3: f(S) matches x below y
            out.append("*")
        elif y in s:                               # 4
            out.append("0")
        elif y in by_y and by_y[y] < x:            # 5: f(S) matches y left of x
            out.append("0")
        else:                                      # 6
            out.append("*")
    return "".join(out)


def johnson_coordinates(n, k, order="by-x"):
    """Coordinate pairs (x, y) in the order used for address positions.

    "by-x" sorts by (x, y); "by-y" sorts by (y, x).  The two published
    example tables disagree on this, so both are available; validity is
    unaffected since any column permutation preserves all word distances.
    """
    if order == "by-x":
        return [(x, y) for x in range(k + 1, n + 1) for y in range(1, k + 1)]
    if order == "by-y":
        return [(x, y) for y in range(1, k + 1) for x in range(k + 1, n + 1)]
    raise ValueError(f"unknown coordinate order {order!r}")


def johnson_addressing(n, k, order="by-x"):
    """Length-k(n-k) addressing of J(n,k) with alphabet {0, 1, *}."""
    coords = johnson_coordinates(n, k, order)
    words = [_symbols(s, coords, n, k) for s in johnson_subsets(n, k)]
    return Addressing(2, k * (n - k), words)


# ---------------------------------------------------------------------------
# h(S,T) machinery: the multigraph union of the two matchings

@dataclass(frozen=True)
class ComponentStats:
    """One component of h(S,T): its vertices and the four extreme labels.

    kind is "path", "isolated" or "double-edge"; x_* extremes live in
    [n] \\ [k], y_* extremes in [k] (None when the component misses a side).
    """

    vertices: tuple
    kind: str
    x_max: int = None
    x_min: int = None
    y_max: int = None
    y_min: int = None


def union_graph_h(s, t, n, k):
    """Components of the multigraph h(S,T) = f(S) union f(T), classified."""
    s, t = tuple(sorted(s)), tuple(sorted(t))
    if s == t:
        raise ValueError("need two distinct subsets")
    edges = matching_f(s, n, k) + matching_f(t, n, k)
    adj = {}
    for x, y in edges:
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    comps = []
    seen = set()
    for v in range(1, n + 1):
        if v in seen:
            continue
        stack, verts = [v], set()
        seen.add(v)
        while stack:
            u = stack.pop()
            verts.add(u)
            for w in adj.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(verts)))

    stats = []
    for verts in comps:
        if len(verts) == 1 and verts[0] not in adj:
            stats.append(ComponentStats(verts, "isolated"))
            continue
        degrees = [len(adj[u]) for u in verts]
        nedges = sum(degrees) // 2
        if len(verts) == 2 and nedges == 2:
            kind = "double-edge"
        elif degrees.count(1) == 2:
            kind = "path"
        else:
            # Lemma-guaranteed impossible: a cycle on more than 2 vertices.
            raise SelfCheckError(f"unexpected cycle component {verts} in h(S,T)")
        xs = [u for u in verts if u > k]
        ys = [u for u in verts if u <= k]
        stats.append(
            ComponentStats(
                verts,
                kind,
                x_max=max(xs) if xs else None,
                x_min=min(xs) if xs else None,
                y_max=max(ys) if ys else None,
                y_min=min(ys) if ys else None,
            )
        )
    return stats


def good_pairs(s, t, n, k):
    """Coordinates where the two addresses show {0, 1}, via the symbol rule."""
    out = set()
    for x in range(k + 1, n + 1):
        for y in range(1, k + 1):
            symbols = {symbol_rule(s, x, y, n, k), symbol_rule(t, x, y, n, k)}
            if symbols == {"0", "1"}:
                out.add((x, y))
    return out


def good_pairs_characterized(s, t, n, k):
    """The same set by the matching-only characterization (no symbol rule).

    (x,y) counts for the ordered pair (S,T) when it lies in f(S) \\ f(T),
    no (z,y) with z > x lies in f(T), and no (x,z) with z < y lies in f(T).
    The unordered set is the union over both orders of (S,T).
    """
    out = set()
    for a, b in ((s, t), (t, s)):
        fa = set(matching_f(a, n, k))
        fb = set(matching_f(b, n, k))
        bx = dict(fb)
        by = {q: p for p, q in fb}
        for x, y in fa - fb:
            if y in by and by[y] > x:
                continue
            if x in bx and bx[x] < y:
                continue
            out.add((x, y))
    return out
