"""Address words over {0..r-1, *}, addressings, verification and partitions.

A word is a plain string of digit characters and '*'.  The distance between
two words is the number of positions where both symbols are digits and they
differ; an addressing of a graph is valid when this matches the graph
distance for every vertex pair.

Verification compares an addressing's partition coverage with the distance
matrix (the partition view below).  It shares no code with the search's
packed-word filter, so no witness is checked by the kernel that found it.
"""

import json

import numpy as np

from .errors import SelfCheckError

STAR = "*"
MAX_ALPHABET = 10


def _check_word(word, r):
    symbols = "0123456789"[:r] + STAR      # ASCII: str.isdigit also takes '٣' and '²'
    for ch in word:
        if ch not in symbols:
            raise ValueError(f"symbol {ch!r} invalid for alphabet size {r}")


def word_distance(a, b):
    """Number of positions where both symbols are digits and differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(
        1
        for x, y in zip(a, b)
        if x != STAR and y != STAR and x != y
    )


def weight(word):
    """Number of non-* symbols."""
    return len(word) - word.count(STAR)


class Addressing:
    """An assignment of equal-length words over {0..r-1, *} to vertices 0..n-1."""

    __slots__ = ("r", "length", "words")

    def __init__(self, r, length, words):
        if not 2 <= r <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {r}")
        words = tuple(words)
        for w in words:
            if len(w) != length:
                raise ValueError(f"word {w!r} does not have length {length}")
            _check_word(w, r)
        self.r = r
        self.length = length
        self.words = words

    @property
    def n(self):
        return len(self.words)

    def __eq__(self, other):
        return (
            isinstance(other, Addressing)
            and (self.r, self.length, self.words) == (other.r, other.length, other.words)
        )

    def __hash__(self):
        return hash((self.r, self.length, self.words))

    def __repr__(self):
        return f"Addressing(r={self.r}, length={self.length}, n={self.n})"


def verify_addressing(dist, adr):
    """All violating pairs (u, v, expected, got), in (u, v) order; empty
    list means valid.

    got is the pair's entry in the coverage matrix of adr's partition (the
    number of coordinates where both words have a digit and the digits
    differ), so an addressing is valid exactly when its partition's
    coverage equals the distance matrix.
    """
    n = len(dist)
    if adr.n != n:
        raise ValueError(f"addressing covers {adr.n} vertices, matrix has {n}")
    dist = np.asarray(dist).reshape(n, n)
    got = partition_coverage(to_partition(adr), n)
    bad = np.argwhere(got != dist).tolist()
    return [(u, v, int(dist[u, v]), int(got[u, v])) for u, v in bad if u < v]


def check_addressing(dist, adr, what):
    """Return adr if it is valid; else raise SelfCheckError naming `what`.

    For results the library built itself, so a violation is a bug.
    """
    bad = verify_addressing(dist, adr)
    if bad:
        raise SelfCheckError(f"{what} fails verification: {bad[:3]}")
    return adr


def require_valid(dist, adr, what):
    """Raise ValueError naming `what` unless adr is valid for dist.

    For addressings the caller supplied, so a violation is bad input.
    """
    bad = verify_addressing(dist, adr)
    if bad:
        raise ValueError(f"{what} is not a valid addressing ({len(bad)} violations)")


# ---------------------------------------------------------------------------
# the partition view
#
# A partition is a list of pieces; a piece is a list of >= 2 pairwise
# disjoint nonempty vertex classes (each a sorted list).  Its edges are all
# pairs crossing two classes, and a valid addressing's pieces partition the
# distance multigraph's edge multiset, one piece per useful coordinate:
# partition_coverage equals the distance matrix.

def to_partition(adr):
    """One multipartite piece per coordinate; coordinates with < 2 classes are dropped."""
    pieces = []
    for column in zip(*adr.words):
        classes = {}
        for v, ch in enumerate(column):
            if ch != STAR:
                classes.setdefault(ch, []).append(v)
        if len(classes) >= 2:
            pieces.append([classes[c] for c in sorted(classes)])
    return pieces


def _check_vertices(parts, n):
    out = [v for piece in parts for cls in piece for v in cls if not 0 <= v < n]
    if out:
        raise ValueError(f"vertex {out[0]} outside [0, {n})")


def partition_to_addressing(parts, n, r):
    """Inverse of to_partition: one coordinate per piece."""
    _check_vertices(parts, n)
    columns = []
    for piece in parts:
        if len(piece) > r:
            raise ValueError(
                f"piece has {len(piece)} classes, alphabet only allows {r}"
            )
        col = [STAR] * n
        seen = set()
        for c, cls in enumerate(piece):
            if not cls:
                raise ValueError("empty class in piece")
            for v in cls:
                if v in seen:
                    raise ValueError(f"vertex {v} in two classes of one piece")
                seen.add(v)
                col[v] = str(c)
        columns.append(col)
    words = ["".join(col[v] for col in columns) for v in range(n)]
    return Addressing(r, len(parts), words)


def partition_coverage(parts, n):
    """The symmetric n x n matrix whose entry (u, v) counts the pieces that
    put u and v in different classes.

    The distance matrix is the distance multigraph's edge multiset, so a
    partition of it has coverage equal to the distance matrix.  A vertex
    listed twice in a class counts once per listing, and a vertex listed in
    two classes of one piece lands on the diagonal.  One bincount counts the
    flat cells u * n + v of all class pairs, once every vertex is in range.
    """
    _check_vertices(parts, n)
    cells = [np.zeros(0, dtype=np.intp)]
    for piece in parts:
        classes = [np.asarray(cls, dtype=np.intp) for cls in piece]
        for i, a in enumerate(classes):
            cells.extend((a[:, None] * n + b).ravel() for b in classes[i + 1:])
    cover = np.bincount(np.concatenate(cells), minlength=n * n).reshape(n, n)
    return cover + cover.T


# ---------------------------------------------------------------------------
# text and JSON formats
#
# Text: header "r=<r> len=<l> n=<n>", then one "<vertex>\t<word>" line per
# vertex.  The JSON mirror carries the same fields.

def format_addressing(adr):
    lines = [f"r={adr.r} len={adr.length} n={adr.n}"]
    lines.extend(f"{v}\t{w}" for v, w in enumerate(adr.words))
    return "\n".join(lines) + "\n"


def parse_decimal(text):
    """The int that text writes in ASCII decimal digits, else ValueError.
    int() alone also takes signs, spaces and non-ASCII digits."""
    if not text or text.strip("0123456789"):
        raise ValueError(f"{text!r} is not a decimal number")
    return int(text)


def parse_addressing(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty addressing file")
    try:
        header = dict(item.split("=", 1) for item in lines[0].split())
        r, length, n = (parse_decimal(header[key]) for key in ("r", "len", "n"))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad header line {lines[0]!r}: {exc}") from exc
    if len(lines) - 1 != n:
        raise ValueError(f"header says n={n} but file has {len(lines) - 1} words")
    words = [None] * n
    for ln in lines[1:]:
        vid, word = ln.split("\t")
        v = parse_decimal(vid)
        if not 0 <= v < n or words[v] is not None:
            raise ValueError(f"bad or repeated vertex id {vid}")
        words[v] = word
    return Addressing(r, length, words)


def addressing_to_json(adr):
    return json.dumps(
        {"r": adr.r, "len": adr.length, "n": adr.n, "words": list(adr.words)}
    )


def addressing_from_json(text):
    obj = json.loads(text)
    return Addressing(obj["r"], obj["len"], obj["words"])


def save_addressing(path, adr):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_addressing(adr))


def load_addressing(path):
    with open(path, encoding="ascii") as fh:
        return parse_addressing(fh.read())
