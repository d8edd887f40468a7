import json
import random

import numpy as np
import pytest

from squashcube import search
from squashcube.addressing import (
    Addressing,
    addressing_from_json,
    addressing_to_json,
    format_addressing,
    parse_addressing,
    partition_coverage,
    partition_to_addressing,
    to_partition,
    verify_addressing,
    weight,
    word_distance,
)
from squashcube.fixtures import iter_fixtures
from squashcube.graphs import Graph, bfs_distances, complete_graph, johnson_graph
from squashcube.johnson import johnson_addressing
from squashcube.search import canonical_step, distance_filter, pack_word, unpack_word

from oracles import is_canonical_prefix, reference_violations


def test_word_distance_paper_rows():
    # J(5,2): {2,3} vs {3,4} are adjacent
    assert word_distance("1*0000", "*11*00") == 1
    # J(4,1): {1} vs {4}
    assert word_distance("000", "**1") == 1
    assert word_distance("0*1", "0*1") == 0


def test_word_distance_errors_and_symmetry():
    with pytest.raises(ValueError):
        word_distance("00", "000")
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 12)
        a = "".join(rng.choice("012*") for _ in range(n))
        b = "".join(rng.choice("012*") for _ in range(n))
        assert word_distance(a, b) == word_distance(b, a)
        assert word_distance(a, b) <= min(weight(a), weight(b))


def test_weight():
    assert weight("***") == 0
    assert weight("1*0000") == 5
    assert weight("0*0*01") == 4


@pytest.mark.parametrize("r", [2, 3, 4, 6, 10])
def test_packed_distance_agrees_with_symbol_count(r):
    rng = random.Random(r)
    alphabet = "*" + "".join(str(d) for d in range(r))
    for _ in range(300):
        n = rng.randint(1, 15)
        a = "".join(rng.choice(alphabet) for _ in range(n))
        b = "".join(rng.choice(alphabet) for _ in range(n))
        pa, pb = pack_word(a, r), pack_word(b, r)
        at = distance_filter(n, r)
        for t in range(n + 1):
            assert bool(at([pb], pa, t)) == (t == word_distance(a, b))
        assert unpack_word(pa, n, r) == a


@pytest.mark.parametrize("r", range(2, 11))
def test_packed_weight_is_the_popcount_of_the_care_bits(r):
    # The search reads a word's weight as the popcount of its low L bits.
    rng = random.Random(300 + r)
    alphabet = "*" + "0123456789"[:r]
    for _ in range(200):
        length = rng.randint(0, 15)
        w = "".join(rng.choice(alphabet) for _ in range(length))
        assert (pack_word(w, r) & ((1 << length) - 1)).bit_count() == weight(w)


@pytest.mark.parametrize("r", range(2, 11))
def test_packed_words_with_disjoint_positions_add_up(r):
    # The search builds its half-words and root words as sums (and its
    # joined words as ORs) of words whose digits sit at disjoint positions;
    # both must give the packed word that carries the digits of each.
    rng = random.Random(400 + r)
    digits = "0123456789"[:r]
    for _ in range(200):
        length = rng.randint(0, 15)
        side = [rng.randrange(3) for _ in range(length)]   # 0: in a, 1: in b, 2: in neither
        merged = "".join("*" if s == 2 else rng.choice(digits) for s in side)
        a = "".join(ch if s == 0 else "*" for ch, s in zip(merged, side))
        b = "".join(ch if s == 1 else "*" for ch, s in zip(merged, side))
        pa, pb = pack_word(a, r), pack_word(b, r)
        assert pa + pb == pa | pb == pack_word(merged, r), (a, b)


def _candidate_list(words, length, r):
    """words (packed ints) as the search represents a candidate list of
    this shape: wide from search._wide_from words on, a list below."""
    if len(words) >= search._wide_from(length, r):
        return search._as_list(np.array(words, dtype=np.uint64), search._wide_from(length, r))
    return list(words)


def assert_candidate_list(out, length, r):
    """The container rule: a read-only memoryview of a uint64 array exactly
    when the list is wide, and a list of ints otherwise ([] when empty)."""
    if len(out) >= search._wide_from(length, r):
        assert type(out) is memoryview and out.readonly
        assert out.obj.dtype == np.uint64 and len(out.obj) == len(out)
    else:
        assert type(out) is list and all(type(c) is int for c in out)


@pytest.mark.parametrize("r", range(2, 11))
def test_distance_filter_agrees_with_word_distance(r):
    # The filter has one expression per bitplane count, and a numpy body for
    # wide lists, of search.WIDE_FILTER_WORDS words or more whose packed
    # words fit in 64 bits; it must keep exactly the words that the string
    # definition puts at distance t, in their order, for every t from 0 to
    # the length, and hand them back wide exactly when the result is.
    # Short lists (60 words) take the expressions; long ones (320) take the
    # numpy body at lengths 5, 9 and the longest that fits, where the
    # all-top-digit word reaches the highest bit (bit 63 at r = 2, 5..8),
    # and the expressions again one past that length.
    rng = random.Random(100 + r)
    alphabet = "*" + "".join(str(d) for d in range(r))
    top = str(r - 1)
    fits = 64 // ((r - 1).bit_length() + 1)      # the longest length in 64 bits
    assert search.WIDE_FILTER_WORDS <= 320
    assert search._wide_from(fits, r) == search.WIDE_FILTER_WORDS
    assert search._wide_from(fits + 1, r) == float("inf")
    shapes = [(length, 60) for length in (1, 2, 5, 7, 13)]
    shapes += [(length, 320) for length in (5, 9, fits, fits + 1)]
    for length, size in shapes:
        at = distance_filter(length, r)
        strings = ["".join(rng.choice(alphabet) for _ in range(length)) for _ in range(size)]
        strings[::7] = ["*" * length] * len(strings[::7])
        strings[3::11] = [top * length] * len(strings[3::11])
        words = [pack_word(s, r) for s in strings]
        candidates = _candidate_list(words, length, r)
        for s in strings[:12] + [top * length]:
            w = pack_word(s, r)
            dist = [word_distance(sc, s) for sc in strings]
            for t in range(length + 1):
                assert at([], w, t) == []
                out = at(candidates, w, t)
                assert_candidate_list(out, length, r)
                assert list(out) == [c for c, d in zip(words, dist) if d == t]


@pytest.mark.parametrize("length, r", [(8, 3), (7, 2), (6, 4)])
def test_join_agrees_with_the_pairwise_or(length, r):
    # Random nonempty buckets of the shape's half-words, in the search's
    # representation, on both sides of the wide threshold; goals whose keys
    # are missing on one side or both give fewer pairs or none.  Both routes
    # must run: a short join, a wide one that short pairs add up to and
    # one of wide pairs alone.
    rng = random.Random(20 * length + r)
    shape = search._Shape(length, r)
    wide = shape.wide_from
    sizes = [1, 3, 40, wide]
    halves = [sorted(c for words in half.values() for c in words) for half in shape.root[:2]]
    seen = set()
    for _ in range(40):
        lo, hi = (
            {k: _candidate_list(sorted(rng.sample(words, min(len(words), rng.choice(sizes)))),
                                length, r)
             for k in rng.sample(range(6), rng.randint(1, 4))}
            for words in halves
        )
        for g in range(11):
            out = shape.join(lo, hi, g)
            assert_candidate_list(out, length, r)
            assert list(out) == sorted(a | b for k in lo if g - k in hi
                                       for a in lo[k] for b in hi[g - k])
            seen.add((len(out) >= wide, any(len(lo[k]) * len(hi[g - k]) < wide
                                            for k in lo if g - k in hi)))
    assert seen >= {(False, True), (True, True), (True, False)}


@pytest.mark.parametrize("r", range(2, 11))
def test_canonical_step_agrees_with_string_oracle(r):
    # The packed step must reject a row exactly when the string oracle
    # rejects the prefix with that row appended.  The search takes the step
    # on every word of its path (down to depth n - 1, 14 for C_15), so
    # prefixes run to 16 rows, deep enough for a column's digit count to
    # reach r at every alphabet.  Digits at row k are drawn below k + 1, the
    # most a canonical column can use, and half the words are sorted (*
    # last), so that deep canonical prefixes occur at all.
    rng = random.Random(200 + r)
    depths = [0] * 17
    for length in range(1, 12):
        start, step = canonical_step(length, r)
        for _ in range(25):
            rows, state = [], start
            for _ in range(40):
                alphabet = "*" + "0123456789"[: min(r, len(rows) + 1)]
                word = [rng.choice(alphabet) for _ in range(length)]
                if rng.random() < 0.5:
                    word.sort(key="0123456789*".index)
                word = "".join(word)
                new = step(state, pack_word(word, r))
                assert (new is not None) == is_canonical_prefix(rows + [word]), (rows, word)
                if new is not None:
                    rows.append(word)
                    state = new
                    depths[len(rows)] += 1
                    if len(rows) == 16:
                        break
    assert min(depths[1:]) >= 20, depths


def _walk_random_prefixes(r, step_of):
    """The oracle test's random row walks: for each length, the words tried
    and the state (or None) that step_of(length) gave after each."""
    rng = random.Random(200 + r)
    walks = []
    for length in range(1, 12):
        start, step = step_of(length)
        for _ in range(25):
            rows, state, trail = [], start, []
            for _ in range(40):
                alphabet = "*" + "0123456789"[: min(r, len(rows) + 1)]
                word = [rng.choice(alphabet) for _ in range(length)]
                if rng.random() < 0.5:
                    word.sort(key="0123456789*".index)
                word = "".join(word)
                new = step(state, pack_word(word, r))
                trail.append((word, new))
                if new is not None:
                    rows.append(word)
                    state = new
                    if len(rows) == 16:
                        break
            walks.append(trail)
    return walks


def _shape_step(length, r):
    """The lex-leader test (start, step) of the process-wide shape."""
    shape = search._shape(length, r)
    return shape.start, shape.step


@pytest.mark.parametrize("r", [2, 3, 4, 10])
def test_canonical_step_table_hits_and_misses_give_the_same_states(r, monkeypatch):
    # The first walk fills each shape's word table, the second reads every
    # word from it, and a third, from a test whose table keeps two words,
    # gets almost every word's masks afresh.  All three must agree.
    search._shape.cache_clear()
    cold = _walk_random_prefixes(r, lambda length: _shape_step(length, r))
    warm = _walk_random_prefixes(r, lambda length: _shape_step(length, r))
    monkeypatch.setattr(search, "STEP_TABLE_WORDS", 2)
    capped = _walk_random_prefixes(r, lambda length: canonical_step(length, r))
    assert cold == warm == capped
    assert sum(new is not None for trail in cold for _, new in trail) > 1000


def test_canonical_step_keeps_one_table_per_shape():
    # An int that is a word of both shapes (length 4, r 2) and (length 2,
    # r 4) must be stepped by each shape's own masks, as `_shape` holds
    # them.  Both tables start empty and fill in turn, so a shared table
    # would hand one shape the other's masks.
    shapes = [(4, 2), (2, 4)]
    both = [x for x in range(1 << 8)
            if all(pack_word(unpack_word(x, *shape), shape[1]) == x for shape in shapes)]
    assert len(both) >= 10
    search._shape.cache_clear()
    steps = {shape: _shape_step(*shape) for shape in shapes}
    rng = random.Random(5)
    differ = 0
    for _ in range(300):
        rows = {shape: [] for shape in shapes}
        states = {shape: start for shape, (start, _) in steps.items()}
        for _ in range(6):
            x = rng.choice(both)
            verdicts = []
            for shape in shapes:
                word = unpack_word(x, *shape)
                new = steps[shape][1](states[shape], x)
                verdicts.append(new is not None)
                assert verdicts[-1] == is_canonical_prefix(rows[shape] + [word]), (shape, word)
                if new is not None:
                    rows[shape].append(word)
                    states[shape] = new
            differ += verdicts[0] != verdicts[1]
    assert differ >= 50, differ


def test_addressing_validation():
    with pytest.raises(ValueError):
        Addressing(2, 3, ["00*", "021"])        # symbol 2 needs r >= 3
    with pytest.raises(ValueError):
        Addressing(3, 3, ["00", "000"])         # length mismatch
    with pytest.raises(ValueError):
        Addressing(1, 2, ["00"])
    with pytest.raises(ValueError):
        Addressing(11, 2, ["00"])
    # str.isdigit takes U+0663 (Arabic-Indic three) and U+00B2 (superscript
    # two), and int() reads the first as 3: only the ASCII digits are symbols
    for symbol in ("\u0663", "\u00b2"):
        with pytest.raises(ValueError, match=f"^symbol {symbol!r} invalid for alphabet size 4$"):
            Addressing(4, 1, [symbol, "3"])


def test_verify_addressing_flags_a_flipped_symbol():
    adr = johnson_addressing(5, 2)
    d = bfs_distances(johnson_graph(5, 2))
    assert verify_addressing(d, adr) == []
    for v, word in enumerate(adr.words):
        for j, ch in enumerate(word):
            if ch == "0":
                broken = list(adr.words)
                broken[v] = word[:j] + "1" + word[j + 1:]
                assert verify_addressing(d, Addressing(2, 6, broken))
                return


def _corruptions(adr, rng):
    """Seeded corruptions of a valid addressing, at every alphabet size from
    adr.r to 10: changed symbols, duplicated words and all-* words."""
    for r in range(adr.r, 11):
        symbols = "*" + "0123456789"[:r]
        for kind in ("symbol", "duplicate", "stars"):
            words = list(adr.words)
            for _ in range(rng.randint(1, 3)):
                v = rng.randrange(adr.n)
                if kind == "symbol" and adr.length:
                    j = rng.randrange(adr.length)
                    words[v] = words[v][:j] + rng.choice(symbols) + words[v][j + 1:]
                elif kind == "duplicate":
                    words[v] = words[rng.randrange(adr.n)]
                else:
                    words[v] = "*" * adr.length
            yield Addressing(r, adr.length, words)


def test_verify_addressing_equals_the_string_reference():
    # Verification compares the partition's coverage matrix with the
    # distances; it must report exactly the reference's violations, in
    # (u, v) order, for numpy and list matrices.
    rng = random.Random(41)
    flagged = 0
    for name, adr, graph in iter_fixtures():
        dist = bfs_distances(graph)
        for d in (dist, dist.tolist()):
            assert verify_addressing(d, adr) == [], name
        for bad in _corruptions(adr, rng):
            want = reference_violations(dist, bad.words)
            flagged += bool(want)
            for d in (dist, dist.tolist()):
                got = verify_addressing(d, bad)
                assert got == want, (name, bad.words)
                assert all(type(x) is int for t in got for x in t)
    assert flagged > 500, flagged


def test_verify_addressing_size_mismatch():
    with pytest.raises(ValueError):
        verify_addressing(bfs_distances(complete_graph(3)), Addressing(2, 1, ["0", "1"]))


def test_to_partition_k3():
    adr = Addressing(2, 2, ["00", "01", "1*"])
    d = bfs_distances(complete_graph(3))
    assert verify_addressing(d, adr) == []
    parts = to_partition(adr)
    assert len(parts) == 2
    assert np.array_equal(partition_coverage(parts, 3), d)


def test_to_partition_drops_all_star_column():
    adr = Addressing(2, 3, ["0*0", "1*1", "0**"])
    parts = to_partition(adr)
    assert len(parts) == 2


def test_to_partition_johnson41_covers_k4():
    adr = johnson_addressing(4, 1)
    parts = to_partition(adr)
    assert len(parts) == 3
    d = bfs_distances(complete_graph(4))
    assert np.array_equal(partition_coverage(parts, 4), d)


def test_partition_validity_iff_multiset_match():
    # cross-check on a valid and an invalid addressing of the same graph
    g = johnson_graph(4, 2)
    d = bfs_distances(g)
    good = johnson_addressing(4, 2)
    assert np.array_equal(partition_coverage(to_partition(good), g.n), d)
    bad = Addressing(2, good.length, [w.replace("1", "0", 1) for w in good.words])
    assert np.array_equal(partition_coverage(to_partition(bad), g.n), d) == (
        verify_addressing(d, bad) == []
    )


def test_partition_coverage_counts_every_listing():
    # a vertex listed twice counts twice; one listed in two classes of a
    # piece lands on the diagonal; the matrix is symmetric
    cover = partition_coverage([[[0, 0], [1]], [[2], [1, 2]]], 3)
    assert cover.tolist() == [[0, 2, 0], [2, 0, 1], [0, 1, 2]]


@pytest.mark.parametrize("vertex", [-1, 3])
def test_partition_coverage_rejects_a_vertex_outside_the_range(vertex):
    with pytest.raises(ValueError, match="outside"):
        partition_coverage([[[0], [1, vertex]]], 3)


@pytest.mark.parametrize("vertex", [-1, 3])
def test_partition_to_addressing_rejects_a_vertex_outside_the_range(vertex):
    # unchecked, -1 would index the column from its end and 3 past it
    with pytest.raises(ValueError, match=rf"^vertex {vertex} outside \[0, 3\)$"):
        partition_to_addressing([[[0], [vertex]]], 3, 2)


def test_tree_cut_partition_gives_length_n_minus_1():
    # one biclique per tree edge: the two sides of the cut
    n = 6
    tree_edges = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]
    parts = []
    for cut in tree_edges:
        side = {cut[1]}
        stack = [cut[1]]
        while stack:
            x = stack.pop()
            for a, b in tree_edges:
                if {a, b} == set(cut):
                    continue
                for p, q in ((a, b), (b, a)):
                    if p == x and q not in side:
                        side.add(q)
                        stack.append(q)
        parts.append([sorted(side), sorted(set(range(n)) - side)])
    adr = partition_to_addressing(parts, n, 2)
    assert adr.length == n - 1
    assert verify_addressing(bfs_distances(Graph(n, tree_edges)), adr) == []


def test_partition_to_addressing_edge_cases():
    assert partition_to_addressing([], 1, 2).length == 0
    with pytest.raises(ValueError):
        partition_to_addressing([[[0], [1], [2]]], 3, 2)   # 3 classes, r = 2
    with pytest.raises(ValueError):
        partition_to_addressing([[[0], [0]]], 2, 2)        # overlap
    with pytest.raises(ValueError):
        partition_to_addressing([[[0], []]], 2, 2)         # empty class


def test_partition_round_trip_preserves_word_multiset():
    adr = johnson_addressing(5, 2)
    back = partition_to_addressing(to_partition(adr), adr.n, adr.r)
    assert sorted(back.words) == sorted(adr.words)
    assert verify_addressing(bfs_distances(johnson_graph(5, 2)), back) == []


def test_address_space_group_preserves_distances():
    # coordinate permutations and per-coordinate symbol permutations
    rng = random.Random(7)
    for r in (2, 3):
        alphabet = [str(d) for d in range(r)]
        for _ in range(50):
            n, length = rng.randint(2, 6), rng.randint(1, 8)
            words = [
                "".join(rng.choice(alphabet + ["*"]) for _ in range(length))
                for _ in range(n)
            ]
            cols = list(range(length))
            rng.shuffle(cols)
            perms = []
            for _ in range(length):
                p = alphabet[:]
                rng.shuffle(p)
                perms.append(dict(zip(alphabet, p)))
            transformed = [
                "".join(
                    "*" if w[c] == "*" else perms[c][w[c]]
                    for c in cols
                )
                for w in words
            ]
            for a in range(n):
                for b in range(n):
                    assert word_distance(words[a], words[b]) == word_distance(
                        transformed[a], transformed[b]
                    )


def test_text_format_round_trip():
    adr = johnson_addressing(5, 2)
    text = format_addressing(adr)
    assert text.splitlines()[0] == "r=2 len=6 n=10"
    assert parse_addressing(text) == adr


def test_text_format_errors():
    with pytest.raises(ValueError):
        parse_addressing("")
    with pytest.raises(ValueError):
        parse_addressing("r=2 len=2 n=2\n0\t00\n")          # missing word
    with pytest.raises(ValueError):
        parse_addressing("r=2 len=2 n=1\n0\t00\n0\t01\n")   # repeated vertex


@pytest.mark.parametrize("text", [
    "r=\u0662 len=1 n=2\n\u0660\t0\n1\t1\n",      # Arabic-Indic digits
    "r=2 len=1 n=2\n 0\t0\n1\t1\n",                # a space before the id
    "r=2 len=1 n=2\n+1\t0\n0\t1\n",                # a sign on the id
])
def test_text_format_takes_only_ascii_decimal_numbers(text):
    # int() alone reads each of these; the error must name the number
    with pytest.raises(ValueError, match="not a decimal number"):
        parse_addressing(text)


def test_json_mirror():
    adr = johnson_addressing(4, 2)
    blob = addressing_to_json(adr)
    assert json.loads(blob)["len"] == 4
    assert addressing_from_json(blob) == adr
