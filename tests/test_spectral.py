import math
from fractions import Fraction

import numpy as np
import pytest

from squashcube.addressing import Addressing
from squashcube.graphs import (
    bfs_distances,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    emit_graph6,
    is_connected,
    kam_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from squashcube import spectral
from squashcube.errors import SelfCheckError
from squashcube.spectral import Inertia, inertia, is_eigensharp, lower_bound
from oracles import sturm_inertia


def test_inertia_complete_graphs():
    for n in range(2, 8):
        assert inertia(bfs_distances(complete_graph(n))) == Inertia(1, 0, n - 1)


def test_inertia_k_a11():
    for a in range(1, 21):
        ine = inertia(bfs_distances(complete_multipartite([a, 1, 1])))
        assert ine.n_minus == a + 1


def test_inertia_zero_matrix():
    assert inertia(np.zeros((3, 3), dtype=int)) == Inertia(0, 3, 0)
    assert inertia([]) == inertia(np.zeros((0, 0), dtype=int)) == Inertia(0, 0, 0)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        inertia([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        inertia([[0, 1, 2], [1, 0, 1]])


def test_inertia_matches_sturm_oracle_exhaustively_to_n6():
    from squashcube.graphs import connected_graphs

    for n in range(2, 7):
        for g in connected_graphs(n):
            d = bfs_distances(g)
            ine = inertia(d)
            assert sturm_inertia(d) == (ine.n_plus, ine.n_zero, ine.n_minus)


def test_inertia_matches_sturm_oracle_sampled_n7():
    checked = 0
    for seed in range(80):
        g = random_graph(7, seed)
        if not is_connected(g):
            continue
        d = bfs_distances(g)
        ine = inertia(d)
        assert sturm_inertia(d) == (ine.n_plus, ine.n_zero, ine.n_minus)
        checked += 1
    assert checked > 40


def test_inertia_congruence_invariance():
    rng = np.random.default_rng(11)
    for seed in range(10):
        g = random_graph(7, seed)
        if not is_connected(g):
            continue
        d = np.array(bfs_distances(g), dtype=object)
        p = np.eye(7, dtype=object)
        for _ in range(10):
            i, j = rng.integers(0, 7, 2)
            if i != j:
                p[i] += p[j] * int(rng.integers(-2, 3))
        assert inertia(p.T @ d @ p) == inertia(d)


def _random_symmetric(rng, n, mode):
    a = rng.integers(-3, 4, (n, n))
    a = np.triu(a) + np.triu(a, 1).T
    if mode == 1:     # zero diagonal: pair steps first
        np.fill_diagonal(a, 0)
    elif mode == 2:   # negative diagonal, zero leading entry
        np.fill_diagonal(a, -rng.integers(1, 4, n))
        a[0, 0] = 0
    elif mode == 3:   # low rank: zero pivots once the rank is used up
        b = rng.integers(-2, 3, (n, int(rng.integers(1, n + 1))))
        a = b @ np.diag(rng.choice([-2, -1, 0, 1, 2], b.shape[1])) @ b.T
    elif mode == 4:   # repeated row and column: a singular leading block
        a[1], a[:, 1] = a[0], a[:, 0]
    return a


def test_inertia_matches_sturm_oracle_on_random_symmetric_matrices():
    rng = np.random.default_rng(5)
    for trial in range(250):
        n = int(rng.integers(2, 9))
        a = _random_symmetric(rng, n, trial % 5)
        ine = inertia(a)
        assert sturm_inertia(a) == (ine.n_plus, ine.n_zero, ine.n_minus), a.tolist()


def test_inertia_of_permuted_direct_sums_of_hyperbolic_planes():
    # [a] + H(d1) + H(d2) + 0, with H(d) = [[0, d], [d, 0]] and |a| > 1,
    # rows and columns permuted.  a is the only nonzero diagonal entry, so
    # each H block is reached with a zero diagonal and a divisor D = det of
    # the eliminated block that is not +-1: every call takes the pair step
    # twice with divisions that are not trivially exact.
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = int(rng.choice([-1, 1]) * rng.integers(2, 10))
        d1, d2 = (int(rng.choice([-1, 1]) * rng.integers(1, 10)) for _ in range(2))
        n = 5 + int(rng.integers(0, 4))
        m = np.zeros((n, n), dtype=int)
        m[0, 0] = a
        m[1, 2] = m[2, 1] = d1
        m[3, 4] = m[4, 3] = d2
        perm = rng.permutation(n)
        m = m[np.ix_(perm, perm)]
        want = (2 + (a > 0), n - 5, 2 + (a < 0))
        ine = inertia(m)
        assert (ine.n_plus, ine.n_zero, ine.n_minus) == sturm_inertia(m) == want, m.tolist()


def test_inertia_johnson_distance_matrices():
    from squashcube.graphs import johnson_graph

    for n, k in ((6, 3), (7, 3), (8, 4), (7, 2)):
        ine = inertia(bfs_distances(johnson_graph(n, k)))
        assert ine == Inertia(1, math.comb(n, k) - n, n - 1)


def _rows_only(monkeypatch, matrix):
    """The inertia with the int64 phase switched off: the rows body alone."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "NARROW_FROM", len(matrix) + 1)
        return inertia(matrix)


def _scaled_symmetric(rng, n, mode, scale):
    """_random_symmetric's five modes with entries up to about scale."""
    a = rng.integers(-scale, scale + 1, (n, n))
    a = np.triu(a) + np.triu(a, 1).T
    if mode == 1:
        np.fill_diagonal(a, 0)
    elif mode == 2:
        np.fill_diagonal(a, -rng.integers(1, scale + 1, n))
        a[0, 0] = 0
    elif mode == 3:
        t = max(1, math.isqrt(scale // (2 * n)))
        b = rng.integers(-t, t + 1, (n, int(rng.integers(1, n // 2 + 1))))
        a = b @ np.diag(rng.choice([-2, -1, 0, 1, 2], b.shape[1])) @ b.T
    elif mode == 4:
        a[1], a[:, 1] = a[0], a[:, 0]
    return a


def test_int64_phase_agrees_with_the_rows_body(monkeypatch):
    # Scale 2^40 fails the guard at entry, 2^29 after one step, 2^12 and 2^20
    # part way, and 3 in low rank reaches the zero block in int64: the rows
    # body gets all, some or none of each matrix.
    handed = []
    rows_body = spectral._eliminate_rows

    def recording(m, det, signs):
        handed.append(len(m))
        rows_body(m, det, signs)

    rng = np.random.default_rng(26)
    kinds = set()
    for scale in (3, 1 << 12, 1 << 20, 1 << 29, 1 << 40):
        for trial in range(10):
            n = int(rng.integers(32, 65))
            a = _scaled_symmetric(rng, n, trial % 5, scale)
            want = _rows_only(monkeypatch, a)
            with monkeypatch.context() as m:
                m.setattr(spectral, "_eliminate_rows", recording)
                handed.clear()
                got = inertia(a), inertia(a.tolist())
            assert got == (want, want), (scale, trial % 5, n)
            kinds.update("entry" if k == n else "mid" if k else "never" for k in handed)
    assert kinds == {"entry", "mid", "never"}


def _rows_elimination(matrix):
    """The rows body alone on matrix.tolist(): no int64 phase, no certificate."""
    signs = [0, 0, 0]
    spectral._eliminate_rows(np.asarray(matrix).tolist(), 1, signs)
    return Inertia(*signs)


@pytest.fixture
def certificates(monkeypatch):
    """The results of every `_certified` call, in order."""
    results = []
    certify = spectral._certified

    def recording(m):
        results.append(certify(m))
        return results[-1]

    monkeypatch.setattr(spectral, "_certified", recording)
    return results


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts the calls of np.linalg.eigh, which answers as it does."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _dense_distances(n, seed):
    g = random_graph(n, [seed, n])
    assert is_connected(g)
    return bfs_distances(g)


@pytest.mark.parametrize("seed", [0, 9001])
def test_certificate_agrees_with_the_rows_elimination_on_dense_graphs(certificates, seed):
    # From 64 rows the int64 phase stops with at least NARROW_FROM rows left,
    # and the congruence is certified; below that it is never tried.
    for n in (20, 24, 32, 64, 128):
        d = _dense_distances(n, seed)
        certificates.clear()
        assert inertia(d) == _rows_elimination(d), n
        if n >= 64:
            assert certificates == [_rows_elimination(d)], n
        else:
            assert certificates == [], n


def test_certificate_agrees_with_the_rows_elimination_on_random_matrices(certificates):
    # Entries in [-3, 3]: minors pass the int64 guard after about ten pivots.
    # The singular modes (low rank, a repeated row) must be declined.
    rng = np.random.default_rng(33)
    for trial in range(30):
        n = int(rng.integers(32, 91))
        a = _random_symmetric(rng, n, trial % 5)
        want = _rows_elimination(a)
        before = len(certificates)
        assert inertia(a) == inertia(a.tolist()) == want, (trial % 5, n)
        if want.n_zero:
            assert not any(certificates[before:]), (trial % 5, n)
    assert None in certificates and any(certificates)


def _orthogonal(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _raise_lin_alg_error(a):
    raise np.linalg.LinAlgError("eigh did not converge")


@pytest.mark.parametrize("proposal", [
    lambda a, rng: (np.ones(len(a)), np.eye(len(a))),
    lambda a, rng: (np.ones(len(a)), _orthogonal(len(a), rng)),
    lambda a, rng: (np.ones(len(a)), 4 * _orthogonal(len(a), rng)),
    lambda a, rng: (np.ones(len(a)), np.full((len(a), len(a)), np.nan)),
    lambda a, rng: _raise_lin_alg_error(a),
], ids=["identity", "random-orthogonal", "beyond-the-budget", "nan", "lin-alg-error"])
def test_a_wrong_or_failed_proposal_only_declines(monkeypatch, certificates, proposal):
    # A wrong X is declined by the integer check, an X beyond 2^s (whose
    # product could overflow int64) or a failed eigh before it; the rows
    # body then gives the same answer as ever.
    rng = np.random.default_rng(7)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: proposal(a, rng))
    for n, seed in ((64, 0), (128, 9001)):
        d = _dense_distances(n, seed)
        certificates.clear()
        assert inertia(d) == _rows_elimination(d)
        assert certificates == [None]


def test_a_singular_dense_matrix_is_declined(certificates):
    # Vertex 0's row and column repeated: one zero eigenvalue, which no
    # nonsingular X^T A X can show.
    d = _dense_distances(64, 0)
    keep = list(range(64)) + [0]
    a = d[np.ix_(keep, keep)]
    ine = inertia(a)
    assert certificates == [None]
    assert ine.n_zero == 1 and ine == _rows_elimination(a)


@pytest.mark.parametrize("scale", [1 << 50, 1 << 70])
def test_entries_beyond_the_budget_make_no_attempt(certificates, eigh_calls, scale):
    # The rows body starts on the whole matrix (entries past the int64 guard),
    # and s < 1, so no eigenvector is proposed.
    a = _dense_distances(64, 0).astype(object)
    a[0, 1] = a[1, 0] = scale
    assert inertia(a) == _rows_elimination(a)
    assert certificates == [None] and eigh_calls == []


def test_small_matrices_never_propose(eigh_calls):
    from squashcube.graphs import connected_graphs
    from squashcube.search import SearchConfig, census_distribution, solve_N

    lines = [emit_graph6(g) for g in connected_graphs(6)]
    res = census_distribution(lines, jobs=1)
    assert sum(sum(c.values()) for c in res.by_n.values()) == 112
    for g, r in ((petersen_graph(), 2), (cycle_graph(15), 3),
                 (complete_multipartite([3, 3, 3]), 2)):
        assert solve_N(SearchConfig(graph=g, r=r)).value is not None
    assert eigh_calls == []


def test_inertia_at_scale():
    from squashcube.graphs import johnson_graph

    for n, k in ((9, 4), (10, 5)):
        ine = inertia(bfs_distances(johnson_graph(n, k)))
        assert ine == Inertia(1, math.comb(n, k) - n, n - 1)
    assert inertia(bfs_distances(complete_graph(40))) == Inertia(1, 0, 39)


def test_inertia_of_large_permuted_direct_sums_of_hyperbolic_planes():
    # As the small test above, with 10 to 20 planes in 32 to 48 rows and
    # d up to 2^12, so the int64 phase takes the pair step on divisors that
    # are not +-1 and hands the rest over part way.
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(32, 49))
        planes = int(rng.integers(10, (n - 1) // 2 + 1))
        a = int(rng.choice([-1, 1]) * rng.integers(2, 10))
        m = np.zeros((n, n), dtype=np.int64)
        m[0, 0] = a
        for h in range(planes):
            d = int(rng.choice([-1, 1]) * rng.integers(1, 1 << 12))
            m[2 * h + 1, 2 * h + 2] = m[2 * h + 2, 2 * h + 1] = d
        perm = rng.permutation(n)
        m = m[np.ix_(perm, perm)]
        want = Inertia(planes + (a > 0), n - 1 - 2 * planes, planes + (a < 0))
        assert inertia(m) == inertia(m.tolist()) == want


def test_int64_guard_allows_for_the_doubling_congruence(monkeypatch):
    # Zero diagonal, rows 0 and 1 all B, the rest -B off the diagonal, with
    # B = 1.5e9: 2 B^2 and 4 B^2 are below 2^63, but the pair step doubles
    # rows 0 and 1 to 2B, so the first update's 2B (-B) - (2B)^2 = -6 B^2
    # would wrap.  Scaling by B > 0 leaves the inertia of the 0/+-1 pattern.
    n = 32
    pattern = -np.ones((n, n), dtype=np.int64)
    pattern[:2] = pattern[:, :2] = 1
    np.fill_diagonal(pattern, 0)
    b = 1_500_000_000
    want = _rows_only(monkeypatch, pattern)
    assert inertia(b * pattern) == _rows_only(monkeypatch, b * pattern) == want
    assert want == inertia(pattern)


def test_inexact_division_is_a_self_check_failure(monkeypatch):
    # A divisor D that is not the eliminated block's determinant makes the
    # divisions inexact; both phases must say so rather than truncate.
    with pytest.raises(SelfCheckError, match="inexact division"):
        spectral._eliminate_rows([[1, 0], [0, 1]], 2, [0, 0, 0])
    monkeypatch.setattr(spectral, "NARROW_FROM", 1)
    with pytest.raises(SelfCheckError, match="inexact division"):
        spectral._eliminate_narrow(np.eye(3, dtype=np.int64), 2, [0, 0, 0])


@pytest.mark.parametrize("n", [6, 40])
def test_integer_arrays_of_every_dtype_agree_with_lists(monkeypatch, n):
    rng = np.random.default_rng(n)
    for trial in range(5):
        a = _random_symmetric(rng, n, trial)
        adjacency = np.triu(rng.integers(0, 2, (n, n)), 1)
        cases = [a.astype(np.int8), a.astype(np.int32), a.astype(np.int64),
                 np.abs(a).astype(np.uint8), (adjacency + adjacency.T).astype(bool)]
        huge = np.abs(a).astype(np.uint64)
        huge[0, 1] = huge[1, 0] = (1 << 63) + 5       # beyond int64: rows only
        cases += [np.abs(a).astype(np.uint64), huge]
        for c in cases:
            rows = [[int(x) for x in row] for row in c]
            assert inertia(c) == inertia(rows) == _rows_only(monkeypatch, rows), c.dtype
        wide = a.astype(object)
        wide[0, 1] = wide[1, 0] = -(1 << 70)     # beyond int64, in Python ints
        want = _rows_only(monkeypatch, wide.tolist())
        assert inertia(wide) == inertia(wide.tolist()) == want
        assert inertia(cases[4].tolist()) == inertia(cases[4])    # a list of bools


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64, bool])
def test_integer_arrays_are_rejected_as_lists_are(dtype):
    rng = np.random.default_rng(3)
    for n in (5, 40):
        for _ in range(5):
            a = rng.integers(0, 2, (n, n))
            a = np.triu(a) + np.triu(a, 1).T
            for _ in range(int(rng.integers(1, 4))):
                i, j = rng.integers(0, n, 2)
                if i != j:
                    a[i, j] = 1 - a[j, i]
            if np.array_equal(a, a.T):
                continue
            with pytest.raises(ValueError) as from_list:
                inertia(a.tolist())
            with pytest.raises(ValueError) as from_array:
                inertia(a.astype(dtype))
            assert str(from_array.value) == str(from_list.value)
            assert str(from_list.value).startswith("matrix not symmetric at (")
        for shape in ((n, n + 1), (n + 1, n)):
            with pytest.raises(ValueError, match="^matrix is not square$"):
                inertia(np.zeros(shape, dtype=dtype))


NOT_INTEGER = "^matrix entries must be integers$"


@pytest.mark.parametrize("matrix, message", [
    ([[0, 0.5], [0.5, 0]], NOT_INTEGER),
    (np.array([[0, 0.5], [0.5, 0]]), NOT_INTEGER),
    (np.array([[0, 1], [1, 0]], dtype=np.float64), NOT_INTEGER),
    (np.array([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], dtype=object), NOT_INTEGER),
    ([[0, "1"], ["1", 0]], NOT_INTEGER),
    ([[0, 1], [1]], "^matrix is not square$"),
    ([[0], [1, 0]], "^matrix is not square$"),
], ids=["float-list", "float-array", "integral-float-array", "fraction-object-array",
        "string-list", "ragged-short-row", "ragged-long-row"])
def test_non_integer_and_ragged_matrices_are_refused(matrix, message):
    # Truncated by int(), [[0, .5], [.5, 0]] would read as the zero matrix:
    # inertia (0, 2, 0) instead of (1, 0, 1).
    for call in (inertia, lower_bound):
        with pytest.raises(ValueError, match=message):
            call(matrix)


def test_lower_bound_petersen():
    rep = lower_bound(bfs_distances(petersen_graph()), 2)
    assert rep.inertia == Inertia(1, 4, 5)
    assert rep.eigen_bound_r2 == 5 and rep.log2_bound == 4 and rep.best == 5
    rep3 = lower_bound(bfs_distances(petersen_graph()), 3)
    assert rep3.eigen_bound_r == 3 and rep3.best == 3


def test_lower_bound_multipartite():
    assert lower_bound(bfs_distances(kam_graph(3, 3)), 2).best >= 6
    assert lower_bound(bfs_distances(kam_graph(5, 5)), 2).best >= 20
    assert lower_bound(bfs_distances(complete_graph(2)), 2).best == 1


def test_lower_bound_log2_applies_only_for_r2():
    d = bfs_distances(complete_graph(5))
    r2 = lower_bound(d, 2)
    assert r2.log2_bound == 3
    assert r2.best == max(r2.eigen_bound_r, r2.log2_bound)
    r4 = lower_bound(d, 4)
    assert r4.best == r4.eigen_bound_r == max(1, -(-4 // 3))


def test_log2_bound_is_the_least_b_with_2_to_the_b_at_least_n():
    for n in range(1, 65):
        b = 0
        while 1 << b < n:
            b += 1
        assert lower_bound(bfs_distances(complete_graph(n)), 2).log2_bound == b, n
    assert lower_bound([], 2).log2_bound == 0


def test_lower_bound_rejects_bad_r():
    with pytest.raises(ValueError):
        lower_bound(bfs_distances(complete_graph(3)), 1)


@pytest.mark.parametrize("r", [2.5, 3.0, "3", None, True], ids=repr)
def test_lower_bound_refuses_a_non_integer_alphabet(r):
    # 2.5 used to give best == 4.0, a bound decided by a float, and "3" a
    # TypeError from the comparison
    with pytest.raises(ValueError, match="^alphabet size must be >= 2, got "):
        lower_bound(bfs_distances(cycle_graph(7)), r)


def test_lower_bound_reads_a_numpy_alphabet_as_a_python_int():
    d = bfs_distances(petersen_graph())
    rep = lower_bound(d, np.int64(3))
    assert rep == lower_bound(d, 3)
    fields = (rep.n, rep.r, rep.eigen_bound_r2, rep.eigen_bound_r, rep.log2_bound, rep.best)
    assert all(type(x) is int for x in fields), [type(x) for x in fields]


def test_eigensharp_path():
    d = bfs_distances(path_graph(4))
    adr = Addressing(2, 3, ["000", "100", "110", "111"])
    assert is_eigensharp(d, adr)


def test_eigensharp_even_cycle():
    from squashcube.search import SearchConfig, solve_N

    res = solve_N(SearchConfig(graph=cycle_graph(6), r=2))
    assert res.value == 3
    assert is_eigensharp(bfs_distances(cycle_graph(6)), res.addressing)


def test_petersen_not_eigensharp():
    from squashcube.search import SearchConfig, solve_N

    res = solve_N(SearchConfig(graph=petersen_graph(), r=2))
    assert res.value == 6
    assert not is_eigensharp(bfs_distances(petersen_graph()), res.addressing)


def test_eigensharp_single_vertex_vacuous():
    assert is_eigensharp(np.zeros((1, 1), dtype=int), Addressing(2, 0, [""]))


def test_eigensharp_rejects_invalid_addressing():
    d = bfs_distances(path_graph(3))
    with pytest.raises(ValueError):
        is_eigensharp(d, Addressing(2, 2, ["00", "00", "11"]))
    with pytest.raises(ValueError):
        is_eigensharp(d, Addressing(3, 2, ["00", "01", "02"]))


def test_valid_addressings_respect_eigen_bound():
    # length >= max(n+, n-) for every r = 2 addressing we can build
    from squashcube.graphs import johnson_graph
    from squashcube.johnson import johnson_addressing

    for n, k in ((4, 1), (5, 2), (6, 3)):
        ine = inertia(bfs_distances(johnson_graph(n, k)))
        assert johnson_addressing(n, k).length >= max(ine.n_plus, ine.n_minus)
