"""Exact inertia of symmetric integer matrices and the addressing lower bounds.

Inertia is computed by symmetric congruence elimination in fraction-free
integer arithmetic (Bareiss's integer-preserving elimination), with one
pivot rule: a 1x1 pivot on the first nonzero diagonal entry.  When the
remaining diagonal is all zero, the first nonzero off-diagonal entry
d = M_pq is first moved onto the diagonal by the congruence "row p += row q,
then column p += column q", which makes M_pp = 2d.  Congruence preserves
inertia (Sylvester's law), so counting pivot signs is exact.  Distance
matrices have zero diagonal, so that congruence is the first move, not a
fallback.  Where the elimination would go on in Python ints on a large
matrix, a checked congruence (`_certified`, below) is tried first.

With K the set of eliminated indices, the active matrix holds the bordered
minors M_ij = det A[K+i, K+j] and D = det A[K, K] (signed; 1 while K is
empty).  M / D is the Schur complement of A[K, K], so a pivot a = M_pp is
positive exactly when sign(a) == sign(D).  The update

    M_ij <- (a M_ij - M_ip M_pj) / D,        D <- a

keeps every entry a bordered minor, so by Sylvester's identity each
division is exact; a nonzero remainder is reported as a self-check failure.
The congruence replaces A by E A E^T, where E adds row q to row p (both
outside K).  That leaves D alone and, a determinant being linear in each
row and each column, makes every M_ij the bordered minor of E A E^T, so the
divisions stay exact.

The elimination has two arithmetic phases over the same pivot rule and the
same sign count.  The int64 phase (`_eliminate_narrow`) keeps the active
matrix in an int64 array and updates it in place with whole-array
operations.  A step runs only while the active matrix has at least
NARROW_FROM rows and 8 B^2 < 2^63, B being its largest |entry|.  The
congruence can double entries to 2B, and then |a M_ij - M_ip M_pj| <= 8 B^2,
so no product, difference or quotient of the step leaves int64 and every
step is exact; the guard is re-checked on the updated matrix before the
next step.  When either condition fails, the active matrix and D go on as
rows of Python ints (`_eliminate_rows`), whose integers never overflow;
small matrices and wide entries start there.  The int64 phase swaps each
pivot to the last row and column so that the rest is a view; that changes
the order in which later pivots are met, but not the inertia (Sylvester's
law again).  No floating point is involved in either phase.

Three routes, then: the int64 phase, the certificate and the rows.  When
the int64 phase stops with at least NARROW_FROM rows left (dense matrices
whose minors outgrow int64 after a few pivots), `_certified` works on the
original n x n matrix A, B its largest |entry|.  Floats only propose: X is
2^s times the eigenvectors of a float64 copy of A, rounded to integers.
Integers decide: C = X^T (A X) is computed in int64 and accepted only when
every row is strictly dominant, 2 |C_ii| > sum_j |C_ij|; the inertia is
then the signs of C's diagonal.  s is the largest with n^3 B 2^(2s) < 2^62,
and X is refused unless every |X_ij| <= 2^s, so every entry of A X and of C,
and every row sum of |C|, stays below 2^62: the check itself is exact.
Proof of the answer: for t in [0, 1], D + t (C - D), D the diagonal of C,
is symmetric and strictly dominant, so by Gershgorin none of its
eigenvalues is 0; they move continuously with t, so C has as many positive
and negative eigenvalues as D.  C is then nonsingular, so det X != 0, and
by Sylvester's law inertia(A) = inertia(C).  A singular A makes C singular,
never dominant, so it is always declined.  On any failure (no dominance,
LinAlgError from eigh, s < 1, which also rules out entries too large for
float64, or an X beyond 2^s) the rows body goes on exactly as without the
certificate, so a wrong or failed proposal can only decline, never change
an answer.  Small matrices never reach it, and neither do matrices that
the int64 phase finishes (low rank, as J(n,k)), where the eigh would be
wasted.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .addressing import require_valid
from .errors import SelfCheckError

# The int64 phase runs while the active matrix has at least this many rows.
# Below it, per-step numpy call overhead loses to the rows loop.  Timed with
# timeit on connected G(n, 1/2) distance matrices, per matrix, rows alone ->
# from the int64 phase on (shared 2-core Xeon, CPython 3.11.7, numpy 2.4.6):
# n=14 0.24 -> 0.31 ms, n=16 0.31 -> 0.39, n=17 0.38 -> 0.39,
# n=19 0.49 -> 0.45, n=20 0.58 -> 0.49, n=24 0.83 -> 0.59,
# n=32 1.85 -> 0.85, n=64 15.0 -> 5.4.
NARROW_FROM = 20

_INEXACT = "inexact division in fraction-free elimination; please report this matrix"

# operator.index entry by entry; a float, string or Fraction raises TypeError
_python_ints = np.frompyfunc(operator.index, 1, 1)


@dataclass(frozen=True)
class Inertia:
    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def dimension(self):
        return self.n_plus + self.n_zero + self.n_minus


def _as_int_matrix(matrix):
    """The input of `inertia` as a square, symmetric ndarray of integers."""
    if isinstance(matrix, np.ndarray) and matrix.dtype.kind in "biu":
        m = matrix.view(np.uint8) if matrix.dtype.kind == "b" else matrix
    else:
        m = np.array(matrix, dtype=object)
        if m.shape == (0,):                 # []
            m = m.reshape(0, 0)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix is not square")
    if m.dtype == object:
        try:
            m = _python_ints(m)
        except TypeError:
            raise ValueError("matrix entries must be integers") from None
    if not np.array_equal(m, m.T):
        i, j = (int(x) for x in np.argwhere(np.triu(m != m.T, 1))[0])
        raise ValueError(f"matrix not symmetric at ({i},{j})")
    return m


def _largest(block):
    """B, the largest |entry|, as a Python int."""
    return max(int(block.max()), -int(block.min()))


def _fits_narrow(block):
    """8 B^2 < 2^63: one step cannot overflow int64."""
    b = _largest(block)
    return 8 * b * b < 1 << 63


def _exact_quotients(numerators, divisor):
    out = []
    for x in numerators:
        q, rem = divmod(x, divisor)
        if rem:
            raise SelfCheckError(_INEXACT)
        out.append(q)
    return out


def _eliminate_narrow(m, det, signs):
    """Pivot in int64 while the active matrix is large and `_fits_narrow`.

    Adds each pivot's sign to signs = [n_plus, n_zero, n_minus] and returns
    the rest as rows of Python ints with its divisor D.  Each pivot is
    swapped to the last row and column first, so the rest is a view that is
    updated in place, with one temporary of its size for the outer product
    that then takes the remainders.
    """
    k = len(m)
    if k < NARROW_FROM or not _fits_narrow(m):
        return m.tolist(), det
    m = m.astype(np.int64)
    while True:
        active = m[:k, :k]
        nonzero = np.flatnonzero(active.diagonal())
        if nonzero.size:
            p = int(nonzero[0])
        else:
            nonzero = np.flatnonzero(active.any(axis=1))
            if not nonzero.size:
                signs[1] += k
                return [], det
            p = int(nonzero[0])
            q = int(np.flatnonzero(active[p])[0])
            active[p] += active[q]
            active[:, p] += active[:, q]
        k -= 1
        active[[p, k]] = active[[k, p]]
        active[:, [p, k]] = active[:, [k, p]]
        a = int(active[k, k])
        signs[0 if (a > 0) == (det > 0) else 2] += 1
        rest, prow = active[:k, :k], active[k, :k]
        rest *= a
        outer = np.multiply.outer(prow, prow)
        rest -= outer
        np.divmod(rest, det, out=(rest, outer))
        if outer.any():
            raise SelfCheckError(_INEXACT)
        det = a
        if k < NARROW_FROM or not _fits_narrow(rest):
            return rest.tolist(), det


def _eliminate_rows(m, det, signs):
    """Pivot on rows of Python ints to the end, adding each pivot's sign."""
    # Each step removes the pivot row and column from m, then rebuilds row
    # i from column i on and mirrors columns < i from the rows already done.
    while m:
        p = next((i for i, row in enumerate(m) if row[i]), None)
        if p is None:
            pair = next(
                ((i, j) for i, row in enumerate(m) for j in range(i + 1, len(row)) if row[j]),
                None,
            )
            if pair is None:
                signs[1] += len(m)
                break
            p, q = pair
            m[p] = [x + y for x, y in zip(m[p], m[q])]
            for row in m:
                row[p] += row[q]
        a = m[p][p]
        signs[0 if (a > 0) == (det > 0) else 2] += 1
        prow = m.pop(p)
        del prow[p]
        for i, row in enumerate(m):
            f = row.pop(p)
            m[i] = [m[j][i] for j in range(i)] + _exact_quotients(
                [a * x - f * y for x, y in zip(row[i:], prow[i:])], det
            )
        det = a


def _certified(m):
    """The inertia of m from a checked congruence X^T m X, or None.

    Floats only propose X; the int64 product decides, and a proposal that
    is wrong, fails or has no budget to be checked in yields None.
    """
    s = (62 - (len(m) ** 3 * _largest(m)).bit_length()) // 2    # n^3 B 2^(2s) < 2^62
    if s < 1:
        return None
    a = m.astype(np.int64, copy=False)
    try:
        x = np.rint(np.ldexp(np.linalg.eigh(a.astype(np.float64))[1], s))
    except np.linalg.LinAlgError:
        return None
    if not np.abs(x).max() <= 1 << s:              # a NaN fails this too
        return None
    x = x.astype(np.int64)
    c = x.T @ (a @ x)
    d = c.diagonal()
    if not np.all(2 * np.abs(d) > np.abs(c).sum(axis=1)):
        return None
    return Inertia(int(np.count_nonzero(d > 0)), 0, int(np.count_nonzero(d < 0)))


def inertia(matrix):
    """Exact (n_plus, n_zero, n_minus) of a symmetric integer matrix.

    Integer and bool arrays are read as they are, anything else entry by
    entry as Python ints: a float (integral or not), string or Fraction
    raises ValueError, as does a matrix that is not square or symmetric.
    """
    m = _as_int_matrix(matrix)
    signs = [0, 0, 0]
    rows, det = _eliminate_narrow(m, 1, signs)
    if len(rows) >= NARROW_FROM:
        certified = _certified(m)
        if certified is not None:
            return certified
    _eliminate_rows(rows, det, signs)
    return Inertia(*signs)


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds on the addressing length of one distance matrix."""

    n: int
    r: int
    inertia: Inertia
    eigen_bound_r2: int     # max(n+, n-), the r = 2 eigenvalue bound
    eigen_bound_r: int      # max(n+, ceil(n- / (r-1)))
    log2_bound: int         # ceil(log2 n); binding for r = 2 only
    best: int


def lower_bound(dist, r=2):
    """Best known lower bound on N_r for the graph behind this distance matrix."""
    message = f"alphabet size must be >= 2, got {r}"
    try:
        r = operator.index(r)
    except TypeError:
        raise ValueError(message) from None
    if r < 2:
        raise ValueError(message)
    ine = inertia(dist)
    n = ine.dimension
    eigen_r2 = max(ine.n_plus, ine.n_minus)
    eigen_r = max(ine.n_plus, -(-ine.n_minus // (r - 1)))
    log2_bound = max(n - 1, 0).bit_length()          # the least b with 2^b >= n
    best = max(eigen_r, log2_bound) if r == 2 else eigen_r
    return BoundReport(n, r, ine, eigen_r2, eigen_r, log2_bound, best)


def is_eigensharp(dist, adr):
    """True when a valid r=2 addressing meets the eigenvalue bound exactly."""
    if adr.r != 2:
        raise ValueError("eigensharpness is defined for the 2-symbol alphabet")
    require_valid(dist, adr, "eigensharpness input")
    ine = inertia(dist)
    return adr.length == max(ine.n_plus, ine.n_minus)
