"""Exact inertia of symmetric integer matrices and the addressing lower bounds.

Inertia is computed by symmetric congruence elimination in fraction-free
integer arithmetic (Bareiss's integer-preserving elimination), with one
pivot rule: a 1x1 pivot on the first nonzero diagonal entry.  When the
remaining diagonal is all zero, the first nonzero off-diagonal entry
d = M_pq is first moved onto the diagonal by the congruence "row p += row q,
then column p += column q", which makes M_pp = 2d.  Congruence preserves
inertia (Sylvester's law), so counting pivot signs is exact -- no floating
point, no eigenvalues.  Distance matrices have zero diagonal, so that
congruence is the first move, not a fallback.

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
"""

from dataclasses import dataclass

from .addressing import require_valid
from .errors import SelfCheckError


@dataclass(frozen=True)
class Inertia:
    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def dimension(self):
        return self.n_plus + self.n_zero + self.n_minus


def _as_int_rows(matrix):
    rows = [[int(x) for x in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    return rows


def _exact_quotients(numerators, divisor):
    out = []
    for x in numerators:
        q, rem = divmod(x, divisor)
        if rem:
            raise SelfCheckError(
                "inexact division in fraction-free elimination; "
                "please report this matrix"
            )
        out.append(q)
    return out


def inertia(matrix):
    """Exact (n_plus, n_zero, n_minus) of a symmetric integer matrix."""
    m = _as_int_rows(matrix)
    n_plus = n_zero = n_minus = 0
    det = 1

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
                n_zero += len(m)
                break
            p, q = pair
            m[p] = [x + y for x, y in zip(m[p], m[q])]
            for row in m:
                row[p] += row[q]
        a = m[p][p]
        if (a > 0) == (det > 0):
            n_plus += 1
        else:
            n_minus += 1
        prow = m.pop(p)
        del prow[p]
        for i, row in enumerate(m):
            f = row.pop(p)
            m[i] = [m[j][i] for j in range(i)] + _exact_quotients(
                [a * x - f * y for x, y in zip(row[i:], prow[i:])], det
            )
        det = a

    return Inertia(n_plus, n_zero, n_minus)


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
    if r < 2:
        raise ValueError(f"alphabet size must be >= 2, got {r}")
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
