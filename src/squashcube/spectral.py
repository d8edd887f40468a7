"""Exact inertia of symmetric integer matrices and the addressing lower bounds.

Inertia is computed by symmetric congruence elimination in fraction-free
integer arithmetic (Bareiss's integer-preserving elimination): 1x1 pivots on
the first nonzero diagonal entry, and a 2x2 block pivot [0 d; d 0]
(contributing one positive and one negative eigenvalue) on the first nonzero
off-diagonal pair when the remaining diagonal is all zero.  Congruence
preserves inertia, so counting pivot signs is exact -- no floating point, no
eigenvalues.  Distance matrices have zero diagonal, so the 2x2 pivot is the
first move, not a fallback.

With K the set of eliminated indices, the active matrix holds the bordered
minors M_ij = det A[K+i, K+j] and D = det A[K, K] (signed; 1 while K is
empty).  M / D is the Schur complement of A[K, K], so a 1x1 pivot a = M_pp is
positive exactly when sign(a) == sign(D).  The updates

    1x1 pivot a:        M_ij <- (a M_ij - M_ip M_pj) / D,                D <- a
    2x2 pivot d = M_pq: M_ij <- (-d^2 M_ij + d (M_ip M_qj + M_iq M_pj)) / D^2,
                        D <- -d^2 / D

keep every entry a minor of A, so by Sylvester's identity each division is
exact; a nonzero remainder is reported as a self-check failure.
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

    # Each step removes the pivot rows and columns from m, then rebuilds row
    # i from column i on and mirrors columns < i from the rows already done.
    while m:
        p = next((i for i, row in enumerate(m) if row[i]), None)
        if p is not None:
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
            continue

        block = next(
            ((i, j) for i, row in enumerate(m) for j in range(i + 1, len(row)) if row[j]),
            None,
        )
        if block is None:
            n_zero += len(m)
            break
        p, q = block
        d = m[p][q]
        n_plus += 1
        n_minus += 1
        qrow = m.pop(q)
        prow = m.pop(p)
        for row in (prow, qrow):
            del row[q]
            del row[p]
        det_sq = det * det
        for i, row in enumerate(m):
            fq = row.pop(q)
            fp = row.pop(p)
            m[i] = [m[j][i] for j in range(i)] + _exact_quotients(
                [
                    d * (fp * yq + fq * yp - d * x)
                    for x, yp, yq in zip(row[i:], prow[i:], qrow[i:])
                ],
                det_sq,
            )
        [det] = _exact_quotients([-d * d], det)

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
