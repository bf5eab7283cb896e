"""Exact dense linear algebra over arbitrary-precision integers.

One fraction-free (Bareiss) elimination kernel does all the work: on
[M | B], ``bareiss`` returns det(M) and det(M) * M^-1 B, every intermediate
value an integer. It is public so callers that need both the determinant
and the scaled solution (the game's outcome matrix) take them from one
elimination. Determinants, exact solves, adjugates (B = I) and inverses are
thin views of it; only the adjugate of a singular matrix falls back to minor
expansion. Rationals are stdlib ``fractions.Fraction`` values, which are
always reduced with a positive denominator. Matrices are plain lists of
lists; everything here is a pure function on immutable-by-convention inputs,
safe to evaluate concurrently.
"""
from __future__ import annotations

from fractions import Fraction

from .graphs import Graph, laplacian


def _require_square(m) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    return n


def bareiss(m, rhs=None):
    """(det(m), X) with X = det(m) * m^-1 @ rhs as an integer matrix.

    Forward Bareiss elimination runs on [m | rhs], swapping rows for zero
    pivots, so each pivot is a leading minor and every division is exact.
    Back substitution scales by det(m) to stay integral. X is None when
    ``rhs`` is None or m is singular. ``rhs`` is a list of n rows.
    """
    n = _require_square(m)
    if rhs is None:
        a = [list(row) for row in m]
    else:
        a = [list(row) + list(extra) for row, extra in zip(m, rhs)]
    width = len(a[0]) if n else 0
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0, None
        pivot = a[k][k]
        top = a[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, width):
                row[j] = (pivot * row[j] - lead * top[j]) // prev
            row[k] = 0
        prev = pivot
    det = sign * prev
    if rhs is None:
        return det, None
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        out = []
        for c in range(n, width):
            acc = det * row[c] - sum(row[j] * x[j][c - n] for j in range(i + 1, n))
            q, r = divmod(acc, row[i])
            if r:
                raise ArithmeticError("Bareiss back substitution failed exact division")
            out.append(q)
        x[i] = out
    return det, x


def determinant_int(m) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Row swaps stand in for zero pivots; a fully zero pivot column means the
    determinant is zero. The 0 x 0 determinant is 1.
    """
    return bareiss(m)[0]


def _minor(m, i: int, j: int):
    return [
        [x for c, x in enumerate(row) if c != j]
        for r, row in enumerate(m)
        if r != i
    ]


def identity(n: int):
    """The n x n integer identity matrix."""
    return [[int(r == c) for c in range(n)] for r in range(n)]


def adjugate_int(m):
    """Transpose of the cofactor matrix; satisfies m @ adj(m) == det(m) * I.

    A nonsingular matrix takes one elimination of [m | I]. A singular one
    has no inverse to scale, so its entries come from the n^2 signed minors.
    """
    n = _require_square(m)
    _, adj = bareiss(m, identity(n))
    if adj is not None:
        return adj
    return [
        [(-1) ** (r + c) * determinant_int(_minor(m, c, r)) for c in range(n)]
        for r in range(n)
    ]


def solve_rational(m, b) -> list:
    """Exact solution of m @ x == b for an integer matrix and integer vector.

    One fraction-free elimination yields det(m) * x in integers; each entry
    becomes a reduced Fraction over det(m). Raises on singular input.
    """
    n = _require_square(m)
    if len(b) != n:
        raise ValueError("right-hand side length does not match matrix size")
    for v in b:
        if not isinstance(v, int):
            raise TypeError("right-hand side entries must be integers")
    det, x = bareiss(m, [[v] for v in b])
    if x is None:
        raise ValueError("matrix is singular")
    return [Fraction(row[0], det) for row in x]


def principal_submatrix(m, keep):
    """Rows and columns restricted to the 1-indexed, ascending ``keep`` list."""
    n = _require_square(m)
    prev = 0
    for idx in keep:
        if not 1 <= idx <= n:
            raise ValueError(f"index {idx} out of range 1..{n}")
        if idx <= prev:
            raise ValueError("keep indices must be distinct and ascending")
        prev = idx
    return [[m[i - 1][j - 1] for j in keep] for i in keep]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees: the Laplacian cofactor with row/column 1
    deleted. Zero for disconnected graphs; one for the single vertex.
    """
    m = laplacian(g)
    return determinant_int(principal_submatrix(m, list(range(2, g.n + 1))))


def is_positive_definite(m) -> bool:
    """Exact test via leading principal minors, all required positive."""
    n = _require_square(m)
    lead = []
    for k in range(1, n + 1):
        lead = [row[:k] for row in m[:k]]
        if determinant_int(lead) <= 0:
            return False
    return True


def inverse_rational(m) -> list:
    """Exact inverse as a matrix of Fractions: adjugate over determinant."""
    det, adj = bareiss(m, identity(_require_square(m)))
    if adj is None:
        raise ValueError("matrix is singular")
    return [[Fraction(v, det) for v in row] for row in adj]


def plus_diag(m, d):
    """Copy of ``m`` with the vector ``d`` added along the diagonal."""
    n = _require_square(m)
    if len(d) != n:
        raise ValueError("diagonal length does not match matrix size")
    out = [list(row) for row in m]
    for i, v in enumerate(d):
        out[i][i] += v
    return out
