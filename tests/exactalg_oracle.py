"""The Fraction Gauss-Jordan elimination that `realroots.exactalg` used
before it eliminated fraction-free on integers: a test oracle, kept verbatim.

Every pivot row is divided by its pivot, so each step divides in `Fraction`
arithmetic; `mat_det` runs its own forward elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from realroots.exactalg import Mat, Vec


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, v) for row in m)


def _eliminate(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Row reduce in place; returns (reduced rows, pivot column indices)."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    if not m:
        return 0
    rows = [list(r) for r in m]
    _, pivots = _eliminate(rows, len(m[0]))
    return len(pivots)


def mat_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(m)
    rows = [list(r) for r in m]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def mat_inverse(m: Sequence[Sequence[Fraction]]) -> Mat:
    n = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    rows, pivots = _eliminate(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def solve(m: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vec:
    """Solve m x = b exactly.  m may be rectangular; the system must be
    consistent and have a unique solution on its column space."""
    ncols = len(m[0])
    rows = [list(r) + [bv] for r, bv in zip(m, b, strict=True)]
    rows, pivots = _eliminate(rows, ncols)
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    # consistency check on the zero rows
    for i in range(len(pivots), len(rows)):
        if rows[i][ncols] != 0:
            raise ValueError("inconsistent linear system")
    if mat_vec(m, x) != tuple(b):
        raise ValueError("linear system has no exact solution")
    return tuple(x)


def nullspace_vector(m: Sequence[Sequence[Fraction]]) -> Vec:
    """One nonzero rational vector in the null space of m (must exist)."""
    ncols = len(m[0])
    rows = [list(r) for r in m]
    rows, pivots = _eliminate(rows, ncols)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        raise ValueError("matrix has trivial null space")
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for r, c in enumerate(pivots):
        x[c] = -rows[r][free]
    return tuple(x)
