"""Small exact linear algebra helpers over the rationals.

Vectors are tuples of :class:`~fractions.Fraction`, matrices are tuples of
such tuples (row major).  Everything here is exact; callers convert to float
at the boundary where irrational constants (pi, square roots) enter.

Rank, determinant, inverse, solve and null space share one fraction-free
Gauss-Jordan elimination on Python ints: `integer_rows` clears the
denominators once, and Fractions appear again only in the results.

Where pi enters through Gamma at half-integers, `_gamma_sq` keeps it exact as
a rational times a power of pi, held as (a, b, e) for a / b pi^e;
`_quotient` multiplies such values in ints, and `_sqrt_pi_power` reads the
square root of one as a double with its binary exponent split off, so that
no intermediate leaves the double range.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

__all__ = [
    "as_fraction",
    "as_vec",
    "mat_det",
    "mat_inverse",
    "solve",
    "rank",
    "nullspace_vector",
    "integer_rows",
]


def as_fraction(x) -> Fraction:
    """Convert an int/Fraction/str/float to an exact Fraction.  A float
    converts to its exact binary expansion; callers wanting decimal semantics
    pass strings or Fractions.  ValueError, naming the value, for an
    infinite or NaN float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{x!r} is not a finite number")
    return Fraction(x)


def as_vec(v: Iterable) -> Vec:
    return tuple(as_fraction(x) for x in v)


def integer_rows(m: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """The rows of m times the lcm s of all their denominators, and s.

    A common positive scale changes no rank, solution, null space or hull,
    and it multiplies an n x n determinant by s^n.  Ints and Fractions pass
    through as they are; anything else is read as `as_fraction` reads it."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in r] for r in m]
    if all(type(x) is int for r in rows for x in r):
        return rows, 1
    s = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (s // x.denominator) for x in r] for r in rows], s


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows in
    place, with pivots in the first `ncols` columns: pivot p in column c turns
    every other row into (p row - row[c] pivot_row) / prev, prev the previous
    pivot, a division that is exact because every entry stays a minor of the
    input.  Returns (pivot columns, D, sign): pivot row r holds the last pivot
    D in column pivots[r] and 0 in the other pivot columns; sign is the
    parity of the row swaps."""
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
    return pivots, prev, sign


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows (0 for no rows); ValueError if they
    are ragged."""
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError(f"ragged matrix: rows of lengths {sorted(widths)}")
    return widths.pop() if widths else 0


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    rows, _ = integer_rows(m)
    return len(_eliminate(rows, _width(rows))[0])


def _require_square(m: Sequence[Sequence[Fraction]]) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"matrix is not square: {n} rows of lengths {sorted({len(r) for r in m})}")
    return n


def mat_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    n = _require_square(m)
    rows, s = integer_rows(m)
    pivots, d, sign = _eliminate(rows, n)
    return Fraction(sign * d, s**n) if len(pivots) == n else Fraction(0)


def mat_inverse(m: Sequence[Sequence[Fraction]]) -> Mat:
    n = _require_square(m)
    rows, s = integer_rows(m)
    rows = [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    pivots, d, _ = _eliminate(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    # (s m) rows[:, n:] = d I, so the inverse of m is s rows[:, n:] / d
    return tuple(tuple(Fraction(s * x, d) for x in row[n:]) for row in rows)


def solve(m: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vec:
    """Solve m x = b exactly.  m may be rectangular; the system must be
    consistent and have a unique solution on its column space."""
    ncols = len(m[0])
    rows, _ = integer_rows([list(r) + [bv] for r, bv in zip(m, b, strict=True)])
    pivots, d, _ = _eliminate(rows, ncols)
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = Fraction(rows[r][ncols], d)
    # consistency check on the zero rows
    for i in range(len(pivots), len(rows)):
        if rows[i][ncols] != 0:
            raise ValueError("inconsistent linear system")
    if any(sum(a * v for a, v in zip(row, x, strict=True)) != bv for row, bv in zip(m, b)):
        raise ValueError("linear system has no exact solution")
    return tuple(x)


def _null_vector(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """(v, free): an integer null vector of integer rows of length `ncols`
    (there may be none), eliminated in place, and its first free column.  v
    holds the last pivot D in that column and -row[free] in the pivot column
    of each pivot row."""
    pivots, d, _ = _eliminate(rows, ncols)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        raise ValueError("matrix has trivial null space")
    v = [0] * ncols
    v[free] = d
    for r, c in enumerate(pivots):
        v[c] = -rows[r][free]
    return v, free


def nullspace_vector(m: Sequence[Sequence[Fraction]]) -> Vec:
    """One nonzero rational vector in the null space of m (must exist); its
    entry in the first free column is 1."""
    rows, _ = integer_rows(m)
    v, free = _null_vector(rows, _width(rows))
    return tuple(Fraction(x, v[free]) for x in v)


def _gamma_sq(m: int) -> tuple[int, int, int]:
    """Gamma(m / 2)^2 for an integer m >= 1 as (a, b, e), a / b pi^e:
    ((j - 1)!)^2 at m = 2j, and ((2j)! / (4^j j!))^2 pi at m = 2j + 1."""
    j, odd = divmod(m, 2)
    if not odd:
        return math.factorial(j - 1) ** 2, 1, 0
    return math.factorial(2 * j) ** 2, (4**j * math.factorial(j)) ** 2, 1


def _quotient(up: Iterable, down: Iterable) -> tuple[int, int, int]:
    """prod(up) / prod(down) as (a, b, e), a / b pi^e with a and b not
    reduced, for factors that are ints, Fractions or such triples."""
    num = den = 1
    e = 0
    for x in up:
        if type(x) is tuple:
            num, den, e = num * x[0], den * x[1], e + x[2]
        else:
            num, den = num * x.numerator, den * x.denominator
    for x in down:
        if type(x) is tuple:
            num, den, e = num * x[1], den * x[0], e - x[2]
        else:
            num, den = num * x.denominator, den * x.numerator
    return num, den, e


def _sqrt_pi_power(a: int, b: int, e: int = 0) -> float:
    """sqrt(a / b pi^e) for ints a >= 0 and b > 0 and an int e, to a few ulps
    however far a / b lies outside the double range: with a / b = m 4^k,
    m in [1/2, 8), and pi^e = (pi / 4)^e 4^e, the value is
    sqrt(m (pi / 4)^e) 2^(k + e), the power of two restored by `math.ldexp`.
    0.0 for a = 0; OverflowError above the largest double, ArithmeticError
    below the smallest normal one."""
    if not a:
        return 0.0
    k = (a.bit_length() - b.bit_length()) // 2
    m = a / (b << 2 * k) if k >= 0 else (a << -2 * k) / b  # int division rounds once
    value = math.ldexp(math.sqrt(m * (math.pi / 4) ** e), k + e)
    if value < sys.float_info.min:
        log2 = k + e + (math.log2(m) + e * math.log2(math.pi / 4)) / 2
        raise ArithmeticError(f"sqrt(a / b pi^{e}), about 2^{log2:.0f}, underflows a double")
    return value
