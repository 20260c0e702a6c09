"""Sparse multivariate polynomials and exact integration rules.

The polynomials here carry Fraction coefficients whenever their inputs are
rational, which keeps simplex integrals exact.  Two integration backends are
provided:

* a Grundmann-Moller rule over simplices, exact for any requested total
  degree and exact in rational arithmetic when nodes and coefficients are
  rational, and
* closed-form monomial moments over Euclidean balls and spheres via Gamma
  functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, Sequence

from .exactalg import as_fraction

__all__ = [
    "Polynomial",
    "grundmann_moller_rule",
    "integrate_over_simplex",
    "sphere_monomial_integral",
    "integrate_polynomial_over_ball",
]


class Polynomial:
    """Sparse polynomial in ``nvars`` variables.

    Coefficients may be Fractions (exact paths) or floats; the arithmetic is
    agnostic.  Exponent keys are tuples of non-negative ints.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[tuple[int, ...], object] | None = None):
        self.nvars = int(nvars)
        clean: dict[tuple[int, ...], object] = {}
        for exps, c in (coeffs or {}).items():
            if len(exps) != self.nvars:
                raise ValueError("exponent tuple has wrong length")
            if c != 0:
                clean[tuple(int(e) for e in exps)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def linear_form(cls, coeffs: Sequence) -> "Polynomial":
        n = len(coeffs)
        data = {}
        for i, c in enumerate(coeffs):
            if c != 0:
                e = [0] * n
                e[i] = 1
                data[tuple(e)] = c
        return cls(n, data)

    @classmethod
    def quadratic_form(cls, gram: Sequence[Sequence]) -> "Polynomial":
        """x^T gram x as a polynomial."""
        n = len(gram)
        p = cls(n)
        for i in range(n):
            for j in range(n):
                if gram[i][j] == 0:
                    continue
                e = [0] * n
                e[i] += 1
                e[j] += 1
                p = p + cls(n, {tuple(e): gram[i][j]})
        return p

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        data = dict(self.coeffs)
        for e, c in other.coeffs.items():
            data[e] = data.get(e, 0) + c
        return Polynomial(self.nvars, data)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial(self.nvars, {e: c * other for e, c in self.coeffs.items()})
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        data: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                data[e] = data.get(e, 0) + c1 * c2
        return Polynomial(self.nvars, data)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.nvars, Fraction(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- queries ------------------------------------------------------

    def __call__(self, point: Sequence):
        total = 0
        for exps, c in self.coeffs.items():
            term = c
            for x, e in zip(point, exps):
                if e:
                    term = term * x**e
            total = total + term
        return total

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def compose_linear(self, matrix: Sequence[Sequence]) -> "Polynomial":
        """Substitute x_i = sum_j matrix[i][j] * y_j."""
        n = self.nvars
        forms = [Polynomial.linear_form(matrix[i]) for i in range(n)]
        powers: list[list[Polynomial]] = [[Polynomial.constant(len(matrix[0]), Fraction(1))] for _ in range(n)]
        out = Polynomial(len(matrix[0]))
        for exps, c in self.coeffs.items():
            term = Polynomial.constant(len(matrix[0]), c)
            for i, e in enumerate(exps):
                while len(powers[i]) <= e:
                    powers[i].append(powers[i][-1] * forms[i])
                term = term * powers[i][e]
            out = out + term
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({self.nvars}, {self.coeffs!r})"


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def grundmann_moller_rule(dim: int, s: int) -> tuple[tuple[Fraction, tuple[Fraction, ...]], ...]:
    """Grundmann-Moller rule of degree 2s+1 on the standard `dim`-simplex.

    Returns (weight, barycentric coordinates over dim+1 vertices) pairs with
    exact rational entries.  The rule integrates polynomials of total degree
    <= 2s+1 exactly against Lebesgue measure on the simplex of volume 1/dim!.
    """
    d = dim
    nodes: list[tuple[Fraction, tuple[Fraction, ...]]] = []
    for i in range(s + 1):
        denom = d + 1 + 2 * s - 2 * i
        w = (
            Fraction((-1) ** i)
            * Fraction(denom**(2 * s + 1), 4**s)
            / (Fraction(math.factorial(i)) * math.factorial(d + 1 + 2 * s - i))
        )
        for beta in _compositions(s - i, d + 1):
            bary = tuple(Fraction(2 * b + 1, denom) for b in beta)
            nodes.append((w, bary))
    return tuple(nodes)


def integrate_over_simplex(poly: Polynomial, vertices: Sequence[Sequence], volume) -> object:
    """Integrate `poly` over the simplex with the given vertices.

    `volume` is the (already known) Lebesgue volume of the simplex; passing it
    avoids recomputing determinants and keeps the result exact when volume and
    vertices are rational.
    """
    deg = poly.total_degree
    s = 0 if deg <= 1 else (deg - 1 + 1) // 2  # smallest s with 2s+1 >= deg
    rule = grundmann_moller_rule(len(vertices) - 1, s)
    dim = len(vertices) - 1
    total = 0
    for w, bary in rule:
        point = [
            sum(b * v[c] for b, v in zip(bary, vertices))
            for c in range(len(vertices[0]))
        ]
        total = total + w * poly(point)
    # rule is normalised for the standard simplex of volume 1/dim!
    return total * volume * math.factorial(dim)


def sphere_monomial_integral(exponents: Sequence[int]) -> float:
    """Integral of prod x_i^{a_i} over the unit sphere S^{d-1} in R^d."""
    if any(e % 2 for e in exponents):
        return 0.0
    num = 2.0
    for e in exponents:
        num *= math.gamma((e + 1) / 2)
    return num / math.gamma(sum(e + 1 for e in exponents) / 2)


def integrate_polynomial_over_ball(poly: Polynomial, radius: float) -> float:
    """Integral of `poly` over the Euclidean ball of the given radius,
    centred at the origin, in `poly.nvars` dimensions."""
    d = poly.nvars
    total = 0.0
    for exps, c in poly.coeffs.items():
        s = sphere_monomial_integral(exps)
        if s == 0.0:
            continue
        p = sum(exps)
        total += float(c) * s * radius ** (d + p) / (d + p)
    return total
