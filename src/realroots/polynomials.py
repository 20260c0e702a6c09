"""Sparse multivariate polynomials and exact simplex integration.

The polynomials here carry Fraction coefficients whenever their inputs are
rational.  Simplex integrals take a `FormProducts` integrand, a sum of
products of powers of linear forms with denominators cleared; a
`Polynomial` is read as one, monomial by monomial.  They are integrated by
a Grundmann-Moller rule over simplices, exact for any requested total degree,
which evaluates the forms at its nodes in Python ints and keeps one rational
per level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactalg import as_fraction, integer_rows

__all__ = [
    "Polynomial",
    "FormProducts",
    "grundmann_moller_rule",
    "integrate_over_simplex",
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

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i."""
        data = {}
        for exps, c in self.coeffs.items():
            if exps[i]:
                data[exps[:i] + (exps[i] - 1,) + exps[i + 1:]] = c * exps[i]
        return Polynomial(self.nvars, data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({self.nvars}, {self.coeffs!r})"


class FormProducts:
    """Sum of products of powers of linear forms on ``nvars`` variables,
    sum_t c_t prod_j l_j(x)^(m_tj), with rational c_t and l_j.

    Denominators are cleared on construction: `forms` holds integer
    coefficient tuples and each term is (a_t, (m_t1, m_t2, ...)) with an
    integer a_t, so the value is sum_t a_t prod_j l_j(x)^(m_tj) / denominator.
    A product of linear forms, such as a squared root product, is one term
    and is never expanded.
    """

    __slots__ = ("nvars", "forms", "terms", "denominator")

    def __init__(self, nvars: int, forms: Sequence[Sequence], terms: Iterable[tuple[object, Sequence[int]]]):
        self.nvars = int(nvars)
        cleared = [integer_rows([f]) for f in forms]
        self.forms = tuple(tuple(f) for (f,), _ in cleared)
        if any(len(f) != self.nvars for f in self.forms):
            raise ValueError("linear form has wrong length")
        scales = [s for _, s in cleared]
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for c, exps in terms:
            exps = tuple(int(m) for m in exps)
            if len(exps) != len(scales) or any(m < 0 for m in exps):
                raise ValueError("exponents must be non-negative, one per form")
            c = as_fraction(c) / math.prod(s**m for s, m in zip(scales, exps))
            coeffs[exps] = coeffs.get(exps, 0) + c
        coeffs = {e: c for e, c in coeffs.items() if c != 0}
        (nums,), self.denominator = integer_rows([coeffs.values()])
        self.terms = tuple(zip(nums, coeffs))

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "FormProducts":
        """Read each monomial as a product of powers of coordinate forms."""
        n = poly.nvars
        coords = [[int(i == j) for j in range(n)] for i in range(n)]
        return cls(n, coords, ((c, e) for e, c in poly.coeffs.items()))

    @property
    def total_degree(self) -> int:
        return max((sum(e) for _, e in self.terms), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FormProducts({self.nvars}, {self.forms!r}, {self.terms!r}, /{self.denominator})"


def grundmann_moller_rule(dim: int, s: int) -> tuple[tuple[Fraction, int, int], ...]:
    """Grundmann-Moller rule of degree 2s+1 on the standard `dim`-simplex.

    Returns one (weight, q, r) triple per level.  The level's nodes are the
    points with barycentric coordinates (2 beta_k + 1) / q over the dim+1
    vertices, for every beta in N^(dim+1) with |beta| = r, and all carry the
    weight.  The rule integrates polynomials of total degree <= 2s+1 exactly
    against Lebesgue measure on the simplex of volume 1/dim!.
    """
    levels = []
    for i in range(s + 1):
        q = dim + 1 + 2 * s - 2 * i
        weight = Fraction(
            (-1) ** i * q ** (2 * s + 1),
            4**s * math.factorial(i) * math.factorial(dim + 1 + 2 * s - i),
        )
        levels.append((weight, q, s - i))
    return tuple(levels)


def _level_columns(at_vertex: Sequence[int], s: int) -> list[list[int]]:
    """For r = 0..s, the list of sum_k (2 beta_k + 1) * at_vertex[k] over
    every beta in N^len(at_vertex) with |beta| = r, in one fixed order.

    Built from the last coordinate forwards; each shorter tail is shared by
    every r, so an entry costs about one add and one multiply."""
    first = sum(at_vertex)
    *steps, last = (2 * x for x in at_vertex)
    tails = [[first + r * last] for r in range(s + 1)]
    for step in reversed(steps):
        tails = [
            [u * step + v for u in range(r + 1) for v in tails[r - u]]
            for r in range(s + 1)
        ]
    return tails


def integrate_over_simplex(integrand: FormProducts, vertices: Sequence[Sequence], volume,
                           denominator: int = 1) -> Fraction:
    """Integrate `integrand` exactly over the simplex whose vertices are the
    given rational rows divided by `denominator` (integer rows over their
    common denominator go in as they are).

    `volume` is the (already known) Lebesgue volume of the simplex; passing it
    avoids recomputing determinants.  The Grundmann-Moller nodes are evaluated
    in integers: with `scale` a common denominator of the vertices and
    L[j][k] = scale * l_j(v_k), form j at a node of a level with denominator
    q is sum_k (2 beta_k + 1) L[j][k] / (q * scale).  Each level sums the
    integer numerators of its products, which leaves one rational per level.
    """
    dim = len(vertices) - 1
    deg = integrand.total_degree
    s = deg // 2  # the smallest s with 2s + 1 >= deg
    points, scale = integer_rows(vertices)
    scale *= denominator
    columns = [
        _level_columns([sum(a * x for a, x in zip(form, p)) for p in points], s)
        for form in integrand.forms
    ]
    total = Fraction(0)
    for weight, q, r in grundmann_moller_rule(dim, s):
        unit = q * scale
        level = 0
        for a, exps in integrand.terms:
            # prod_j l_j^m_j = (prod_j l_j^(m_j / g))^g with g the gcd of the m_j
            g = math.gcd(*exps)
            factors = [col[r] if m == g else [v ** (m // g) for v in col[r]]
                       for col, m in zip(columns, exps) if m]
            if not factors:
                node_sum = math.comb(r + dim, dim)
            else:
                products = map(math.prod, zip(*factors))  # one product per node
                node_sum = sum(x**g for x in products) if g > 1 else sum(products)
            # a term of lower degree is brought to the denominator (q * scale)^deg
            level += a * unit ** (deg - sum(exps)) * node_sum
        total += weight * Fraction(level, q**deg)
    # the rule is normalised for the standard simplex of volume 1/dim!
    return total * volume * math.factorial(dim) / (scale**deg * integrand.denominator)
