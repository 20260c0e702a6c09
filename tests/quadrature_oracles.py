"""Quadrature oracles for the tests.

Two are independent of the integer evaluation in `realroots.polynomials`:

* `expanded_gm_integral`: the Grundmann-Moller rule with Fraction nodes,
  applied to the fully expanded polynomial (exact);
* `collapsed_gauss_integral`: Gauss-Legendre quadrature in collapsed
  (Duffy) coordinates, in numpy floats, for a product of linear forms.

The third, `vertex_cone_integral`, is the whole-body rule that
`integrate_polynomial_over_polytope` used before it integrated over the
facets: the package's integer Grundmann-Moller rule on every d-simplex of
the body's triangulation (exact, fast enough for rank-4 bodies).

`monomial_forms` reads a `Polynomial` as the `FormProducts` integrand of
its monomials, products of powers of the coordinate forms.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from realroots import exactalg as xa
from realroots.polynomials import FormProducts, Polynomial, integrate_over_simplex


def monomial_forms(poly: Polynomial) -> FormProducts:
    """Each monomial of `poly` as a product of powers of coordinate forms."""
    n = poly.nvars
    coords = [[int(i == j) for j in range(n)] for i in range(n)]
    return FormProducts(n, coords, ((c, e) for e, c in poly.coeffs.items()))


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def gm_nodes(dim: int, s: int) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """(weight, barycentric coordinates) of the Grundmann-Moller rule of
    degree 2s+1 on the standard `dim`-simplex, weights summing to 1/dim!."""
    nodes = []
    for i in range(s + 1):
        denom = dim + 1 + 2 * s - 2 * i
        w = (
            Fraction((-1) ** i)
            * Fraction(denom ** (2 * s + 1), 4**s)
            / (Fraction(math.factorial(i)) * math.factorial(dim + 1 + 2 * s - i))
        )
        for beta in _compositions(s - i, dim + 1):
            nodes.append((w, tuple(Fraction(2 * b + 1, denom) for b in beta)))
    return nodes


def _simplices(polytope):
    for simplex in polytope.triangulation:
        verts = [polytope.vertices[i] for i in simplex]
        det = xa.mat_det([xa.vec_sub(v, verts[0]) for v in verts[1:]])
        if det != 0:
            yield verts, abs(det)


def vertex_cone_integral(polytope, integrand) -> Fraction:
    """Integral of a `Polynomial` or `FormProducts` integrand over the
    d-simplices of the polytope's triangulation (cones from its first
    vertex), each by the integer Grundmann-Moller rule."""
    if isinstance(integrand, Polynomial):
        integrand = monomial_forms(integrand)
    s = polytope.denominator
    unit = math.factorial(polytope.dim) * s**polytope.dim
    total = Fraction(0)
    for simplex in polytope.triangulation:
        rows = [polytope.coords[i] for i in simplex]
        det = abs(xa.mat_det([xa.vec_sub(v, rows[0]) for v in rows[1:]]))
        if det:
            total += integrate_over_simplex(integrand, rows, det / unit, s)
    return total


def expanded_gm_integral(polytope, poly: Polynomial) -> Fraction:
    """Integral of `poly` over `polytope`, evaluating the expanded polynomial
    at every Fraction node of the Grundmann-Moller rule."""
    dim = polytope.dim
    nodes = gm_nodes(dim, poly.total_degree // 2)
    total = Fraction(0)
    for verts, det in _simplices(polytope):
        acc = Fraction(0)
        for w, bary in nodes:
            point = [sum(b * v[c] for b, v in zip(bary, verts)) for c in range(dim)]
            acc += w * poly(point)
        total += acc * det  # det = dim! * volume
    return total


def collapsed_gauss_integral(polytope, forms, constant: float = 1.0, points: int = 14) -> float:
    """Float integral of constant * prod_j <forms[j], x> over `polytope`.

    Each simplex is mapped from the cube [0,1]^d by the collapsed
    coordinates lambda_1 = u_1, lambda_k = u_k prod_{i<k} (1 - u_i), with
    Jacobian prod_k (1 - u_k)^(d-k); `points` Gauss-Legendre nodes per axis
    are exact up to degree 2 * points - 1 in each u_k."""
    dim = polytope.dim
    g, gw = np.polynomial.legendre.leggauss(points)
    g, gw = 0.5 * (g + 1.0), 0.5 * gw
    u = np.array(list(product(g, repeat=dim)))
    weight = np.prod(np.array(list(product(gw, repeat=dim))), axis=1)
    bary = np.empty((len(u), dim + 1))
    rest = np.ones(len(u))
    for k in range(dim):
        bary[:, k] = u[:, k] * rest
        weight *= (1.0 - u[:, k]) ** (dim - 1 - k)
        rest = rest * (1.0 - u[:, k])
    bary[:, dim] = rest
    f = np.array([[float(c) for c in form] for form in forms])
    total = 0.0
    for verts, det in _simplices(polytope):
        v = np.array([[float(c) for c in vert] for vert in verts])
        x = bary @ v
        total += float(det) * float(weight @ np.prod(x @ f.T, axis=1))
    return constant * total
