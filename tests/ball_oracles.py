"""Oracles for `Metric.integrate_ball`, independent of its Gaussian-moment
rule:

* `float_integrate_ball`: the polynomial composed with a float Cholesky frame
  (`orthonormal_frame`, `compose_linear`) and integrated monomial by monomial
  with closed-form sphere moments (`integrate_polynomial_over_ball`).  Its
  sums cancel in floats, so it is trusted on ranks <= 3 only;
* `fischer_product`: prod_beta (beta . d) applied to the root product p,
  which is the Gaussian second moment of p because p is harmonic; it equals
  |W| p(rho) exactly (Macdonald, Invent. Math. 56, 1980);
* `radial_constant`: the factor that turns a Gaussian moment of degree 2N
  into the ball integral.
"""

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

import rootsystem_oracle
from realroots.polynomials import Polynomial


def orthonormal_frame(metric) -> np.ndarray:
    """Matrix B whose columns express weight coordinates in terms of an
    orthonormal frame: lam = B z with z Euclidean."""
    g = np.array([[float(x) for x in row] for row in rootsystem_oracle.metric_gram(metric)])
    chol = np.linalg.cholesky(g)
    return np.linalg.inv(chol.T)


def compose_linear(poly: Polynomial, matrix: Sequence[Sequence]) -> Polynomial:
    """Substitute x_i = sum_j matrix[i][j] * y_j."""
    m = len(matrix[0])
    forms = [Polynomial.linear_form(matrix[i]) for i in range(poly.nvars)]
    powers = [[Polynomial.constant(m, Fraction(1))] for _ in range(poly.nvars)]
    out = Polynomial(m)
    for exps, c in poly.coeffs.items():
        term = Polynomial.constant(m, c)
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * forms[i])
            term = term * powers[i][e]
        out = out + term
    return out


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


def float_integrate_ball(metric, poly: Polynomial, radius: float = 1.0) -> float:
    """`Metric.integrate_ball` through the float frame and sphere moments."""
    frame = orthonormal_frame(metric)
    composed = compose_linear(poly, tuple(tuple(row) for row in frame))
    return integrate_polynomial_over_ball(composed, radius)


def fischer_product(metric) -> Fraction:
    """p(d) p for the root product p of the metric: each positive root beta
    acts as the directional derivative sum_i beta_i d_i in weight
    coordinates (the dual of <beta, x> under the metric)."""
    p = metric.root_product_poly()
    q = p
    for beta in metric.rs.positive_roots:
        q = sum((q.partial(i) * b for i, b in enumerate(beta) if b), Polynomial(p.nvars))
    return q.coeffs.get((0,) * p.nvars, Fraction(0))


def radial_constant(rank: int, half_degree: int, radius: float = 1.0) -> float:
    """Ball integral over Gaussian moment for a homogeneous part of degree
    2N = 2 * half_degree in `rank` dimensions: the ratio for |z|^(2N), whose
    ball integral is |S^(k-1)| r^(2N+k) / (2N+k) with
    |S^(k-1)| = 2 pi^(k/2) / Gamma(k/2) and whose Gaussian moment is
    2^N Gamma(N + k/2) / Gamma(k/2)."""
    n, k = half_degree, rank
    return 2 * math.pi ** (k / 2) * radius ** (2 * n + k) / (
        (2 * n + k) * 2**n * math.gamma(n + k / 2)
    )
