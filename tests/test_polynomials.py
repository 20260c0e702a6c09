"""Polynomial arithmetic and exact integration against independent moment
oracles, and the float ball-moment oracle of tests/ball_oracles.py."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ball_oracles import compose_linear, integrate_polynomial_over_ball, sphere_monomial_integral
from quadrature_oracles import monomial_forms
from realroots.polynomials import (
    FormProducts,
    Polynomial,
    grundmann_moller_rule,
    integrate_over_simplex,
)


def dirichlet_moment(exponents) -> Fraction:
    """Oracle: integral of prod x_i^{a_i} over the standard simplex
    {x_i >= 0, sum x_i <= 1}, by the Dirichlet formula."""
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(len(exponents) + sum(exponents)))


def std_simplex(d: int):
    verts = [tuple(Fraction(0) for _ in range(d))]
    for i in range(d):
        verts.append(tuple(Fraction(1 if j == i else 0) for j in range(d)))
    return verts, Fraction(1, math.factorial(d))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_simplex_monomial_moments_match_dirichlet(dim):
    verts, vol = std_simplex(dim)
    for exps in product(range(4), repeat=dim):
        if sum(exps) > 7:
            continue
        poly = monomial_forms(Polynomial(dim, {exps: Fraction(1)}))
        assert integrate_over_simplex(poly, verts, vol) == dirichlet_moment(exps)


@pytest.mark.parametrize("dim", [2, 3])
def test_mixed_degree_sum_over_shrunk_simplex_matches_dirichlet(dim):
    # sum_e c_e x^e over the standard simplex shrunk by 1/3, whose moments
    # are 3^-(dim + |e|) times the Dirichlet moments
    shrink = Fraction(1, 3)
    verts, vol = std_simplex(dim)
    verts = [tuple(shrink * c for c in v) for v in verts]
    coeffs = {}
    for k, exps in enumerate(product(range(3), repeat=dim)):
        coeffs[exps] = Fraction(k + 1, 2) * (-1) ** k
    want = sum(c * shrink ** (dim + sum(e)) * dirichlet_moment(e) for e, c in coeffs.items())
    poly = monomial_forms(Polynomial(dim, coeffs))
    assert integrate_over_simplex(poly, verts, vol * shrink**dim) == want


def test_rule_weights_sum_to_simplex_volume():
    for dim in (1, 2, 3):
        for s in range(4):
            rule = grundmann_moller_rule(dim, s)
            nodes = sum(w * math.comb(r + dim, dim) for w, _, r in rule)
            assert nodes == Fraction(1, math.factorial(dim))
            # node numerators 2 beta_k + 1 over dim+1 vertices sum to q
            for _, q, r in rule:
                assert 2 * r + dim + 1 == q


def test_integration_is_affine_covariant():
    # shifted/scaled triangle: integral picks up |det| and the substitution
    poly = Polynomial(2, {(1, 1): Fraction(1)})  # x*y
    verts = [(Fraction(1), Fraction(1)), (Fraction(3), Fraction(1)), (Fraction(1), Fraction(2))]
    vol = Fraction(1)  # base 2, height 1, triangle
    got = integrate_over_simplex(monomial_forms(poly), verts, vol)
    # oracle: int over triangle x in [1,3], y in [1, 2-(x-1)/2] of x*y
    val, _ = quad(lambda x: x * 0.5 * ((2 - (x - 1) / 2) ** 2 - 1.0), 1.0, 3.0)
    assert float(got) == pytest.approx(val, rel=1e-12)


def evaluate(products: FormProducts, point) -> Fraction:
    total = Fraction(0)
    for a, exps in products.terms:
        term = Fraction(a, products.denominator)
        for form, m in zip(products.forms, exps):
            term *= sum(c * x for c, x in zip(form, point)) ** m
        total += term
    return total


def test_form_products_clear_denominators():
    f = FormProducts(2, [(Fraction(1, 2), Fraction(1, 3)), (1, -1)], [(Fraction(3, 4), (2, 1))])
    assert f.forms == ((3, 2), (1, -1))
    assert f.terms == ((1, (2, 1)),) and f.denominator == 48  # 3/4 / 6^2
    assert f.total_degree == 3
    x, y = Fraction(2, 5), Fraction(-1, 7)
    assert evaluate(f, (x, y)) == Fraction(3, 4) * (x / 2 + y / 3) ** 2 * (x - y)


def test_unexpanded_product_integrates_like_its_expansion():
    # a mixed-degree integrand on a simplex with rational vertices: the
    # product of forms and its expanded polynomial give the same Fraction
    forms = [(1, 2, 0), (Fraction(1, 2), -1, 3), (0, 1, Fraction(-2, 3))]
    products = FormProducts(3, forms, [(Fraction(2, 7), (2, 1, 1)), (5, (0, 0, 0)), (-1, (0, 1, 0))])
    poly = Polynomial.constant(3, Fraction(5)) - Polynomial.linear_form(forms[1])
    lin = [Polynomial.linear_form([Fraction(c) for c in f]) for f in forms]
    poly = poly + lin[0] ** 2 * lin[1] * lin[2] * Fraction(2, 7)
    verts = [
        (Fraction(0), Fraction(1, 2), Fraction(0)),
        (Fraction(2, 3), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(-1, 5)),
        (Fraction(0), Fraction(-1), Fraction(3, 2)),
    ]
    vol = Fraction(7, 5)  # any value; both sides scale by it
    assert integrate_over_simplex(products, verts, vol) == integrate_over_simplex(
        monomial_forms(poly), verts, vol
    )


coeffs = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)
exponent_keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponent_keys, coeffs, max_size=4).map(
    lambda d: Polynomial(2, d)
)
points = st.tuples(coeffs, coeffs)


@settings(max_examples=80, deadline=None)
@given(polys, polys, points)
def test_ring_operations_agree_with_evaluation(p, q, pt):
    assert (p + q)(pt) == p(pt) + q(pt)
    assert (p - q)(pt) == p(pt) - q(pt)
    assert (p * q)(pt) == p(pt) * q(pt)
    assert (p ** 2)(pt) == p(pt) ** 2


@settings(max_examples=80, deadline=None)
@given(polys, polys, st.integers(0, 1))
def test_partial_derivative_rules(p, q, i):
    # linear, Leibniz, and d/dx_i x_i^a = a x_i^(a-1)
    assert (p + q).partial(i).coeffs == (p.partial(i) + q.partial(i)).coeffs
    assert (p * q).partial(i).coeffs == (p.partial(i) * q + p * q.partial(i)).coeffs
    for exps in p.coeffs:
        mono = Polynomial(2, {exps: Fraction(1)}).partial(i)
        if exps[i]:
            lower = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            assert mono.coeffs == {lower: exps[i]}
        else:
            assert mono.coeffs == {}


@settings(max_examples=50, deadline=None)
@given(polys, points)
def test_compose_linear_agrees_with_substitution(p, pt):
    m = [[Fraction(1), Fraction(2)], [Fraction(-1), Fraction(1, 2)]]
    composed = compose_linear(p, m)
    substituted = (
        m[0][0] * pt[0] + m[0][1] * pt[1],
        m[1][0] * pt[0] + m[1][1] * pt[1],
    )
    assert composed(pt) == p(substituted)


def test_sphere_monomial_integrals():
    # surface measure of S^1 and S^2
    assert sphere_monomial_integral((0, 0)) == pytest.approx(2 * math.pi)
    assert sphere_monomial_integral((0, 0, 0)) == pytest.approx(4 * math.pi)
    # odd exponents vanish by symmetry
    assert sphere_monomial_integral((1, 2)) == 0.0
    # int_{S^1} x^2 = pi
    assert sphere_monomial_integral((2, 0)) == pytest.approx(math.pi)


def test_ball_moments_match_radial_quadrature():
    # int over disc radius R of x^2 y^2: radial oracle via 1-d quadrature
    poly = Polynomial(2, {(2, 2): Fraction(1)})
    for radius in (1.0, 1.7):
        got = integrate_polynomial_over_ball(poly, radius)
        ang, _ = quad(lambda t: math.cos(t) ** 2 * math.sin(t) ** 2, 0, 2 * math.pi)
        rad, _ = quad(lambda r: r ** 5, 0, radius)
        assert got == pytest.approx(ang * rad, rel=1e-10)


def test_ball_moment_of_constant_is_ball_volume():
    one = Polynomial.constant(3, Fraction(1))
    assert integrate_polynomial_over_ball(one, 2.0) == pytest.approx(
        4.0 / 3.0 * math.pi * 8.0
    )
