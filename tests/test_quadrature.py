"""The facet integral of the squared root product against the whole-body
and two independent oracles (tests/quadrature_oracles.py), and the exact
adjoint counts past rank 3 that it makes computable."""

import math
from fractions import Fraction

import pytest

import rootsystem_oracle
from hull_oracle import translate
from package_caches import clear_package_caches
from quadrature_oracles import (collapsed_gauss_integral, expanded_gm_integral, monomial_forms,
                                vertex_cone_integral)
from realroots import convex
from realroots import (
    Metric,
    RepEnsemble,
    asymptotic_radius,
    complex_count_reductive,
    convex_hull,
    integrate_polynomial_over_polytope,
    minkowski_sum,
    root_system,
    weighted_polytope,
)
from realroots.groups import _invariant_integral, _squared_root_product, _weyl_normal_class
from realroots.polynomials import Polynomial


def adjoint(name: str) -> RepEnsemble:
    rs = root_system(name)
    return RepEnsemble.single(rs, rs.highest_root)


def squared_root_product_poly(rs):
    p = Metric(rs).root_product_poly()
    return p * p


def density_integral(rs, body):
    return _invariant_integral(rs, body, _squared_root_product(rs))


def test_root_forms_multiply_to_the_root_product():
    for name in ("A2", "B2", "G2", "C3"):
        rs = root_system(name)
        const, forms = Metric(rs).root_forms()
        assert len(forms) == rs.num_positive_roots
        assert all(isinstance(c, int) for form in forms for c in form)
        for lam in [rs.rho, rs.highest_root, (1,) + (0,) * (rs.rank - 1)]:
            value = const
            for form in forms:
                value *= sum(a * x for a, x in zip(form, lam))
            assert value == rootsystem_oracle.root_product(Metric(rs), lam)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_adjoint_integral_equals_expanded_fraction_quadrature(name):
    rs = root_system(name)
    body = weighted_polytope(adjoint(name))
    want = expanded_gm_integral(body, squared_root_product_poly(rs))
    assert density_integral(rs, body) == want


def test_minkowski_sum_integral_equals_expanded_fraction_quadrature():
    rs = root_system("A2")
    body = minkowski_sum(weighted_polytope(adjoint("A2")), weighted_polytope(rs, (2, 0)))
    want = expanded_gm_integral(body, squared_root_product_poly(rs))
    assert density_integral(rs, body) == want


def test_a4_integral_matches_collapsed_gauss_quadrature():
    rs = root_system("A4")
    body = weighted_polytope(adjoint("A4"))
    const, forms = Metric(rs).root_forms()
    oracle = collapsed_gauss_integral(body, [f for f in forms for _ in range(2)], float(const) ** 2)
    assert float(density_integral(rs, body)) == pytest.approx(oracle, rel=1e-12)


def test_b3_adjoint_count():
    assert complex_count_reductive(adjoint("B3")) == 56986042368


@pytest.mark.parametrize("name, count", [("A4", 500420755500), ("D4", 540163580375040)])
def test_rank_four_adjoint_counts_both_routes(name, count):
    ens = adjoint(name)
    assert complex_count_reductive(ens, route="lattice") == count
    assert complex_count_reductive(ens, route="calibrated") == pytest.approx(count, rel=1e-9)


def counting_simplex_integrals(monkeypatch) -> list:
    """Record every simplex integral of the facet route, from cold caches
    (a body integrated before is read from `_density_integral`)."""
    clear_package_caches()
    calls = []
    rule = convex.integrate_over_simplex

    def counted(*args):
        calls.append(args)
        return rule(*args)
    monkeypatch.setattr(convex, "integrate_over_simplex", counted)
    return calls


# the facet route integrates one simplex per W-class of the representative
# plane's simplices: D5's 30 fall into 7 classes, B5's 19 into 4 and A5's 16
# into 10; C5's facet is one simplex
SIMPLEX_CLASSES = {"D4": 3, "A5": 10, "C5": 1, "D5": 7, "B5": 4}


@pytest.mark.parametrize("name, count", [("D4", 540163580375040)])
def test_one_simplex_is_integrated_per_weyl_class(name, count, monkeypatch):
    calls = counting_simplex_integrals(monkeypatch)
    assert complex_count_reductive(adjoint(name)) == count
    assert len(calls) == SIMPLEX_CLASSES[name]


# C5 was checked once against the whole-body integral (tests/quadrature_oracles.py
# `vertex_cone_integral`, about 45 s), since the calibrated route shares the
# facet integral.  B5 is the value both earlier routes gave (the Weyl-dimension
# sum prototype of ROADMAP item 2 and the facet route without simplex classes)
@pytest.mark.parametrize("name, count", [("A5", 144731674926697824),
                                         ("C5", 74329153773280640750321664),
                                         ("D5", 831378542987006337856512),
                                         ("B5", 141907942932041738064007004160)])
def test_rank_five_adjoint_counts(name, count, monkeypatch):
    calls = counting_simplex_integrals(monkeypatch)
    assert complex_count_reductive(adjoint(name)) == count
    assert len(calls) == SIMPLEX_CLASSES[name]


# -- facet integrals against the whole-body oracle ------------------------------

def plane_offsets(body):
    return [sum(a * x for a, x in zip(normal, body.coords[simplices[0][0]]))
            for normal, simplices in body.facets]


def assert_weyl_classes_match_the_oracle(rs, body):
    """The integral over one facet plane per W-orbit, over every plane, and
    over the body's triangulation agree exactly."""
    assert _weyl_normal_class(rs, body) is not None
    p_sq = _squared_root_product(rs)
    want = vertex_cone_integral(body, p_sq)
    assert want > 0
    assert density_integral(rs, body) == want
    assert integrate_polynomial_over_polytope(body, p_sq) == want


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2"])
def test_facet_orbit_integral_of_adjoint_bodies_equals_the_whole_body_oracle(name):
    assert_weyl_classes_match_the_oracle(root_system(name), weighted_polytope(adjoint(name)))


def test_facet_orbit_integral_of_a_minkowski_sum_equals_the_whole_body_oracle():
    rs = root_system("B3")
    body = minkowski_sum(weighted_polytope(adjoint("B3")), weighted_polytope(rs, (0, 0, 1)))
    assert_weyl_classes_match_the_oracle(rs, body)


def test_facet_orbit_integral_of_a_rational_weight_polytope_equals_the_whole_body_oracle():
    rs = root_system("C3")
    body = weighted_polytope(rs, (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)))
    assert body.denominator == 30
    assert_weyl_classes_match_the_oracle(rs, body)


def test_facet_integral_of_a_body_that_misses_the_origin():
    # planes with negative offsets enter with a minus sign
    rs = root_system("A3")
    body = translate(weighted_polytope(adjoint("A3")), (3, 1, 2))
    assert min(plane_offsets(body)) < 0 < max(plane_offsets(body))
    assert _weyl_normal_class(rs, body) is None
    p_sq = _squared_root_product(rs)
    want = vertex_cone_integral(body, p_sq)
    assert density_integral(rs, body) == want
    assert integrate_polynomial_over_polytope(body, p_sq) == want


def test_facet_integral_with_planes_through_the_origin_and_an_inhomogeneous_integrand():
    body = convex_hull([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 2), (2, 1, 2), ("1/2", 2, 1)])
    assert 0 in plane_offsets(body)
    x, y, z = (Polynomial.linear_form([Fraction(int(i == j)) for j in range(3)]) for i in range(3))
    one = Polynomial.constant(3, Fraction(1))
    poly = (x + one) ** 3 * y + one * 2 - z + x * x * z * z * Fraction(5, 7)
    want = expanded_gm_integral(body, poly)
    assert vertex_cone_integral(body, poly) == want
    assert integrate_polynomial_over_polytope(body, monomial_forms(poly)) == want
    assert integrate_polynomial_over_polytope(body, monomial_forms(one)) == body.volume()


def test_facet_integral_of_an_inhomogeneous_integrand_off_the_origin():
    body = convex_hull([(1, 1), (4, 2), ("5/2", 5), (2, 4)])
    assert min(plane_offsets(body)) < 0
    x, y = (Polynomial.linear_form([Fraction(int(i == j)) for j in range(2)]) for i in range(2))
    poly = x**4 * y - x * 3 + Polynomial.constant(2, Fraction(2, 3))
    want = expanded_gm_integral(body, poly)
    assert vertex_cone_integral(body, poly) == want
    assert integrate_polynomial_over_polytope(body, monomial_forms(poly)) == want


def test_facet_integral_over_a_segment():
    # the facets are the two end points, each a 0-simplex
    segment = convex_hull([(3,), ("-7/3",), (1,)])
    x = Polynomial.linear_form([Fraction(1)])
    poly = x**4 + x * 3 + Polynomial.constant(1, Fraction(1))
    a, b = Fraction(-7, 3), Fraction(3)
    want = (b**5 - a**5) / 5 + 3 * (b * b - a * a) / 2 + (b - a)
    assert integrate_polynomial_over_polytope(segment, monomial_forms(poly)) == want
    segment = convex_hull([(3,), (0,)])
    assert integrate_polynomial_over_polytope(segment, monomial_forms(x**4)) == Fraction(243, 5)


def test_asymptotic_radius_of_a_body_that_is_not_weyl_stable():
    # a corner cut off the triangle conv(W (3, 0)): its three edges lie on
    # one W-orbit of planes but are no longer W-images of each other
    rs = root_system("A2")
    body = convex_hull([(2, "1/2"), (2, -1), (-3, 3), (0, -3)])
    assert _weyl_normal_class(rs, body) is None
    # the Killing form x^T G x, expanded
    x = [Polynomial.linear_form([int(i == j) for j in range(rs.rank)]) for i in range(rs.rank)]
    gram = rootsystem_oracle.metric_gram(Metric(rs))
    norm = sum((x[i] * x[j] * g for i, row in enumerate(gram) for j, g in enumerate(row)),
               Polynomial(rs.rank))
    p_sq = squared_root_product_poly(rs)
    num, den = vertex_cone_integral(body, p_sq * norm), vertex_cone_integral(body, p_sq)
    assert asymptotic_radius(rs, body) == math.sqrt(float(num / den) / rs.dimension)
