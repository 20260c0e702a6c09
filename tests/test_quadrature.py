"""The integer simplex quadrature of the squared root product against two
independent oracles (tests/quadrature_oracles.py), and the exact adjoint
counts past rank 3 that it makes computable."""

import pytest

from quadrature_oracles import collapsed_gauss_integral, expanded_gm_integral
from realroots import (
    Metric,
    RepEnsemble,
    complex_count_reductive,
    minkowski_sum,
    root_system,
    weighted_polytope,
)
from realroots.groups import _lattice_density_integral


def adjoint(name: str) -> RepEnsemble:
    rs = root_system(name)
    return RepEnsemble.single(rs, rs.highest_root)


def squared_root_product_poly(rs):
    p = Metric(rs).root_product_poly()
    return p * p


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
            assert value == Metric(rs).root_product(lam)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_adjoint_integral_equals_expanded_fraction_quadrature(name):
    rs = root_system(name)
    body = weighted_polytope(adjoint(name))
    want = expanded_gm_integral(body, squared_root_product_poly(rs))
    assert _lattice_density_integral(rs, body) == want


def test_minkowski_sum_integral_equals_expanded_fraction_quadrature():
    rs = root_system("A2")
    body = minkowski_sum(weighted_polytope(adjoint("A2")), weighted_polytope(rs, (2, 0)))
    want = expanded_gm_integral(body, squared_root_product_poly(rs))
    assert _lattice_density_integral(rs, body) == want


def test_a4_integral_matches_collapsed_gauss_quadrature():
    rs = root_system("A4")
    body = weighted_polytope(adjoint("A4"))
    const, forms = Metric(rs).root_forms()
    oracle = collapsed_gauss_integral(body, [f for f in forms for _ in range(2)], float(const) ** 2)
    assert float(_lattice_density_integral(rs, body)) == pytest.approx(oracle, rel=1e-12)


def test_b3_adjoint_count():
    assert complex_count_reductive(adjoint("B3")) == 56986042368


@pytest.mark.parametrize("name, count", [("A4", 500420755500), ("D4", 540163580375040)])
def test_rank_four_adjoint_counts_both_routes(name, count):
    ens = adjoint(name)
    assert complex_count_reductive(ens, route="lattice") == count
    assert complex_count_reductive(ens, route="calibrated") == pytest.approx(count, rel=1e-9)
