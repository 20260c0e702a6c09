"""Root system catalogue, Weyl combinatorics, reality types, and metric geometry."""

import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ball_oracles import fischer_product, float_integrate_ball, orthonormal_frame, radial_constant
from character_oracle import fs_indicator_quadrature
import rootsystem_oracle
from realroots.convex import convex_hull
from exactalg_oracle import dot, mat_vec
from realroots.polynomials import Polynomial
from realroots.rootsystems import (
    Metric,
    _ball_factor,
    _casimir_unit,
    _conjugacy_key,
    _fs_parity,
    _killing_numerator,
    casimir,
    frobenius_schur_indicator,
    root_system,
    symmetric_partner,
    unit_volume_metric,
    weyl_dimension,
)

ALL_SYSTEMS = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")

# (weyl order, dual coxeter number, group dimension, positive roots)
CATALOGUE = {
    "A1": (2, 2, 3, 1),
    "A2": (6, 3, 8, 3),
    "A3": (24, 4, 15, 6),
    "B2": (8, 3, 10, 4),
    "B3": (48, 5, 21, 9),
    "C3": (48, 4, 21, 9),
    "D4": (192, 6, 28, 12),
    "G2": (12, 4, 14, 6),
}


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_catalogue_invariants(name):
    rs = root_system(name)
    order, coxeter, dim, positives = CATALOGUE[name]
    assert rs.weyl_order == order
    assert rs.dual_coxeter == coxeter
    assert rs.dimension == dim
    assert rs.num_positive_roots == positives
    assert rs.dimension == rs.rank + 2 * rs.num_positive_roots


def test_cartan_matrices():
    assert [[int(c) for c in r] for r in root_system("A2").cartan] == [[2, -1], [-1, 2]]
    assert [[int(c) for c in r] for r in root_system("B2").cartan] == [[2, -2], [-1, 2]]
    assert [[int(c) for c in r] for r in root_system("G2").cartan] == [[2, -1], [-3, 2]]


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_adjoint_casimir_is_one(name):
    # this normalization defines the metric scale
    rs = root_system(name)
    assert casimir(rs, rs.highest_root) == 1


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_positive_roots_have_nonnegative_simple_coordinates(name):
    rs = root_system(name)
    cartan_t = [[rs.cartan[j][i] for j in range(rs.rank)] for i in range(rs.rank)]
    from realroots.exactalg import solve

    for beta in rs.positive_roots:
        coeffs = solve(cartan_t, beta)
        assert all(c >= 0 and c.denominator == 1 for c in coeffs)


def test_weyl_dimensions():
    a1 = root_system("A1")
    assert [weyl_dimension(a1, (k,)) for k in range(5)] == [1, 2, 3, 4, 5]
    a2 = root_system("A2")
    assert weyl_dimension(a2, (1, 0)) == 3
    assert weyl_dimension(a2, (1, 1)) == 8
    assert weyl_dimension(a2, (2, 0)) == 6
    b2 = root_system("B2")
    assert weyl_dimension(b2, (1, 0)) == 5  # vector
    assert weyl_dimension(b2, (0, 1)) == 4  # spinor
    assert weyl_dimension(b2, (0, 2)) == 10
    g2 = root_system("G2")
    assert weyl_dimension(g2, (1, 0)) == 7
    assert weyl_dimension(g2, (0, 1)) == 14
    a3 = root_system("A3")
    assert weyl_dimension(a3, (1, 0, 0)) == 4
    assert weyl_dimension(a3, (0, 1, 0)) == 6


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_adjoint_dimension_matches_group_dimension(name):
    rs = root_system(name)
    assert weyl_dimension(rs, rs.highest_root) == rs.dimension


def test_weyl_orbits_and_dominance():
    a2 = root_system("A2")
    assert len(a2.weyl_orbit((1, 1))) == 6  # regular weight: full orbit
    assert len(a2.weyl_orbit((1, 0))) == 3
    assert len(root_system("B2").weyl_orbit((1, 0))) == 4
    for w in a2.weyl_orbit((2, 1)):
        assert a2.to_dominant(w) == (Fraction(2), Fraction(1))
    # the Cartan rows reflect as norm-preserving involutions
    met = Metric(a2)
    lam = (Fraction(3), Fraction(-1))
    for i, alpha in enumerate(a2.cartan):
        once = tuple(x - lam[i] * a for x, a in zip(lam, alpha))
        assert tuple(x - once[i] * a for x, a in zip(once, alpha)) == lam
        assert rootsystem_oracle.norm_sq(met, once) == rootsystem_oracle.norm_sq(met, lam)


def weyl_orbit_of_set(rs, rows) -> set:
    """Every W-image of a set of integer rows, as frozensets: the closure
    of the set under the simple reflections (W enumerated)."""
    start = frozenset(map(tuple, rows))
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for rows in frontier:
            for i, alpha in enumerate(rs.cartan):
                image = frozenset(tuple(x - v[i] * a for x, a in zip(v, alpha)) for v in rows)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


@pytest.mark.parametrize("name", ["A2", "G2", "A3", "B3", "C3", "D4"])
def test_conjugacy_key_separates_exactly_the_weyl_orbits_of_sets(name):
    # facet simplices of the adjoint body, whose sums lie on walls; random
    # sets of lattice points; random subsets of two orbits, whose rows often
    # tie for the least conjugate; and pairs summing to 0 (stabilizer W)
    rs = root_system(name)
    orbit = set(rs.lattice_orbit(rs.highest_root)[0])
    body = convex_hull(orbit)
    sets = [[body.coords[i] for i in simplex] for _, simplices in body.facets for simplex in simplices]
    rng = np.random.default_rng(len(sets))
    box = [tuple(int(x) for x in v) for v in product(range(-2, 3), repeat=rs.rank)]
    two_orbits = sorted(orbit | set(rs.lattice_orbit((1,) + (0,) * (rs.rank - 1))[0]))
    for points in (box, two_orbits):
        for k in (1, 2, 3, 4):
            for _ in range(12):
                picks = rng.choice(len(points), size=k, replace=False)
                sets.append([points[i] for i in picks])
    sets += [[v, tuple(-x for x in v)] for v in sorted(orbit)[:4]]
    keys = [_conjugacy_key(rs.cartan, rows) for rows in sets]
    for rows, key in zip(sets, keys):
        images = weyl_orbit_of_set(rs, rows)
        assert all((other == key) == (frozenset(others) in images) for others, other in zip(sets, keys))
        # every image, its rows in any order, has the same key
        for image in sorted(images)[:6]:
            shuffled = [tuple(v) for v in rng.permutation(sorted(image))]
            assert _conjugacy_key(rs.cartan, shuffled) == key
    assert len(set(keys)) < len(keys)


def test_signed_orbit_of_regular_weight_balances():
    a2 = root_system("A2")
    signs, _ = a2.lattice_orbit(rootsystem_oracle.rho_weight(a2))
    assert len(signs) == a2.weyl_order
    assert sum(signs.values()) == 0
    assert set(signs.values()) == {-1, 1}


DEGREE_SYSTEMS = [f"{family}{rank}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                  for rank in range(low, 9)] + ["G2"]


def _types(value):
    """The type of value, with tuples mapped entry by entry."""
    if isinstance(value, tuple):
        return tuple(map(_types, value))
    return type(value)


@pytest.mark.parametrize("name", DEGREE_SYSTEMS)
def test_root_system_matches_the_fraction_gram_construction(name):
    # every field, value and type, against the Fraction Gram table, the
    # per-root solve and pairings and the per-family degrees; the oracle's
    # Cartan rows are Fractions, so they are compared by value only
    rs = root_system(name)
    want = rootsystem_oracle.root_system_fields(name)
    assert [f.name for f in dataclasses.fields(rs)] == list(want)
    for field, value in want.items():
        got = getattr(rs, field)
        assert got == value, field
        if field != "cartan":
            assert _types(got) == _types(value), field
    assert _types(rs.cartan) == ((int,) * rs.rank,) * rs.rank


@pytest.mark.parametrize("name", DEGREE_SYSTEMS)
def test_degrees_of_w_add_up_to_the_positive_roots(name):
    # sum (d_j - 1) = N, with N counted by the root closure (the degrees are
    # read off the root heights, so this holds by construction); prod d_j =
    # |W| is pinned by the catalogue and the regular orbit size
    rs = root_system(name)
    assert len(rs.degrees) == rs.rank
    assert sum(d - 1 for d in rs.degrees) == rs.num_positive_roots


ORBIT_SYSTEMS = [f"{family}{rank}" for family, low, high in (("A", 1, 6), ("B", 2, 5), ("C", 2, 5),
                                                             ("D", 3, 6)) for rank in range(low, high + 1)] + ["G2"]


@pytest.mark.parametrize("name", ORBIT_SYSTEMS)
def test_weyl_order_matches_regular_orbit_size(name):
    # the group acts simply transitively on the orbit of a regular point, so
    # the product of the degrees read off the root heights counts it
    rs = root_system(name)
    assert rs.weyl_order == len(rs.lattice_orbit(rootsystem_oracle.rho_weight(rs))[0])


ORACLE_SYSTEMS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_coroot_table_pairs_each_root_to_two(name):
    # <beta, beta^vee> = sum_i k_i beta_i = 2, and k_beta is the primitive
    # integer row 2 G beta / (beta, beta)
    rs = root_system(name)
    assert len(rs.coroots) == len(rs.root_ratios) == rs.num_positive_roots
    for beta, k, ratio in zip(rs.positive_roots, rs.coroots, rs.root_ratios):
        assert all(type(x) is int for x in k)
        assert sum(a * b for a, b in zip(k, beta)) == 2
        assert k == rootsystem_oracle.coroot(rs, beta)
        assert math.gcd(*k) == 1
        assert ratio == 2 / dot(beta, mat_vec(rootsystem_oracle.gram_std(rs), beta))
    # the simple roots come first: their coroot rows are the unit rows
    units = {tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)}
    assert set(rs.coroots[: rs.rank]) == units


def forms_product(met, lam) -> Fraction:
    """The root product at lam from `Metric.root_forms`."""
    const, forms = met.root_forms()
    return const * math.prod(sum(a * x for a, x in zip(k, lam)) for k in forms)


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_coroot_table_matches_the_fraction_gram_oracle(name):
    rs = root_system(name)
    met = Metric(rs, Fraction(7, 5))
    for lam in product(range(4), repeat=rs.rank):
        assert weyl_dimension(rs, lam) == rootsystem_oracle.weyl_dimension(rs, lam)
        assert _fs_parity(rs, lam) == rootsystem_oracle.fs_parity(rs, lam)
        assert forms_product(met, lam) == rootsystem_oracle.root_product(met, lam)
    off_lattice = ((Fraction(1, 2), Fraction(-3, 7)) + (Fraction(2),) * rs.rank)[: rs.rank]
    assert forms_product(met, off_lattice) == rootsystem_oracle.root_product(met, off_lattice)
    assert met.root_product_at_rho() == rootsystem_oracle.root_product(met, rootsystem_oracle.rho_weight(rs))


def _published_duality(name: str) -> tuple[int, tuple[int, ...]]:
    """det C and -w0 on the fundamental weights (Bourbaki, Lie Groups and Lie
    Algebras, Ch. VI, plates): reversal on A_n, the swap of the two spin
    nodes on D_n with n odd, the identity otherwise."""
    family, rank = name[0], int(name[1:])
    det = {"A": rank + 1, "B": 2, "C": 2, "D": 4, "G": 1}[family]
    dual = list(range(rank))
    if family == "A":
        dual.reverse()
    elif family == "D" and rank % 2:
        dual[-2:] = dual[-1], dual[-2]
    return det, tuple(dual)


@pytest.mark.parametrize("name", DEGREE_SYSTEMS)
def test_cartan_determinant_and_dual_permutation_match_the_plates(name):
    rs = root_system(name)
    assert (rs.cartan_det, rs.dual_permutation) == _published_duality(name)
    inverse, s = rs.cartan_inverse, rs.inverse_denominator
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in rs.cartan] == \
        [[s * (i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    assert math.gcd(s, *(x for row in inverse for x in row)) == 1


@pytest.mark.parametrize("name", DEGREE_SYSTEMS)
def test_dual_weights_of_rational_and_non_dominant_weights_match_the_fraction_oracle(name):
    # the dual is the dominant form permuted by pi; the oracle negates and
    # reflects in Fractions
    rs = root_system(name)
    rng = np.random.default_rng(rs.rank)
    weights = [tuple(Fraction(int(a), int(b)) for a, b in zip(rng.integers(-4, 5, rs.rank), rng.integers(1, 4, rs.rank)))
               for _ in range(6)]
    for lam in [*weights, tuple(range(rs.rank)), tuple(-x for x in range(rs.rank))]:
        assert symmetric_partner(rs, lam) == rootsystem_oracle.symmetric_partner(rs, lam)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda rs, x: Metric(rs, x),
        lambda rs, x: Metric(rs).dominant_weights_in_ball(x),
        lambda rs, x: casimir(rs, (1, 1), x),
    ],
    ids=["metric_scale", "ball_radius", "casimir_scale"],
)
def test_non_finite_floats_are_value_errors_naming_the_value(call, value):
    # they raised OverflowError (infinity) or a ValueError without the value (NaN)
    with pytest.raises(ValueError, match=f"^{value!r} is not a finite number$"):
        call(root_system("A2"), value)


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_integer_duals_and_casimir_match_the_fraction_oracle(name):
    rs = root_system(name)
    scale = Fraction(7, 5)
    off_lattice = ((Fraction(1, 2), Fraction(-3, 7)) + (Fraction(-2),) * rs.rank)[: rs.rank]
    for lam in [*product(range(-1, 3), repeat=rs.rank), off_lattice]:
        want = rootsystem_oracle.to_dominant(rs, lam)
        got = rs.to_dominant(lam)
        assert got == want and all(type(c) is Fraction for c in got)
        assert symmetric_partner(rs, lam) == rootsystem_oracle.symmetric_partner(rs, lam)
        assert casimir(rs, lam, scale) == rootsystem_oracle.casimir(rs, lam, scale)
        assert type(casimir(rs, lam)) is Fraction


# -- reality types -------------------------------------------------------------

@pytest.mark.parametrize(
    "call",
    [
        lambda rs, lam: weyl_dimension(rs, lam),
        lambda rs, lam: symmetric_partner(rs, lam),
        lambda rs, lam: frobenius_schur_indicator(rs, lam),
        lambda rs, lam: rs.to_dominant(lam),
        lambda rs, lam: casimir(rs, lam),
    ],
    ids=["weyl_dimension", "symmetric_partner", "frobenius_schur_indicator", "to_dominant",
         "casimir"],
)
@pytest.mark.parametrize("lam", [(1,), (1, 2, 3)], ids=["short", "long"])
def test_wrong_rank_weight_is_a_value_error(call, lam):
    # a weight row of the wrong length would zip against the Cartan or
    # coroot rows: weyl_dimension(A2, (1,)) read 0 and frobenius_schur_indicator 1
    A2 = root_system("A2")
    with pytest.raises(ValueError, match="weight rank mismatch"):
        call(A2, lam)


def test_frobenius_schur_rank_one_parity():
    a1 = root_system("A1")
    for k in range(7):
        assert frobenius_schur_indicator(a1, (k,)) == (-1) ** k


def test_frobenius_schur_known_cases():
    a2 = root_system("A2")
    assert frobenius_schur_indicator(a2, (1, 0)) == 0
    assert frobenius_schur_indicator(a2, (1, 1)) == 1
    assert symmetric_partner(a2, (1, 0)) == (Fraction(0), Fraction(1))
    b2 = root_system("B2")
    assert frobenius_schur_indicator(b2, (1, 0)) == 1
    assert frobenius_schur_indicator(b2, (0, 1)) == -1
    g2 = root_system("G2")
    assert frobenius_schur_indicator(g2, (1, 0)) == 1
    assert frobenius_schur_indicator(g2, (0, 1)) == 1


@pytest.mark.parametrize(
    "name,weights",
    [
        ("A1", [(0,), (1,), (2,), (3,), (4,)]),
        ("A2", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]),
        ("B2", [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]),
        ("G2", [(1, 0), (0, 1), (1, 1)]),
    ],
)
def test_character_quadrature_agrees_with_parity(name, weights):
    rs = root_system(name)
    for w in weights:
        assert frobenius_schur_indicator(rs, w) == fs_indicator_quadrature(rs, w)


# -- metric geometry ------------------------------------------------------------

def test_rank_one_metric_anchors():
    a1 = root_system("A1")
    met = Metric(a1)
    assert a1.positive_roots[0] == (2,)
    assert Fraction(_killing_numerator(a1, (2,), (2,)), _casimir_unit(a1)) == Fraction(1, 2)
    assert met.root_product_at_rho() == Fraction(1, 4)
    assert casimir(a1, (1,)) == Fraction(3, 8)
    a, b, e = met._torus_volume_sq()  # vol(T) = 4 sqrt(2) pi
    assert (Fraction(a, b), e) == (32, 2)
    assert met.group_volume() == pytest.approx(
        32 * math.sqrt(2) * math.pi ** 2, rel=1e-12
    )
    assert met.integrate_ball(
        met.root_product_poly() * met.root_product_poly(), 1.0
    ) == pytest.approx(Fraction(1, 3), rel=1e-12)


def test_rank_two_metric_anchors():
    a2 = root_system("A2")
    met = Metric(a2)
    # the Gram matrix is ((1/9, 1/18), (1/18, 1/9)), and its inverse 6 C
    assert met._inverse_gram() == ([[12, -6], [-6, 12]], 1)
    assert met.root_product_at_rho() == Fraction(1, 108)
    a, b, e = met._torus_volume_sq()  # vol(T) = 24 sqrt(3) pi^2
    assert (Fraction(a, b), e) == (1728, 4)
    assert met.group_volume() == pytest.approx(
        20736 * math.sqrt(3) * math.pi ** 5, rel=1e-12
    )
    assert met.integrate_ball(
        met.root_product_poly() * met.root_product_poly(), 1.0
    ) == pytest.approx(math.pi / 3456, rel=1e-10)


def test_metric_scaling_laws():
    a2 = root_system("A2")
    base = Metric(a2)
    scaled = Metric(a2, Fraction(9, 2))
    c = Fraction(9, 2)
    (sigma, s), (scaled_sigma, t) = base._inverse_gram(), scaled._inverse_gram()
    assert [[Fraction(x, t) for x in row] for row in scaled_sigma] == [
        [Fraction(x, s) / c for x in row] for row in sigma]
    k, p, n = a2.rank, a2.num_positive_roots, a2.dimension
    assert scaled.root_product_at_rho() == c ** p * base.root_product_at_rho()
    (a, b, e), (a0, b0, e0) = scaled._torus_volume_sq(), base._torus_volume_sq()
    assert (Fraction(a, b), e) == (c**k * Fraction(a0, b0), e0)
    assert scaled.group_volume() == pytest.approx(
        float(c) ** (n / 2) * base.group_volume(), rel=1e-12
    )


def test_root_product_poly_matches_pointwise_product():
    for name in ("A2", "B2", "G2"):
        met = Metric(root_system(name))
        poly = met.root_product_poly()
        for lam in [(1, 1), (2, -1), (Fraction(1, 2), 3)]:
            assert poly(lam) == rootsystem_oracle.root_product(met, lam)


def test_orthonormal_frame_diagonalizes_gram():
    for name in ("A2", "B3"):
        met = Metric(root_system(name), Fraction(5, 4))
        frame = orthonormal_frame(met)
        g = np.array([[float(x) for x in row] for row in rootsystem_oracle.metric_gram(met)])
        assert np.allclose(frame.T @ g @ frame, np.eye(g.shape[0]), atol=1e-12)


RANK_AT_MOST_3 = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2")
RANK_AT_MOST_4 = RANK_AT_MOST_3 + ("A4", "B4", "C4", "D4")


@pytest.mark.parametrize("name", RANK_AT_MOST_4)
def test_fischer_product_is_weyl_order_times_root_product_at_rho(name):
    met = Metric(root_system(name), Fraction(3, 2))
    fischer = fischer_product(met)
    assert fischer == met.rs.weyl_order * met.root_product_at_rho()
    # the Gaussian moment of p^2 is p(d) p, since p is harmonic
    assert met.root_product_moment() == fischer


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_closed_form_moment_of_squared_root_product_is_the_laplacian_moment(name):
    # the Macdonald-Mehta moment times the shared radial constant reads the
    # same float as the exact Laplacian moment of the expanded p^2
    rs = root_system(name)
    for met in (Metric(rs), Metric(rs, Fraction(3, 2))):
        p = met.root_product_poly()
        want = float(met.root_product_moment()) * _ball_factor(rs.num_positive_roots, rs.rank, 1.0)
        assert met.integrate_ball(p * p, 1.0) == want


@pytest.mark.parametrize("name", RANK_AT_MOST_3)
def test_ball_moment_of_squared_root_product_is_fischer_product(name):
    rs = root_system(name)
    for met in (Metric(rs), Metric(rs, Fraction(5, 4))):
        p = met.root_product_poly()
        for radius in (1.0, 1.5):
            want = float(fischer_product(met)) * radial_constant(
                rs.rank, rs.num_positive_roots, radius
            )
            assert met.integrate_ball(p * p, radius) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("name", RANK_AT_MOST_3)
def test_ball_integral_matches_float_frame_oracle(name):
    # mixed degrees, odd parts included, on a non-unit metric and radius
    met = Metric(root_system(name), Fraction(7, 3))
    k = met.rs.rank
    x = [Polynomial.linear_form([int(i == j) for j in range(k)]) for i in range(k)]
    poly = Polynomial.constant(k, Fraction(2)) + x[0] * Fraction(5) + x[-1] ** 2
    poly = poly + x[0] * x[-1] * x[k // 2] * Fraction(-3, 2) + (x[0] + x[-1]) ** 4
    for radius in (1.0, 0.7):
        assert met.integrate_ball(poly, radius) == pytest.approx(
            float_integrate_ball(met, poly, radius), rel=1e-12
        )


GRAM_SYSTEMS = [f"{family}{rank}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                for rank in range(low, 6)] + ["G2"]


@pytest.mark.parametrize("name", GRAM_SYSTEMS)
def test_ball_enumeration_and_moments_match_the_fraction_gram_oracle(name):
    # the inverse Gram matrix read off the Cartan matrix, (2 h / scale) r_i
    # C_ij, against the Fraction Gram table and its exact inverse: the same
    # weights in the same order, and the same float, since each moment is an
    # exact Fraction.  At rank 5 the oracle's box at radius 3/2 already holds
    # 3e3 to 1.3e5 points, so only radius 1 is taken there
    rs = root_system(name)
    k = rs.rank
    x = [Polynomial.linear_form([int(i == j) for j in range(k)]) for i in range(k)]
    polys = [
        Polynomial.constant(k, Fraction(2)) + x[0] * Fraction(5) + x[-1] ** 2
        + x[0] * x[-1] * x[k // 2] * Fraction(-3, 2) + (x[0] + x[-1]) ** 4,
        (x[0] * 2 - x[-1] + x[k // 2] * Fraction(1, 3)) ** 6,
    ]
    radii = (1,) if k == 5 else (1, Fraction(3, 2), 2)
    for scale in (1, Fraction(7, 3), Fraction(3, 2)):
        met = Metric(rs, scale)
        for radius in radii:
            want = rootsystem_oracle.dominant_weights_in_ball(met, radius)
            assert met.dominant_weights_in_ball(radius) == want
        for poly in polys:
            for radius in (1.0, 0.7):
                assert met.integrate_ball(poly, radius) == rootsystem_oracle.integrate_ball(met, poly, radius)


def test_pruned_ball_scan_matches_the_full_box_scan_at_rank_five():
    # the library stops each coordinate at its first value outside the ball;
    # the oracle scans the whole box, 485 k points at B5 and radius 2, for
    # the same 546 weights in the same order
    met = Metric(root_system("B5"))
    got = met.dominant_weights_in_ball(2)
    assert len(got) == 546
    assert got == rootsystem_oracle.dominant_weights_in_ball(met, 2)


def test_weights_come_out_as_fractions():
    # orbits are closed on integer rows, but every public weight is a
    # Fraction tuple, so v / 6 stays exact
    a2, b2 = root_system("A2"), root_system("B2")
    weights = [
        *a2.weyl_orbit((2, 1)),
        *b2.weyl_orbit((Fraction(1, 2), 1)),
        *Metric(b2).dominant_weights_in_ball(1),
    ]
    assert weights and all(type(c) is Fraction for v in weights for c in v)
    assert a2.weyl_orbit((2, 1))[0][0] / 6 == Fraction(-1, 2)
    assert b2.weyl_orbit((Fraction(1, 2), 1)) == tuple(
        tuple(c / 2 for c in v) for v in b2.weyl_orbit((1, 2))
    )


def test_dominant_ball_enumeration_rank_one():
    a1 = root_system("A1")
    met = Metric(a1)
    # |k w|_K = k / (2 sqrt(2)): radius r holds k <= 2 sqrt(2) r
    got = met.dominant_weights_in_ball(1)
    assert got == ((Fraction(0),), (Fraction(1),), (Fraction(2),))
    assert len(met.dominant_weights_in_ball(Fraction(5))) == 1 + math.floor(5 * 2 * math.sqrt(2))


def test_dominant_ball_enumeration_is_complete_and_sound():
    a2 = root_system("A2")
    met = Metric(a2)
    radius = Fraction(3, 4)
    got = set(met.dominant_weights_in_ball(radius))
    for lam in got:
        assert all(c >= 0 and c.denominator == 1 for c in lam)
        assert rootsystem_oracle.norm_sq(met, lam) <= radius * radius
    # brute-force box scan oracle
    brute = set()
    for a in range(40):
        for b in range(40):
            if rootsystem_oracle.norm_sq(met, (a, b)) <= radius * radius:
                brute.add((Fraction(a), Fraction(b)))
    assert got == brute


def test_dominant_ball_enumeration_keeps_weights_on_the_sphere():
    # at scale 9/7 the weight (2, 1) has norm exactly 1
    met = Metric(root_system("A2"), Fraction(9, 7))
    assert rootsystem_oracle.norm_sq(met, (2, 1)) == 1
    got = met.dominant_weights_in_ball(1)
    assert (2, 1) in got
    assert got == tuple(
        (Fraction(a), Fraction(b)) for a in range(6) for b in range(6)
        if rootsystem_oracle.norm_sq(met, (a, b)) <= 1
    )


def test_unit_volume_metric_normalizes_group_volume():
    for name in ("A1", "A2", "B2"):
        met = unit_volume_metric(root_system(name))
        assert met.group_volume() == pytest.approx(1.0, rel=1e-12)


def test_unit_volume_metric_where_the_killing_volume_is_no_double():
    # the Killing volume of A20 is above 1.8e308 (it raised OverflowError);
    # the scale is read from the logs of its exact square
    rs = root_system("A20")
    with pytest.raises(OverflowError):
        Metric(rs).group_volume()
    met = unit_volume_metric(rs)
    assert 0.017 < met.scale < 0.018
    assert met.group_volume() == pytest.approx(1.0, rel=1e-12)


def test_root_system_objects_are_cached():
    assert root_system("A2") is root_system("A2")


def test_root_system_spellings_share_one_object():
    # ensembles of one system are compared by identity, so "a1" and " A1 "
    # must give the object "A1" gives
    assert root_system("a1") is root_system("A1") is root_system(" A1 ")
    assert root_system("g2") is root_system("G2")


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        root_system("E8")
    with pytest.raises(ValueError):
        root_system("Q3")
