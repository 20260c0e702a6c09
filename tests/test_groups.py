"""Invariant ensembles on compact groups: radii, counts, limits, asymptotics."""

import math
from fractions import Fraction

import pytest

from realroots.convex import convex_hull
from realroots.groups import (
    RepEnsemble,
    asymptotic_mean,
    asymptotic_radius,
    ball_spectrum,
    complex_count_reductive,
    f_form,
    flatten,
    killing_radius,
    limit_real_proportion_group,
    mean_real_count_group,
    newton_body_volume,
    real_proportion_group,
    weighted_polytope,
)
from realroots.rootsystems import Metric, root_system, unit_volume_metric

A1 = root_system("A1")
A2 = root_system("A2")


def adjoint(rs) -> RepEnsemble:
    return RepEnsemble.single(rs, tuple(rs.highest_root))


# -- ensembles ------------------------------------------------------------------

def test_ensemble_validation():
    with pytest.raises(ValueError):
        RepEnsemble(A1, [])
    with pytest.raises(ValueError):
        RepEnsemble(A1, [((-1,), 1)])  # not dominant
    with pytest.raises(ValueError):
        RepEnsemble(A1, [((Fraction(1, 2),), 1)])  # not integral
    with pytest.raises(ValueError):
        RepEnsemble(A1, [((1,), 0)])  # multiplicity must be positive
    merged = RepEnsemble(A1, [((1,), 1), ((1,), 2)])
    assert merged.entries == (((Fraction(1),), 3),)


def test_ball_spectrum_rank_one():
    ens = ball_spectrum(A1, 1)
    assert ens.weights == ((Fraction(0),), (Fraction(1),), (Fraction(2),))
    bigger = ball_spectrum(A1, 1, dilation=2)
    assert len(bigger.weights) == 1 + math.floor(2 * 2 * math.sqrt(2))


def test_flattening():
    heavy = RepEnsemble(A1, [((2,), 3), ((0,), 2)])
    assert not heavy.is_flat
    flat = flatten(heavy)
    assert flat.is_flat and flat.weights == heavy.weights
    assert flatten(flat) is flat


def test_reality_types_summary():
    types = RepEnsemble(A1, [((0,), 1), ((1,), 1), ((2,), 1)]).reality_types()
    assert types[(Fraction(0),)] == "real"
    assert types[(Fraction(1),)] == "quaternionic"
    assert types[(Fraction(2),)] == "real"


# -- derivative covariance radii -------------------------------------------------

def test_killing_radius_anchors():
    assert killing_radius(RepEnsemble(A1, [((0,), 1), ((1,), 1), ((2,), 1)])) == pytest.approx(0.5, abs=1e-15)
    assert killing_radius(RepEnsemble(A1, [((0,), 1), ((2,), 1)])) ** 2 == pytest.approx(0.3, abs=1e-15)
    assert killing_radius(adjoint(A1)) == pytest.approx(1 / math.sqrt(3), abs=1e-15)


def test_adjoint_radius_is_inverse_root_dimension():
    # adjoint Casimir is 1, so the squared radius collapses to 1/dimension
    for name in ("A1", "A2", "B2", "G2"):
        rs = root_system(name)
        assert f_form(adjoint(rs)).radius_sq_killing == Fraction(1, rs.dimension)


def test_radius_is_flattening_invariant():
    heavy = RepEnsemble(A1, [((2,), 5), ((1,), 2)])
    assert killing_radius(heavy) == killing_radius(flatten(heavy))


def test_f_form_geometry():
    form = f_form(adjoint(A1))
    assert form.dimension == 3
    assert form.radius_sq_killing == Fraction(1, 3)
    ball = form.as_ellipsoid()
    assert ball.ball_radius() == pytest.approx(1 / math.sqrt(3), rel=1e-12)
    # dual object: rescaling the metric by c shrinks the radius by sqrt(c)
    assert form.radius(Metric(A1, Fraction(4))) == pytest.approx(
        form.radius() / 2, rel=1e-14
    )


# -- weight polytopes and Newton bodies ------------------------------------------

def test_weighted_polytope_shapes():
    seg = weighted_polytope(A1, (2,))
    assert seg.vertices == ((Fraction(-2),), (Fraction(2),))
    hexagon = weighted_polytope(A2, (1, 1))
    assert len(hexagon.vertices) == 6
    assert hexagon.volume() == 9
    triangle = weighted_polytope(RepEnsemble.single(A2, (1, 0)))
    assert len(triangle.vertices) == 3
    # spectrum with several weights: hull of all orbits
    both = weighted_polytope(RepEnsemble(A2, [((1, 0), 1), ((1, 1), 1)]))
    assert both.volume() == hexagon.volume()


def test_newton_body_volume_of_unit_metric_ball():
    # rank-one metric ball of radius 1 is the segment of weight length 2 sqrt 2;
    # its calibrated Newton-body volume is the Euclidean unit-ball volume in
    # the group dimension
    r = Fraction(2 * math.sqrt(2))
    ball = convex_hull([(-r,), (r,)])
    v = newton_body_volume(A1, metric=Metric(A1), body=ball)
    assert v == pytest.approx(4 * math.pi / 3, rel=1e-12)


# -- complex counts ----------------------------------------------------------------

def test_rank_one_adjoint_count_both_routes():
    ens = [adjoint(A1)] * 3
    assert complex_count_reductive(ens, route="lattice") == 16
    assert complex_count_reductive(ens, route="calibrated") == pytest.approx(16.0, rel=1e-12)


def test_rank_one_counts_scale_cubically():
    # spectrum {k w}: count 2 k^3
    for k in (1, 2, 3):
        ens = [RepEnsemble.single(A1, (k,))] * 3
        assert complex_count_reductive(ens) == 2 * k ** 3


def test_rank_one_mixed_arguments():
    ens = [adjoint(A1), adjoint(A1), RepEnsemble.single(A1, (4,))]
    lattice = complex_count_reductive(ens, route="lattice")
    calibrated = complex_count_reductive(ens, route="calibrated")
    assert lattice == 32
    assert calibrated == pytest.approx(32.0, rel=1e-12)


@pytest.mark.parametrize(
    "name,count",
    [("A2", 5562), ("B2", 24576), ("G2", 10576332)],
)
def test_rank_two_adjoint_counts(name, count):
    # frozen lattice-route values; the A2/B2/G2 density integrals are
    # cross-checked against independent Monte Carlo estimates
    rs = root_system(name)
    ens = [adjoint(rs)] * rs.dimension
    lattice = complex_count_reductive(ens, route="lattice")
    assert lattice == count
    calibrated = complex_count_reductive(ens, route="calibrated")
    assert calibrated == pytest.approx(float(count), rel=1e-9)


def test_rank_two_mixed_spectra_with_repeats():
    # nine copies of one body and one other: 19 functional evaluations
    # after grouping equal bodies, against 1023 Minkowski sums without
    b2 = root_system("B2")
    ens = [adjoint(b2)] * 9 + [RepEnsemble.single(b2, (1, 1))]
    assert complex_count_reductive(ens, route="lattice") == 36864
    assert complex_count_reductive(ens, route="calibrated") == pytest.approx(36864.0, rel=1e-9)


def test_standard_representation_count_a2():
    ens = [RepEnsemble.single(A2, (1, 0))] * A2.dimension
    assert complex_count_reductive(ens) == 3


def test_counts_are_metric_invariant():
    ens = [adjoint(A2)] * A2.dimension
    base = complex_count_reductive(ens, route="calibrated", metric=Metric(A2))
    scaled = complex_count_reductive(ens, route="calibrated", metric=Metric(A2, Fraction(7, 3)))
    assert scaled == pytest.approx(base, rel=1e-11)
    assert mean_real_count_group(ens, metric=Metric(A2, Fraction(7, 3))) == pytest.approx(
        mean_real_count_group(ens), rel=1e-12
    )


def test_counts_are_flattening_invariant():
    heavy = RepEnsemble(A1, [((2,), 4)])
    assert complex_count_reductive([heavy] * 3) == 16
    assert mean_real_count_group([heavy] * 3) == pytest.approx(
        mean_real_count_group([adjoint(A1)] * 3), rel=1e-14
    )


# -- real means and proportions ------------------------------------------------------

def test_rank_one_adjoint_mean():
    mean = mean_real_count_group([adjoint(A1)] * 3)
    assert mean == pytest.approx(32 * math.sqrt(6) / 9, rel=1e-12)


def test_hodge_equality_rank_one():
    # product structure of the mean: M(e1,e2,e3)^3 = M(e1) M(e2) M(e3)
    e1 = RepEnsemble.single(A1, (1,))
    e2 = RepEnsemble.single(A1, (2,))
    e3 = RepEnsemble(A1, [((0,), 1), ((2,), 1)])
    mixed = mean_real_count_group([e1, e2, e3])
    prod = (
        mean_real_count_group([e1] * 3)
        * mean_real_count_group([e2] * 3)
        * mean_real_count_group([e3] * 3)
    )
    assert mixed ** 3 == pytest.approx(prod, rel=1e-9)


def test_real_proportion_group_summary():
    res = real_proportion_group([adjoint(A1)] * 3)
    assert res.root_system == "A1"
    assert res.complex_exact == 16
    assert res.proportion == pytest.approx(2 * math.sqrt(6) / 9, rel=1e-12)
    d = res.as_dict()
    assert d["complex_exact"] == "16"
    assert d["route"] == "lattice"


# -- asymptotics ----------------------------------------------------------------------

def test_asymptotic_radius_ball_closed_form():
    for name in ("A1", "A2", "B2"):
        rs = root_system(name)
        n = rs.dimension
        assert asymptotic_radius(rs, 1.0) == pytest.approx(1 / math.sqrt(n + 2), rel=1e-14)
        assert asymptotic_radius(rs, 2.5) == pytest.approx(2.5 / math.sqrt(n + 2), rel=1e-14)


def test_asymptotic_radius_polytope_matches_ball_route():
    # weight segment [-m, m] is the metric ball of radius m/(2 sqrt 2)
    seg = weighted_polytope(A1, (1,))
    exact = asymptotic_radius(A1, seg)
    assert exact == pytest.approx(1 / (2 * math.sqrt(10)), rel=1e-14)
    assert exact == pytest.approx(asymptotic_radius(A1, 1 / (2 * math.sqrt(2))), rel=1e-14)
    # dilation covariance
    assert asymptotic_radius(A1, seg.dilate(3)) == pytest.approx(3 * exact, rel=1e-14)


def test_ball_spectrum_radius_converges_to_asymptote():
    target = 1 / math.sqrt(5)
    errors = []
    for m in (4, 8, 16, 32):
        errors.append(abs(killing_radius(ball_spectrum(A1, m)) / m - target))
    assert errors[-1] < errors[0]
    assert all(err * m <= 0.5 for err, m in zip(errors, (4, 8, 16, 32)))


def test_asymptotic_mean_formula():
    rs = A1
    n = rs.dimension
    base = Metric(rs)
    want = (
        base.group_volume()
        * math.factorial(n)
        / (2 * math.pi) ** n
        * (4 * math.pi / 3)
        * (8 / math.sqrt(5)) ** n
    )
    assert asymptotic_mean(rs, 1.0, 8.0) == pytest.approx(want, rel=1e-12)


# -- limits ------------------------------------------------------------------------------

@pytest.mark.parametrize("name,tol", [("A1", 1e-12), ("A2", 1e-12), ("B2", 1e-12), ("G2", 5e-9)])
def test_limit_identity_factor_is_one(name, tol):
    rs = root_system(name)
    cmp_ = limit_real_proportion_group(rs)
    assert cmp_.closed_form == pytest.approx((rs.dimension + 2) ** (-rs.dimension / 2), abs=1e-15)
    assert cmp_.identity_factor == pytest.approx(1.0, rel=tol)
    assert cmp_.pipeline == pytest.approx(cmp_.closed_form, rel=tol)


def test_limit_is_metric_independent():
    for met in (Metric(A1), unit_volume_metric(A1), Metric(A1, Fraction(7, 3))):
        cmp_ = limit_real_proportion_group(A1, met)
        assert cmp_.pipeline == pytest.approx(kac_limit_a1(), abs=1e-12)


def kac_limit_a1() -> float:
    return 5 ** (-1.5)


def test_mismatched_systems_rejected():
    with pytest.raises(ValueError):
        complex_count_reductive([adjoint(A1), adjoint(A2), adjoint(A1)])
    with pytest.raises(ValueError):
        mean_real_count_group([adjoint(A1)] * 2)  # wrong system size
