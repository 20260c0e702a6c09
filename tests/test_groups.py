"""Invariant ensembles on compact groups: radii, counts, limits, asymptotics."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

import rootsystem_oracle
from hull_oracle import orbit_polytope
from package_caches import clear_package_caches, package_caches
from realroots import cli, convex, groups, rootsystems
from realroots.convex import Polytope
from realroots.groups import (
    RepEnsemble,
    _limit_identity_factor,
    asymptotic_mean,
    asymptotic_radius,
    complex_count_reductive,
    f_form,
    killing_radius,
    limit_real_proportion_group,
    mean_real_count_group,
    newton_body_volume,
    real_proportion_group,
    weighted_polytope,
)
from realroots.rootsystems import Metric, root_system, symmetric_partner, unit_volume_metric

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
    with pytest.raises(ValueError, match="multiplicity 2.5"):
        RepEnsemble(A2, [((1, 1), 2.5)])  # refused, not truncated to 2
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"multiplicity {bad} is not an integer"):
            RepEnsemble(A2, [((1, 1), bad)])
    merged = RepEnsemble(A1, [((1,), 1), ((1,), 2)])
    assert merged.entries == (((Fraction(1),), 3),)


def test_ensemble_weights_are_int_rows():
    ens = RepEnsemble(A2, [((Fraction(1), 1), 1), ((1, 1), 2), (("2", 0), 1), ((0, 2.0), 1)])
    assert ens.entries == (((0, 2), 1), ((1, 1), 3), ((2, 0), 1))
    assert all(type(c) is int for w in ens.weights for c in w)
    # ints compare and hash equal to integral Fractions
    assert hash(ens.weights[1]) == hash((Fraction(1), Fraction(1)))
    assert ens.require_self_dual() is ens


def test_ball_spectrum_rank_one():
    ens = RepEnsemble.ball(A1, 1)
    assert ens.weights == ((Fraction(0),), (Fraction(1),), (Fraction(2),))
    bigger = RepEnsemble.ball(A1, 1, dilation=2)
    assert len(bigger.weights) == 1 + math.floor(2 * 2 * math.sqrt(2))


def test_flattening():
    heavy = RepEnsemble(A1, [((2,), 3), ((0,), 2)])
    assert not heavy.is_flat
    flat = heavy.flatten()
    assert flat.is_flat and flat.weights == heavy.weights
    assert flat.flatten() is flat


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
    assert killing_radius(heavy) == killing_radius(heavy.flatten())


def test_f_form_geometry():
    form = f_form(adjoint(A1))
    assert form.dimension == 3
    assert form.radius_sq_killing == Fraction(1, 3)
    assert form.radius() == pytest.approx(1 / math.sqrt(3), rel=1e-12)


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
    # a rational weight: the orbit of (1, 1), halved
    half = weighted_polytope(A2, (Fraction(1, 2), Fraction(1, 2)))
    assert half == hexagon.dilate(Fraction(1, 2)) and half.volume() == Fraction(9, 4)


def assert_same_polytope(body, want):
    assert body.coords == want.coords and body.denominator == want.denominator
    assert body.facets == want.facets and body.triangulation == want.triangulation
    assert body.volume() == want.volume()


@pytest.mark.parametrize("name, radii", [("A2", (2, 4, 6)), ("B2", (2, 4, 6)), ("G2", (2, 4, 6)),
                                         ("A3", (1, 2)), ("C3", (1, 2))])
def test_ball_body_from_maximal_weights_is_the_hull_of_every_orbit(name, radii):
    rs = root_system(name)
    for r in radii:
        ens = RepEnsemble.ball(rs, 1, r)
        assert_same_polytope(weighted_polytope(ens), orbit_polytope(rs, ens.weights))


def test_a_dominated_weight_leaves_the_body_unchanged():
    # (2, 2) - (1, 1) = alpha_1 + alpha_2, so the adjoint orbit lies inside
    # the hull of the orbit of (2, 2)
    ens = RepEnsemble(A2, [((1, 1), 1), ((2, 2), 1)])
    body = weighted_polytope(ens)
    assert_same_polytope(body, orbit_polytope(A2, ens.weights))
    assert_same_polytope(body, weighted_polytope(A2, (2, 2)))


@pytest.mark.parametrize("name, weight", [
    ("A2", (Fraction(1, 2), Fraction(1, 3))),
    ("B2", (Fraction(3, 2), Fraction(-1, 3))),
    ("G2", (-1, 2)),
    ("A3", (1, -2, 1)),
], ids=["A2-rational", "B2-rational-non-dominant", "G2-non-dominant", "A3-non-dominant"])
def test_a_rational_or_non_dominant_weight_gives_the_hull_of_its_orbit(name, weight):
    rs = root_system(name)
    assert_same_polytope(weighted_polytope(rs, weight), orbit_polytope(rs, [weight]))


def test_wrong_rank_weight_is_a_value_error():
    # a short weight row would zip against the Cartan rows and give a
    # lower-dimensional orbit
    with pytest.raises(ValueError, match="rank"):
        A2.lattice_orbit((1,))
    with pytest.raises(ValueError, match="rank"):
        weighted_polytope(A2, (1,))
    with pytest.raises(ValueError, match="rank"):
        newton_body_volume(A2, (1, 1, 1))
    with pytest.raises(ValueError, match="rank"):
        A1.weyl_orbit((1, 0))
    with pytest.raises(ValueError, match="needs a weight"):
        weighted_polytope(A2)
    with pytest.raises(ValueError, match="needs a weight"):
        newton_body_volume(A2)


def test_a_body_built_from_vertices_is_the_weight_polytope():
    h = weighted_polytope(A2, (1, 1))
    body = Polytope(h.vertices)
    assert body == h and body.volume() == h.volume() == 9
    assert asymptotic_radius(A2, body) == asymptotic_radius(A2, h)
    assert newton_body_volume(A2, (1, 1)) > 0


def test_newton_body_volume_of_unit_metric_ball():
    # rank-one metric ball of radius 1 is the segment of weight length 2 sqrt 2;
    # its calibrated Newton-body volume is the Euclidean unit-ball volume in
    # the group dimension
    r = Fraction(2 * math.sqrt(2))
    v = newton_body_volume(A1, (r,), metric=Metric(A1))
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


def test_rank_one_system_spelled_two_ways_is_one_system():
    # "a1" and "A1" name one root system: a system of ensembles built from
    # both spellings is a system on A1, not a mismatch
    ens = [adjoint(root_system("a1")), adjoint(A1), RepEnsemble.single(root_system(" a1"), (4,))]
    assert complex_count_reductive(ens) == 32
    assert mean_real_count_group(ens) == mean_real_count_group(
        [adjoint(A1), adjoint(A1), RepEnsemble.single(A1, (4,))])


@pytest.mark.parametrize(
    "name,count",
    [("A2", 5562), ("B2", 24576), ("G2", 10576332)],
)
def test_rank_two_adjoint_counts(name, count):
    # frozen lattice-route values.  In Tier-1 the A2, B2 and G2 density
    # integrals are checked against the expanded-Fraction Grundmann-Moller
    # rule and the whole-body rule (tests/test_quadrature.py); both share the
    # exact hull, and the calibrated route below shares the facet integral,
    # so nothing here is independent of the hull
    rs = root_system(name)
    ens = [adjoint(rs)] * rs.dimension
    lattice = complex_count_reductive(ens, route="lattice")
    assert lattice == count
    calibrated = complex_count_reductive(ens, route="calibrated")
    assert calibrated == pytest.approx(float(count), rel=1e-9)


def test_rank_two_mixed_spectra_with_repeats():
    # nine copies of one body and one other, not a dilate of it: 11
    # functional evaluations, one per b / gcd(b) over 0 <= b <= (9, 1),
    # against 1023 Minkowski sums without grouping
    b2 = root_system("B2")
    ens = [adjoint(b2)] * 9 + [RepEnsemble.single(b2, (1, 1))]
    assert complex_count_reductive(ens, route="lattice") == 36864
    assert complex_count_reductive(ens, route="calibrated") == pytest.approx(36864.0, rel=1e-9)


@pytest.mark.parametrize("route", ["lattice", "calibrated"])
def test_a2_spectra_of_dilated_adjoint_bodies(route):
    # the (2, 2) body is twice the adjoint one, and the count is homogeneous
    # of degree 1 in each of the dim A2 = 8 bodies
    for a in range(9):
        ens = [adjoint(A2)] * a + [RepEnsemble.single(A2, (2, 2))] * (8 - a)
        count = complex_count_reductive(ens, route=route)
        if route == "lattice":
            assert count == 5562 * 2 ** (8 - a)
        else:
            assert count == pytest.approx(5562 * 2 ** (8 - a), rel=1e-9)


def test_ensembles_on_equal_root_systems_from_before_and_after_a_cache_clear_form_one_system():
    # root_system hands out one object per system only while its cache holds
    # it: built again after cache_clear(), the system is equal, not the same
    before = adjoint(root_system("A2"))
    rootsystems._root_system.cache_clear()
    after = adjoint(root_system("A2"))
    assert before.rs is not after.rs and before.rs == after.rs
    assert complex_count_reductive([before] * 4 + [after] * 4) == 5562


def counting(monkeypatch, module, name) -> list:
    """Record every call of module.name."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_second_route_reads_hulls_and_integrals_from_the_caches(monkeypatch):
    clear_package_caches()
    ens = adjoint(root_system("B2"))
    real_proportion_group(ens)
    integrals = counting(monkeypatch, convex, "integrate_over_simplex")
    hulls = counting(monkeypatch, groups, "convex_hull")
    calibrated = complex_count_reductive(ens, route="calibrated")
    assert integrals == [] and hulls == []
    # cleared by the rule the bench applies before each pass, it recomputes
    caches = package_caches()
    assert groups._orbit_hull in caches and groups._density_integral in caches
    for cache in caches:
        cache.cache_clear()
    assert complex_count_reductive(ens, route="calibrated") == calibrated
    assert len(hulls) == 1 and integrals


# the adjoint counts the bench pins, and the A2 system of a adjoint bodies and
# 8 - a of twice their size
ADJOINT_COUNTS = {"A1": 16, "A2": 5562, "A3": 15933760, "B2": 24576, "C3": 3657433088,
                  "G2": 10576332}
CACHED_SYSTEMS = [(name, None) for name in ADJOINT_COUNTS] + [("A2", a) for a in range(1, 8)]


@pytest.mark.parametrize("name, a", CACHED_SYSTEMS,
                         ids=[name if a is None else f"A2-{a}+{8 - a}" for name, a in CACHED_SYSTEMS])
def test_counts_are_the_same_from_warm_and_cold_caches(name, a):
    clear_package_caches()
    rs = root_system(name)
    if a is None:
        system, want = adjoint(rs), ADJOINT_COUNTS[name]
    else:
        system = [adjoint(rs)] * a + [RepEnsemble.single(rs, (2, 2))] * (8 - a)
        want = 5562 * 2 ** (8 - a)
    cold_lattice = complex_count_reductive(system, route="lattice")
    clear_package_caches()
    cold_calibrated = complex_count_reductive(system, route="calibrated")
    warm = [complex_count_reductive(system, route=route) for route in ("lattice", "calibrated")]
    assert cold_lattice == warm[0] == want and type(warm[0]) is Fraction
    assert cold_calibrated == warm[1] and type(warm[1]) is float


def test_standard_representation_count_a2():
    ens = [RepEnsemble.single(A2, (1, 0))] * A2.dimension
    assert complex_count_reductive(ens) == 3


def test_counts_are_metric_invariant():
    ens = [adjoint(A2)] * A2.dimension
    base = complex_count_reductive(ens, route="calibrated", metric=Metric(A2))
    scaled = complex_count_reductive(ens, route="calibrated", metric=Metric(A2, Fraction(7, 3)))
    assert scaled == pytest.approx(base, rel=1e-11)


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(7, 3)], ids=["1", "7/3"])
@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "C3"])
def test_calibrated_count_reads_the_lattice_count(name, scale):
    # the calibrated route gathers its constants exactly and reads one
    # double, so it is float(lattice) to 2 ulp (the float chain was off by
    # up to 1.1e-15)
    rs = root_system(name)
    ens = [adjoint(rs)] * rs.dimension
    lattice = float(complex_count_reductive(ens))
    calibrated = complex_count_reductive(ens, route="calibrated", metric=Metric(rs, scale))
    assert abs(calibrated - lattice) <= 4.5e-16 * lattice


def test_trivial_spectrum_and_point_body_give_zero():
    for rs in (A1, A2):
        zero = (0,) * rs.rank
        trivial = RepEnsemble.single(rs, zero)
        assert mean_real_count_group(trivial) == 0.0
        assert newton_body_volume(rs, zero) == 0.0
        assert newton_body_volume(trivial, metric=Metric(rs, Fraction(7, 3))) == 0.0
        assert complex_count_reductive(trivial, route="calibrated") == 0.0


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


def _log(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


@pytest.mark.parametrize("name", ["A13", "B10", "A15", "D12", "A20"])
def test_adjoint_mean_past_the_double_range(name):
    # n! times a float overflowed from dim K = 171 on, and math.gamma in the
    # unit-ball volume at A20; the reference is a log sum: Macdonald's
    # vol(K) = (2 pi)^(N + r) covol(coroots) / p(rho), then
    # n! vol(B^n) / (2 pi)^n and n equal radii
    rs = root_system(name)
    n, met = rs.dimension, Metric(rs)
    log_vol = ((rs.num_positive_roots + rs.rank) * math.log(2 * math.pi)
               + _log(met.coroot_gram_det()) / 2 - _log(met.root_product_at_rho()))
    log_want = (log_vol + math.lgamma(n + 1) + n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1)
                - n * math.log(2 * math.pi) + n / 2 * _log(f_form(adjoint(rs)).radius_sq_killing))
    mean = mean_real_count_group(adjoint(rs))
    assert math.isfinite(mean)
    assert mean == pytest.approx(math.exp(log_want), rel=1e-9)


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


def test_real_proportion_group_summary(capsys):
    res = real_proportion_group([adjoint(A1)] * 3)
    assert res.root_system == "A1"
    assert res.complex_exact == 16
    assert res.proportion == pytest.approx(2 * math.sqrt(6) / 9, rel=1e-12)
    d = dataclasses.asdict(res)
    assert list(d) == ["root_system", "real_count", "complex_count", "complex_exact", "proportion", "route"]
    assert (d["complex_exact"], d["route"]) == (Fraction(16), "lattice")
    # the CLI report carries the exact count as its exact string
    assert cli.main(["group", "--system", "A1", *["--spectrum", "adjoint"] * 3]) == 0
    report = json.loads(capsys.readouterr().out)["results"]
    assert (report["complex_exact"], report["route"]) == ("16", "lattice")


def test_real_count_needs_a_spectrum_closed_under_duality():
    # the standard representation of SU(3) is of complex type: a real
    # ensemble needs its dual as well
    standard = RepEnsemble.single(A2, (1, 0))
    with pytest.raises(ValueError, match="closed under duality"):
        mean_real_count_group(standard)
    with pytest.raises(ValueError, match="closed under duality"):
        real_proportion_group(standard)
    closed = RepEnsemble(A2, [((1, 0), 1), ((0, 1), 1)])
    assert closed.require_self_dual() is closed
    res = real_proportion_group(closed)
    assert res.complex_exact == 42
    assert res.proportion == pytest.approx(0.1679, abs=1e-4)


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "C3", "D4", "G2"])
def test_integer_radius_and_duality_check_match_the_fraction_oracle(name):
    rs = root_system(name)
    ball = RepEnsemble.ball(rs, 1)
    assert f_form(ball).radius_sq_killing == rootsystem_oracle.radius_sq_killing(ball)
    assert rootsystem_oracle.missing_duals(ball) == ""
    assert ball.require_self_dual() is ball
    # keep one weight of each dual pair: the message lists the other ones
    half = RepEnsemble(rs, [(w, 1) for w in ball.weights if w >= symmetric_partner(rs, w)])
    message = rootsystem_oracle.missing_duals(half)
    assert (message != "") == (name in ("A2", "A3", "A4"))
    if message:
        with pytest.raises(ValueError) as err:
            half.require_self_dual()
        assert str(err.value) == message
    else:
        assert half.require_self_dual() is half


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_real_count_at_most_complex_count_for_dual_closed_spectra(name):
    # every nonzero dominant weight of norm <= 1 with its dual; the slack
    # covers A1 weight (1), whose proportion is exactly 1
    rs = root_system(name)
    weights = [w for w in Metric(rs).dominant_weights_in_ball(1) if any(w)]
    assert weights
    for w in weights:
        ens = RepEnsemble(rs, [(w, 1), (symmetric_partner(rs, w), 1)])
        res = real_proportion_group(ens)
        assert res.real_count <= res.complex_count * (1 + 1e-12), w


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
        errors.append(abs(killing_radius(RepEnsemble.ball(A1, m)) / m - target))
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


@pytest.mark.parametrize("radius", [-1, -2.0, -math.inf, math.inf, math.nan])
def test_asymptotics_reject_a_ball_radius_that_is_not_finite_and_non_negative(radius):
    # -1 read a radius of -0.447 and -2.0 a mean of -32.38 at dilation 1
    with pytest.raises(ValueError, match="ball radius"):
        asymptotic_radius(A1, radius)
    with pytest.raises(ValueError, match="ball radius"):
        asymptotic_mean(A1, radius, 1.0)


@pytest.mark.parametrize("dilation", [-2.0, 0, -math.inf, math.inf, math.nan])
def test_asymptotic_mean_rejects_a_dilation_that_is_not_finite_and_positive(dilation):
    # -2.0 read -32.38; inf and nan came back as inf and nan
    for body in (1, weighted_polytope(adjoint(A1))):
        with pytest.raises(ValueError, match="dilation"):
            asymptotic_mean(A1, body, dilation)


def test_asymptotic_mean_of_a_zero_ball_is_zero():
    assert asymptotic_radius(A1, 0) == 0.0
    assert asymptotic_mean(A1, 0, 3) == 0.0


def test_polytope_limit_law_by_richardson_extrapolation():
    # the limit law beyond the ball: S_m, the dominant weights in m P with
    # P = [-2, 2] = conv(W theta), has Newton body m P, so its complex count
    # is m^3 count(theta); its proportion over L(P), the asymptotic mean of P
    # over count(theta), is 1 + c / m + O(1 / m^2) (1.071 at m = 32, 1.035 at
    # m = 64), and 2 r(64) - r(32) removes the 1 / m term
    body = weighted_polytope(adjoint(A1))
    limit = asymptotic_mean(A1, body, 1) / float(complex_count_reductive(adjoint(A1)))

    def ratio(m):
        spectrum = RepEnsemble(A1, [((w,), 1) for w in range(2 * m + 1)])
        assert weighted_polytope(spectrum) == body.dilate(m)
        return real_proportion_group(spectrum).proportion / limit

    assert 2 * ratio(64) - ratio(32) == pytest.approx(1.0, abs=1e-3)


# -- limits ------------------------------------------------------------------------------

# B4 and C4 read 1 + 4e-4 when the ball moment went through float sphere sums
@pytest.mark.parametrize(
    "name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "B4", "C4", "A5", "B5", "C5", "D5"]
)
def test_limit_identity_factor_is_one(name):
    rs = root_system(name)
    cmp_ = limit_real_proportion_group(rs)
    assert cmp_.closed_form == pytest.approx((rs.dimension + 2) ** (-rs.dimension / 2), abs=1e-15)
    assert cmp_.identity_factor == pytest.approx(1.0, rel=1e-14)
    assert cmp_.pipeline == pytest.approx(cmp_.closed_form, rel=1e-14)


@pytest.mark.parametrize("name", ["A15", "B11", "C11"])
def test_limit_stays_in_range_past_rank_ten(name):
    # the ball moment underflowed to 0 here (ZeroDivisionError)
    rs = root_system(name)
    cmp_ = limit_real_proportion_group(rs)
    assert cmp_.identity_factor == pytest.approx(1.0, abs=1e-12)
    assert cmp_.closed_form > 0
    assert cmp_.pipeline == pytest.approx(cmp_.closed_form, rel=1e-12)


@pytest.mark.parametrize("name", ["D12", "A20"])
def test_limit_past_the_double_range_names_the_underflow(name):
    # dim D12 = 276 and dim A20 = 440: (n + 2)^(-n/2) is below 1e-308, so the
    # proportion cannot be a double; the identity factor still reads 1 (A20
    # raised OverflowError in math.gamma, D12 ZeroDivisionError)
    rs = root_system(name)
    for met in (Metric(rs), Metric(rs, Fraction(7, 3))):
        assert _limit_identity_factor(rs, met) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ArithmeticError, match="underflows a double"):
        limit_real_proportion_group(rs)


def test_limit_is_metric_independent():
    for met in (Metric(A1), unit_volume_metric(A1), Metric(A1, Fraction(7, 3))):
        cmp_ = limit_real_proportion_group(A1, met)
        assert cmp_.pipeline == pytest.approx(kac_limit_a1(), abs=1e-12)


def kac_limit_a1() -> float:
    return 5 ** (-1.5)


# a metric of B2 given for an A2 system read identity_factor 47.12, a
# calibrated count of 411036.4 for 5562 and a Newton-body volume of 1.532
# for 0.0305

def test_limit_rejects_a_metric_of_another_system():
    with pytest.raises(ValueError, match="B2.*A2"):
        limit_real_proportion_group(A2, Metric(root_system("B2")))


@pytest.mark.parametrize("route", ["lattice", "calibrated"])
def test_complex_count_rejects_a_metric_of_another_system(route):
    with pytest.raises(ValueError, match="B2.*A2"):
        complex_count_reductive(adjoint(A2), route=route, metric=Metric(root_system("B2")))


@pytest.mark.parametrize("route", ["lattice", "calibrated"])
def test_real_proportion_rejects_a_metric_of_another_system(route):
    with pytest.raises(ValueError, match="B2.*A2"):
        real_proportion_group(adjoint(A2), route=route, metric=Metric(root_system("B2")))


def test_newton_body_volume_rejects_a_metric_of_another_system():
    with pytest.raises(ValueError, match="B2.*A2"):
        newton_body_volume(adjoint(A2), metric=Metric(root_system("B2")))


def test_mismatched_systems_rejected():
    with pytest.raises(ValueError):
        complex_count_reductive([adjoint(A1), adjoint(A2), adjoint(A1)])
    with pytest.raises(ValueError):
        mean_real_count_group([adjoint(A1)] * 2)  # wrong system size
