"""Convex bodies: hulls, volumes, mixed volumes, polarization, serialization."""

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from realroots import exactalg as xa
from realroots.convex import (
    _incremental_hull,
    Ellipsoid,
    Polytope,
    body_from_json,
    body_to_json,
    convex_hull,
    ellipsoid_volume,
    integrate_polynomial_over_polytope,
    minkowski_sum,
    mixed_volume_ellipsoids,
    mixed_volume_polytopes,
    polarize,
    polytope_volume,
    unit_ball_volume,
)
from realroots.groups import _lattice_density_integral, weighted_polytope
from realroots.polynomials import Polynomial
from realroots.rootsystems import root_system
from realroots.torus import ball_support, box_support, complex_count_torus

coords = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4)


def square(a=0, b=1) -> Polytope:
    return convex_hull([(a, a), (b, a), (a, b), (b, b)])


def segment(direction, length=1) -> Polytope:
    tip = tuple(length * c for c in direction)
    origin = tuple(0 * c for c in direction)
    return convex_hull([origin, tip])


# -- hulls ------------------------------------------------------------------

def test_hull_drops_interior_and_duplicate_points():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), ("1/2", "1/2"), (1, 1)]
    h = convex_hull(pts)
    assert len(h.vertices) == 4
    assert h.volume() == 1


def test_hull_of_cube_with_centroid():
    pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    h = convex_hull(pts + [("1/2", "1/2", "1/2")])
    assert len(h.vertices) == 8
    assert h.volume() == 1


def test_hull_flat_in_higher_dimension_has_zero_volume():
    h = convex_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert h.dim == 3
    assert h.volume() == 0


def test_cross_polytope_volume():
    pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    assert convex_hull(pts).volume() == Fraction(4, 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=3, max_size=9))
def test_hull_volume_stable_under_convex_insertions(pts):
    h = convex_hull(pts)
    verts = h.vertices
    if len(verts) >= 2:
        # midpoint of two vertices is never extreme
        mid = tuple((a + b) / 2 for a, b in zip(verts[0], verts[1]))
        h2 = convex_hull(list(pts) + [mid])
        assert h2.volume() == h.volume()
        assert h2.vertices == verts


def test_hull_drops_points_that_end_on_a_later_edge_or_facet():
    # lexicographic insertion starts from (0,0,0), (0,0,1), (0,1,1), (1,1,1);
    # later points leave (0,0,1) on an edge and (0,1,1) inside the base square
    pts = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 2, 0), (0, 2, 2), (1, 1, 1)]
    boundary = {i for key in _incremental_hull([xa.as_vec(p) for p in pts], 3) for i in key}
    assert {1, 3} <= boundary
    h = convex_hull(pts)
    assert h.vertices == tuple(xa.as_vec(p) for p in [pts[0], pts[2], pts[4], pts[5], pts[6]])
    assert h.volume() == Fraction(4, 3)


def _scipy_vertices(pts: np.ndarray) -> list[tuple[int, ...]]:
    return sorted(tuple(int(c) for c in pts[i]) for i in ConvexHull(pts).vertices)


@pytest.mark.parametrize("dim,count,radius,seed", [(3, 40, 2, 0), (3, 60, 3, 1), (4, 40, 2, 2), (4, 45, 1, 3)])
def test_hull_vertices_match_scipy_on_integer_clouds(dim, count, radius, seed):
    # small integer boxes put many points on the hull's edges and facets
    rng = np.random.default_rng(seed)
    for _ in range(3):
        pts = np.unique(rng.integers(-radius, radius + 1, size=(count, dim)), axis=0)
        h = convex_hull([tuple(int(c) for c in p) for p in pts])
        assert [tuple(int(c) for c in v) for v in h.vertices] == _scipy_vertices(pts)
        assert float(h.volume()) == pytest.approx(ConvexHull(pts).volume, rel=1e-12)


def test_hull_of_a_three_flat_in_four_space():
    rng = np.random.default_rng(4)
    flat = np.unique(rng.integers(-2, 3, size=(40, 3)), axis=0)
    pts = [(int(a), int(b), int(c), int(a + b - c)) for a, b, c in flat]
    h = convex_hull(pts)
    assert h.dim == 4
    assert h.volume() == 0 and h.triangulation == ()
    assert [tuple(int(c) for c in v[:3]) for v in h.vertices] == _scipy_vertices(flat)


@pytest.mark.parametrize(
    "support,count", [(box_support(3, 2), 384), (box_support(4, 1), 384), (ball_support(3, 3), 544)]
)
def test_large_torus_complex_counts(support, count):
    assert complex_count_torus(support) == count


def test_translate_and_dilate():
    h = square()
    assert h.translate([5, -2]).volume() == 1
    assert h.dilate(3).volume() == 9
    assert h.dilate(Fraction(1, 2)).volume() == Fraction(1, 4)


# -- mixed volumes of polytopes ---------------------------------------------

def test_mixed_volume_diagonal_is_volume():
    h = convex_hull([(0, 0), (2, 0), (0, 3)])
    assert mixed_volume_polytopes([h, h]) == h.volume()


def test_mixed_volume_of_orthogonal_segments():
    assert mixed_volume_polytopes([segment((1, 0)), segment((0, 1))]) == Fraction(1, 2)
    # parallel segments span nothing
    assert mixed_volume_polytopes([segment((1, 1)), segment((2, 2))]) == 0


def test_mixed_volume_box_formula():
    # V(seg_x, seg_y, seg_z) = vol(box)/3!
    segs = [segment((1, 0, 0), 2), segment((0, 1, 0), 3), segment((0, 0, 1), 5)]
    assert mixed_volume_polytopes(segs) == Fraction(2 * 3 * 5, 6)


def test_mixed_volume_symmetry_and_translation_invariance():
    a = convex_hull([(0, 0), (1, 0), (0, 1)])
    b = convex_hull([(0, 0), (2, 1), (1, 2), (-1, 1)])
    assert mixed_volume_polytopes([a, b]) == mixed_volume_polytopes([b, a])
    assert mixed_volume_polytopes([a.translate([7, -3]), b]) == mixed_volume_polytopes([a, b])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_mixed_volume_multilinearity_on_dilates(p, q):
    a = convex_hull([(0, 0), (1, 0), (0, 1)])
    b = convex_hull([(0, 0), (1, 1), (-1, 1)])
    c = convex_hull([(0, 0), (2, 0), (0, 1), (2, 1)])
    # V(pA + qB, C) = p V(A,C) + q V(B,C); Minkowski scaling by non-negative ints
    if p == 0 and q == 0:
        return
    left = a.dilate(p) if q == 0 else (b.dilate(q) if p == 0 else minkowski_sum(a.dilate(p), b.dilate(q)))
    lhs = mixed_volume_polytopes([left, c])
    rhs = p * mixed_volume_polytopes([a, c]) + q * mixed_volume_polytopes([b, c])
    assert lhs == rhs


def test_bkk_bezout_case():
    # dense degree-d supports in 2 variables: count = d1*d2
    t = convex_hull([(0, 0), (1, 0), (0, 1)])
    for d1, d2 in [(1, 1), (2, 3)]:
        v = mixed_volume_polytopes([t.dilate(d1), t.dilate(d2)])
        assert math.factorial(2) * v == d1 * d2


def test_minkowski_sum_of_squares():
    s = minkowski_sum(square(), square())
    assert s.volume() == 4


def test_polarize_diagonal_shortcut_matches_functional():
    h = convex_hull([(0, 0), (3, 0), (0, 2), (3, 2)])
    assert polarize([h, h], polytope_volume) == h.volume()


def subset_polarization(bodies, functional):
    """Reference: (1/n!) sum over all nonempty subsets S of
    (-1)^(n-|S|) functional(Minkowski sum of S), with no grouping."""
    n = len(bodies)
    total = 0
    for size in range(1, n + 1):
        for subset in combinations(bodies, size):
            total += (-1) ** (n - size) * functional(reduce(minkowski_sum, subset))
    return total / math.factorial(n)


TRIANGLE = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
SEGMENT = convex_hull([(0, 0, -1), (0, 0, 2)])
OCTAHEDRON = convex_hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
BOX = convex_hull([(x, y, z) for x in (0, 2) for y in (0, 1) for z in (-1, 1)])


@pytest.mark.parametrize(
    "bodies",
    [
        [OCTAHEDRON, BOX, OCTAHEDRON],
        [TRIANGLE, TRIANGLE, SEGMENT],
        [BOX, SEGMENT, OCTAHEDRON],
        [SEGMENT, SEGMENT, SEGMENT],
    ],
)
def test_polarize_over_distinct_bodies_matches_subset_sum_for_volume(bodies):
    assert polarize(bodies, Polytope.volume) == subset_polarization(bodies, Polytope.volume)


@pytest.mark.parametrize("name,weights", [("A1", [(2,), (2,), (3,)]), ("A1", [(1,), (4,), (1,)])])
def test_polarize_over_distinct_bodies_matches_subset_sum_for_lattice_functional(name, weights):
    rs = root_system(name)
    bodies = [weighted_polytope(rs, w) for w in weights]

    def functional(body):
        return _lattice_density_integral(rs, body)

    assert polarize(bodies, functional) == subset_polarization(bodies, functional)


# -- ellipsoids --------------------------------------------------------------

def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2)


def test_ellipsoid_support_and_volume():
    e = Ellipsoid(np.diag([4.0, 9.0]))
    assert e.support([1.0, 0.0]) == pytest.approx(2.0)
    assert e.support([0.0, 1.0]) == pytest.approx(3.0)
    assert e.volume() == pytest.approx(6 * math.pi)
    assert ellipsoid_volume(e) == pytest.approx(6 * math.pi)
    assert Ellipsoid(2.25 * np.eye(3)).ball_radius() == pytest.approx(1.5)
    assert Ellipsoid(np.diag([1.0, 2.0])).ball_radius() is None


def test_disc_pair_mixed_volume_is_pi_r_s():
    # mixed volume of balls is the product of radii times the unit ball volume
    for r, s in [(1.0, 1.0), (0.5, 2.0), (1.3, 0.7)]:
        res = mixed_volume_ellipsoids(
            [Ellipsoid(r * r * np.eye(2)), Ellipsoid(s * s * np.eye(2))]
        )
        assert res.method == "balls"
        assert res.value == pytest.approx(math.pi * r * s, rel=1e-12)


def test_ball_mixed_volume_three_dimensional():
    radii = (0.8, 1.1, 1.7)
    es = [Ellipsoid(r * r * np.eye(3)) for r in radii]
    res = mixed_volume_ellipsoids(es)
    assert res.value == pytest.approx(unit_ball_volume(3) * math.prod(radii), rel=1e-12)


def test_exact2d_agrees_with_ball_formula():
    e1 = Ellipsoid(0.49 * np.eye(2))
    e2 = Ellipsoid(1.21 * np.eye(2))
    res = mixed_volume_ellipsoids([e1, e2], method="exact2d")
    assert res.value == pytest.approx(math.pi * 0.7 * 1.1, rel=1e-9)


def test_exact2d_on_general_pair_vs_monte_carlo():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    e1 = Ellipsoid(a @ a.T + 0.1 * np.eye(2))
    e2 = Ellipsoid(b @ b.T + 0.1 * np.eye(2))
    quadrature = mixed_volume_ellipsoids([e1, e2], method="exact2d")
    mc = mixed_volume_ellipsoids([e1, e2], method="mc", samples=400_000, seed=9)
    assert mc.stderr > 0
    assert abs(mc.value - quadrature.value) < 4 * mc.stderr


def test_alexandrov_fenchel_on_ellipse_pairs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        e1 = Ellipsoid(a @ a.T + 0.05 * np.eye(2))
        e2 = Ellipsoid(b @ b.T + 0.05 * np.eye(2))
        v12 = mixed_volume_ellipsoids([e1, e2], method="exact2d").value
        assert v12 * v12 >= e1.volume() * e2.volume() * (1 - 1e-9)


def test_one_dimensional_mixed_volume_is_diameter():
    res = mixed_volume_ellipsoids([Ellipsoid(np.array([[6.25]]))], method="exact1d")
    assert res.value == pytest.approx(5.0)


def test_mc_method_requires_seed():
    es = [Ellipsoid(np.eye(2)), Ellipsoid(np.eye(2))]
    with pytest.raises(ValueError):
        mixed_volume_ellipsoids(es, method="mc")


# -- exact integration over polytopes ----------------------------------------

def test_polytope_moments_over_unit_square():
    sq = square()
    x = Polynomial.linear_form([Fraction(1), Fraction(0)])
    y = Polynomial.linear_form([Fraction(0), Fraction(1)])
    assert integrate_polynomial_over_polytope(sq, x * x * y * y) == Fraction(1, 9)
    assert integrate_polynomial_over_polytope(sq, x ** 6) == Fraction(1, 7)
    assert integrate_polynomial_over_polytope(sq, (x + y) ** 2) == Fraction(7, 6)


def test_polytope_moment_over_centered_hexagon():
    # degree-6 density over a lattice hexagon; value cross-checked by an
    # independent 4M-point Monte Carlo estimate (z = 0.67)
    hexagon = convex_hull(
        [(1, 1), (-1, -1), (2, -1), (-2, 1), (-1, 2), (1, -2)]
    )
    assert hexagon.volume() == 9
    g = [[Fraction(1, 9), Fraction(1, 18)], [Fraction(1, 18), Fraction(1, 9)]]
    density = Polynomial.constant(2, Fraction(1))
    for root in [(2, -1), (-1, 2), (1, 1)]:
        coeffs = [sum(g[i][j] * root[j] for j in range(2)) for i in range(2)]
        form = Polynomial.linear_form(coeffs)
        density = density * form * form
    assert integrate_polynomial_over_polytope(hexagon, density) == Fraction(103, 1451520)


# -- serialization ------------------------------------------------------------

def test_polytope_json_round_trip_is_exact():
    h = convex_hull([(0, 0), ("1/3", 0), (0, "2/7")])
    back = body_from_json(body_to_json(h))
    assert isinstance(back, Polytope)
    assert back.vertices == h.vertices
    assert back.volume() == h.volume()


def test_ellipsoid_json_round_trip():
    e = Ellipsoid(np.array([[2.0, 0.5], [0.5, 1.0]]))
    back = body_from_json(body_to_json(e))
    assert isinstance(back, Ellipsoid)
    assert np.allclose(back.Q, e.Q)
    assert back.volume() == pytest.approx(e.volume())
