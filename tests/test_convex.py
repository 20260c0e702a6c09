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

from realroots import convex
from realroots import exactalg as xa
import gaussian_oracle
import hull_oracle
from planar_oracle import agm_loop_mixed_area, polarized_mixed_area
from quadrature_oracles import monomial_forms
from realroots.convex import (
    _affine_basis,
    _beneath_beyond,
    _mixed_area,
    _sphere_mixed_volume,
    Ellipsoid,
    Polytope,
    body_from_json,
    body_to_json,
    convex_hull,
    integrate_polynomial_over_polytope,
    minkowski_sum,
    mixed_volume_ellipsoids,
    mixed_volume_polytopes,
    polarize,
    unit_ball_volume,
)
from realroots.groups import _invariant_integral, _squared_root_product, weighted_polytope
from realroots.montecarlo import gaussian_mixed_volume
from realroots.polynomials import Polynomial
from realroots.rootsystems import root_system
from realroots.torus import Support, ball_support, box_support, complex_count_torus

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


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_polytope_of_points_is_their_hull(dim):
    # the constructor hulls its points: interior and repeated points drop out
    rng = np.random.default_rng(40 + dim)
    pts = [tuple(int(c) for c in p) for p in rng.integers(-2, 3, size=(20, dim))]
    pts += pts[:5] + [(0,) * dim]
    body, hull = Polytope(pts), convex_hull(pts)
    assert body == hull
    assert (body.vertices, body.facets, body.triangulation, body.volume()) == (
        hull.vertices, hull.facets, hull.triangulation, hull.volume()
    )
    assert len(body.vertices) < len(set(pts))
    expected = (max(pts)[0] - min(pts)[0] if dim == 1
                else ConvexHull(np.array(pts, dtype=float)).volume)
    assert body.volume() == pytest.approx(expected, rel=1e-12)


def test_polytope_of_a_triangle_has_its_area_and_mixed_volume():
    triangle = Polytope([(0, 0), (1, 0), (0, 1)])
    assert triangle.volume() == Fraction(1, 2) and len(triangle.facets) == 3
    assert triangle.triangulation == ((0, 1, 2),)
    assert mixed_volume_polytopes([triangle] * 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        Polytope([])
    with pytest.raises(ValueError):
        Polytope([(0, 0), (1,)])


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
    boundary = {i for key in _beneath_beyond(pts, _affine_basis(pts)[0]) for i in key}
    assert {1, 3} <= boundary
    h = convex_hull(pts)
    assert h.vertices == tuple(xa.as_vec(p) for p in [pts[0], pts[2], pts[4], pts[5], pts[6]])
    assert h.volume() == Fraction(4, 3)


def _scipy_vertices(pts: np.ndarray) -> list[tuple[int, ...]]:
    return sorted(tuple(int(c) for c in pts[i]) for i in ConvexHull(pts).vertices)


@pytest.mark.parametrize(
    "dim,count,radius,seed",
    [(2, 30, 3, 5), (2, 60, 2, 6), (3, 40, 2, 0), (3, 60, 3, 1), (4, 40, 2, 2), (4, 45, 1, 3)],
)
def test_hull_vertices_match_scipy_on_integer_clouds(dim, count, radius, seed):
    # small integer boxes put many points on the hull's edges and facets
    rng = np.random.default_rng(seed)
    for _ in range(3):
        pts = np.unique(rng.integers(-radius, radius + 1, size=(count, dim)), axis=0)
        h = convex_hull([tuple(int(c) for c in p) for p in pts])
        assert [tuple(int(c) for c in v) for v in h.vertices] == _scipy_vertices(pts)
        assert float(h.volume()) == pytest.approx(ConvexHull(pts).volume, rel=1e-12)


def _hull_record(h: Polytope):
    return h.coords, h.denominator, h.facets, h.triangulation, h.volume()


def _assert_hulls_match_the_oracles(monkeypatch, build):
    # the lifted (v, 1) plane and the index-order vertex pass, alone and
    # together, give the same hull to the last facet's position
    import realroots.convex as cx

    want = _hull_record(build())
    oracles = {"_facet_plane": hull_oracle.facet_plane, "_extreme_points": hull_oracle.extreme_points}
    for names in (["_facet_plane"], ["_extreme_points"], list(oracles)):
        with monkeypatch.context() as patch:
            for name in names:
                patch.setattr(cx, name, oracles[name])
            assert _hull_record(build()) == want


@pytest.mark.parametrize(
    "dim,count,radius,seed",
    [(1, 12, 3, 24), (2, 30, 2, 25), (3, 40, 1, 20), (3, 60, 2, 21), (4, 40, 1, 22), (4, 45, 2, 23),
     (5, 24, 1, 26)],
)
def test_facet_planes_match_the_fraction_oracle(monkeypatch, dim, count, radius, seed):
    # small integer boxes put several points on most facet planes, so the
    # starting planes come from elimination orders with and without row
    # swaps, and many later planes are rotated onto the plane of the
    # invisible facet the new point lies on; every facet's plane must be the
    # lifted null vector of its own vertices
    rng = np.random.default_rng(seed)
    for _ in range(4):
        pts = sorted({tuple(int(c) for c in p) for p in rng.integers(-radius, radius + 1, size=(count, dim))})
        basis, _ = _affine_basis(pts)
        ref = tuple(map(sum, zip(*(pts[i] for i in basis))))
        facets = _beneath_beyond(pts, basis)
        for key, (normal, offset) in facets.items():
            assert len(key) == dim and math.gcd(*normal) == 1
            assert all(sum(a * b for a, b in zip(normal, pts[i])) == offset for i in key)
            assert (normal, offset) == hull_oracle.facet_plane(pts, tuple(sorted(key)), ref)
        _assert_hulls_match_the_oracles(monkeypatch, lambda: convex_hull(pts))


@pytest.mark.parametrize(
    "build",
    [
        lambda: convex_hull(box_support(3, 2).points),
        lambda: convex_hull(box_support(4, 1).points),
        lambda: convex_hull(ball_support(3, 2).points),
        lambda: minkowski_sum(convex_hull(box_support(3, 1).points), convex_hull(ball_support(3, 1).points)),
    ],
    ids=["box:3:2", "box:4:1", "ball:3:2", "box:3:1+ball:3:1"],
)
def test_support_hulls_match_the_oracles(monkeypatch, build):
    _assert_hulls_match_the_oracles(monkeypatch, build)


def test_farthest_first_pass_keeps_a_point_that_ends_on_an_edge(monkeypatch):
    # farthest first, (4,0,4) and then (4,0,3) go in before (4,0,2), so
    # (4,0,3) stays in the vertex pass's complex, on the edge from (4,0,2) to
    # (4,0,4), and only the rank test drops it
    import realroots.convex as cx

    complexes = []

    def spy(coords, simplex):
        facets = _beneath_beyond(coords, simplex)
        complexes.append({coords[i] for key in facets for i in key})
        return facets

    monkeypatch.setattr(cx, "_beneath_beyond", spy)
    pts = [(0, 2, 0), (1, 2, 2), (2, 1, 1), (2, 4, 0), (4, 0, 2), (4, 0, 3), (4, 0, 4)]
    h = convex_hull(pts)
    assert (4, 0, 3) in complexes[0]
    assert h.coords == ((0, 2, 0), (1, 2, 2), (2, 4, 0), (4, 0, 2), (4, 0, 4))
    assert h.volume() == Fraction(20, 3)


def test_one_dimensional_hull_keeps_the_two_end_points():
    h = convex_hull([(3,), ("1/2",), (-2,), (3,), ("-7/3",), (0,), ("5/2",)])
    assert h.vertices == ((Fraction(-7, 3),), (Fraction(3),))
    assert h.triangulation == ((0, 1),)
    assert h.facets == (((-1,), ((0,),)), ((1,), ((1,),)))
    assert h.volume() == Fraction(16, 3)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hull_of_a_rational_cloud_is_the_scaled_lattice_hull(dim):
    rng = np.random.default_rng(10 + dim)
    pts = [tuple(int(c) for c in p) for p in rng.integers(-3, 4, size=(30, dim))]
    lattice = convex_hull(pts)
    scaled = convex_hull([tuple(Fraction(c, 6) for c in p) for p in pts])
    assert scaled.vertices == tuple(tuple(c / 6 for c in v) for v in lattice.vertices)
    assert scaled.triangulation == lattice.triangulation
    assert scaled.volume() == lattice.volume() / 6**dim


def test_hull_of_a_three_flat_in_four_space():
    rng = np.random.default_rng(4)
    flat = np.unique(rng.integers(-2, 3, size=(40, 3)), axis=0)
    pts = [(int(a), int(b), int(c), int(a + b - c)) for a, b, c in flat]
    h = convex_hull(pts)
    assert h.dim == 4
    assert h.volume() == 0 and h.triangulation == ()
    assert [tuple(int(c) for c in v[:3]) for v in h.vertices] == _scipy_vertices(flat)


def _integer_flat(rng, dim, count, ambient, radius):
    """`count` points of an affine image of a random integer cloud in R^dim,
    in R^ambient, with a constant first coordinate, so that the shadow of the
    flat is not on the leading columns."""
    lift = rng.integers(-2, 3, size=(dim, ambient - 1))
    cloud = rng.integers(-radius, radius + 1, size=(count, dim)) @ lift + rng.integers(-3, 4, size=ambient - 1)
    return [(5, *map(int, p)) for p in cloud]


FLATS = {
    "segment-3d": [(0, 0, 0), (1, 2, 3), (2, 4, 6), (-1, -2, -3), (3, 6, 9)],
    "segment-4d": [(1, 0, 2, -1), (1, 1, 1, 0), (1, 3, -1, 2), (1, 2, 0, 1)],
    "triangle-3d": [(1, 0, 0), (0, 1, 0), (0, 0, 1), ("1/3", "1/3", "1/3"), ("1/2", "1/2", 0)],
    "triangle-4d": [(0, 0, 0, 0), (2, 1, 0, 1), (0, 1, 2, 1), (1, 1, 1, 1), (2, 2, 2, 2)],
    "rational-3d": [("1/2", "1/3", 0), ("3/4", 0, "1/5"), ("-1/6", "2/3", "-1/5"), ("1/4", "1/6", "1/10"),
                    ("7/12", "1/9", "2/15")],
    "planar-support": [(1, 1, 0), (-1, -1, 0), (0, 1, 0), (0, -1, 0), (0, 0, 0)],
    "plane-in-4d": [(a, b, a + b, a - b) for a in range(-2, 3) for b in range(-1, 2)],
}


@pytest.mark.parametrize("points", list(FLATS.values()), ids=list(FLATS))
def test_flat_hulls_match_the_affine_coordinate_oracle(points):
    # a flat is hulled in its shadow on the pivot columns of its affine basis,
    # not in affine coordinates from one solve per point
    h = convex_hull(points)
    assert h.volume() == 0 and h.facets == ()
    assert h.vertices == hull_oracle.flat_vertices(points)


@pytest.mark.parametrize("dim,ambient,seed", [(1, 3, 30), (2, 3, 31), (1, 4, 32), (2, 4, 33), (3, 4, 34)])
def test_random_flat_hulls_match_the_affine_coordinate_oracle(dim, ambient, seed):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        points = _integer_flat(rng, dim, 30, ambient, 3)
        if len({tuple(p) for p in points}) > dim:
            rational = [tuple(Fraction(x, 3) for x in p) for p in points]
            for pts in (points, rational):
                assert convex_hull(pts).vertices == hull_oracle.flat_vertices(pts)


def test_convex_hull_affine_basis_stops_at_full_rank(monkeypatch):
    # the affine basis of the 81 points of box_support(4, 1) is complete after
    # a few points; no elimination may run on d + 1 difference rows after
    # that (stubbing the hull itself, whose vertex test eliminates more rows)
    import realroots.convex as cx

    class BasisDone(Exception):
        pass

    def stop(coords, basis):
        raise BasisDone

    rows_seen = []
    real_eliminate = xa._eliminate

    def eliminate(rows, ncols):
        rows_seen.append(len(rows))
        return real_eliminate(rows, ncols)

    monkeypatch.setattr(xa, "_eliminate", eliminate)
    monkeypatch.setattr(cx, "_beneath_beyond", stop)
    with pytest.raises(BasisDone):
        convex_hull(box_support(4, 1).points)
    assert rows_seen and max(rows_seen) <= 4 and rows_seen[-1] == 4


@pytest.mark.parametrize("support", [box_support(4, 1), ball_support(3, 3)], ids=["box:4:1", "ball:3:3"])
def test_lattice_hull_does_no_fraction_division(monkeypatch, support):
    # the hull eliminates fraction-free on integer coordinates, and so do the
    # facet planes and the vertex rank test
    calls = []
    for name in ("__truediv__", "__rtruediv__"):
        real = getattr(Fraction, name)

        def counted(a, b, real=real):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    hull = convex_hull(support.points)
    minkowski_sum(hull, hull)
    assert len(calls) == 0


@pytest.mark.parametrize(
    "support,count", [(box_support(3, 2), 384), (box_support(4, 1), 384), (ball_support(3, 3), 544)]
)
def test_large_torus_complex_counts(support, count):
    assert complex_count_torus(support) == count


def test_translate_and_dilate():
    h = square()
    assert hull_oracle.translate(h, [5, -2]).volume() == 1
    assert h.dilate(3).volume() == 9
    assert h.dilate(Fraction(1, 2)).volume() == Fraction(1, 4)


def test_integer_input_gives_fraction_vertices():
    # hulls run on integer rows, but every public vertex is a Fraction tuple,
    # so v / 6 stays exact
    cube = convex_hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (-1, 1)])
    flat = convex_hull([(0, 0), (2, 2), (1, 1)])
    bodies = [
        cube,
        flat,
        convex_hull([(5,)]),
        minkowski_sum(cube, cube),
        minkowski_sum(flat, square()),
        cube.dilate(3),
        cube.dilate(0),
        Polytope([(1, 2), (3, 4)]),
    ]
    for body in bodies:
        assert all(type(c) is Fraction for v in body.vertices for c in v)
    assert cube.vertices[0][2] / 6 == Fraction(-1, 6)
    assert flat.vertices == ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(2)))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_boundary_complex_is_carried_by_affine_maps(dim):
    rng = np.random.default_rng(30 + dim)
    pts = [tuple(int(c) for c in p) for p in rng.integers(-3, 4, size=(25, dim))]
    h = convex_hull(pts)
    moved = h.dilate(Fraction(5, 3))
    fresh = convex_hull([[x * Fraction(5, 3) for x in v] for v in h.vertices])
    assert moved.facets == fresh.facets
    assert moved.triangulation == fresh.triangulation
    assert Polytope(h.vertices).facets == h.facets and h.dilate(0).facets == ()
    # one entry per facet plane, each simplex on its plane, and the facet
    # simplices off the planes through the first vertex are the
    # triangulation's cones
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    assert len({normal for normal, _ in h.facets}) == len(h.facets)
    cones = set()
    for normal, simplices in h.facets:
        offset = dot(normal, h.coords[simplices[0][0]])
        assert all(dot(normal, v) <= offset for v in h.coords)
        assert all(len(key) == dim and all(dot(normal, h.coords[i]) == offset for i in key)
                   for key in simplices)
        if dot(normal, h.coords[0]) != offset:
            cones.update((0, *key) for key in simplices)
    assert cones == set(h.triangulation)


def test_square_facets_are_its_edges_with_primitive_outward_normals():
    assert dict(square().dilate(3).facets) == {
        (0, -1): ((0, 2),), (1, 0): ((2, 3),), (0, 1): ((1, 3),), (-1, 0): ((0, 1),)
    }


def test_rational_bodies_compare_by_their_least_denominator():
    h = convex_hull([(0, 0), (3, 0), (0, 2), ("-1/2", "1/3"), ("1/2", "1/3")])
    assert h.denominator == 6
    halved = h.dilate(Fraction(1, 2))
    assert halved.denominator == 12
    back = halved.dilate(2)
    assert back == h and hash(back) == hash(h) and back.denominator == 6
    assert back.triangulation == h.triangulation
    assert Polytope(h.vertices) == h
    assert minkowski_sum(halved, halved) == h
    assert minkowski_sum(h, halved) == h.dilate(Fraction(3, 2))
    third = square().dilate(Fraction(1, 3))
    sums = [[x + y for x, y in zip(v, w)] for v in halved.vertices for w in third.vertices]
    assert minkowski_sum(halved, third) == convex_hull(sums)


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
    assert mixed_volume_polytopes([hull_oracle.translate(a, [7, -3]), b]) == mixed_volume_polytopes([a, b])


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


def _random_body(rng, dim: int, kind: str) -> Polytope:
    """A seeded body in R^dim: the hull of a lattice cloud in [-2, 2]^dim
    ("cloud"), of that cloud moved onto a hyperplane x_dim = a . x + b (a
    (dim - 1)-flat), of lattice points on a line, or of a cloud over 6."""
    pts = rng.integers(-2, 3, size=(int(rng.integers(dim + 1, 2 * dim + 3)), dim))
    if kind == "hyperplane":
        pts[:, -1] = pts[:, :-1] @ rng.integers(-1, 2, size=dim - 1) + rng.integers(-1, 2)
    elif kind == "line":
        step = rng.integers(-2, 3, size=dim)
        step[rng.integers(dim)] = 1
        pts = pts[0] + np.outer(rng.integers(-2, 3, size=4), step)
    rows = [tuple(int(c) for c in p) for p in pts]
    if kind == "rational":
        rows = [tuple(Fraction(c, 6) for c in p) for p in rows]
    return convex_hull(rows)


MIXED_PATTERNS = {
    # kinds of the three bodies a, b, c, and the system built from them
    "repeats": (("cloud",) * 3, lambda a, b, c, n: [a] * n),
    "dilates": (("cloud",) * 3, lambda a, b, c, n: [a.dilate(t) for t in (1, 2, Fraction(1, 3), Fraction(5, 2))[:n]]),
    "two-shapes": (("cloud",) * 3, lambda a, b, c, n: [a, b, b, a.dilate(2)][:n]),
    "three-shapes": (("cloud",) * 3, lambda a, b, c, n: [a, b, c, c][:n]),
    "rational": (("rational", "cloud", "rational"), lambda a, b, c, n: [a, b, c, a][:n]),
    "hyperplanes": (("hyperplane", "cloud", "hyperplane"), lambda a, b, c, n: [a, b, c, a][:n]),
    "hyperplane-repeats": (("hyperplane", "cloud", "cloud"), lambda a, b, c, n: [a] * (n - 1) + [b]),
    "lines": (("line", "cloud", "line"), lambda a, b, c, n: [a, b, c, b][:n]),
}


@pytest.mark.parametrize(
    "dim,pattern",
    [(1, "repeats"), (1, "rational")] + [(d, p) for d in (2, 3, 4) for p in MIXED_PATTERNS],
)
def test_mixed_volume_matches_the_polarized_volume_oracle(dim, pattern):
    # the support function of one body against the mixed area measure of
    # the others, and the volumes of Minkowski combinations of all n, give
    # the same Fraction
    kinds, build = MIXED_PATTERNS[pattern]
    rng = np.random.default_rng([dim, list(MIXED_PATTERNS).index(pattern)])
    for _ in range(3):
        bodies = build(*(_random_body(rng, dim, kind) for kind in kinds), dim)
        assert mixed_volume_polytopes(bodies) == hull_oracle.polarized_volume(bodies)


def test_mixed_volume_of_three_segments_is_their_determinant_over_six():
    rng = np.random.default_rng(9)
    for _ in range(8):
        starts, steps = rng.integers(-3, 4, size=(2, 3, 3))
        segs = [convex_hull([tuple(map(int, p)), tuple(map(int, p + q))]) for p, q in zip(starts, steps)]
        det = abs(xa.mat_det([tuple(map(int, q)) for q in steps]))
        assert mixed_volume_polytopes(segs) == det / 6 == hull_oracle.polarized_volume(segs)


def test_flats_and_lengths_take_no_volume_of_a_full_dimensional_body(monkeypatch):
    # a (n - 1)-flat enters by its two normals and its shadow's volume, and
    # n = 1 by the length, so no volume of an n-dimensional body is taken
    dims = []
    volume = Polytope.volume

    def spy(body):
        dims.append(body.dim)
        return volume(body)

    monkeypatch.setattr(Polytope, "volume", spy)
    square = convex_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    cube = convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    rod = segment((0, 0, 1), 2)
    assert mixed_volume_polytopes([convex_hull([(-1,), ("5/2",)])]) == Fraction(7, 2)
    assert mixed_volume_polytopes([square, square, rod]) == Fraction(2, 3)
    assert mixed_volume_polytopes([square, cube, cube]) == Fraction(2, 3)
    assert mixed_volume_polytopes([square, square, cube]) == Fraction(1, 3)
    assert mixed_volume_polytopes([square] * 3) == 0
    assert dims and max(dims) < 3


def count_minkowski_sums(monkeypatch) -> list:
    import realroots.convex as cx

    calls = []
    real = cx.minkowski_sum

    def counted(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(cx, "minkowski_sum", counted)
    return calls


def test_box_ball_ball_count_builds_no_minkowski_sum(monkeypatch):
    # the box pairs its support function with the ball's own area measure
    sums = count_minkowski_sums(monkeypatch)
    box, ball = box_support(3, 1), ball_support(3, 1)
    assert complex_count_torus([box, ball, ball]) == 24
    assert sums == []


def test_three_distinct_shapes_build_one_minkowski_sum_of_two(monkeypatch):
    # the box is taken out, and the ball and the planar body are summed once
    sums = count_minkowski_sums(monkeypatch)
    planar = Support([(1, 1, 0), (-1, -1, 0), (0, 1, 0), (0, -1, 0), (0, 0, 0)])
    assert complex_count_torus([box_support(3, 2), ball_support(3, 1), planar]) == 56
    assert len(sums) == 1


def test_minkowski_sum_of_squares():
    s = minkowski_sum(square(), square())
    assert s.volume() == 4


def test_polarize_diagonal_shortcut_matches_functional():
    h = convex_hull([(0, 0), (3, 0), (0, 2), (3, 2)])
    assert polarize([h, h], Polytope.volume) == h.volume()


def test_polarize_of_no_bodies_is_a_value_error():
    with pytest.raises(ValueError):
        polarize([], Polytope.volume)


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


@pytest.mark.parametrize(
    "bodies",
    [
        [BOX, BOX.dilate(2), OCTAHEDRON],
        [OCTAHEDRON.dilate(Fraction(1, 2)), BOX.dilate(Fraction(2, 3)), OCTAHEDRON.dilate(3)],
        [TRIANGLE.dilate(Fraction(3, 2)), SEGMENT, TRIANGLE],
        [SEGMENT.dilate(Fraction(5, 7)), SEGMENT.dilate(2), SEGMENT],
    ],
)
def test_polarize_over_dilation_classes_matches_subset_sum_for_volume(bodies):
    assert polarize(bodies, Polytope.volume) == subset_polarization(bodies, Polytope.volume)


SQUARE = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
WEDGE = convex_hull([(0, 0), (2, 0), (0, 1)])


def counting(functional):
    """`functional` with a list of the bodies it was called on."""
    calls = []

    def counted(body):
        calls.append(body)
        return functional(body)
    return counted, calls


def fourth_power_of_area(body):
    # homogeneous of degree 8 on Minkowski combinations in the plane
    return body.volume() ** 4


def test_polarize_evaluates_dilates_of_one_body_once():
    factors = (1, 2, Fraction(1, 3), 3, 1, Fraction(5, 2), 5, 1)
    bodies = [SQUARE.dilate(t) for t in factors]
    functional, calls = counting(fourth_power_of_area)
    assert polarize(bodies, functional) == math.prod(factors) * fourth_power_of_area(SQUARE)
    assert calls == [SQUARE]
    assert polarize(bodies, fourth_power_of_area) == subset_polarization(bodies, fourth_power_of_area)


def test_polarize_evaluates_once_per_primitive_combination():
    # 4 + 4 dilates of two shapes: b / gcd(b) over 0 <= b <= (4, 4) takes 13
    # values, against (4 + 1)(4 + 1) - 1 = 24 Minkowski combinations
    bodies = [SQUARE, SQUARE.dilate(2), SQUARE.dilate(Fraction(1, 2)), SQUARE,
              WEDGE, WEDGE.dilate(3), WEDGE, WEDGE.dilate(Fraction(2, 3))]
    functional, calls = counting(fourth_power_of_area)
    assert polarize(bodies, functional) == subset_polarization(bodies, fourth_power_of_area)
    assert len(calls) == 13


@pytest.mark.parametrize("name,weights", [("A1", [(2,), (2,), (3,)]), ("A1", [(1,), (4,), (1,)])])
def test_polarize_over_distinct_bodies_matches_subset_sum_for_lattice_functional(name, weights):
    rs = root_system(name)
    bodies = [weighted_polytope(rs, w) for w in weights]

    def functional(body):
        return _invariant_integral(rs, body, _squared_root_product(rs))

    assert polarize(bodies, functional) == subset_polarization(bodies, functional)


# -- ellipsoids --------------------------------------------------------------

def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2)


@pytest.mark.parametrize("n", range(13))
def test_unit_ball_volume_closed_forms(n):
    # pi^k / k! in dimension 2k, 2^(k+1) pi^k / (2k+1)!! in dimension 2k + 1
    k, odd = divmod(n, 2)
    want = math.pi**k / math.factorial(k)
    if odd:
        want = 2 ** (k + 1) * math.pi**k / math.prod(range(1, n + 1, 2))
    assert unit_ball_volume(n) == pytest.approx(want, rel=1e-15)


def test_unit_ball_volume_past_the_double_range_names_the_underflow():
    # vol(B^440) is about 1e-312 (A20 has dimension 440); math.gamma(221)
    # raised OverflowError here
    assert 0 < unit_ball_volume(435) < 1e-307
    with pytest.raises(ArithmeticError, match="underflows a double"):
        unit_ball_volume(440)


def test_ellipsoid_support_and_volume():
    e = Ellipsoid(np.diag([4.0, 9.0]))
    # h(xi)^2 = xi^T Q xi: support 2 along e_1 and 3 along e_2
    assert np.sqrt(np.diag(e.Q)) == pytest.approx([2.0, 3.0])
    assert e.volume() == pytest.approx(6 * math.pi)
    assert Ellipsoid(2.25 * np.eye(3)).ball_radius() == pytest.approx(1.5)
    assert Ellipsoid(np.diag([1.0, 2.0])).ball_radius() is None


def test_a_near_ball_is_not_a_ball():
    # diag(1, 1 + 9e-6) is 4.5e-6 off r^2 I, far outside the 1e-9 tolerance;
    # called a ball, the pair with its mirror image took pi r^2, 5.1e-12 off
    # its mixed area
    near, mirror = Ellipsoid(np.diag([1.0, 1 + 9e-6])), Ellipsoid(np.diag([1 + 9e-6, 1.0]))
    assert near.ball_radius() is None and mirror.ball_radius() is None
    res = mixed_volume_ellipsoids([near, mirror])
    assert (res.method, res.value) == ("sphere", float(_mixed_area(near.Q, mirror.Q)))
    assert mixed_volume_ellipsoids([near, near]).method == "volume"
    # within it, a rotated ball still is one
    turn = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    assert Ellipsoid(turn @ (4.0 * np.eye(3)) @ turn.T).ball_radius() == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("n,m", [(1, 3), (2, 1), (2, 4), (3, 1), (3, 2), (4, 1)])
def test_lattice_boxes_and_balls_have_round_ellipsoids(n, m):
    from realroots.torus import newton_ellipsoid_torus

    for support in (box_support(n, m), ball_support(n, m)):
        e = newton_ellipsoid_torus(support)
        assert e.ball_radius() == pytest.approx(math.sqrt(np.trace(e.Q) / n), rel=1e-15)


@pytest.mark.parametrize(
    "q, message",
    [
        (np.diag([1.0, -1.0]), "not positive semidefinite"),
        (np.diag([1.0, -1e-6]), "not positive semidefinite"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
        (np.diag([np.inf, 1.0]), "non-finite"),
        (np.ones((2, 3)), "square"),
    ],
)
def test_ellipsoid_rejects_invalid_matrices(q, message):
    with pytest.raises(ValueError, match=message):
        Ellipsoid(q)


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


def test_copies_of_one_ellipsoid_take_its_volume():
    e = Ellipsoid(np.diag([1.0, 4.0, 9.0]))
    res = mixed_volume_ellipsoids([e, e, e])
    assert (res.method, res.stderr) == ("volume", 0.0)
    assert res.value == pytest.approx(4 / 3 * math.pi * 6.0, rel=1e-12)
    mc = gaussian_mixed_volume([e.Q] * 3, samples=200_000, seed=4)
    assert abs(mc.value - res.value) < 4 * mc.stderr
    other = Ellipsoid(np.diag([1.0, 4.0, 4.0]))
    assert mixed_volume_ellipsoids([e, e, other], method="mc", seed=1).method == "mc"
    with pytest.raises(ValueError):
        mixed_volume_ellipsoids([e, e, other], method="volume")
    res = mixed_volume_ellipsoids([e, e, other])  # no seed: auto takes sphere, not mc
    assert res.method == "sphere" and res.samples is None


def test_exact2d_agrees_with_ball_formula():
    e1 = Ellipsoid(0.49 * np.eye(2))
    e2 = Ellipsoid(1.21 * np.eye(2))
    res = mixed_volume_ellipsoids([e1, e2], method="sphere")
    assert res.value == pytest.approx(math.pi * 0.7 * 1.1, rel=1e-9)


def test_exact2d_on_general_pair_vs_monte_carlo():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    e1 = Ellipsoid(a @ a.T + 0.1 * np.eye(2))
    e2 = Ellipsoid(b @ b.T + 0.1 * np.eye(2))
    quadrature = mixed_volume_ellipsoids([e1, e2], method="sphere")
    # in the plane the estimator integrates both rows out: it draws nothing
    # and reads the same closed form
    mc = mixed_volume_ellipsoids([e1, e2], method="mc", seed=9)
    assert (mc.value, mc.stderr) == (pytest.approx(quadrature.value, rel=1e-12), 0.0)
    # so the closed form is checked against |det G| of fully drawn matrices
    full = gaussian_oracle.full_draw_gaussian_mixed_volume([e1.Q, e2.Q], samples=400_000, seed=9)
    assert abs(full.value - quadrature.value) < 4 * full.stderr


def test_alexandrov_fenchel_on_ellipse_pairs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        e1 = Ellipsoid(a @ a.T + 0.05 * np.eye(2))
        e2 = Ellipsoid(b @ b.T + 0.05 * np.eye(2))
        v12 = mixed_volume_ellipsoids([e1, e2], method="sphere").value
        assert v12 * v12 >= e1.volume() * e2.volume() * (1 - 1e-9)


def criterion_06_pairs() -> list[tuple[np.ndarray, np.ndarray]]:
    """The 20 ellipse pairs of acceptance criterion 06, drawn the same way."""
    rng = np.random.default_rng(20260814)

    def random_spd():
        a = rng.normal(size=(2, 2))
        return a.T @ a + 0.3 * np.eye(2)

    return [(random_spd(), random_spd()) for _ in range(20)]


def convex_test_pairs() -> list[tuple[np.ndarray, np.ndarray]]:
    """The ellipse pairs of the planar tests above."""
    pairs = [(0.49 * np.eye(2), 1.21 * np.eye(2))]
    for seed, ridge, count in ((3, 0.1, 1), (5, 0.05, 10)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2))
            pairs.append((a @ a.T + ridge * np.eye(2), b @ b.T + ridge * np.eye(2)))
    return pairs


def test_sphere_mixed_area_equals_polarized_support_areas():
    for q1, q2 in criterion_06_pairs() + convex_test_pairs():
        e1, e2 = Ellipsoid(q1), Ellipsoid(q2)
        res = mixed_volume_ellipsoids([e1, e2], method="sphere")
        assert res.stderr == 0.0
        assert res.value == pytest.approx(polarized_mixed_area(e1.Q, e2.Q), rel=1e-12)


def test_mixed_area_is_half_the_ellipse_perimeter():
    # Q_1 = diag(r, 1), Q_2 = diag(1, r) give singular values 1 and r, so the
    # mixed area is 2 E(1 - r^2), checked against scipy's E down to r = 1e-300
    from scipy.special import ellipe

    r = np.concatenate([np.logspace(-300, 0, 3001), [0.5, 1 - 1e-12]])
    q1 = np.zeros((len(r), 2, 2))
    q1[:, 0, 0], q1[:, 1, 1] = r, 1.0
    q2 = q1[:, ::-1, ::-1]
    assert np.allclose(_mixed_area(q1, q2), 2 * ellipe(1 - r * r), rtol=1e-14, atol=0)
    # a zero and a flat ratio, without a RuntimeWarning
    assert _mixed_area(np.zeros((2, 2)), np.eye(2)) == 0.0
    assert _mixed_area(np.diag([4.0, 0.0]), np.diag([0.0, 1.0])) == 4.0


def _invariant_batches():
    # unequal pairs s_1 = x > s_2 = x r with ratios r from 1e-300 to 1, at
    # tiny, unit and huge scales x, one pair at a time and all together;
    # then flat entries (p = 0, and t = p = 0) alone and among them
    r = np.concatenate([np.logspace(-300, 0, 61), [0.5, 1 - 1e-12, 1 - 2.0**-52]])
    batches = []
    for x in (1e-150, 1.0, 1e150):
        t, p = x * x * (1 + r * r), x * x * r
        batches += [(t[i : i + 1], p[i : i + 1]) for i in range(len(r))] + [(t, p)]
    flat_t, flat_p = np.array([2.0, 0.0, 1e300, 1e-300]), np.zeros(4)
    batches.append((flat_t, flat_p))
    for i in (0, 30, 60, 62):
        batches.append((np.concatenate([flat_t, t[i : i + 1]]), np.concatenate([flat_p, p[i : i + 1]])))
    rng = np.random.default_rng(7)
    s1 = rng.random(1000)
    s2 = s1 * rng.random(1000) ** 8
    s2[::10] = 0.0
    batches.append((s1 * s1 + s2 * s2, s1 * s2))
    return batches


def test_mixed_area_takes_its_agm_step_count_from_the_smallest_ratio(monkeypatch):
    # bit for bit the loop that stopped once every entry had converged, in
    # as many steps, never more than _AGM_STEPS, and with no RuntimeWarning
    counted = []
    steps_of = convex._agm_steps
    monkeypatch.setattr(convex, "_agm_steps", lambda b: counted.append(steps_of(b)) or counted[-1])
    for t, p in _invariant_batches():
        want, steps = agm_loop_mixed_area(t.copy(), p.copy(), convex._AGM_STEPS, convex._AGM_TOL)
        got = convex._mixed_area_of_invariants(t.copy(), p.copy())
        assert np.array_equal(got, want), (t, p)
        assert counted.pop() == steps <= convex._AGM_STEPS
    # the smallest positive double ratio converges within the bound
    assert convex._agm_steps(5e-324) <= convex._AGM_STEPS
    assert convex._agm_steps(1.0) == 1


def test_sphere_mixed_area_of_segments_and_a_point():
    horizontal, vertical = Ellipsoid(np.diag([1.0, 0.0])), Ellipsoid(np.diag([0.0, 1.0]))
    # two orthogonal unit segments [-1, 1] e_i: their sum is a 2 x 2 square
    assert mixed_volume_ellipsoids([horizontal, vertical]).value == 2.0
    assert mixed_volume_ellipsoids([horizontal, horizontal], method="sphere").value == 0.0
    point = Ellipsoid(np.zeros((2, 2)))
    assert mixed_volume_ellipsoids([point, Ellipsoid(np.eye(2))], method="sphere").value == 0.0


def random_triple(seed: int) -> list[Ellipsoid]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        a = rng.normal(size=(3, 3))
        out.append(Ellipsoid(a @ a.T + 0.2 * np.eye(3)))
    return out


def test_sphere_closed_forms_in_three_dimensions():
    e = Ellipsoid(np.diag([1.0, 4.0, 9.0]))
    res = mixed_volume_ellipsoids([e, e, e], method="sphere")
    assert res.value == pytest.approx(e.volume(), rel=1e-12)
    for e in random_triple(11):
        assert mixed_volume_ellipsoids([e, e, e], method="sphere").value == pytest.approx(
            e.volume(), rel=1e-12
        )
    radii = (0.8, 1.1, 1.7)
    balls = [Ellipsoid(r * r * np.eye(3)) for r in radii]
    res = mixed_volume_ellipsoids(balls, method="sphere")
    assert res.value == pytest.approx(unit_ball_volume(3) * math.prod(radii), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sphere_is_multilinear_and_affine_invariant(seed):
    es = random_triple(seed)
    res = mixed_volume_ellipsoids(es)
    assert res.method == "sphere" and 0 < res.stderr < 1e-6 * res.value
    scaled = mixed_volume_ellipsoids([Ellipsoid(2.25 * es[0].Q), es[1], es[2]])
    assert scaled.value == pytest.approx(1.5 * res.value, rel=1e-12)
    a = np.random.default_rng(100 + seed).normal(size=(3, 3))
    mapped = mixed_volume_ellipsoids([Ellipsoid(a @ e.Q @ a.T) for e in es])
    want = abs(np.linalg.det(a)) * res.value
    assert abs(mapped.value - want) <= mapped.stderr + abs(np.linalg.det(a)) * res.stderr


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sphere_does_not_depend_on_body_order_or_whitening(seed):
    es = random_triple(seed)
    res = mixed_volume_ellipsoids(es)
    for order in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        other = mixed_volume_ellipsoids([es[i] for i in order])
        assert abs(other.value - res.value) <= other.stderr + res.stderr + 1e-14 * res.value
    # whitening by any of the three bodies gives one value within the errors
    qs = [e.Q for e in es]
    for k in range(3):
        value, err = _sphere_mixed_volume(qs, k)
        assert abs(value - res.value) <= err + res.stderr + 1e-14 * res.value


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sphere_agrees_with_the_gaussian_determinant(seed):
    es = random_triple(seed)
    res = mixed_volume_ellipsoids(es)
    mc = gaussian_mixed_volume([e.Q for e in es], samples=200_000, seed=seed)
    assert abs(mc.value - res.value) <= 3 * mc.stderr


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sphere_agrees_with_the_full_draw_determinant(seed):
    # the estimator and the sphere rule both integrate a planar mixed area;
    # |det G| of fully drawn matrices shares no code with either
    es = random_triple(seed)
    res = mixed_volume_ellipsoids(es)
    full = gaussian_oracle.full_draw_gaussian_mixed_volume([e.Q for e in es], samples=200_000, seed=seed)
    assert abs(full.value - res.value) <= 4 * full.stderr


def test_sphere_error_estimate_covers_flat_bodies():
    # Steiner: vol(K + tB) = 2 A t + (pi P / 2) t^2 + (4 pi / 3) t^3 for a flat
    # K of area A and perimeter P, and pi L t^2 + (4 pi / 3) t^3 for a
    # segment of length L, so V(D, D, B) = 2 pi / 3 and V(D, B, B) = pi^2 / 3
    # for the unit disc D, and V(S, B, B) = 2 pi / 3 for S = [-e_1, e_1]
    ball = Ellipsoid(np.eye(3))
    disc, segment = Ellipsoid(np.diag([1.0, 1.0, 0.0])), Ellipsoid(np.diag([1.0, 0.0, 0.0]))
    for bodies, want in (
        ([disc, disc, ball], 2 * math.pi / 3),
        ([disc, ball, ball], math.pi**2 / 3),
        ([segment, ball, ball], 2 * math.pi / 3),
    ):
        res = mixed_volume_ellipsoids(bodies)
        assert res.method == "sphere"
        assert abs(res.value - want) <= res.stderr < 1e-2 * want


def test_three_flat_bodies_go_to_monte_carlo():
    # three discs in the coordinate planes: no body can whiten the others
    discs = [Ellipsoid(np.diag(d)) for d in ([1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0])]
    with pytest.raises(ValueError, match="mc method needs a seed"):
        mixed_volume_ellipsoids(discs)
    assert mixed_volume_ellipsoids(discs, seed=1).method == "mc"
    with pytest.raises(ValueError, match="positive-definite"):
        mixed_volume_ellipsoids(discs, method="sphere")
    four = [Ellipsoid(np.eye(4))] * 3 + [Ellipsoid(np.diag([1.0, 2.0, 3.0, 4.0]))]
    with pytest.raises(ValueError, match="dimension 2 or 3"):
        mixed_volume_ellipsoids(four, method="sphere")


def test_one_dimensional_mixed_volume_is_diameter():
    res = mixed_volume_ellipsoids([Ellipsoid(np.array([[6.25]]))], method="balls")
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

    def integral(body, poly):
        return integrate_polynomial_over_polytope(body, monomial_forms(poly))

    assert integral(sq, x * x * y * y) == Fraction(1, 9)
    assert integral(sq, x ** 6) == Fraction(1, 7)
    assert integral(sq, (x + y) ** 2) == Fraction(7, 6)
    # a rational square: the integrand's monomials scale by their degree
    half = sq.dilate(Fraction(1, 2))
    assert integral(half, x * x * y * y) == Fraction(1, 9 * 2**6)
    assert integral(half, x ** 6 + y) == Fraction(1, 7 * 2**8) + Fraction(1, 16)


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
    assert integrate_polynomial_over_polytope(hexagon, monomial_forms(density)) == Fraction(103, 1451520)


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
