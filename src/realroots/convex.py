"""Convex bodies: lattice polytopes with exact rational arithmetic and
ellipsoids with floating-point support functions.

Polytope hulls, volumes and mixed volumes are exact in any dimension we
actually use (<= 4 by contract); ellipsoid computations are floating point.
A polytope holds its extreme points as integer rows over their least common
denominator; hulls, Minkowski sums, dilations, simplex volumes and the
quadrature's vertex rows all run on those integers, and the Fraction
vertices are built only when read.
Hulls run on integer coordinates: the points times a common denominator,
or for a flat its shadow on the pivot columns of the fraction-free
elimination that finds its affine basis, which the projection maps one to
one.  A monotone chain runs in the plane, else an incremental
(beneath-beyond) boundary complex.  The starting simplex's facet
normals are the primitive integer null vectors of their edge vectors
v_i - v_0; each later facet's plane is rotated about its horizon ridge out
of the visible facet's plane and the invisible neighbour's.  The vertices
are the boundary points where the facet normals have full rank; that pass
inserts the points farthest from the centroid first, so that most of the
others fall inside the partial hull and are skipped (as in Quickhull).
Every polytope is built as the hull of its points.  A full-dimensional one
stores the boundary complex of a second pass over its vertices (the ring's
edges in the plane), grouped per facet plane; its triangulation, read on
demand, is the cones from the first vertex over that complex.
`FormProducts` integrands are integrated over signed cones from the origin
over the facet simplices, each reduced by homogeneity to a rule on a
(d - 1)-simplex (Lasserre, "Integration on a convex polytope", 1998); a
caller that knows a symmetry of body and integrand integrates one plane per
orbit of planes and, on it, one simplex per orbit of its simplices, times
their number there.
Mixed volumes of polytopes pair one body's support function with the mixed
area measure of the other n - 1, V(K_1, ..., K_n) =
(1/n) sum_u h_(K_1)(u) S(K_2, ..., K_n; u), and that measure is polarized
from the area measure of one body: per facet plane, its primitive normal u
and the facet's (d - 1)-volume over |u|, read in integers off the facet's
shadow on a coordinate hyperplane.  `polarize` evaluates a functional
homogeneous of degree n over the distinct primitive shapes only: a body is
a positive dilate t K' of its integer rows over their gcd, the form is
multilinear in positive dilations, and the functional is evaluated once
per primitive combination b / gcd(b) of the shapes.  So repeated bodies and
dilates cost no extra Minkowski sums, n dilates of one body cost one area
measure, and box + ball + ball costs none.
Mixed volumes of ellipsoids rest on V = (2 pi)^(n/2)/n! E|det G|, row i of G
drawn from N(0, Q_i) (Kabluchko and Zaporozhets, "Random determinants, mixed
volumes of ellipsoids, and zeros of Gaussian random fields").  One kernel
gives the planar mixed area from two invariants of the pair, s_1^2 + s_2^2
and s_1 s_2, by an AGM that runs, on every entry, the steps its smallest
ratio needs.  It is the closed form in the plane; averaged over the sphere
in R^3; and otherwise averaged by `montecarlo.gaussian_mixed_volume`, which draws rows 0..n-3 and
integrates the last two out: given the others, |det G| averages to the
volume they span times the mixed area, over pi, of the last two covariances
restricted to the plane they leave.  One map gives that product for the
sphere rule's nodes and the estimator's samples alike, from Gram-Schmidt
and trace formulas in O(n^3) each (`_complement_mixed_areas`); at n = 3,
where one row is drawn, its covariance factor is folded into three quadratic
forms in the draws.  Every Q is
checked to be finite and positive semidefinite by one rule (`_psd_eigh`).
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from . import exactalg as xa
from .polynomials import FormProducts, integrate_over_simplex

__all__ = [
    "Polytope",
    "Ellipsoid",
    "MixedVolumeResult",
    "convex_hull",
    "minkowski_sum",
    "mixed_volume_polytopes",
    "polarize",
    "mixed_volume_ellipsoids",
    "unit_ball_volume",
    "integrate_polynomial_over_polytope",
    "body_to_json",
    "body_from_json",
]


# ---------------------------------------------------------------------------
# exact convex hulls
# ---------------------------------------------------------------------------

IntVec = Sequence[int]
Plane = tuple[tuple[int, ...], int]
# per facet plane: its primitive outward integer normal and its facet simplices
Facets = tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]


def _affine_basis(pts: Sequence[IntVec]) -> tuple[list[int], list[int]]:
    """Indices of a greedy affinely independent subset of the integer rows
    `pts`: index 0, then each point off the span so far, until the span is
    the whole space; and the pivot columns of the elimination of the
    basis's difference rows v_i - v_0, on whose coordinates the flat they
    span projects one to one."""
    d, v0 = len(pts[0]), pts[0]
    basis, rows, pivots = [0], [], []
    for i in range(1, len(pts)):
        row = [x - y for x, y in zip(pts[i], v0)]
        found = xa._eliminate(rows + [row], d)[0]
        if len(found) > len(rows):
            rows.append(row)
            basis.append(i)
            pivots = found
            if len(rows) == d:
                break
    return basis, pivots


def _dot(a: IntVec, b: IntVec) -> int:
    return sum(map(operator.mul, a, b))


def _cross2(o: IntVec, a: IntVec, b: IntVec) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(coords: list[IntVec]) -> list[int]:
    """Monotone chain; returns indices of extreme points in ccw order, from
    the lexicographically smallest point."""
    order = sorted(range(len(coords)), key=lambda i: coords[i])
    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and _cross2(coords[lower[-2]], coords[lower[-1]], coords[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and _cross2(coords[upper[-2]], coords[upper[-1]], coords[i]) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _facet_plane(coords: list[IntVec], facet: tuple[int, ...], ref: IntVec) -> Plane:
    """Primitive outward normal and offset of a facet, oriented away from
    ref / (d + 1), ref the vertex sum of the starting simplex.  The normal is
    the primitive integer null vector of the facet's d - 1 edge vectors
    v_i - v_0 (no edge in dimension one), and the offset is normal . v_0."""
    d = len(ref)
    v0 = coords[facet[0]]
    v, _ = xa._null_vector([[x - y for x, y in zip(coords[i], v0)] for i in facet[1:]], d)
    g = math.gcd(*v)
    normal = tuple(x // g for x in v)
    offset = _dot(normal, v0)
    side = _dot(normal, ref) - (d + 1) * offset
    if side == 0:  # pragma: no cover - ref / (d + 1) is strictly interior
        raise RuntimeError("degenerate facet orientation")
    if side > 0:
        return tuple(-x for x in normal), -offset
    return normal, offset


def _beneath_beyond(coords: list[IntVec], simplex: list[int]) -> dict[frozenset[int], Plane]:
    """Simplicial boundary complex of the hull of full-dimensional points:
    start from the affinely independent `simplex`, then insert the other
    points in index order.

    Each ridge lies in two facets, so the horizon of a point is the ridges
    between a visible and an invisible facet.  The new facet over a horizon
    ridge is the pencil's plane through the point: with its heights dv > 0
    over the visible plane (n_v, c_v) and di <= 0 over the invisible one
    (n_o, c_o), dv (n_o, c_o) - di (n_v, c_v) holds the ridge and the point,
    and as a non-negative combination of two outward planes it is outward.
    Divided by the gcd of its normal it is the primitive plane."""
    ref = tuple(map(sum, zip(*(coords[i] for i in simplex))))
    facets: dict[frozenset[int], Plane] = {}
    for drop in simplex:
        facet = tuple(i for i in simplex if i != drop)
        facets[frozenset(facet)] = _facet_plane(coords, facet, ref)
    # ridge -> the two facets that hold it
    ridges: dict[frozenset[int], list[frozenset[int]]] = {}
    for key in facets:
        for v in key:
            ridges.setdefault(key - {v}, []).append(key)
    start = set(simplex)
    for p, pt in enumerate(coords):
        if p in start:
            continue
        heights = {}
        for key, (n, c) in facets.items():
            h = _dot(n, pt) - c
            if h > 0:
                heights[key] = h
        if not heights:
            continue
        new = []
        for key, dv in heights.items():
            nv, cv = facets[key]
            for v in key:
                ridge = key - {v}
                a, b = ridges[ridge]
                other = b if a == key else a
                if other in heights:
                    continue
                no, co = facets[other]
                di = _dot(no, pt) - co
                normal = [dv * x - di * y for x, y in zip(no, nv)]
                g = math.gcd(*normal)
                new.append((ridge, other, tuple(x // g for x in normal), (dv * co - di * cv) // g))
        for key in heights:
            del facets[key]
            for v in key:
                ridges.pop(key - {v}, None)
        for ridge, other, normal, offset in new:
            facet = ridge | {p}
            facets[facet] = normal, offset
            ridges[ridge] = [other, facet]
            for v in ridge:
                ridges.setdefault(facet - {v}, []).append(facet)
    return facets


def _extreme_points(coords: list[IntVec], basis: list[int]) -> list[int]:
    """Sorted indices of the extreme points of full-dimensional points, whose
    affinely independent subset `basis` starts the hull.  Beyond the plane,
    the other points are inserted in decreasing distance |k p - sum p| from
    the centroid (k points; ties in index order), so the far ones come first
    and most near ones fall inside the partial hull and are skipped.  A point
    of the boundary complex in the relative interior of a k-face lies only on
    facets whose normals span a (d - k)-dimensional space, so it is a vertex
    iff those normals have rank d."""
    d = len(coords[0])
    if d == 2:
        return sorted(_hull_2d(coords))
    k = len(coords)
    total = [sum(col) for col in zip(*coords)]
    order = sorted(range(k), key=lambda i: -sum((k * x - t) ** 2 for x, t in zip(coords[i], total)))
    position = {i: j for j, i in enumerate(order)}
    facets = _beneath_beyond([coords[i] for i in order], [position[i] for i in basis])
    normals: dict[int, set[IntVec]] = {}
    for key, (normal, _) in facets.items():
        for j in key:
            normals.setdefault(order[j], set()).add(normal)
    return sorted(i for i, ns in normals.items() if len(xa._eliminate(list(map(list, ns)), d)[0]) == d)


def _boundary(verts: list[IntVec]) -> Facets:
    """Simplicial boundary complex of the hull of lexicographically sorted,
    full-dimensional points that are all extreme, grouped per facet plane as
    (primitive outward normal, sorted facet simplices): the ring's edges from
    the first point in the plane, else the beneath-beyond facets in sorted
    order."""
    if len(verts[0]) == 2:
        ring = _hull_2d(verts)
        edges = []
        for a, b in zip(ring, ring[1:] + ring[:1]):
            (px, py), (qx, qy) = verts[a], verts[b]
            g = math.gcd(qy - py, qx - px)
            normal = ((qy - py) // g, (px - qx) // g)
            edges.append((normal, (tuple(sorted((a, b))),)))
        return tuple(edges)
    planes: dict[IntVec, list[tuple[int, ...]]] = {}
    facets = _beneath_beyond(verts, _affine_basis(verts)[0])
    for key in sorted(facets, key=sorted):
        planes.setdefault(facets[key][0], []).append(tuple(sorted(key)))
    return tuple((normal, tuple(keys)) for normal, keys in planes.items())


def _hull(pts: list[IntVec]) -> tuple[list[IntVec], Facets]:
    """Extreme points and boundary complex (empty unless full-dimensional)
    of the hull of distinct, lexicographically sorted integer rows."""
    if len(pts) == 1:
        return pts, ()
    basis, pivots = _affine_basis(pts)
    if len(basis) == len(pts[0]) + 1:
        verts = [pts[i] for i in _extreme_points(pts, basis)]
        return verts, _boundary(verts)
    # a flat: its hull in its shadow on the pivot columns, a one-to-one image
    coords = [tuple(p[c] for c in pivots) for p in pts]
    return [pts[i] for i in _extreme_points(coords, basis)], ()


def _abs_det(rows: list[list[int]]) -> int:
    """|det| of a square integer matrix, eliminated in place."""
    pivots, det, _ = xa._eliminate(rows, len(rows))
    return abs(det) if len(pivots) == len(rows) else 0


def _simplex_det(rows: Sequence[IntVec]) -> int:
    """|det(v_i - v_0)| for the d + 1 integer vertices of a d-simplex, d!
    times its volume."""
    v0 = rows[0]
    return _abs_det([[x - y for x, y in zip(v, v0)] for v in rows[1:]])


class Polytope:
    """Convex lattice/rational polytope: the exact hull of the given points.

    The extreme points are held as the lexicographically sorted integer rows
    `coords` over their least common `denominator`; `vertices` are the same
    points as Fraction tuples, built on first use.  `facets` is the
    simplicial boundary complex of a full-dimensional polytope (empty for a
    flat one): per facet plane, its primitive outward integer normal n (n . x
    <= c on the integer rows x) and the sorted vertex-index tuples of the
    boundary simplices on it.  The triangulation and the volume are derived
    from `facets`.
    """

    __slots__ = ("dim", "coords", "denominator", "facets", "_vertices", "_volume")

    def __init__(self, points: Iterable[Sequence]):
        coords, denominator = xa.integer_rows(points)
        if not coords:
            raise ValueError("a polytope needs at least one point")
        if any(len(v) != len(coords[0]) for v in coords):
            raise ValueError("inconsistent point dimensions")
        verts, facets = _hull(sorted(set(map(tuple, coords))))
        self._set(verts, denominator, facets)

    @classmethod
    def _lattice(cls, coords: list[IntVec], denominator: int, facets: Facets = ()) -> "Polytope":
        """The polytope with the sorted extreme integer rows `coords` /
        `denominator` as its vertices and `facets` as its boundary complex."""
        body = cls.__new__(cls)
        body._set(coords, denominator, facets)
        return body

    def _set(self, coords: list[IntVec], denominator: int, facets: Facets) -> None:
        self.dim = len(coords[0])
        g = math.gcd(denominator, *(x for v in coords for x in v))
        if g > 1:
            coords = [tuple(x // g for x in v) for v in coords]
        self.coords = tuple(coords)
        self.denominator = denominator // g
        self.facets = facets
        self._vertices: tuple[xa.Vec, ...] | None = None
        self._volume: Fraction | None = None

    @property
    def vertices(self) -> tuple[xa.Vec, ...]:
        if self._vertices is None:
            s = self.denominator
            self._vertices = tuple(tuple(Fraction(x, s) for x in v) for v in self.coords)
        return self._vertices

    @property
    def triangulation(self) -> tuple[tuple[int, ...], ...]:
        """Cones from the first vertex over the facet simplices that miss it,
        as sorted vertex-index tuples, plane by plane; empty for a polytope of
        less than full dimension."""
        apex = self.coords[0]
        return tuple((0, *key) for normal, simplices in self.facets
                     if _dot(normal, apex) != _dot(normal, self.coords[simplices[0][0]])
                     for key in simplices)

    # -- basic geometry -------------------------------------------------

    def volume(self) -> Fraction:
        """Exact Lebesgue volume (0 for lower-dimensional polytopes)."""
        if self._volume is None:
            dets = sum(_simplex_det([self.coords[i] for i in simplex])
                       for simplex in self.triangulation)
            self._volume = Fraction(dets, math.factorial(self.dim) * self.denominator**self.dim)
        return self._volume

    def dilate(self, factor) -> "Polytope":
        f = xa.as_fraction(factor)
        if f < 0:
            raise ValueError("dilation factor must be non-negative")
        if f == 0:
            return Polytope._lattice([(0,) * self.dim], 1)
        coords = [tuple(f.numerator * x for x in v) for v in self.coords]
        return Polytope._lattice(coords, self.denominator * f.denominator, self.facets)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polytope) and self.denominator == other.denominator
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.denominator, self.coords))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Polytope(dim={self.dim}, nvertices={len(self.coords)})"


def convex_hull(points: Iterable[Sequence]) -> Polytope:
    """Exact convex hull; vertices of the result are the extreme points."""
    return Polytope(points)


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.dim != q.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    s = math.lcm(p.denominator, q.denominator)
    a, b = s // p.denominator, s // q.denominator
    pts = {tuple(a * x + b * y for x, y in zip(v, w)) for v in p.coords for w in q.coords}
    verts, facets = _hull(sorted(pts))
    return Polytope._lattice(verts, s, facets)


def _primitive(body: Polytope) -> tuple[Polytope, Fraction]:
    """(K', t) with body = t K' and t > 0: K' has the integer rows of body
    divided by their gcd g over denominator 1, and t = g / denominator.  A
    body that is already primitive, or a point at the origin, is its own K'."""
    g = math.gcd(*(x for v in body.coords for x in v))
    if g == 0 or (g == 1 and body.denominator == 1):
        return body, Fraction(1)
    shape = Polytope._lattice([tuple(x // g for x in v) for v in body.coords], 1, body.facets)
    return shape, Fraction(g, body.denominator)


def polarize(bodies: Sequence[Polytope], functional: Callable) -> Fraction:
    """Symmetric multilinear form V(K_1, ..., K_n) with V(K, ..., K) = F(K)
    of a functional F homogeneous of degree n = len(bodies) on Minkowski
    combinations (the volume, or any polynomial valuation).

    Each body is a positive dilate t_i K'_i of its primitive shape
    (`_primitive`), and V is multilinear in positive dilations, so
    V = prod t_i V(K'_1, ..., K'_n).  With the distinct shapes K'_j
    occurring a_j times,
    n! V(K'_1, ...) = sum_{0 <= b <= a, b != 0} (-1)^(n-|b|) prod C(a_j, b_j) F(sum b_j K'_j),
    and F(g K) = g^n F(K) gathers the terms of b = g b' on the primitive b',
    gcd(b') = 1.  So F is evaluated once per primitive b' (13 times for 4 + 4
    copies of two shapes instead of prod(a_j + 1) - 1 = 24), and once when
    all bodies are dilates of one shape, whose coefficient is then
    sum_b (-1)^(n-b) C(n, b) b^n = n!.
    """
    n = len(bodies)
    if not n:
        raise ValueError("polarize needs at least one body")
    shapes: Counter = Counter()
    scale = Fraction(1)
    for body, a in Counter(bodies).items():
        shape, t = _primitive(body)
        shapes[shape] += a
        scale *= t**a
    distinct, counts = list(shapes), list(shapes.values())
    coeffs: dict[tuple[int, ...], int] = {}
    for b in product(*(range(a + 1) for a in counts)):
        g = math.gcd(*b)
        if g == 0:
            continue
        coeff = math.prod(math.comb(a, k) for a, k in zip(counts, b)) * g**n
        primitive = tuple(k // g for k in b)
        coeffs[primitive] = coeffs.get(primitive, 0) + (coeff if (n - sum(b)) % 2 == 0 else -coeff)
    total = sum(coeff * functional(reduce(minkowski_sum, [body if k == 1 else body.dilate(k)
                                                           for body, k in zip(distinct, b) if k]))
                for b, coeff in coeffs.items())
    value = total / math.factorial(n)
    return value if scale == 1 else value * scale


def _area_pairing(body: Polytope, height: Callable[[IntVec, int], int]) -> tuple[int, int]:
    """sum_u height(u, c) a_u over the area measure S(L) of a polytope L in
    R^d, d >= 2, as an integer numerator and denominator.  S(L) has an atom
    at the primitive integer normal u of each (d-1)-dimensional face F of
    L: c is the largest u . x over the integer rows x of L, and the mass is
    a = vol_(d-1)(F) / |u|, so that sum_u h_K(u) a = d V(K, L, ..., L) for
    any body K.  Atoms of height 0 are not measured.

    A face's mass is read off its shadow along a coordinate axis k with
    u_k != 0: projecting onto x_k = 0 scales vol_(d-1)(F) by |u_k| / |u|, so
    a is the shadow's volume over |u_k|.  A full-dimensional L has one atom
    per facet plane, each facet simplex with edges e_1, ..., e_(d-1) adding
    the minor of its edges without column k, over (d-1)! s^(d-1) |u_k|, s
    the denominator of L.  That minor is +-det(e_1, ..., e_(d-1), e_k), and
    the edges' generalized cross product is an integer multiple of u, so the
    division by |u_k| is exact.  A (d-1)-flat has the atoms +-u, both of the
    flat's shadow volume over |u_k|, and a lower flat none."""
    d, s = body.dim, body.denominator
    if body.facets:
        total = 0
        for normal, simplices in body.facets:
            h = height(normal, _dot(normal, body.coords[simplices[0][0]]))
            if not h:
                continue
            k = next(j for j, x in enumerate(normal) if x)
            shadow = 0
            for simplex in simplices:
                v0 = body.coords[simplex[0]]
                shadow += _abs_det([[x - y for j, (x, y) in enumerate(zip(body.coords[i], v0)) if j != k]
                                    for i in simplex[1:]])
            total += h * (shadow // abs(normal[k]))
        return total, math.factorial(d - 1) * s ** (d - 1)
    basis, _ = _affine_basis(body.coords)
    if len(basis) < d:
        return 0, 1
    v0 = body.coords[0]
    normal, k = xa._null_vector([[x - y for x, y in zip(body.coords[i], v0)] for i in basis[1:]], d)
    g = math.gcd(*normal)
    u = tuple(x // g for x in normal)
    c = _dot(u, v0)
    h = height(u, c) + height(tuple(-x for x in u), -c)
    if not h:
        return 0, 1
    shadow = Polytope([v[:k] + v[k + 1:] for v in body.coords]).volume()
    return h * shadow.numerator, shadow.denominator * s ** (d - 1) * abs(u[k])


def _support_pairing(first: Polytope, shape: Polytope, t: Fraction, n: int
                     ) -> Callable[[Polytope], Fraction]:
    """L -> V(K, L, ..., L) = (1/n) sum_u h_K(u) a_u over the area measure of
    L, K = `first` = t `shape` (`_primitive`), homogeneous of degree n - 1
    in L.  h_K(u) is the largest u . x over the integer rows x of K, over
    its denominator.  When L is K's shape, K moved by -t v_0, v_0 L's first
    vertex, has h = t (c - u . v_0) over L's denominator (V is translation
    invariant), which is 0 on the facets through v_0."""

    def functional(body: Polytope) -> Fraction:
        if body == shape:
            v0 = body.coords[0]
            total, unit = _area_pairing(body, lambda u, c: c - _dot(u, v0))
            return Fraction(t.numerator * total, t.denominator * unit * n * body.denominator)
        total, unit = _area_pairing(body, lambda u, c: max(_dot(u, v) for v in first.coords))
        return Fraction(total, unit * n * first.denominator)

    return functional


def mixed_volume_polytopes(bodies: Sequence[Polytope]) -> Fraction:
    """Exact mixed volume V(K_1, ..., K_n) of n polytopes in R^n.

    Symmetric and Minkowski-multilinear; V(K, ..., K) = vol(K).  One body K
    pairs its support function with the mixed area measure of the others:
    V(K, K_2, ..., K_n) = (1/n) sum_u h_K(u) S(K_2, ..., K_n; u) (Schneider,
    "Convex Bodies: The Brunn-Minkowski Theory", ch. 5), and `polarize`
    builds that pairing from the area measure of one body
    (`_support_pairing`, `_area_pairing`) over the n - 1 others.  K is a
    body whose primitive shape occurs least often, of those the one with
    the most vertices, so that the others have as few distinct shapes as
    may be: n copies of one body pair one area measure with its own facet
    offsets, box + ball + ball builds no Minkowski sum, and three distinct
    shapes build one sum of two.  For n = 1 the mixed volume is the length.
    """
    if not bodies:
        raise ValueError("mixed volume of an empty list")
    n = bodies[0].dim
    if len(bodies) != n:
        raise ValueError(f"need exactly {n} bodies in dimension {n}")
    if any(b.dim != n for b in bodies):
        raise ValueError("dimension mismatch")
    if n == 1:
        (body,) = bodies
        return Fraction(body.coords[-1][0] - body.coords[0][0], body.denominator)
    primitives = {b: _primitive(b) for b in set(bodies)}
    counts = Counter(primitives[b][0] for b in bodies)
    first = min(range(n), key=lambda i: (counts[primitives[bodies[i]][0]], -len(bodies[i].coords)))
    others = [b for i, b in enumerate(bodies) if i != first]
    return polarize(others, _support_pairing(bodies[first], *primitives[bodies[first]], n))


# ---------------------------------------------------------------------------
# ellipsoids
# ---------------------------------------------------------------------------

class Ellipsoid:
    """Origin-centred ellipsoid {x : <x, Q^{-1} x> <= 1} encoded by the PSD
    matrix Q of its squared support function, h(xi)^2 = xi^T Q xi."""

    __slots__ = ("dim", "Q", "_eigvals")

    def __init__(self, Q: Sequence[Sequence[float]] | np.ndarray):
        q = np.asarray(Q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("Q must be a square matrix")
        vals, vecs = _psd_eigh(q)
        self.dim = q.shape[0]
        self.Q = (vecs * vals) @ vecs.T
        self._eigvals = vals

    def volume(self) -> float:
        return unit_ball_volume(self.dim) * float(np.sqrt(np.prod(self._eigvals)))

    def ball_radius(self) -> float | None:
        """Radius r if this is a ball, every entry of Q - r^2 I at most
        1e-9 max(1, r^2) in absolute value, with r^2 = tr Q / n; else None."""
        r2 = float(np.trace(self.Q)) / self.dim
        gap = self.Q.copy()
        gap.flat[:: self.dim + 1] -= r2
        if np.abs(gap).max() <= 1e-9 * max(1.0, abs(r2)):
            return math.sqrt(max(0.0, r2))
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Ellipsoid(dim={self.dim})"


def _psd_eigh(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, clipped at 0, and eigenvectors of the symmetric part of
    the square matrix q.  Raises ValueError for a non-finite entry or an
    eigenvalue below -1e-12 max(1, tr q)."""
    if not np.isfinite(q).all():
        raise ValueError("Q has a non-finite entry")
    q = 0.5 * (q + q.T)
    vals, vecs = np.linalg.eigh(q)
    tol = 1e-12 * max(1.0, float(np.trace(q)))
    if vals.min() < -tol:
        raise ValueError(f"Q is not positive semidefinite (min eigenvalue {vals.min():g})")
    return np.clip(vals, 0.0, None), vecs


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in R^n (1 for n = 0), read from its
    exact square; ArithmeticError where it underflows, from n = 436 on."""
    if n < 0:
        raise ValueError("negative dimension")
    return xa._sqrt_pi_power(*xa._quotient([(1, 1, n)], [xa._gamma_sq(n + 2)]))


# Gauss-Legendre nodes in cos(theta) of the coarse and the fine rule on S^2;
# each takes twice as many trapezoid nodes in phi
_SPHERE_NODES = (24, 48)
# a body whose smallest over largest eigenvalue of Q is at most this is flat
_FLAT = 1e-12
# most AGM steps of the mixed area: the AGM of 1 and any positive double
# ratio has converged to double precision after 16
_AGM_STEPS = 16
# the AGM stops once every c_k <= 2^-26 a_k: the next c is then below
# 2^-54 a, and neither the mean nor the sum moves in double precision
_AGM_TOL = 2.0**-26
_TINY = np.finfo(float).tiny


def _agm_steps(b: float) -> int:
    """Number of steps the AGM of 1 and b in (0, 1] takes until c_k <=
    _AGM_TOL a_k, at most _AGM_STEPS: the loop of `_mixed_area_of_invariants`
    on one entry, in the same double operations."""
    a = 1.0
    for step in range(1, _AGM_STEPS):
        c = (a - b) * 0.5
        b = math.sqrt(b * a)
        a -= c
        if c <= _AGM_TOL * a:
            return step
    return _AGM_STEPS


def _mixed_area_of_invariants(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mixed area V(E_1, E_2) of planar ellipses from the two invariants of
    M = Q_1^(1/2) J Q_2^(1/2), J the quarter turn, that it depends on:
    t = s_1^2 + s_2^2 = tr Q_1 tr Q_2 - tr(Q_1 Q_2) and p = s_1 s_2 =
    sqrt(det Q_1) sqrt(det Q_2), for the singular values s_1 >= s_2 of M.

    With row i of G drawn from N(0, Q_i), V = pi E|det G| (Kabluchko and
    Zaporozhets), and det G is the bilinear form of M in standard normals.
    This gives V = 2 s_1 E(1 - s_2^2 / s_1^2), half the perimeter of the
    ellipse with semi-axes s_1, s_2:
    pi (a_1^2 - sum_(n>=2) 2^(n-1) c_n^2) / AGM(a_1, b_1), with
    c_n = (a_(n-1) - b_(n-1)) / 2 in the AGM steps.  Its first step needs
    only t and p: a_1 = (s_1 + s_2) / 2 = sqrt(t + 2 p) / 2, b_1 =
    sqrt(s_1 s_2) = sqrt(p), and the sum's first two terms leave a_1^2.
    V = 2 s_1 = 4 a_1 when p = 0.  The AGM runs on the ratio b_1 / a_1 from
    a = 1, so its first step takes a as the number 1.  The smaller the
    ratio, the slower it converges, so every entry runs the steps that the
    smallest ratio above 0 needs (`_agm_steps`), with no reduction in the
    loop.
    Batched over the shape of t and p, arrays of at least one dimension
    that it overwrites."""
    c = np.multiply(p, 2.0)
    a1 = np.add(t, c, out=t)
    np.maximum(a1, 0.0, out=a1)
    np.sqrt(a1, out=a1)
    a1 *= 0.5
    b = np.sqrt(p, out=p)
    # b_1 / a_1 in [0, 1], as b_1 <= a_1 up to rounding; 0 for a point, a
    # segment or t = 0, with no 0 / 0
    np.maximum(a1, b, out=c)
    np.maximum(c, _TINY, out=c)
    b /= c
    flat = b == 0
    np.copyto(b, 1.0, where=flat)  # no AGM(1, 0) = 0
    steps = _agm_steps(float(b.min(initial=1.0)))
    # the first step, from a = 1
    np.subtract(1.0, b, out=c)
    c *= 0.5
    np.sqrt(b, out=b)
    a = np.subtract(1.0, c)
    c *= c
    c *= 2.0
    total = np.subtract(1.0, c)
    weight = 4.0
    for _ in range(1, steps):
        np.subtract(a, b, out=c)
        c *= 0.5
        b *= a
        np.sqrt(b, out=b)
        a -= c
        c *= c
        c *= weight
        total -= c
        weight *= 2.0
    total *= np.pi
    total /= a
    np.copyto(total, 4.0, where=flat)
    total *= a1
    return total


def _mixed_area(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Mixed area V(E_1, E_2) of planar ellipses, batched over leading axes:
    `_mixed_area_of_invariants` of the 2 x 2 matrices' entries.  The
    determinants' square roots are taken apart, so that their product does
    not underflow."""
    t = (q1[..., 0, 0] * q2[..., 1, 1] + q1[..., 1, 1] * q2[..., 0, 0]
         - q1[..., 0, 1] * q2[..., 1, 0] - q1[..., 1, 0] * q2[..., 0, 1])
    d1 = q1[..., 0, 0] * q1[..., 1, 1] - q1[..., 0, 1] * q1[..., 1, 0]
    d2 = q2[..., 0, 0] * q2[..., 1, 1] - q2[..., 0, 1] * q2[..., 1, 0]
    p = np.sqrt(np.maximum(d1, 0.0)) * np.sqrt(np.maximum(d2, 0.0))
    return _mixed_area_of_invariants(*np.atleast_1d(t, p)).reshape(np.shape(t))


def _column_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products of the columns of two (n, batch) arrays."""
    return np.einsum("ib,ib->b", x, y)


def _pair_products(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The products rows[a] * rows[b], a <= b, in the order of
    np.triu_indices, written into `out`."""
    size, start = len(rows), 0
    for a in range(size):
        np.multiply(rows[a], rows[a:], out=out[start : start + size - a])
        start += size - a
    return out


def _complement_mixed_areas(q: np.ndarray, q2: np.ndarray,
                            factors: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map from batches of n - 2 coordinate vectors z_k in R^n, a
    (batch, n - 2, n) array `z`, to R V(A, C) = V(R A, R C) for the vectors
    x_k = F_k z_k, F_k = factors[k]: R is the volume they span and A, C the
    covariances Q, Q' restricted to the plane they leave (in an orthonormal
    basis), and the mixed area is homogeneous of degree 1/2 in each
    covariance.

    Gram-Schmidt turns all vectors but the last into unit vectors b_k, and
    R is the product of the residual norms, the last one's too.  With
    P = I - sum_k b_k b_k^T, Q and Q' restricted to the range of P have

        tr PQ = tr Q - sum_k b_k^T Q b_k,
        tr(PQPQ') = tr(Q Q') - 2 sum_k (Q b_k)^T (Q' b_k)
                    + sum_(k,l) (b_k^T Q b_l) (b_k^T Q' b_l),

    and tr (PQ)^2 likewise with Q' = Q.  Removing the last residual v, with
    N = |v|^2, too leaves A and C, and the two invariants of
    `_mixed_area_of_invariants` are quadratic forms in v:

        N (tr A tr C - tr(AC)) = N (tr PQ tr PQ' - tr(PQPQ'))
            - tr PQ' v^T Q v - tr PQ v^T Q' v + v^T (Q Q' + Q' Q) v
            - 2 sum_k (b_k^T Q v) (b_k^T Q' v),
        N det A = N ((tr PQ)^2 - tr (PQ)^2) / 2 - tr PQ v^T Q v
            + v^T Q^2 v - sum_k (b_k^T Q v)^2,

    and N det C likewise, as det A = ((tr A)^2 - tr A^2) / 2.  So the last
    vector is never divided by its norm, and six fixed quadratic forms in v
    are one matmul against its coordinates' products.  Each unit vector
    costs one matmul for its images under Q and Q' and one inner product
    per earlier one, so the whole is O(n^3) per batch entry.  With no unit
    vector (n = 3) the traces are numbers, the weighted forms fold into
    three, and so does v = F_0 z_0: they are three quadratic forms in z_0,
    read off the products of its coordinates, which the map writes into one
    buffer that it keeps from call to call.  A zero residual among the
    others makes R = 0; it stays a zero vector, which removes nothing from
    the later ones."""
    n = len(q)
    stacked = np.concatenate([q, q2])
    upper = np.triu_indices(n)

    def coefficients(f: np.ndarray) -> np.ndarray:
        # z^T f z as a linear form in the products z_a z_b, a <= b
        return (f + f.T - np.diag(np.diag(f)))[upper]

    forms = np.stack([coefficients(f) for f in (np.eye(n), q, q2, q @ q2 + q2 @ q, q @ q, q2 @ q2)])
    # tr Q and tr Q'; tr Q^2, tr(Q Q') and tr Q'^2
    traces = np.array([np.trace(q), np.trace(q2)])
    squares = np.array([[np.trace(x @ y) for y in (q, q2)] for x in (q, q2)])

    def invariants(values, tr_a, tr_c, tr_aa, tr_ac, tr_cc) -> list:
        # N (tr A tr C - tr(AC)), N det A and N det C, linear in the forms'
        # values N, v^T Q v, v^T Q' v, v^T (Q Q' + Q' Q) v, v^T Q^2 v, v^T Q'^2 v
        norm2, qv, q2v, mixed, qqv, q2q2v = values
        return [(tr_a * tr_c - tr_ac) * norm2 - tr_c * qv - tr_a * q2v + mixed,
                0.5 * (tr_a * tr_a - tr_aa) * norm2 - tr_a * qv + qqv,
                0.5 * (tr_c * tr_c - tr_cc) * norm2 - tr_c * q2v + q2q2v]

    def plane_areas(t: np.ndarray, det_a: np.ndarray, det_c: np.ndarray) -> np.ndarray:
        p = np.sqrt(np.maximum(det_a, 0.0, out=det_a), out=det_a)
        p *= np.sqrt(np.maximum(det_c, 0.0, out=det_c), out=det_c)
        return _mixed_area_of_invariants(t, p)

    if n == 3:
        # the products v_a v_b of v = F z on the products z_i z_j
        f = factors[0]
        change = np.stack([coefficients(np.outer(f[a], f[b])) for a, b in zip(*upper)])
        folded = np.array(invariants(forms, *traces, *squares[0], squares[1, 1])) @ change
        buffer = np.empty(0)

        def areas(z: np.ndarray) -> np.ndarray:
            nonlocal buffer
            batch = len(z)
            if buffer.size < 9 * batch:
                buffer = np.empty(9 * batch)
            products = _pair_products(z[:, 0].T, buffer[: 6 * batch].reshape(6, batch))
            values = np.matmul(folded, products, out=buffer[6 * batch : 9 * batch].reshape(3, batch))
            return plane_areas(*values)

        return areas

    def areas(z: np.ndarray) -> np.ndarray:
        rows = factors @ z.transpose(1, 2, 0)
        units, last = rows[:-1], rows[-1]
        count, batch = len(units), rows.shape[2]
        volume2 = 1.0  # squared residual norms of all vectors but the last
        # b_k^T Q b_l and b_k^T Q' b_l; the sums over k of (Q b_k)^T (Q b_k),
        # (Q b_k)^T (Q' b_k) and (Q' b_k)^T (Q' b_k)
        cross = np.empty((2, count, count, batch))
        grams = np.zeros((2, 2, batch))
        for k, row in enumerate(units):
            for unit in units[:k]:
                row -= _column_dots(unit, row) * unit
            norm2 = _column_dots(row, row)
            volume2 = volume2 * norm2
            row /= np.maximum(np.sqrt(norm2), _TINY)
            images = (stacked @ row).reshape(2, n, batch)
            cross[:, k, : k + 1] = np.einsum("lib,xib->xlb", units[: k + 1], images)
            cross[:, :k, k] = cross[:, k, :k]
            grams += np.einsum("xib,yib->xyb", images, images)
        for unit in units:
            last -= _column_dots(unit, last) * unit
        # tr PQ and tr PQ'; tr (PQ)^2, tr(PQPQ') and tr (PQ')^2
        tr_a, tr_c = traces[:, None] - np.einsum("xkkb->xb", cross)
        grams *= -2.0
        grams += np.einsum("xklb,yklb->xyb", cross, cross)
        grams += squares[..., None]
        products = _pair_products(last, np.empty((len(forms[0]), batch)))
        t, det_a, det_c = invariants(forms @ products, tr_a, tr_c, *grams[0], grams[1, 1])
        # b_k^T Q v and b_k^T Q' v
        images = np.einsum("kib,xib->xkb", units, (stacked @ last).reshape(2, n, batch))
        (qq, qq2), (_, q2q2) = np.einsum("xkb,ykb->xyb", images, images)
        t -= 2.0 * qq2
        det_a -= qq
        det_c -= q2q2
        result = plane_areas(t, det_a, det_c)
        result *= np.sqrt(volume2)
        return result

    return areas


def _sphere_mean_of_mixed_areas(p1: np.ndarray, p2: np.ndarray, nodes: int) -> float:
    """Mean over u in S^2 of the mixed area of P_1 and P_2 restricted to the
    plane u^perp: `_complement_mixed_areas` of the unit vector u.
    Gauss-Legendre in cos(theta) times the trapezoid rule in phi, whose
    integrand is smooth and periodic.  The integrand is even in u and the
    Gauss-Legendre rule even in cos(theta), so `nodes` angles in [0, pi)
    give the rule with 2 `nodes` angles in [0, 2 pi)."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t, phi = np.meshgrid(t, np.pi * (np.arange(nodes) + 0.5) / nodes, indexing="ij")
    s = np.sqrt(1 - t * t)
    u = np.stack([s * np.cos(phi), s * np.sin(phi), t], axis=-1).reshape(-1, 1, 3)
    areas = _complement_mixed_areas(p1, p2, np.eye(3)[None])(u).reshape(nodes, nodes)
    return 0.5 * float(w @ areas.mean(axis=1))


def _sphere_mixed_volume(qs: Sequence[np.ndarray], k: int) -> tuple[float, float]:
    """V(E_1, E_2, E_3) in R^3, whitened by the positive-definite body k, and
    the distance between the coarse and the fine rule as its error estimate.

    With L = chol(Q_k), the whitened row k of G is |g| u with E|g| =
    2 sqrt(2/pi) and u uniform on S^2, and |det G| = det L |g| times the
    planar |det| of the other whitened rows projected onto u^perp.  So
    V = (2 pi)^(3/2)/3! E|det G| = 4/3 sqrt(det Q_k) times the mean over u of
    the mixed area of U^T P_i U, P_i = L^-1 Q_i L^-T, for the other two i.
    """
    chol = np.linalg.cholesky(qs[k])
    inv = np.linalg.inv(chol)
    p1, p2 = (inv @ q @ inv.T for i, q in enumerate(qs) if i != k)
    scale = 4.0 / 3.0 * float(np.prod(np.diag(chol)))
    coarse, fine = (scale * _sphere_mean_of_mixed_areas(p1, p2, m) for m in _SPHERE_NODES)
    return fine, abs(fine - coarse)


def _roundest_body(ellipsoids: Sequence[Ellipsoid]) -> int | None:
    """Index of the body with the largest ratio of smallest to largest
    eigenvalue of Q, or None when every body is flat."""
    ratios = [e._eigvals[0] / e._eigvals[-1] if e._eigvals[-1] > 0 else 0.0
              for e in ellipsoids]
    k = int(np.argmax(ratios))
    return k if ratios[k] > _FLAT else None


@dataclass(frozen=True)
class MixedVolumeResult:
    """Mixed volume value with an error estimate (0 for closed forms)."""

    value: float
    stderr: float
    method: str
    samples: int | None = None


_MC_SAMPLES = 100_000  # Gaussian samples behind an "mc" mean


def mixed_volume_ellipsoids(
    ellipsoids: Sequence[Ellipsoid],
    method: str = "auto",
    seed: int | None = None,
) -> MixedVolumeResult:
    """Mixed volume V(E_1, ..., E_n) of n ellipsoids in R^n.

    Methods: "balls" (all E_i balls, every E_i when n = 1), "volume" (n copies
    of one ellipsoid), "sphere" (n = 2: the closed-form mixed area; n = 3:
    that area averaged over the planes u^perp, u in S^2, after whitening by
    the roundest body, which must be positive definite; `stderr` is the
    distance of the reported 48 x 96 node rule from a 24 x 48 one), "mc"
    (the Gaussian determinant estimator on _MC_SAMPLES samples; needs
    `seed`; it integrates two rows out through the planar mixed area, so at
    n <= 2 it returns the closed form with stderr 0 from 0 samples), and
    "auto", which picks the first of balls, volume and sphere that applies,
    else mc.  `samples` of the result is the number of samples its value is
    averaged over (None for the other methods).
    """
    if not ellipsoids:
        raise ValueError("mixed volume of an empty list")
    n = ellipsoids[0].dim
    if len(ellipsoids) != n:
        raise ValueError(f"need exactly {n} ellipsoids in dimension {n}")
    if any(e.dim != n for e in ellipsoids):
        raise ValueError("dimension mismatch")

    radii = [e.ball_radius() for e in ellipsoids]
    identical = all(np.array_equal(e.Q, ellipsoids[0].Q) for e in ellipsoids[1:])
    whiten = _roundest_body(ellipsoids) if n == 3 else None
    if method == "auto":
        if all(r is not None for r in radii):
            method = "balls"
        elif identical:
            method = "volume"
        elif n == 2 or whiten is not None:
            method = "sphere"
        else:
            method = "mc"

    if method == "balls":
        if any(r is None for r in radii):
            raise ValueError("balls method needs all ellipsoids to be balls")
        value = unit_ball_volume(n) * float(np.prod(radii))
        return MixedVolumeResult(value, 0.0, method)
    if method == "volume":
        if not identical:
            raise ValueError("volume method needs n copies of one ellipsoid")
        return MixedVolumeResult(ellipsoids[0].volume(), 0.0, method)
    if method == "sphere":
        qs = [e.Q for e in ellipsoids]
        if n == 2:
            return MixedVolumeResult(float(_mixed_area(*qs)), 0.0, method)
        if n != 3:
            raise ValueError("sphere needs dimension 2 or 3")
        if whiten is None:
            raise ValueError("sphere needs a positive-definite ellipsoid in dimension 3")
        return MixedVolumeResult(*_sphere_mixed_volume(qs, whiten), method)
    if method == "mc":
        if seed is None:
            raise ValueError("mc method needs a seed")
        from .montecarlo import gaussian_mixed_volume

        stats = gaussian_mixed_volume([e.Q for e in ellipsoids], samples=_MC_SAMPLES, seed=seed)
        return MixedVolumeResult(stats.value, stats.stderr, method, stats.samples)
    raise ValueError(
        f"unknown method {method!r}; use auto, balls, volume, sphere or mc"
    )


# ---------------------------------------------------------------------------
# polynomial integration over polytopes
# ---------------------------------------------------------------------------

def integrate_polynomial_over_polytope(p: Polytope, poly: FormProducts, *,
                                       normal_class: Callable[..., object] | None = None
                                       ) -> Fraction:
    """Integral of the `FormProducts` integrand `poly` over `p` against
    coordinate Lebesgue measure, exact and without expanding its products.
    Zero for polytopes of less than full dimension.

    P is the signed sum of the cones from the origin over its facet
    simplices, with the sign of their plane's offset c (Lasserre, "Integration
    on a convex polytope", 1998); a plane through the origin adds nothing.
    By homogeneity a term of degree k integrates over the cone over the
    simplex V = (v_1 ... v_d) as |det V| / (k + d) times its integral over
    the standard (d - 1)-simplex at V b.

    `normal_class` keys the orbits of a group G of unimodular linear maps
    that preserve both p and poly: `normal_class(n)` the orbit of a facet
    normal n, and `normal_class(n, rows)` the orbit of the facet simplex on
    the plane of n with the integer vertex rows `rows` (rows of `p.coords`).
    One plane of each (class, c), the one with fewest simplices, is
    integrated, times the class size; and on it one simplex of each simplex
    class, times the number of the plane's simplices in that class (not the
    orbit size, since the triangulation need not be G-stable).  Conjugate
    cones have equal integrals, so the value is the same.
    """
    if poly.nvars != p.dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    d, s = p.dim, p.denominator
    # (class, offset) -> [planes in the class, the plane with fewest simplices]
    classes: dict[tuple[object, int], list] = {}
    for normal, simplices in p.facets:
        offset = _dot(normal, p.coords[simplices[0][0]])
        if offset == 0:
            continue
        key = normal if normal_class is None else normal_class(normal)
        entry = classes.setdefault((key, offset), [0, (normal, simplices)])
        entry[0] += 1
        if len(simplices) < len(entry[1][1]):
            entry[1] = (normal, simplices)
    if not classes:
        return Fraction(0)
    cone = FormProducts(d, poly.forms, [(Fraction(a, (sum(e) + d) * poly.denominator), e)
                                        for a, e in poly.terms])
    unit = math.factorial(d - 1) * s**d
    total = Fraction(0)
    for (_, offset), (size, (normal, simplices)) in classes.items():
        # simplex class -> [simplices of the plane in it, the first one's rows]
        groups: dict[object, list] = {}
        for simplex in simplices:
            rows = [p.coords[i] for i in simplex]
            key = simplex if normal_class is None else normal_class(normal, rows)
            groups.setdefault(key, [0, rows])[0] += 1
        part = Fraction(0)
        for count, rows in groups.values():
            part += count * integrate_over_simplex(cone, rows, Fraction(_abs_det(list(rows)), unit), s)
        total += size * part if offset > 0 else -size * part
    return total


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def body_to_json(body: Polytope | Ellipsoid) -> str:
    """Serialize a body; rational coordinates become exact strings."""
    if isinstance(body, Polytope):
        data = {
            "kind": "polytope",
            "vertices": [[str(c) for c in v] for v in body.vertices],
        }
    elif isinstance(body, Ellipsoid):
        data = {"kind": "ellipsoid", "Q": body.Q.tolist()}
    else:
        raise TypeError(f"cannot serialize {type(body)!r}")
    return json.dumps(data, sort_keys=True)


def body_from_json(text: str) -> Polytope | Ellipsoid:
    data = json.loads(text)
    kind = data.get("kind")
    if kind == "polytope":
        return convex_hull([[Fraction(c) for c in v] for v in data["vertices"]])
    if kind == "ellipsoid":
        return Ellipsoid(np.asarray(data["Q"], dtype=float))
    raise ValueError(f"unknown body kind {kind!r}")
