"""Convex bodies: lattice polytopes with exact rational arithmetic and
ellipsoids with floating-point support functions.

Polytope hulls, volumes and mixed volumes are exact in any dimension we
actually use (<= 4 by contract); ellipsoid computations are floating point.
A polytope holds its extreme points as integer rows over their least common
denominator; hulls, Minkowski sums, dilations, simplex volumes and the
quadrature's vertex rows all run on those integers, and the Fraction
vertices are built only when read.
Hulls run on integer coordinates (the points, or a flat's affine coordinates,
times a common denominator): a monotone chain in the plane, else an
incremental (beneath-beyond) boundary complex whose facet normals are the
primitive integer null vectors of their edge vectors v_i - v_0.  The vertices
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
Mixed volumes polarize the volume of Minkowski sums over the distinct
primitive shapes only: a body is a positive dilate t K' of its integer rows
over their gcd, the form is multilinear in positive dilations, and the
functional, homogeneous of degree n, is evaluated once per primitive
combination b / gcd(b) of the shapes.  So repeated bodies and dilates cost
no extra sums, and n dilates of one body cost one evaluation.
Mixed volumes of ellipsoids rest on V = (2 pi)^(n/2)/n! E|det G|, row i of G
drawn from N(0, Q_i) (Kabluchko and Zaporozhets, "Random determinants, mixed
volumes of ellipsoids, and zeros of Gaussian random fields"): a closed form
in the plane, averaged over the sphere in R^3, and otherwise estimated by
`montecarlo.gaussian_mixed_volume`, which draws rows 0..n-2 and integrates
the last row out in closed form: given the others, |det G| averages to
sqrt(2/pi) times their Gram-Schmidt residual norms times the standard
deviation of the last row along their unit normal.  Every Q is checked to
be finite and positive semidefinite by one rule (`_psd_eigh`).
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


def _affine_basis(pts: Sequence[Sequence]) -> list[int]:
    """Indices of a greedy affinely independent subset of `pts`: index 0,
    then each point off the span so far, until the span is the whole space."""
    d = len(pts[0])
    basis = [0]
    rows: list[xa.Vec] = []
    for i in range(1, len(pts)):
        cand = rows + [xa.vec_sub(pts[i], pts[0])]
        if xa.rank(cand) > len(rows):
            rows = cand
            basis.append(i)
            if len(rows) == d:
                break
    return basis


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
    points in index order."""
    ref = tuple(map(sum, zip(*(coords[i] for i in simplex))))
    facets: dict[frozenset[int], Plane] = {}
    for drop in simplex:
        facet = tuple(i for i in simplex if i != drop)
        facets[frozenset(facet)] = _facet_plane(coords, facet, ref)
    start = set(simplex)
    for p, pt in enumerate(coords):
        if p in start:
            continue
        visible = [key for key, (n, c) in facets.items() if _dot(n, pt) > c]
        if not visible:
            continue
        # each ridge lies in two facets, so the horizon is the ridges that
        # lie in exactly one visible facet
        ridges = Counter(key - {v} for key in visible for v in key)
        for key in visible:
            del facets[key]
        for ridge, count in ridges.items():
            if count == 1:
                facet = tuple(sorted(ridge | {p}))
                facets[frozenset(facet)] = _facet_plane(coords, facet, ref)
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
    return sorted(i for i, ns in normals.items() if xa.rank(list(ns)) == d)


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
    facets = _beneath_beyond(verts, _affine_basis(verts))
    for key in sorted(facets, key=sorted):
        planes.setdefault(facets[key][0], []).append(tuple(sorted(key)))
    return tuple((normal, tuple(keys)) for normal, keys in planes.items())


def _hull(pts: list[IntVec]) -> tuple[list[IntVec], Facets]:
    """Extreme points and boundary complex (empty unless full-dimensional)
    of the hull of distinct, lexicographically sorted integer rows."""
    if len(pts) == 1:
        return pts, ()
    basis = _affine_basis(pts)
    if len(basis) == len(pts[0]) + 1:
        verts = [pts[i] for i in _extreme_points(pts, basis)]
        return verts, _boundary(verts)
    # a flat: its hull in affine coordinates on the basis
    origin = pts[0]
    bmat_t = tuple(zip(*(xa.vec_sub(pts[i], origin) for i in basis[1:])))
    coords, _ = xa.integer_rows(xa.solve(bmat_t, xa.vec_sub(p, origin)) for p in pts)
    return [pts[i] for i in _extreme_points(coords, basis)], ()


def _simplex_det(rows: Sequence[IntVec]) -> int:
    """|det(v_i - v_0)| for the d + 1 integer vertices of a d-simplex, d!
    times its volume."""
    v0 = rows[0]
    return abs(xa.mat_det([xa.vec_sub(v, v0) for v in rows[1:]])).numerator


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


def mixed_volume_polytopes(bodies: Sequence[Polytope]) -> Fraction:
    """Exact mixed volume V(K_1, ..., K_n) of n polytopes in R^n.

    Symmetric and Minkowski-multilinear; V(K, ..., K) = vol(K).
    """
    if not bodies:
        raise ValueError("mixed volume of an empty list")
    n = bodies[0].dim
    if len(bodies) != n:
        raise ValueError(f"need exactly {n} bodies in dimension {n}")
    if any(b.dim != n for b in bodies):
        raise ValueError("dimension mismatch")
    return polarize(bodies, Polytope.volume)


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

    def support(self, xi: Sequence[float]) -> float:
        x = np.asarray(xi, dtype=float)
        return float(np.sqrt(max(0.0, x @ self.Q @ x)))

    def volume(self) -> float:
        return unit_ball_volume(self.dim) * float(np.sqrt(np.prod(self._eigvals)))

    def ball_radius(self) -> float | None:
        """Radius if this is a ball (Q = r^2 I), else None."""
        r2 = float(np.trace(self.Q)) / self.dim
        if np.allclose(self.Q, r2 * np.eye(self.dim), atol=1e-9 * max(1.0, abs(r2))):
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


_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
# Gauss-Legendre nodes in cos(theta) of the coarse and the fine rule on S^2;
# each takes twice as many trapezoid nodes in phi
_SPHERE_NODES = (24, 48)
# a body whose smallest over largest eigenvalue of Q is at most this is flat
_FLAT = 1e-12
# AGM steps of the mixed area: the AGM of 1 and any positive double ratio has
# converged to double precision after 16
_AGM_STEPS = 16


def _psd_sqrt(q: np.ndarray) -> np.ndarray:
    """Square roots of a stack of PSD matrices, by eigh so singular ones work."""
    vals, vecs = np.linalg.eigh(q)
    root = np.sqrt(np.clip(vals, 0.0, None))[..., None, :]
    return (vecs * root) @ np.swapaxes(vecs, -1, -2)


def _mixed_area(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Mixed area V(E_1, E_2) of planar ellipses, batched over leading axes.

    With row i of G drawn from N(0, Q_i), V = pi E|det G| (Kabluchko and
    Zaporozhets), and det G is a bilinear form in standard normals with
    matrix M = Q_1^(1/2) J Q_2^(1/2), J the quarter turn.  For singular
    values s_1 >= s_2 of M this gives V = 2 s_1 E(1 - s_2^2 / s_1^2), half
    the perimeter of the ellipse with semi-axes s_1, s_2:
    pi ((s_1^2 + s_2^2) / 2 - sum_n 2^(n-1) c_n^2) / AGM(s_1, s_2), with
    c_n = (a_(n-1) - b_(n-1)) / 2 in the AGM steps; V = 2 s_1 when s_2 = 0.
    """
    s = np.linalg.svd(_psd_sqrt(q1) @ _QUARTER_TURN @ _psd_sqrt(q2), compute_uv=False)
    s1, s2 = s[..., 0], s[..., 1]
    ratio = np.divide(s2, s1, out=np.zeros_like(s1), where=s1 > 0)
    flat = ratio == 0
    a, b = np.ones_like(ratio), np.where(flat, 1.0, ratio)  # no AGM(1, 0) = 0
    total, weight = 0.5 * (1.0 + b * b), 1.0
    for _ in range(_AGM_STEPS):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        total -= weight * c * c
        weight *= 2.0
    return s1 * np.where(flat, 2.0, np.pi * total / a)


def _sphere_mean_of_mixed_areas(p1: np.ndarray, p2: np.ndarray, nodes: int) -> float:
    """Mean over u in S^2 of the mixed area of U^T P_1 U and U^T P_2 U, U an
    orthonormal basis of the plane u^perp: Gauss-Legendre in cos(theta) times
    the trapezoid rule in phi, whose integrand is smooth and periodic.  The
    integrand is even in u and the Gauss-Legendre rule even in cos(theta), so
    `nodes` angles in [0, pi) give the rule with 2 `nodes` angles in [0, 2 pi)."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t, phi = np.meshgrid(t, np.pi * (np.arange(nodes) + 0.5) / nodes, indexing="ij")
    e_theta = np.stack([t * np.cos(phi), t * np.sin(phi), -np.sqrt(1 - t * t)], -1)
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], -1)
    u = np.stack([e_theta, e_phi], -1)
    ut = np.swapaxes(u, -1, -2)
    areas = _mixed_area(ut @ p1 @ u, ut @ p2 @ u)
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


def mixed_volume_ellipsoids(
    ellipsoids: Sequence[Ellipsoid],
    method: str = "auto",
    samples: int = 100_000,
    seed: int | None = None,
) -> MixedVolumeResult:
    """Mixed volume V(E_1, ..., E_n) of n ellipsoids in R^n.

    Methods: "balls" (all E_i balls, every E_i when n = 1), "volume" (n copies
    of one ellipsoid), "sphere" (n = 2: the closed-form mixed area; n = 3:
    that area averaged over the planes u^perp, u in S^2, after whitening by
    the roundest body, which must be positive definite; `stderr` is the
    distance of the reported 48 x 96 node rule from a 24 x 48 one), "mc"
    (the Gaussian determinant estimator; needs `seed`), and "auto", which
    picks the first of balls, volume and sphere that applies, else mc.
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

        stats = gaussian_mixed_volume([e.Q for e in ellipsoids], samples=samples, seed=seed)
        return MixedVolumeResult(stats.value, stats.stderr, method, samples)
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
            det = abs(xa.mat_det(rows)).numerator
            part += count * integrate_over_simplex(cone, rows, Fraction(det, unit), s)
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
