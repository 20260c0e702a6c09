"""Convex bodies: lattice polytopes with exact rational arithmetic and
ellipsoids with floating-point support functions.

Polytope hulls, volumes and mixed volumes are exact (Fraction) in any
dimension we actually use (<= 4 by contract); ellipsoid computations are
floating point.  Hulls come from an incremental (beneath-beyond) boundary
complex whose vertices are read off its facet incidences: a boundary point is
a vertex iff the normals of the facets through it have full rank.  Mixed
volumes polarize the volume of Minkowski sums over the distinct bodies only,
so repeated bodies cost no extra sums; the ellipsoid variant offers an exact
planar path, an all-balls product path, and a Monte Carlo path.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from . import exactalg as xa
from .polynomials import FormProducts, Polynomial, integrate_over_simplex

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

def _hull_1d(coords: list[xa.Vec]) -> list[int]:
    vals = [(c[0], i) for i, c in enumerate(coords)]
    lo = min(vals)[1]
    hi = max(vals)[1]
    return [lo] if lo == hi else [lo, hi]


def _cross2(o: xa.Vec, a: xa.Vec, b: xa.Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(coords: list[xa.Vec]) -> list[int]:
    """Monotone chain; returns indices of extreme points in ccw order."""
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


def _facet_plane(coords: list[xa.Vec], facet: tuple[int, ...], ref: xa.Vec) -> tuple[xa.Vec, Fraction]:
    """Outward normal and offset for a facet, oriented away from `ref`."""
    v0 = coords[facet[0]]
    rows = [xa.vec_sub(coords[i], v0) for i in facet[1:]]
    normal = xa.nullspace_vector(rows)
    offset = xa.dot(normal, v0)
    side = xa.dot(normal, ref)
    if side == offset:  # pragma: no cover - ref is strictly interior
        raise RuntimeError("degenerate facet orientation")
    if side > offset:
        normal = tuple(-x for x in normal)
        offset = -offset
    return normal, offset


def _incremental_hull(coords: list[xa.Vec], d: int) -> dict[frozenset[int], tuple[xa.Vec, Fraction]]:
    """Simplicial boundary complex of the hull of full-dimensional points."""
    # initial affinely independent simplex
    simplex = [0]
    rows: list[xa.Vec] = []
    for i in range(1, len(coords)):
        cand = rows + [xa.vec_sub(coords[i], coords[0])]
        if xa.rank(cand) > len(rows):
            rows = cand
            simplex.append(i)
            if len(simplex) == d + 1:
                break
    if len(simplex) != d + 1:  # pragma: no cover - guarded by caller
        raise ValueError("points are not full-dimensional")
    ref = tuple(sum(coords[i][c] for i in simplex) / (d + 1) for c in range(d))
    facets: dict[frozenset[int], tuple[xa.Vec, Fraction]] = {}
    for drop in simplex:
        facet = tuple(i for i in simplex if i != drop)
        facets[frozenset(facet)] = _facet_plane(coords, facet, ref)
    remaining = [i for i in range(len(coords)) if i not in simplex]
    remaining.sort(key=lambda i: coords[i])
    for p in remaining:
        pt = coords[p]
        visible = [key for key, (n, c) in facets.items() if xa.dot(n, pt) > c]
        if not visible:
            continue
        visible_set = set(visible)
        ridge_owner: dict[frozenset[int], list[frozenset[int]]] = {}
        for key in facets:
            for v in key:
                ridge = key - {v}
                ridge_owner.setdefault(ridge, []).append(key)
        horizon: list[frozenset[int]] = []
        for key in visible:
            for v in key:
                ridge = key - {v}
                owners = ridge_owner[ridge]
                others = [o for o in owners if o != key]
                if others and others[0] not in visible_set:
                    horizon.append(ridge)
        for key in visible:
            del facets[key]
        for ridge in horizon:
            facet = tuple(sorted(ridge | {p}))
            facets[frozenset(facet)] = _facet_plane(coords, facet, ref)
    return facets


def _hull_vertices(
    coords: list[xa.Vec], facets: dict[frozenset[int], tuple[xa.Vec, Fraction]], d: int
) -> list[int]:
    """Vertices among the points of a boundary complex.  A point in the
    relative interior of a k-face lies only on facets whose normals span a
    (d - k)-dimensional space, so it is a vertex iff those normals have rank d."""
    normals: dict[int, set[xa.Vec]] = {}
    for key, (normal, _) in facets.items():
        for i in key:
            normals.setdefault(i, set()).add(normal)
    ext = [i for i, ns in normals.items() if xa.rank(list(ns)) == d]
    return sorted(ext, key=lambda i: coords[i])


def _hull_full_dim(coords: list[xa.Vec], d: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Extreme point indices plus a triangulation (index tuples into the
    extreme list, lexicographically sorted)."""
    if d == 1:
        ext = _hull_1d(coords)
        order = sorted(range(len(ext)), key=lambda k: coords[ext[k]])
        ext = [ext[k] for k in order]
        tri = [(0, 1)] if len(ext) == 2 else []
        return ext, tri
    if d == 2:
        ring = _hull_2d(coords)
        # fan triangulation before re-sorting vertices
        sorted_idx = sorted(range(len(ring)), key=lambda k: coords[ring[k]])
        pos = {ring[k]: sorted_idx.index(k) for k in range(len(ring))}
        tri = [(pos[ring[0]], pos[ring[i]], pos[ring[i + 1]]) for i in range(1, len(ring) - 1)]
        ext = [ring[k] for k in sorted_idx]
        return ext, [tuple(sorted(t)) for t in tri]
    ext = _hull_vertices(coords, _incremental_hull(coords, d), d)
    # a second pass over the vertices alone, so the triangulation uses no
    # boundary point that is not a vertex
    sub = [coords[i] for i in ext]
    facets2 = _incremental_hull(sub, d)
    tri: list[tuple[int, ...]] = []
    apex = 0
    for key in sorted(facets2, key=sorted):
        if apex in key:
            continue
        simplex = (apex, *sorted(key))
        mat = [xa.vec_sub(sub[i], sub[apex]) for i in simplex[1:]]
        if xa.mat_det(mat) != 0:
            tri.append(simplex)
    return ext, tri


class Polytope:
    """Convex lattice/rational polytope given by its extreme points.

    Construct through :func:`convex_hull`; the constructor itself trusts the
    caller that `vertices` are exactly the extreme points.
    """

    __slots__ = ("dim", "vertices", "triangulation", "_volume")

    def __init__(self, vertices: Sequence[Sequence], triangulation: Sequence[tuple[int, ...]] = ()):
        verts = tuple(sorted(xa.as_vec(v) for v in vertices))
        if not verts:
            raise ValueError("a polytope needs at least one point")
        self.dim = len(verts[0])
        if any(len(v) != self.dim for v in verts):
            raise ValueError("inconsistent vertex dimensions")
        self.vertices = verts
        self.triangulation = tuple(tuple(t) for t in triangulation)
        self._volume: Fraction | None = None

    # -- basic geometry -------------------------------------------------

    def volume(self) -> Fraction:
        """Exact Lebesgue volume (0 for lower-dimensional polytopes)."""
        if self._volume is None:
            total = Fraction(0)
            fact = math.factorial(self.dim)
            for simplex in self.triangulation:
                v0 = self.vertices[simplex[0]]
                mat = [xa.vec_sub(self.vertices[i], v0) for i in simplex[1:]]
                total += abs(xa.mat_det(mat))
            self._volume = total / fact
        return self._volume

    def translate(self, shift: Sequence) -> "Polytope":
        s = xa.as_vec(shift)
        return Polytope([xa.vec_add(v, s) for v in self.vertices], self.triangulation)

    def dilate(self, factor) -> "Polytope":
        f = xa.as_fraction(factor)
        if f < 0:
            raise ValueError("dilation factor must be non-negative")
        if f == 0:
            return Polytope([(Fraction(0),) * self.dim])
        return Polytope([xa.vec_scale(v, f) for v in self.vertices], self.triangulation)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Polytope(dim={self.dim}, nvertices={len(self.vertices)})"


def convex_hull(points: Iterable[Sequence]) -> Polytope:
    """Exact convex hull; vertices of the result are the extreme points."""
    pts = sorted({xa.as_vec(p) for p in points})
    if not pts:
        raise ValueError("convex_hull of an empty set")
    d = len(pts[0])
    if len(pts) == 1:
        return Polytope(pts)
    origin = pts[0]
    basis: list[xa.Vec] = []
    for p in pts[1:]:
        cand = basis + [xa.vec_sub(p, origin)]
        if xa.rank(cand) > len(basis):
            basis.append(xa.vec_sub(p, origin))
    adim = len(basis)
    if adim == d:
        ext, tri = _hull_full_dim(list(pts), d)
        return Polytope([pts[i] for i in ext], tri)
    # lower-dimensional: find extreme points in affine coordinates
    bmatT = tuple(zip(*basis, strict=True))
    coords = [xa.solve(bmatT, xa.vec_sub(p, origin)) for p in pts]
    if adim == 0:  # pragma: no cover - handled by dedupe above
        return Polytope([pts[0]])
    ext, _ = _hull_full_dim(coords, adim)
    return Polytope([pts[i] for i in ext])


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.dim != q.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    return convex_hull([xa.vec_add(v, w) for v in p.vertices for w in q.vertices])


def polarize(bodies: Sequence, functional: Callable) -> Fraction:
    """Symmetric multilinear form V(K_1, ..., K_n) with V(K, ..., K) = F(K)
    of a functional F homogeneous of degree n = len(bodies) on Minkowski
    combinations (the volume, or any polynomial valuation).

    With the distinct bodies K_i occurring a_i times,
    n! V = sum_{0 <= b <= a, b != 0} (-1)^(n-|b|) prod C(a_i, b_i) F(sum b_i K_i),
    which takes prod(a_i + 1) - 1 evaluations of F; one distinct body gives F(K).
    """
    n = len(bodies)
    mult = Counter(bodies)
    if len(mult) == 1:
        return functional(bodies[0])
    distinct, counts = list(mult), list(mult.values())
    total = None
    for b in product(*(range(a + 1) for a in counts)):
        size = sum(b)
        if size == 0:
            continue
        parts = [body if k == 1 else body.dilate(k) for body, k in zip(distinct, b) if k]
        coeff = math.prod(math.comb(a, k) for a, k in zip(counts, b))
        term = coeff * functional(reduce(minkowski_sum, parts))
        signed = term if (n - size) % 2 == 0 else -term
        total = signed if total is None else total + signed
    return total / math.factorial(n)


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
        q = 0.5 * (q + q.T)
        vals, vecs = np.linalg.eigh(q)
        tol = 1e-12 * max(1.0, float(np.trace(q)))
        if vals.min() < -tol:
            raise ValueError(f"Q is not positive semidefinite (min eigenvalue {vals.min():g})")
        vals = np.clip(vals, 0.0, None)
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


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in R^n (1 for n = 0)."""
    if n < 0:
        raise ValueError("negative dimension")
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float, depth: int = 24) -> float:
    c = 0.5 * (a + b)
    fa, fb, fc = f(a), f(b), f(c)

    def recurse(a, fa, b, fb, c, fc, whole, tol, depth):
        lm = 0.5 * (a + c)
        rm = 0.5 * (c + b)
        flm, frm = f(lm), f(rm)
        left = (c - a) / 6 * (fa + 4 * flm + fc)
        right = (b - c) / 6 * (fc + 4 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15 * tol:
            return left + right + (left + right - whole) / 15
        return recurse(a, fa, c, fc, lm, flm, left, tol / 2, depth - 1) + recurse(
            c, fc, b, fb, rm, frm, right, tol / 2, depth - 1
        )

    whole = (b - a) / 6 * (fa + 4 * fc + fb)
    return recurse(a, fa, b, fb, c, fc, whole, tol, depth)


def _planar_body_area(Qs: Sequence[np.ndarray], tol: float = 1e-10) -> float:
    """Area of a Minkowski sum of origin-centred planar ellipsoids via the
    support-function formula  A = (1/2) int (h^2 - h'^2) dtheta."""

    def integrand(theta: float) -> float:
        u = np.array([math.cos(theta), math.sin(theta)])
        up = np.array([-math.sin(theta), math.cos(theta)])
        h = 0.0
        hp = 0.0
        for Q in Qs:
            q = float(u @ Q @ u)
            if q > 0.0:
                h += math.sqrt(q)
                hp += float(up @ Q @ u) / math.sqrt(q)
            # q == 0: support kink of a degenerate summand; h' jump midpoint 0
        return h * h - hp * hp

    panels = 64
    total = 0.0
    for i in range(panels):
        a = 2 * math.pi * i / panels
        b = 2 * math.pi * (i + 1) / panels
        total += _adaptive_simpson(integrand, a, b, tol / panels)
    return 0.5 * total


@dataclass(frozen=True)
class MixedVolumeResult:
    """Mixed volume value with an error estimate (0 for exact paths)."""

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

    Methods: "exact1d" (n=1 closed form), "exact2d" (planar support-function
    quadrature plus polarization), "balls" (product formula, all E_i balls),
    "volume" (V(E, ..., E) = vol(E), n copies of one ellipsoid), "mc"
    (Gaussian determinant estimator; needs `seed`), and "auto" which picks
    the first of exact1d, balls, exact2d and volume that applies, else mc.
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
    if method == "auto":
        if n == 1:
            method = "exact1d"
        elif all(r is not None for r in radii):
            method = "balls"
        elif n == 2:
            method = "exact2d"
        elif identical:
            method = "volume"
        else:
            method = "mc"

    if method == "exact1d":
        if n != 1:
            raise ValueError("exact1d needs dimension 1")
        return MixedVolumeResult(2.0 * math.sqrt(float(ellipsoids[0].Q[0, 0])), 0.0, method)
    if method == "balls":
        if any(r is None for r in radii):
            raise ValueError("balls method needs all ellipsoids to be balls")
        value = unit_ball_volume(n) * float(np.prod(radii))
        return MixedVolumeResult(value, 0.0, method)
    if method == "volume":
        if not identical:
            raise ValueError("volume method needs n copies of one ellipsoid")
        return MixedVolumeResult(ellipsoids[0].volume(), 0.0, method)
    if method == "exact2d":
        if n != 2:
            raise ValueError("exact2d needs dimension 2")
        q1, q2 = ellipsoids[0].Q, ellipsoids[1].Q
        a12 = _planar_body_area([q1, q2])
        a1 = _planar_body_area([q1])
        a2 = _planar_body_area([q2])
        return MixedVolumeResult(0.5 * (a12 - a1 - a2), 0.0, method)
    if method == "mc":
        if seed is None:
            raise ValueError("mc method needs a seed")
        from .montecarlo import gaussian_mixed_volume

        stats = gaussian_mixed_volume([e.Q for e in ellipsoids], samples=samples, seed=seed)
        return MixedVolumeResult(stats.value, stats.stderr, method, samples)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# polynomial integration over polytopes
# ---------------------------------------------------------------------------

def integrate_polynomial_over_polytope(p: Polytope, poly: Polynomial | FormProducts) -> Fraction:
    """Integral of `poly` over `p` against coordinate Lebesgue measure.

    Exact (Fraction); a float coefficient counts as its exact binary value.
    A `FormProducts` integrand is integrated without expanding its products.
    Zero for polytopes of less than full dimension.
    """
    if poly.nvars != p.dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    if isinstance(poly, Polynomial):
        poly = FormProducts.from_polynomial(poly)
    if not p.triangulation:
        return Fraction(0)
    fact = math.factorial(p.dim)
    total = None
    for simplex in p.triangulation:
        verts = [p.vertices[i] for i in simplex]
        mat = [xa.vec_sub(v, verts[0]) for v in verts[1:]]
        vol = abs(xa.mat_det(mat)) / fact
        if vol == 0:
            continue
        term = integrate_over_simplex(poly, verts, vol)
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


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
