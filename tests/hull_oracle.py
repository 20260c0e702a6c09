"""Routes that `realroots.convex` took before, kept as test oracles.

`facet_plane` is the facet plane lifted to (v, 1): the rational null vector
of the facet's vertices with a 1 appended (`xa.nullspace_vector`), cleared
of denominators (`xa.integer_rows`), divided by its gcd and oriented away
from ref / (d + 1), ref the vertex sum of the hull's starting simplex.

`extreme_points` is the vertex pass that inserts the points in index order,
in the plane too, where the library runs a monotone chain.

`flat_vertices` is the hull of points that span a flat, from their affine
coordinates on the affine basis: one `xa.solve` per point, cleared of
denominators (`xa.integer_rows`), and `extreme_points` on those.

`translate` is the body moved by a rational shift, built as a fresh hull.

`polarized_volume` is the mixed volume polarized from the volumes of
Minkowski combinations of all n bodies, `polarize(bodies, Polytope.volume)`.

`orbit_polytope` is the hull of the whole Weyl orbit of every weight, as
`realroots.groups.weighted_polytope` built it before it kept only the orbits
of the maximal weights.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from realroots import convex as cx
from realroots import exactalg as xa


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def facet_plane(
    coords: list[Sequence[int]], facet: tuple[int, ...], ref: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """Primitive outward normal and offset of the facet with vertex indices
    `facet`."""
    d = len(ref)
    (plane,), _ = xa.integer_rows([xa.nullspace_vector([[*coords[i], 1] for i in facet])])
    g = math.gcd(*plane)
    normal, offset = tuple(x // g for x in plane[:d]), -(plane[d] // g)
    side = _dot(normal, ref) - (d + 1) * offset
    if side == 0:
        raise RuntimeError("degenerate facet orientation")
    if side > 0:
        return tuple(-x for x in normal), -offset
    return normal, offset


def extreme_points(coords: list[Sequence[int]], basis: list[int]) -> list[int]:
    """Sorted indices of the extreme points of full-dimensional points: the
    beneath-beyond complex of the points in index order, from `basis`, and
    the boundary points whose facet normals have rank d."""
    d = len(coords[0])
    normals: dict[int, set] = {}
    for key, (normal, _) in cx._beneath_beyond(coords, basis).items():
        for i in key:
            normals.setdefault(i, set()).add(normal)
    return sorted(i for i, ns in normals.items() if xa.rank(list(ns)) == d)


def flat_vertices(points: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    """The vertices, as sorted Fraction rows, of the hull of rational points
    that span a flat of positive dimension below the ambient one."""
    rows, s = xa.integer_rows(points)
    pts = sorted(set(map(tuple, rows)))
    basis, _ = cx._affine_basis(pts)
    assert 1 < len(basis) <= len(pts[0])
    origin = xa.as_vec(pts[0])
    edges = [tuple(x - y for x, y in zip(pts[i], origin)) for i in basis[1:]]
    coords, _ = xa.integer_rows(xa.solve(tuple(zip(*edges)), tuple(x - y for x, y in zip(p, origin)))
                                for p in pts)
    return tuple(tuple(Fraction(x, s) for x in pts[i]) for i in extreme_points(coords, basis))


def translate(body: cx.Polytope, shift: Sequence) -> cx.Polytope:
    """The hull of the vertices of `body` moved by `shift`."""
    return cx.Polytope([[x + y for x, y in zip(v, xa.as_vec(shift), strict=True)] for v in body.vertices])


def polarized_volume(bodies: Sequence[cx.Polytope]) -> Fraction:
    """V(K_1, ..., K_n) from the volumes of the Minkowski combinations of
    the n bodies."""
    return cx.polarize(bodies, cx.Polytope.volume)


def orbit_polytope(rs, weights) -> cx.Polytope:
    """The hull of the Weyl orbits of all `weights`: those of the integer
    rows s w, s a common denominator, shrunk by s."""
    rows, s = xa.integer_rows(weights)
    pts = set()
    for row in rows:
        pts.update(rs.lattice_orbit(row)[0])
    return cx.convex_hull(pts).dilate(Fraction(1, s))
