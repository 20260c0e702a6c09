"""Routes that `realroots.convex` took before, kept as test oracles.

`facet_plane` is the facet plane lifted to (v, 1): the rational null vector
of the facet's vertices with a 1 appended (`xa.nullspace_vector`), cleared
of denominators (`xa.integer_rows`), divided by its gcd and oriented away
from ref / (d + 1), ref the vertex sum of the hull's starting simplex.

`extreme_points` is the vertex pass that inserts the points in index order.

`translate` is the body moved by a rational shift, built as a fresh hull.
"""

from __future__ import annotations

import math
import operator
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
    if d == 2:
        return sorted(cx._hull_2d(coords))
    normals: dict[int, set] = {}
    for key, (normal, _) in cx._beneath_beyond(coords, basis).items():
        for i in key:
            normals.setdefault(i, set()).add(normal)
    return sorted(i for i, ns in normals.items() if xa.rank(list(ns)) == d)


def translate(body: cx.Polytope, shift: Sequence) -> cx.Polytope:
    """The hull of the vertices of `body` moved by `shift`."""
    return cx.Polytope([[x + y for x, y in zip(v, xa.as_vec(shift), strict=True)] for v in body.vertices])
