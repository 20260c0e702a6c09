"""The facet plane that `realroots.convex` computed before it read the plane
straight off the integer elimination: a test oracle, kept verbatim.

It takes the rational null vector of the facet's vertices lifted to (v, 1)
(`xa.nullspace_vector`), clears its denominators (`xa.integer_rows`),
divides by the gcd and orients the plane away from ref / (d + 1), ref the
vertex sum of the hull's starting simplex.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

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
