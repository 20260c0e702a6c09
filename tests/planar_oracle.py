"""Planar mixed areas from the support-function area formula, independent of
the closed form in `realroots.convex`:

* `support_area`: the area A = (1/2) int (h^2 - h'^2) dtheta of the Minkowski
  sum of origin-centred ellipses, h the sum of their support functions
  sqrt(u^T Q u).  The integrand is smooth and periodic for positive-definite
  Q, so the trapezoid rule on equispaced angles converges geometrically;
* `polarized_mixed_area`: V(E_1, E_2) = (A(E_1 + E_2) - A(E_1) - A(E_2)) / 2.
"""

from typing import Sequence

import numpy as np


def support_area(qs: Sequence[np.ndarray], nodes: int = 4096) -> float:
    """Area of the Minkowski sum of the positive-definite ellipses Q in qs."""
    theta = 2 * np.pi * np.arange(nodes) / nodes
    u = np.stack([np.cos(theta), np.sin(theta)], 1)
    du = np.stack([-np.sin(theta), np.cos(theta)], 1)
    h = np.zeros(nodes)
    dh = np.zeros(nodes)
    for q in qs:
        root = np.sqrt(np.einsum("ki,ij,kj->k", u, q, u))
        h += root
        dh += np.einsum("ki,ij,kj->k", du, q, u) / root
    return float(np.pi * np.mean(h * h - dh * dh))


def polarized_mixed_area(q1: np.ndarray, q2: np.ndarray) -> float:
    return 0.5 * (support_area([q1, q2]) - support_area([q1]) - support_area([q2]))
