"""Planar mixed areas from the support-function area formula, independent of
the closed form in `realroots.convex`:

* `support_area`: the area A = (1/2) int (h^2 - h'^2) dtheta of the Minkowski
  sum of origin-centred ellipses, h the sum of their support functions
  sqrt(u^T Q u).  The integrand is smooth and periodic for positive-definite
  Q, so the trapezoid rule on equispaced angles converges geometrically;
* `polarized_mixed_area`: V(E_1, E_2) = (A(E_1 + E_2) - A(E_1) - A(E_2)) / 2;
* `agm_loop_mixed_area`: the closed form of
  `realroots.convex._mixed_area_of_invariants` by the AGM loop it ran before
  it took its step count from the smallest ratio: each step checks whether
  every entry has converged (the largest c_k at most 2^-26 times the
  smallest a_k) and the loop stops at the first step where they all have.
"""

import math
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


def agm_loop_mixed_area(t: np.ndarray, p: np.ndarray, max_steps: int,
                        tol: float) -> tuple[np.ndarray, int]:
    """The mixed area from the invariants t = s_1^2 + s_2^2 and p = s_1 s_2,
    and the number of AGM steps the loop ran."""
    a1, b1 = 0.5 * np.sqrt(np.maximum(t + 2.0 * p, 0.0)), np.sqrt(p)
    ratio = b1 / np.maximum(np.maximum(a1, b1), np.finfo(float).tiny)
    flat = ratio == 0
    b = np.where(flat, 1.0, ratio)
    a, total, weight = np.ones_like(b), np.ones_like(b), 2.0
    steps = 0
    for steps in range(1, max_steps + 1):
        c = a - b
        c *= 0.5
        b *= a
        np.sqrt(b, out=b)
        a -= c
        converged = c.max() <= tol * a.min()
        c *= c
        c *= weight
        total -= c
        weight *= 2.0
        if converged:
            break
    return a1 * np.where(flat, 4.0, math.pi * total / a), steps
