"""Planar systems pushed onto a fold of the discriminant, for the tests.

A drawn system F = (F_1, F_2), F_i = Re sum_half b_lam e(<lam, x>) on
one-sided weights (as `realroots.montecarlo._coefficient_rows` draws them),
is moved so that a point p becomes a common zero whose Jacobian has
relative determinant eps: det J(p) = +-eps |grad F_1(p)| |grad F_2(p)|.  The
zero-frequency weights set F(p) = 0, and a sin 2 pi (x - p_x) and a
sin 2 pi (y - p_y) term added to F_2 turn grad F_2(p) to the angle
asin(eps) from grad F_1(p), keeping its length.  Such a system lies within
about eps of one with a double zero, where the counter's certificates
bind; random draws are decided far from their bounds.  numpy only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def near_fold(
    half: np.ndarray, coeffs: Sequence[np.ndarray], eps: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, list[np.ndarray]]:
    """(p, moved): the weight rows coeffs[i] (samples x H) of F_1 and F_2 on
    the one-sided frequencies `half`, which must hold (0, 0), (1, 0) and
    (0, 1), moved so that row s has a common zero at p[s], drawn uniformly
    on [0,1)^2, with relative Jacobian determinant eps[s] of a random sign."""
    index = {tuple(lam): k for k, lam in enumerate(half.tolist())}
    zero, ex, ey = index[(0, 0)], index[(1, 0)], index[(0, 1)]
    p = rng.random((len(eps), 2))
    terms = [c * np.exp(2j * np.pi * p @ half.T) for c in coeffs]
    values = [t.sum(axis=1).real for t in terms]
    grad1, grad2 = ((t @ (2j * np.pi * half)).real for t in terms)
    angle = np.arctan2(grad1[:, 1], grad1[:, 0]) + rng.choice([-1.0, 1.0], len(eps)) * np.arcsin(eps)
    target = np.linalg.norm(grad2, axis=1)[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    # a sin 2 pi (x_j - p_j), the weight -i a e(-p_j) on e_j, vanishes at p
    # with gradient 2 pi a e_j there
    amp = (target - grad2) / (2 * np.pi)
    moved = [c.astype(complex) for c in coeffs]
    moved[1][:, ex] += -1j * amp[:, 0] * np.exp(-2j * np.pi * p[:, 0])
    moved[1][:, ey] += -1j * amp[:, 1] * np.exp(-2j * np.pi * p[:, 1])
    for c, value in zip(moved, values):
        c[:, zero] -= value
    return p, moved
