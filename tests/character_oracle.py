"""Frobenius-Schur indicator from its defining character average, independent
of the parity rule in `realroots.rootsystems`:

* `fs_indicator_quadrature`: the mean of chi(g^2) over the group, taken on
  the maximal torus with the Weyl density |A_rho|^2 / |W| and the Weyl
  character formula chi = A_(lam + rho) / A_rho, on a shifted uniform grid
  fine enough to integrate every exponential in it exactly.
"""

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from realroots import exactalg as xa


def _character_sum(points: np.ndarray, orbit: Sequence[tuple[int, xa.Vec]]) -> np.ndarray:
    """Alternating exponential sum over a signed Weyl orbit at `points`
    (rows are torus coordinates dual to the weight lattice)."""
    out = np.zeros(points.shape[0], dtype=complex)
    for sign, mu in orbit:
        phase = points @ np.array([float(c) for c in mu])
        out += sign * np.exp(2j * np.pi * phase)
    return out


def _signed_orbit(rs, lam: Sequence) -> list[tuple[int, xa.Vec]]:
    """The Weyl orbit of a regular point, each with the sign of the group
    element carrying the base point there."""
    signs, s = rs.lattice_orbit(lam)
    return sorted((sign, tuple(Fraction(x, s) for x in v)) for v, sign in signs.items())


def fs_indicator_quadrature(rs, lam: Sequence, grid: int = 64) -> int:
    """Indicator in {1, 0, -1} of the irreducible representation with
    highest weight lam; raises if the average is not within 1e-6 of one."""
    v = xa.as_vec(lam)
    orbit_num = _signed_orbit(rs, [x + 1 for x in v])
    orbit_rho = _signed_orbit(rs, (Fraction(1),) * rs.rank)

    def max_coord(vecs: Iterable[xa.Vec]) -> int:
        return max(int(math.ceil(abs(c))) for vec in vecs for c in vec)

    fmax = 2 * max_coord(rs.weyl_orbit(v)) + 2 * max_coord(mu for _, mu in orbit_rho)
    n = max(grid, fmax + 1)
    k = rs.rank
    shifts = np.array([math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13)[:k]])
    axes = [(np.arange(n) + shifts[j]) / n for j in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    a_num = _character_sum(2.0 * pts, orbit_num)
    a_den = _character_sum(2.0 * pts, orbit_rho)
    a_weyl = _character_sum(pts, orbit_rho)
    if np.abs(a_den).min() <= 1e-9 * np.abs(a_den).max():
        raise ArithmeticError("degenerate quadrature grid; increase the grid size")
    chi = a_num / a_den
    value = float(((chi * (a_weyl * np.conj(a_weyl))).mean() / rs.weyl_order).real)
    nearest = round(value)
    if abs(value - nearest) > 1e-6 or nearest not in (-1, 0, 1):
        raise ArithmeticError(f"indicator quadrature did not converge: {value}")
    return int(nearest)
