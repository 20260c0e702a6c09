"""The Weyl dimension, Frobenius-Schur parity and root product that
`realroots.rootsystems` computed before it read them off the integer coroot
table: a test oracle, kept verbatim.

Every factor is a `Fraction` pairing in the fundamental-weight Gram matrix:
(lam + rho, beta) over (rho, beta) for the dimension, 2 (lam, beta) /
(beta, beta) summed over the positive roots for the parity, and the metric
pairing (lam, beta) for the root product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from realroots import exactalg as xa


def weyl_dimension(rs, lam: Sequence) -> int:
    v = xa.as_vec(lam)
    num = Fraction(1)
    den = Fraction(1)
    rho = rs.rho
    lam_rho = xa.vec_add(v, rho)
    for beta in rs.positive_roots:
        num *= xa.bilinear(rs.gram_std, lam_rho, beta)
        den *= xa.bilinear(rs.gram_std, rho, beta)
    dim = num / den
    assert dim.denominator == 1
    return int(dim)


def fs_parity(rs, lam: Sequence) -> int:
    v = xa.as_vec(lam)
    total = Fraction(0)
    for beta in rs.positive_roots:
        total += 2 * xa.bilinear(rs.gram_std, v, beta) / xa.bilinear(rs.gram_std, beta, beta)
    assert total.denominator == 1
    return -1 if int(total) % 2 else 1


def root_product(metric, lam: Sequence) -> Fraction:
    v = xa.as_vec(lam)
    out = Fraction(1)
    for beta in metric.rs.positive_roots:
        out *= metric.pairing(v, beta)
    return out


def coroot(rs, beta: Sequence) -> xa.Vec:
    """beta^vee = 2 beta / (beta, beta) in simple-coroot coordinates, which
    are its pairings (omega_i, beta^vee) with the fundamental weights."""
    return xa.vec_scale(xa.mat_vec(rs.gram_std, beta), 2 / xa.bilinear(rs.gram_std, beta, beta))
