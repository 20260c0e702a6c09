"""The Weyl dimension, Frobenius-Schur parity, root product, dominant
conjugate, dual weight and Casimir value that `realroots.rootsystems`
computed before it read them off integer rows and the integer coroot table:
a test oracle, kept verbatim.

Every factor is a `Fraction` pairing in the fundamental-weight Gram matrix:
(lam + rho, beta) over (rho, beta) for the dimension, 2 (lam, beta) /
(beta, beta) summed over the positive roots for the parity, the metric
pairing (lam, beta) for the root product, and (lam, lam + 2 rho) in the
Killing Gram matrix for the Casimir value; the dominant conjugate applies
the `Fraction` simple reflections.
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


def to_dominant(rs, lam: Sequence) -> xa.Vec:
    v = xa.as_vec(lam)
    while True:
        i = next((j for j in range(rs.rank) if v[j] < 0), None)
        if i is None:
            return v
        v = rs.simple_reflection(i, v)


def symmetric_partner(rs, lam: Sequence) -> xa.Vec:
    return to_dominant(rs, tuple(-c for c in xa.as_vec(lam)))


def casimir(rs, lam: Sequence, scale=1) -> Fraction:
    v = xa.as_vec(lam)
    two_rho = xa.vec_scale(rs.rho, Fraction(2))
    return xa.as_fraction(scale) * xa.bilinear(rs.gram_killing, v, xa.vec_add(v, two_rho))


def radius_sq_killing(ensemble) -> Fraction:
    """`f_form(ensemble).radius_sq_killing`: the dimension-squared weighted
    Casimir mean over the distinct weights, over the group dimension."""
    rs = ensemble.rs
    num = Fraction(0)
    den = Fraction(0)
    for weight in ensemble.weights:
        d2 = Fraction(weyl_dimension(rs, weight) ** 2)
        num += d2 * casimir(rs, weight)
        den += d2
    return num / (rs.dimension * den)


def missing_duals(ensemble) -> str:
    """The `require_self_dual` error message, or "" for a closed spectrum."""
    weights = set(ensemble.weights)
    missing = sorted({symmetric_partner(ensemble.rs, w) for w in weights} - weights)
    if not missing:
        return ""
    names = ", ".join("(" + ",".join(str(c) for c in w) + ")" for w in missing)
    return f"spectrum must be closed under duality for a real ensemble; add {names}"
