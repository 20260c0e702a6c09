"""The root-system construction, Weyl dimension, Frobenius-Schur parity,
root product, dominant conjugate, dual weight and Casimir value that
`realroots.rootsystems` computed before it read them off the integer Dynkin
data, integer rows and the integer coroot table, and the ball enumeration
it computed before it read the inverse Gram matrix off the Cartan matrix: a
test oracle, kept verbatim.

`root_system_fields` builds a system from a `Fraction` Gram table of its
simple roots: one exact solve per root for its simple-root coordinates, a
`Fraction` pairing per root for its length ratio and coroot row, h^vee from
the pairing of rho with the highest root, the degrees of W from a table
per family, det C and C^-1 by the `Fraction` API (`xa.mat_det`,
`xa.mat_inverse`), and the dual permutation from the `Fraction` dominant
conjugate of each -omega_i.  The same construction gives the `Fraction` Gram tables of the
fundamental weights (`gram_std`, long roots of squared length 2, and
`metric_gram`, the Killing one times the metric scale).

Every factor is a `Fraction` pairing in the fundamental-weight Gram matrix:
(lam + rho, beta) over (rho, beta) for the dimension, 2 (lam, beta) /
(beta, beta) summed over the positive roots for the parity, the metric
pairing (lam, beta) for the root product, and (lam, lam + 2 rho) in the
Killing Gram matrix for the Casimir value; the dominant conjugate applies
the `Fraction` simple reflections.  `dominant_weights_in_ball` bounds its
box by the exact inverse of `metric_gram` (`xa.mat_inverse`) and tests its
points on the integer rows of `metric_gram`; `integrate_ball` runs the
library's moment rule with that exact inverse as the covariance.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence
from unittest.mock import patch

from exactalg_oracle import dot, mat_vec
from realroots import exactalg as xa


def _bilinear(g: Sequence[Sequence], x: Sequence, y: Sequence) -> Fraction:
    return dot(x, mat_vec(g, y))


def _simple_root_gram(family: str, rank: int) -> xa.Mat:
    F = Fraction
    if family == "A" and rank >= 1:
        norms = [F(2)] * rank
        links = {(i, i + 1): F(-1) for i in range(rank - 1)}
    elif family == "B" and rank >= 2:
        # last simple root short
        norms = [F(2)] * (rank - 1) + [F(1)]
        links = {(i, i + 1): F(-1) for i in range(rank - 1)}
    elif family == "C" and rank >= 2:
        # last simple root long
        norms = [F(1)] * (rank - 1) + [F(2)]
        links = {(i, i + 1): F(-1, 2) for i in range(rank - 2)}
        links[(rank - 2, rank - 1)] = F(-1)
    elif family == "D" and rank >= 3:
        norms = [F(2)] * rank
        links = {(i, i + 1): F(-1) for i in range(rank - 2)}
        links[(rank - 3, rank - 1)] = F(-1)
    elif family == "G" and rank == 2:
        # first simple root short
        norms = [F(2, 3), F(2)]
        links = {(0, 1): F(-1)}
    else:
        raise ValueError(f"unsupported root system {family}{rank}")
    gram = [[F(0)] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = norms[i]
    for (i, j), v in links.items():
        gram[i][j] = v
        gram[j][i] = v
    return tuple(tuple(row) for row in gram)


def root_system_fields(name: str) -> dict:
    """Every field of `RootSystem` for the system `name` (e.g. "B4"), by
    field name; the Cartan rows are Fractions."""
    fields = dict(_construction(name))
    del fields["gram_std"], fields["gram_killing"]
    return fields


def gram_std(rs) -> xa.Mat:
    """Fundamental-weight Gram matrix, long roots of squared length 2."""
    return _construction(rs.name)["gram_std"]


def metric_gram(metric) -> xa.Mat:
    """Fundamental-weight Gram matrix of the metric: the Killing one times
    the scale."""
    return tuple(tuple(metric.scale * x for x in row) for row in _construction(metric.rs.name)["gram_killing"])


@lru_cache(maxsize=None)
def _construction(name: str) -> dict:
    family, rank = name[0], int(name[1:])
    gram_s = _simple_root_gram(family, rank)
    d = tuple(gram_s[j][j] / 2 for j in range(rank))
    # Cartan matrix: alpha_i in weight coordinates
    cartan = tuple(
        tuple(gram_s[i][j] / d[j] for j in range(rank)) for i in range(rank)
    )
    # fundamental-weight Gram: inverse Cartan times diag(d)
    cinv = xa.mat_inverse(cartan)
    det = xa.mat_det(cartan)
    assert det.denominator == 1
    inverse, s = xa.integer_rows(cinv)
    # -w0 omega_i = omega_pi(i), the dominant conjugate of -omega_i
    units = [tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank)]
    dual = tuple(units.index(_dominant(cartan, tuple(-x for x in u))) for u in units)
    gram_std = tuple(
        tuple(cinv[i][j] * d[j] for j in range(rank)) for i in range(rank)
    )
    # all roots: closure of the simple roots under the simple reflections
    roots = set(cartan)
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for c, row in zip(v, cartan):
                w = tuple(x - c * r for x, r in zip(v, row))
                if w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    cartan_t = tuple(zip(*cartan, strict=True))
    positive = []
    for r in sorted(roots):
        coeffs = xa.solve(cartan_t, r)
        if all(c >= 0 for c in coeffs):
            positive.append((sum(coeffs), xa.as_vec(r)))
    positive.sort()  # by height, so the simple roots come first
    highest = positive[-1][1]
    pos_roots = tuple(r for _, r in positive)
    # coroot rows: k_i = (omega_i, beta^vee) = r_beta (G beta)_i
    coroots, ratios = [], []
    for beta in pos_roots:
        ratio = 2 / _bilinear(gram_std, beta, beta)
        row = tuple(ratio * x for x in mat_vec(gram_std, beta))
        assert ratio.denominator == 1 and all(k.denominator == 1 for k in row)
        ratios.append(int(ratio))
        coroots.append(tuple(int(k) for k in row))
    # dual Coxeter number from the highest root
    rho = (Fraction(1),) * rank
    hr_norm = _bilinear(gram_std, highest, highest)
    assert hr_norm == 2
    hvee = 1 + 2 * _bilinear(gram_std, rho, highest) / hr_norm
    assert hvee.denominator == 1
    gram_k = tuple(
        tuple(x / (2 * hvee) for x in row) for row in gram_std
    )
    if family == "A":
        degrees = range(2, rank + 2)
    elif family in ("B", "C"):
        degrees = range(2, 2 * rank + 1, 2)
    elif family == "D":
        degrees = sorted([*range(2, 2 * rank - 1, 2), rank])
    else:
        degrees = (2, 6)
    return dict(
        name=f"{family}{rank}",
        family=family,
        rank=rank,
        cartan=cartan,
        cartan_det=int(det),
        cartan_inverse=tuple(map(tuple, inverse)),
        inverse_denominator=s,
        dual_permutation=dual,
        gram_std=gram_std,
        gram_killing=gram_k,
        positive_roots=pos_roots,
        coroots=tuple(coroots),
        root_ratios=tuple(ratios),
        highest_root=highest,
        degrees=tuple(degrees),
        dual_coxeter=int(hvee),
    )


def rho_weight(rs) -> xa.Vec:
    """rho, the sum of the fundamental weights: (1, ..., 1)."""
    return (Fraction(1),) * rs.rank


def weyl_dimension(rs, lam: Sequence) -> int:
    v = xa.as_vec(lam)
    num = Fraction(1)
    den = Fraction(1)
    rho = rho_weight(rs)
    lam_rho = tuple(x + 1 for x in v)
    for beta in rs.positive_roots:
        num *= _bilinear(gram_std(rs), lam_rho, beta)
        den *= _bilinear(gram_std(rs), rho, beta)
    dim = num / den
    assert dim.denominator == 1
    return int(dim)


def fs_parity(rs, lam: Sequence) -> int:
    v = xa.as_vec(lam)
    total = Fraction(0)
    for beta in rs.positive_roots:
        total += 2 * _bilinear(gram_std(rs), v, beta) / _bilinear(gram_std(rs), beta, beta)
    assert total.denominator == 1
    return -1 if int(total) % 2 else 1


def pairing(metric, lam: Sequence, mu: Sequence) -> Fraction:
    return _bilinear(metric_gram(metric), xa.as_vec(lam), xa.as_vec(mu))


def norm_sq(metric, lam: Sequence) -> Fraction:
    return pairing(metric, lam, lam)


def root_product(metric, lam: Sequence) -> Fraction:
    v = xa.as_vec(lam)
    out = Fraction(1)
    for beta in metric.rs.positive_roots:
        out *= pairing(metric, v, beta)
    return out


def coroot(rs, beta: Sequence) -> xa.Vec:
    """beta^vee = 2 beta / (beta, beta) in simple-coroot coordinates, which
    are its pairings (omega_i, beta^vee) with the fundamental weights."""
    ratio = 2 / _bilinear(gram_std(rs), beta, beta)
    return tuple(ratio * x for x in mat_vec(gram_std(rs), beta))


def _dominant(cartan: Sequence[Sequence], v: xa.Vec) -> xa.Vec:
    """The dominant conjugate of v by the `Fraction` simple reflections."""
    while True:
        i = next((j for j in range(len(v)) if v[j] < 0), None)
        if i is None:
            return v
        v = tuple(x - v[i] * a for x, a in zip(v, cartan[i]))


def to_dominant(rs, lam: Sequence) -> xa.Vec:
    return _dominant(rs.cartan, xa.as_vec(lam))


def symmetric_partner(rs, lam: Sequence) -> xa.Vec:
    return to_dominant(rs, tuple(-c for c in xa.as_vec(lam)))


def casimir(rs, lam: Sequence, scale=1) -> Fraction:
    v = xa.as_vec(lam)
    lam_two_rho = tuple(x + 2 for x in v)
    return xa.as_fraction(scale) * _bilinear(_construction(rs.name)["gram_killing"], v, lam_two_rho)


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


def dominant_weights_in_ball(metric, radius) -> tuple[xa.Vec, ...]:
    """All dominant integral weights with metric norm <= radius: a box
    bounded by radius sqrt((G^-1)_jj), scanned in lexicographic order, and
    |c|^2 <= r^2 tested in integers on s G."""
    r = xa.as_fraction(radius)
    gram = metric_gram(metric)
    gram_inv = xa.mat_inverse(gram)
    r_f = float(r)
    bounds = [int(math.floor(r_f * math.sqrt(float(gram_inv[j][j])) + 1e-9)) for j in range(len(gram))]
    g, s = xa.integer_rows(gram)
    rsq = r * r
    cap = s * rsq.numerator
    out = []
    for coords in product(*(range(b + 1) for b in bounds)):
        norm = sum(c * sum(map(operator.mul, row, coords)) for c, row in zip(coords, g))
        if norm * rsq.denominator <= cap:
            out.append(tuple(Fraction(c) for c in coords))
    return tuple(out)


def integrate_ball(metric, poly, radius: float = 1.0) -> float:
    """`Metric.integrate_ball` with its covariance Sigma = G^-1 taken from
    `xa.mat_inverse` of `metric_gram` (the moment code is unchanged)."""
    sigma = xa.integer_rows(xa.mat_inverse(metric_gram(metric)))
    with patch.object(type(metric), "_inverse_gram", lambda self: sigma):
        return metric.integrate_ball(poly, radius)
