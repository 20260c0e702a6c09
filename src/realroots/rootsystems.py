"""Root-system combinatorics and invariant metrics for compact simple groups.

Weights live in fundamental-weight coordinates: a weight is a tuple of
rationals (integers for lattice points), and the simple root alpha_i is row i
of the Cartan matrix.  All pairings are exact rationals.

The reference inner product on the weight space is the one induced by the
negative Killing form of the compact group; a :class:`Metric` rescales it by
a positive factor, with Riemannian volumes taken in the same rescaled metric
through the fixed Killing identification of the Cartan algebra with its dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct
from typing import Iterable, Sequence

from . import exactalg as xa
from .polynomials import Polynomial

__all__ = [
    "RootSystem",
    "Metric",
    "root_system",
    "unit_volume_metric",
    "weyl_dimension",
    "casimir",
    "frobenius_schur_indicator",
    "reality_type",
    "symmetric_partner",
]


# ---------------------------------------------------------------------------
# catalogue of simple-root Gram matrices (long roots have squared length 2)
# ---------------------------------------------------------------------------

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


def _reflection_closure(cartan: xa.Mat, starts: Iterable[xa.Vec]) -> dict[xa.Vec, int]:
    """Closure of `starts` under the simple reflections, v -> v - v_i alpha_i
    with alpha_i row i of the Cartan matrix.  Each point maps to the sign
    (-1)^k of the shortest word of k reflections reaching it from a start."""
    signs = dict.fromkeys(starts, 1)
    frontier = list(signs)
    while frontier:
        nxt = []
        for v in frontier:
            for c, row in zip(v, cartan):
                w = tuple(x - c * r for x, r in zip(v, row))
                if w not in signs:
                    signs[w] = -signs[v]
                    nxt.append(w)
        frontier = nxt
    return signs


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data; build through :func:`root_system`."""

    name: str
    family: str
    rank: int
    cartan: xa.Mat                    # row i = simple root alpha_i in weight coords
    gram_std: xa.Mat                  # fundamental-weight Gram, long roots norm 2
    gram_killing: xa.Mat              # fundamental-weight Gram, Killing normalization
    positive_roots: tuple[xa.Vec, ...]
    highest_root: xa.Vec
    weyl_order: int
    dual_coxeter: int

    # -- basic derived quantities ----------------------------------------

    @property
    def rho(self) -> xa.Vec:
        return (Fraction(1),) * self.rank

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def dimension(self) -> int:
        """Dimension of the compact group: rank + number of roots."""
        return self.rank + 2 * len(self.positive_roots)

    # -- Weyl group action ------------------------------------------------

    def simple_reflection(self, i: int, lam: Sequence) -> xa.Vec:
        v = xa.as_vec(lam)
        c = v[i]
        row = self.cartan[i]
        return tuple(v[j] - c * row[j] for j in range(self.rank))

    def to_dominant(self, lam: Sequence) -> xa.Vec:
        v = xa.as_vec(lam)
        while True:
            i = next((j for j in range(self.rank) if v[j] < 0), None)
            if i is None:
                return v
            v = self.simple_reflection(i, v)

    def weyl_orbit(self, lam: Sequence) -> tuple[xa.Vec, ...]:
        return tuple(sorted(_reflection_closure(self.cartan, [xa.as_vec(lam)])))

    def signed_weyl_orbit(self, lam: Sequence) -> tuple[tuple[int, xa.Vec], ...]:
        """Orbit of a regular point with the sign of the group element
        carrying the base point there."""
        signs = _reflection_closure(self.cartan, [xa.as_vec(lam)])
        return tuple(sorted((s, v) for v, s in signs.items()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.name})"


@lru_cache(maxsize=None)
def root_system(name: str) -> RootSystem:
    """Root system by name: A1..A3, B2..B3, C2..C3, D3, G2 (and larger
    ranks of the classical families)."""
    name = name.strip().upper()
    if len(name) < 2 or name[0] not in "ABCDG" or not name[1:].isdigit():
        raise ValueError(f"cannot parse root system name {name!r}")
    family, rank = name[0], int(name[1:])
    gram_s = _simple_root_gram(family, rank)
    d = tuple(gram_s[j][j] / 2 for j in range(rank))
    # Cartan matrix: alpha_i in weight coordinates
    cartan = tuple(
        tuple(gram_s[i][j] / d[j] for j in range(rank)) for i in range(rank)
    )
    # fundamental-weight Gram: inverse Cartan times diag(d)
    cinv = xa.mat_inverse(cartan)
    gram_std = tuple(
        tuple(cinv[i][j] * d[j] for j in range(rank)) for i in range(rank)
    )
    # all roots: Weyl closure of the simple roots
    roots = _reflection_closure(cartan, cartan)
    cartan_t = tuple(zip(*cartan, strict=True))
    positive = []
    for r in sorted(roots):
        coeffs = xa.solve(cartan_t, r)
        if all(c >= 0 for c in coeffs):
            positive.append((sum(coeffs), r))
    positive.sort()
    highest = positive[-1][1]
    pos_roots = tuple(r for _, r in positive)
    # dual Coxeter number from the highest root
    rho = (Fraction(1),) * rank
    hr_norm = xa.bilinear(gram_std, highest, highest)
    if hr_norm != 2:  # pragma: no cover - normalization invariant
        raise AssertionError("highest root must have squared length 2")
    hvee = 1 + 2 * xa.bilinear(gram_std, rho, highest) / hr_norm
    if hvee.denominator != 1:  # pragma: no cover
        raise AssertionError("dual Coxeter number must be an integer")
    gram_k = tuple(
        tuple(x / (2 * hvee) for x in row) for row in gram_std
    )
    # closed-form orders; enumerating the orbit of rho is O(|W|) and the
    # tests cross-check it against the orbit size for small ranks
    if family == "A":
        order = math.factorial(rank + 1)
    elif family in ("B", "C"):
        order = 2**rank * math.factorial(rank)
    elif family == "D":
        order = 2 ** (rank - 1) * math.factorial(rank)
    else:
        order = 12
    rs = RootSystem(
        name=f"{family}{rank}",
        family=family,
        rank=rank,
        cartan=cartan,
        gram_std=gram_std,
        gram_killing=gram_k,
        positive_roots=pos_roots,
        highest_root=highest,
        weyl_order=order,
        dual_coxeter=int(hvee),
    )
    return rs


# ---------------------------------------------------------------------------
# representation-theoretic quantities (metric independent)
# ---------------------------------------------------------------------------

def weyl_dimension(rs: RootSystem, lam: Sequence) -> int:
    """Dimension of the irreducible representation with highest weight lam."""
    v = xa.as_vec(lam)
    if any(c < 0 or c.denominator != 1 for c in v):
        raise ValueError("highest weight must be dominant integral")
    num = Fraction(1)
    den = Fraction(1)
    rho = rs.rho
    lam_rho = xa.vec_add(v, rho)
    for beta in rs.positive_roots:
        num *= xa.bilinear(rs.gram_std, lam_rho, beta)
        den *= xa.bilinear(rs.gram_std, rho, beta)
    dim = num / den
    if dim.denominator != 1:  # pragma: no cover - Weyl dimension is integral
        raise AssertionError("non-integral dimension")
    return int(dim)


def casimir(rs: RootSystem, lam: Sequence, scale: Fraction | int = 1) -> Fraction:
    """Casimir eigenvalue (lam, lam + 2 rho) in the (rescaled) Killing
    pairing; equals 1 on the highest root at scale 1."""
    v = xa.as_vec(lam)
    two_rho = xa.vec_scale(rs.rho, Fraction(2))
    return xa.as_fraction(scale) * xa.bilinear(rs.gram_killing, v, xa.vec_add(v, two_rho))


def symmetric_partner(rs: RootSystem, lam: Sequence) -> xa.Vec:
    """Highest weight of the dual representation: the dominant form of -lam."""
    v = xa.as_vec(lam)
    return rs.to_dominant(tuple(-c for c in v))


def _fs_parity(rs: RootSystem, lam: Sequence) -> int:
    """Indicator for self-dual representations via the pairing of the
    highest weight with the sum of positive coroots."""
    v = xa.as_vec(lam)
    total = Fraction(0)
    for beta in rs.positive_roots:
        total += 2 * xa.bilinear(rs.gram_std, v, beta) / xa.bilinear(rs.gram_std, beta, beta)
    if total.denominator != 1:  # pragma: no cover - integral for integral weights
        raise AssertionError("non-integral coroot pairing")
    return -1 if int(total) % 2 else 1


def frobenius_schur_indicator(rs: RootSystem, lam: Sequence) -> int:
    """Indicator in {1, 0, -1}: real, complex or quaternionic type, by exact
    combinatorics (0 unless the representation is self-dual, else the parity
    of the pairing with the positive coroots)."""
    v = xa.as_vec(lam)
    if symmetric_partner(rs, v) != v:
        return 0
    return _fs_parity(rs, v)


def reality_type(rs: RootSystem, lam: Sequence) -> str:
    """"real", "complex" or "quaternionic" type of the irreducible
    representation with highest weight lam."""
    fs = frobenius_schur_indicator(rs, lam)
    return {1: "real", 0: "complex", -1: "quaternionic"}[fs]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _sqrt_fraction(x: Fraction) -> float:
    return math.sqrt(x.numerator) / math.sqrt(x.denominator)


@dataclass(frozen=True)
class Metric:
    """Bi-invariant metric: the Killing pairing on the weight space times a
    positive rational factor, with all volumes induced by the same factor."""

    rs: RootSystem
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "scale", xa.as_fraction(self.scale))
        if self.scale <= 0:
            raise ValueError("metric scale must be positive")

    # -- pairings ---------------------------------------------------------

    def pairing(self, lam: Sequence, mu: Sequence) -> Fraction:
        return self.scale * xa.bilinear(self.rs.gram_killing, xa.as_vec(lam), xa.as_vec(mu))

    def norm_sq(self, lam: Sequence) -> Fraction:
        return self.pairing(lam, lam)

    def gram(self) -> xa.Mat:
        return tuple(tuple(self.scale * x for x in row) for row in self.rs.gram_killing)

    # -- the product of root pairings --------------------------------------

    def root_product(self, lam: Sequence) -> Fraction:
        """Product over positive roots of the pairing with lam."""
        v = xa.as_vec(lam)
        out = Fraction(1)
        for beta in self.rs.positive_roots:
            out *= self.pairing(v, beta)
        return out

    def root_product_poly(self) -> Polynomial:
        """The same product as a polynomial in weight coordinates."""
        rank = self.rs.rank
        poly = Polynomial.constant(rank, Fraction(1))
        gram = self.gram()
        for beta in self.rs.positive_roots:
            coeffs = xa.mat_vec(gram, beta)
            poly = poly * Polynomial.linear_form(coeffs)
        return poly

    def root_forms(self) -> tuple[Fraction, tuple[tuple[int, ...], ...]]:
        """The same product as constant * prod_beta <l_beta, x>, with one
        primitive integer form l_beta per positive root."""
        const = Fraction(1)
        forms = []
        gram = self.gram()
        for beta in self.rs.positive_roots:
            (nums,), den = xa.integer_rows([xa.mat_vec(gram, beta)])
            g = math.gcd(*nums)
            forms.append(tuple(x // g for x in nums))
            const *= Fraction(g, den)
        return const, tuple(forms)

    def root_product_at_rho(self) -> Fraction:
        return self.root_product(self.rs.rho)

    # -- lattices and volumes ----------------------------------------------

    def weight_gram_det(self) -> Fraction:
        """Determinant of the fundamental-weight Gram matrix (covolume
        squared of the weight lattice)."""
        return xa.mat_det(self.gram())

    def weight_covolume(self) -> float:
        return _sqrt_fraction(self.weight_gram_det())

    def coroot_gram_det(self) -> Fraction:
        """Covolume squared of the lattice spanned by the images
        2 beta / (beta, beta) of the simple coroots.

        The image vectors are fixed by the unscaled pairing (they live on the
        group side of the identification); only the measuring pairing carries
        the scale, so the covolume grows like scale^(rank/2)."""
        rs = self.rs
        base = self if self.scale == 1 else Metric(rs)
        images = []
        for i in range(rs.rank):
            alpha = rs.cartan[i]
            images.append(xa.vec_scale(alpha, 2 / base.pairing(alpha, alpha)))
        gram = tuple(
            tuple(self.pairing(a, b) for b in images) for a in images
        )
        return xa.mat_det(gram)

    def torus_volume(self) -> float:
        """Riemannian volume of the maximal torus."""
        return (2 * math.pi) ** self.rs.rank * _sqrt_fraction(self.coroot_gram_det())

    def group_volume(self) -> float:
        """Riemannian volume of the compact simply connected group."""
        rs = self.rs
        base = (
            (2 * math.pi) ** rs.num_positive_roots
            * Metric(rs).torus_volume()
            / float(Metric(rs).root_product_at_rho())
        )
        return float(self.scale) ** (rs.dimension / 2) * base

    # -- lattice point enumeration ------------------------------------------

    def dominant_weights_in_ball(self, radius) -> tuple[xa.Vec, ...]:
        """All dominant integral weights with metric norm <= radius."""
        r = xa.as_fraction(radius)
        if r < 0:
            raise ValueError("radius must be non-negative")
        rs = self.rs
        gram_inv = xa.mat_inverse(self.gram())
        r_f = float(r)
        bounds = []
        for j in range(rs.rank):
            bound = r_f * math.sqrt(float(gram_inv[j][j])) + 1e-9
            bounds.append(int(math.floor(bound)))
        out = []
        rsq = r * r
        for coords in _iproduct(*(range(b + 1) for b in bounds)):
            v = tuple(Fraction(c) for c in coords)
            if self.norm_sq(v) <= rsq:
                out.append(v)
        return tuple(sorted(out))

    # -- ball integrals -----------------------------------------------------

    def integrate_ball(self, poly: Polynomial, radius: float = 1.0) -> float:
        """Integral of a polynomial on the weight space over the metric ball
        of the given radius, against the metric volume.

        The standard Gaussian of the metric has covariance Sigma = G^-1 in
        weight coordinates (G the Gram matrix), and the homogeneous part q
        of degree 2N has the exact moment E[q] = Delta^N q / (2^N N!) with
        Delta = sum_ij Sigma_ij d_i d_j.  Polar coordinates turn it into
        E[q] (2 pi)^(k/2) r^(2N+k) / (2^(N+k/2-1) Gamma(N+k/2) (2N+k)) on the
        ball of radius r in rank k; parts of odd degree vanish.  The moments
        are computed in integers, with the denominators of Sigma and q
        cleared once."""
        k = self.rs.rank
        sigma, s = xa.integer_rows(xa.mat_inverse(self.gram()))
        # Sigma_ij d_i d_j + Sigma_ji d_j d_i for i < j, scaled by s
        lap = [[c * (1 if i == j else 2) for j, c in enumerate(row)]
               for i, row in enumerate(sigma)]
        parts: dict[int, dict[tuple[int, ...], object]] = {}
        for exps, c in poly.coeffs.items():
            parts.setdefault(sum(exps), {})[exps] = c
        r = float(radius)
        total = 0.0
        for deg, coeffs in parts.items():
            if deg % 2:
                continue
            n = deg // 2
            (nums,), d = xa.integer_rows([coeffs.values()])
            q = Polynomial(k, dict(zip(coeffs, nums)))
            for _ in range(n):
                first = [q.partial(i) for i in range(k)]
                q = sum((first[i].partial(j) * lap[i][j]
                         for i in range(k) for j in range(i, k)), Polynomial(k))
            moment = Fraction(q.coeffs.get((0,) * k, 0),
                              d * s**n * 2**n * math.factorial(n))
            total += float(moment) * (
                (2 * math.pi) ** (k / 2) * r ** (deg + k)
                / (2 ** (n + k / 2 - 1) * math.gamma(n + k / 2) * (deg + k))
            )
        return total


def unit_volume_metric(rs: RootSystem) -> Metric:
    """The rescaled Killing metric normalizing the group volume to 1."""
    base = Metric(rs).group_volume()
    scale = xa.as_fraction(base ** (-2.0 / rs.dimension))
    return Metric(rs, scale)
