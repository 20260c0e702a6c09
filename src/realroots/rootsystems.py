"""Root-system combinatorics and invariant metrics for compact simple groups.

Weights live in fundamental-weight coordinates: a weight is a tuple of
rationals (integers for lattice points), and the simple root alpha_i is row i
of the Cartan matrix.  Weyl orbits close integer rows under the integer
Cartan rows, and dominant conjugates reflect integer rows by them.  Each
positive root beta carries a primitive integer coroot row k_beta, with
(lam, beta^vee) = sum_i k_i lam_i, and its length ratio
r_beta = 2 / (beta, beta) (long roots have squared length 2); Weyl
dimensions, Casimir values, the root product and the group and torus
volumes are products and sums of these integers, with one rational constant
at the end.  Inner products of general weights are exact rationals.  The
degrees d_j of the basic invariants of W give |W| = prod d_j and, with the
root lengths, the Gaussian moment of the squared root product.

The reference inner product on the weight space is the one induced by the
negative Killing form of the compact group; a :class:`Metric` rescales it by
a positive factor, with Riemannian volumes taken in the same rescaled metric
through the fixed Killing identification of the Cartan algebra with its dual.
"""

from __future__ import annotations

import math
import operator
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


IntVec = tuple[int, ...]


def _reflection_closure(cartan: Sequence[Sequence[int]], starts: Iterable[IntVec]) -> dict[IntVec, int]:
    """Closure of the integer rows `starts` under the simple reflections,
    v -> v - v_i alpha_i with alpha_i row i of the integer Cartan matrix.
    Each point maps to the sign (-1)^k of the shortest word of k reflections
    reaching it from a start."""
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


def _dominant_row(cartan: Sequence[Sequence[int]], row: Sequence[int]) -> IntVec:
    """The dominant Weyl conjugate of an integer row: reflect in the first
    simple root alpha_i with v_i < 0, v -> v - v_i alpha_i, until none is
    left."""
    v = tuple(row)
    while True:
        i = next((j for j, x in enumerate(v) if x < 0), None)
        if i is None:
            return v
        c = v[i]
        v = tuple(x - c * r for x, r in zip(v, cartan[i]))


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data; build through :func:`root_system`."""

    name: str
    family: str
    rank: int
    cartan: xa.Mat                    # row i = simple root alpha_i in weight coords
    cartan_rows: tuple[IntVec, ...]   # the same rows as ints
    gram_std: xa.Mat                  # fundamental-weight Gram, long roots norm 2
    gram_killing: xa.Mat              # fundamental-weight Gram, Killing normalization
    positive_roots: tuple[xa.Vec, ...]
    # per positive root: the coroot row k_beta, (lam, beta^vee) = sum_i k_i lam_i,
    # and r_beta = 2 / (beta, beta), so (lam, beta) = <k_beta, lam> / r_beta
    # in the long-roots-norm-2 pairing; the simple roots come first
    coroots: tuple[IntVec, ...]
    root_ratios: tuple[int, ...]
    highest_root: xa.Vec
    degrees: tuple[int, ...]          # degrees of the basic invariants of W
    dual_coxeter: int

    # -- basic derived quantities ----------------------------------------

    @property
    def rho(self) -> xa.Vec:
        return (Fraction(1),) * self.rank

    @property
    def weyl_order(self) -> int:
        return math.prod(self.degrees)

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

    def _weight_row(self, lam: Sequence) -> tuple[list[int], int]:
        """lam as an integer row over its least common denominator s, and s;
        ValueError unless lam has one coordinate per simple root."""
        (row,), s = xa.integer_rows([lam])
        if len(row) != self.rank:
            raise ValueError("weight rank mismatch")
        return row, s

    def to_dominant(self, lam: Sequence) -> xa.Vec:
        row, s = self._weight_row(lam)
        return tuple(Fraction(x, s) for x in _dominant_row(self.cartan_rows, row))

    def lattice_orbit(self, lam: Sequence) -> tuple[dict[IntVec, int], int]:
        """Weyl orbit of lam as integer rows over the least common
        denominator s of lam, each mapped to the sign of the shortest group
        element carrying s lam there; and s."""
        row, s = self._weight_row(lam)
        return _reflection_closure(self.cartan_rows, [tuple(row)]), s

    def weyl_orbit(self, lam: Sequence) -> tuple[xa.Vec, ...]:
        signs, s = self.lattice_orbit(lam)
        return tuple(tuple(Fraction(x, s) for x in v) for v in sorted(signs))

    def signed_weyl_orbit(self, lam: Sequence) -> tuple[tuple[int, xa.Vec], ...]:
        """Orbit of a regular point with the sign of the group element
        carrying the base point there."""
        signs, s = self.lattice_orbit(lam)
        return tuple(sorted((sign, tuple(Fraction(x, s) for x in v))
                            for v, sign in signs.items()))

    def __hash__(self) -> int:
        # the name determines the rest; ensembles are hashed with their system
        return hash(self.name)

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
    cartan_int = [[int(x) for x in row] for row in cartan]
    roots = _reflection_closure(cartan_int, map(tuple, cartan_int))
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
        ratio = 2 / xa.bilinear(gram_std, beta, beta)
        row = xa.vec_scale(xa.mat_vec(gram_std, beta), ratio)
        if ratio.denominator != 1 or any(k.denominator != 1 for k in row):
            raise AssertionError("coroot rows must be integral")  # pragma: no cover
        ratios.append(int(ratio))
        coroots.append(tuple(int(k) for k in row))
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
    # the degrees of the basic invariants of W: |W| is their product and the
    # number of positive roots is sum (d_j - 1)
    if family == "A":
        degrees = range(2, rank + 2)
    elif family in ("B", "C"):
        degrees = range(2, 2 * rank + 1, 2)
    elif family == "D":
        degrees = sorted([*range(2, 2 * rank - 1, 2), rank])
    else:
        degrees = (2, 6)
    rs = RootSystem(
        name=f"{family}{rank}",
        family=family,
        rank=rank,
        cartan=cartan,
        cartan_rows=tuple(map(tuple, cartan_int)),
        gram_std=gram_std,
        gram_killing=gram_k,
        positive_roots=pos_roots,
        coroots=tuple(coroots),
        root_ratios=tuple(ratios),
        highest_root=highest,
        degrees=tuple(degrees),
        dual_coxeter=int(hvee),
    )
    return rs


# ---------------------------------------------------------------------------
# representation-theoretic quantities (metric independent)
# ---------------------------------------------------------------------------

def _coroot_pairings(rs: RootSystem, row: Sequence[int]) -> list[int]:
    """<k_beta, row> for every positive root beta."""
    return [sum(map(operator.mul, k, row)) for k in rs.coroots]


def weyl_dimension(rs: RootSystem, lam: Sequence) -> int:
    """Dimension of the irreducible representation with highest weight lam:
    prod_beta (lam + rho, beta^vee) / (rho, beta^vee)."""
    row, s = rs._weight_row(lam)
    if s != 1 or any(x < 0 for x in row):
        raise ValueError("highest weight must be dominant integral")
    num = math.prod(_coroot_pairings(rs, [x + 1 for x in row]))
    dim, rem = divmod(num, math.prod(map(sum, rs.coroots)))
    if rem:  # pragma: no cover - Weyl dimension is integral
        raise AssertionError("non-integral dimension")
    return dim


def _casimir_numerator(rs: RootSystem, row: Sequence[int], s: int = 1) -> int:
    """(lam, lam + 2 rho) for lam = row / s, in the Killing pairing, times
    `_casimir_unit(rs)` s^2.

    The Killing pairing is the sum over all roots of the pairings with the
    root, (lam, mu) = 2 sum_beta (lam, beta)(mu, beta) over the positive
    roots, and (lam, beta) = <k_beta, lam> / (2 h r_beta) (see
    `Metric.root_forms`); (rho, beta^vee) = sum k_beta."""
    r2 = max(rs.root_ratios) ** 2
    return sum(a * (a + 2 * s * sum(k)) * (r2 // (r * r))
               for a, k, r in zip(_coroot_pairings(rs, row), rs.coroots, rs.root_ratios))


def _casimir_unit(rs: RootSystem) -> int:
    return 2 * rs.dual_coxeter**2 * max(rs.root_ratios) ** 2


def casimir(rs: RootSystem, lam: Sequence, scale: Fraction | int = 1) -> Fraction:
    """Casimir eigenvalue (lam, lam + 2 rho) in the (rescaled) Killing
    pairing; equals 1 on the highest root at scale 1.  Summed in integers
    over the coroot table."""
    row, s = rs._weight_row(lam)
    value = Fraction(_casimir_numerator(rs, row, s), _casimir_unit(rs) * s * s)
    return xa.as_fraction(scale) * value


def symmetric_partner(rs: RootSystem, lam: Sequence) -> xa.Vec:
    """Highest weight of the dual representation: the dominant form of -lam."""
    v = xa.as_vec(lam)
    return rs.to_dominant(tuple(-c for c in v))


def _fs_parity(rs: RootSystem, lam: Sequence) -> int:
    """Indicator for self-dual representations via the pairing of the
    highest weight with the sum of positive coroots."""
    (row,), s = xa.integer_rows([lam])
    total, rem = divmod(sum(_coroot_pairings(rs, row)), s)
    if rem:  # pragma: no cover - integral for integral weights
        raise AssertionError("non-integral coroot pairing")
    return -1 if total % 2 else 1


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
        const, forms = self.root_forms()
        row, s = self.rs._weight_row(lam)
        return const * Fraction(math.prod(_coroot_pairings(self.rs, row)), s ** len(forms))

    def root_product_poly(self) -> Polynomial:
        """The same product as a polynomial in weight coordinates."""
        const, forms = self.root_forms()
        poly = Polynomial.constant(self.rs.rank, const)
        for k in forms:
            poly = poly * Polynomial.linear_form(k)
        return poly

    def root_forms(self) -> tuple[Fraction, tuple[IntVec, ...]]:
        """The same product as constant * prod_beta <k_beta, x>, with the
        primitive integer coroot rows k_beta: the Killing pairing with beta is
        <k_beta, x> / (2 h r_beta), h the dual Coxeter number."""
        rs = self.rs
        p = rs.num_positive_roots
        const = self.scale**p / ((2 * rs.dual_coxeter) ** p * math.prod(rs.root_ratios))
        return const, rs.coroots

    def root_product_at_rho(self) -> Fraction:
        const, forms = self.root_forms()
        return const * math.prod(map(sum, forms))

    def root_product_moment(self) -> Fraction:
        """E[p^2] for the standard Gaussian of the metric and p the root
        product: prod_j d_j! prod_beta (beta, beta) / 2 over the degrees d_j
        of W (the Macdonald-Mehta integral; Opdam, Invent. Math. 98, 1989).
        The second product is the constant of `root_forms`, since
        (beta, beta) = scale / (h r_beta)."""
        const, _ = self.root_forms()
        return math.prod(map(math.factorial, self.rs.degrees)) * const

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
        the scale, so the covolume grows like scale^(rank/2).  In the Killing
        pairing the image of alpha_i is 2 h r_i alpha_i, so the Gram entry
        (i, j) is scale 2 h r_i cartan_ij, with r_i the length ratio of the
        i-th simple root."""
        rs = self.rs
        simple = math.prod(rs.root_ratios[: rs.rank])
        return (2 * rs.dual_coxeter * self.scale) ** rs.rank * simple * xa.mat_det(rs.cartan)

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
        gram = self.gram()
        gram_inv = xa.mat_inverse(gram)
        r_f = float(r)
        bounds = []
        for j in range(rs.rank):
            bound = r_f * math.sqrt(float(gram_inv[j][j])) + 1e-9
            bounds.append(int(math.floor(bound)))
        # |c|^2 <= r^2 in integers: with s G integral, c^T (s G) c den(r^2)
        # <= s num(r^2); the box is scanned in lexicographic order
        g, s = xa.integer_rows(gram)
        rsq = r * r
        cap = s * rsq.numerator
        out = []
        for coords in _iproduct(*(range(b + 1) for b in bounds)):
            norm = sum(c * sum(map(operator.mul, row, coords)) for c, row in zip(coords, g))
            if norm * rsq.denominator <= cap:
                out.append(tuple(Fraction(c) for c in coords))
        return tuple(out)

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
        cleared once; each application of Delta is one pass over the integer
        coefficients."""
        k = self.rs.rank
        sigma, s = xa.integer_rows(xa.mat_inverse(self.gram()))
        # Sigma_ij d_i d_j + Sigma_ji d_j d_i for i < j, scaled by s, as
        # (i, j, exponent drop e_i + e_j, coefficient)
        steps = []
        for i in range(k):
            for j in range(i, k):
                if sigma[i][j]:
                    drop = [0] * k
                    drop[i] += 1
                    drop[j] += 1
                    steps.append((i, j, drop, sigma[i][j] * (1 if i == j else 2)))
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
            q = dict(zip(coeffs, nums))
            for _ in range(n):
                out: dict[tuple[int, ...], int] = {}
                for exps, c in q.items():
                    for i, j, drop, lap in steps:
                        # d_i d_j x^e = e_i (e_j - [i = j]) x^(e - e_i - e_j)
                        f = exps[i] * (exps[j] - (i == j))
                        if f > 0:
                            key = tuple(map(operator.sub, exps, drop))
                            out[key] = out.get(key, 0) + f * lap * c
                q = out
            moment = Fraction(q.get((0,) * k, 0),
                              d * s**n * 2**n * math.factorial(n))
            total += float(moment) * _ball_factor(n, k, r)
        return total


def _ball_factor(n: int, k: int, r: float) -> float:
    """Integral over the ball of radius r in rank k of a homogeneous
    polynomial of degree 2n, over its Gaussian moment (see
    `Metric.integrate_ball`)."""
    return (2 * math.pi) ** (k / 2) * r ** (2 * n + k) / (
        2 ** (n + k / 2 - 1) * math.gamma(n + k / 2) * (2 * n + k))


def unit_volume_metric(rs: RootSystem) -> Metric:
    """The rescaled Killing metric normalizing the group volume to 1."""
    base = Metric(rs).group_volume()
    scale = xa.as_fraction(base ** (-2.0 / rs.dimension))
    return Metric(rs, scale)
