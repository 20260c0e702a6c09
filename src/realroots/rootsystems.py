"""Root-system combinatorics and invariant metrics for compact simple groups.

A system is read off its Dynkin diagram in integers: the length ratios
r_i = 2 / (alpha_i, alpha_i) of the simple roots (long roots have squared
length 2) and the bonds give the integer Cartan matrix.  Weights live in
fundamental-weight coordinates: a weight is a tuple of rationals (integers
for lattice points), and the simple root alpha_i is row i of the Cartan
matrix.  Weyl orbits close integer rows under the Cartan rows, and dominant
conjugates reflect integer rows by them; a set of rows is keyed by its
W-orbit through the dominant conjugate of its sum and then that point's
parabolic stabilizer, with no enumeration of W.  The roots are the Weyl
orbits of the simple roots; the inverse Cartan matrix gives each its
simple-root coordinates, hence its sign and height, and its primitive
integer coroot row k_beta, with (lam, beta^vee) = sum_i k_i lam_i, and each
keeps the length ratio r_beta of its simple root.  Weyl dimensions, Casimir values,
the root product and the group and torus volumes are products and sums of
these integers, with one rational constant at the end.  The dual Coxeter
number is 1 + sum_i k_i on the highest root, and the degrees d_j of the basic
invariants of W are one more than the exponents, the partition dual to the
number of positive roots of each height (Kostant, Amer. J. Math. 81, 1959).
They give |W| = prod d_j and, with the root lengths, the Gaussian moment of
the squared root product.

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
# Dynkin diagrams
# ---------------------------------------------------------------------------

def _dynkin(family: str, rank: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The length ratios r_i = 2 / (alpha_i, alpha_i) of the simple roots
    (long roots have squared length 2) and the bonds of the Dynkin diagram."""
    chain = [(i, i + 1) for i in range(rank - 1)]
    if family == "A" and rank >= 1:
        return [1] * rank, chain
    if family == "B" and rank >= 2:
        return [1] * (rank - 1) + [2], chain  # last simple root short
    if family == "C" and rank >= 2:
        return [2] * (rank - 1) + [1], chain  # last simple root long
    if family == "D" and rank >= 3:
        return [1] * rank, chain[:-1] + [(rank - 3, rank - 1)]
    if family == "G" and rank == 2:
        return [3, 1], chain  # first simple root short
    raise ValueError(f"unsupported root system {family}{rank}")


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


def _dominant_frame(cartan: Sequence[Sequence[int]], row: Sequence[int], carry: Iterable[IntVec],
                    simple: Sequence[int]) -> tuple[IntVec, list[IntVec]]:
    """The conjugate of an integer row that is dominant for the parabolic
    subgroup W_J, J = `simple`, and the rows `carry` moved by the same
    element: reflect in the first alpha_i, i in J, with v_i < 0,
    v -> v - v_i alpha_i, until none is left.  That conjugate is unique,
    since {v : v_j >= 0 for j in J} is a fundamental domain of W_J."""
    v, carry = tuple(row), list(carry)
    while True:
        i = next((j for j in simple if v[j] < 0), None)
        if i is None:
            return v, carry
        c, alpha = v[i], cartan[i]
        v = tuple(x - c * r for x, r in zip(v, alpha))
        carry = [tuple(x - w[i] * r for x, r in zip(w, alpha)) for w in carry]


def _dominant_row(cartan: Sequence[Sequence[int]], row: Sequence[int]) -> IntVec:
    """The dominant Weyl conjugate of an integer row."""
    return _dominant_frame(cartan, row, (), range(len(row)))[0]


def _least_frame(cartan: Sequence[Sequence[int]], rows: list[IntVec], simple: list[int]) -> tuple:
    """The least, over the orderings of the distinct integer `rows`, of the
    sequence of W_J-dominant conjugates in which each row is taken under the
    stabilizer of the ones before it, which is again parabolic (generated by
    the s_j, j in J, that fix the conjugate).  Two row sets are W_J-conjugate
    iff their least frames agree.  Only the rows whose conjugate is least
    are followed."""
    if not simple or not rows:
        return tuple(sorted(rows))
    moved = [_dominant_frame(cartan, v, rows[:k] + rows[k + 1:], simple)
             for k, v in enumerate(rows)]
    low = min(u for u, _ in moved)
    fixing = [j for j in simple if low[j] == 0]
    return (low,) + min(_least_frame(cartan, rest, fixing) for u, rest in moved if u == low)


def _conjugacy_key(cartan: Sequence[Sequence[int]], rows: Sequence[IntVec]) -> tuple:
    """Key of the W-orbit of a set of integer rows: equal keys iff the sets
    are W-conjugate, found without enumerating W.  The row sum is moved to
    its dominant conjugate b, the rows with it; b's stabilizer is the
    parabolic subgroup W_J, J = {j : b_j = 0}, and the moved rows are keyed
    by their least frame under it (`_least_frame`)."""
    b, moved = _dominant_frame(cartan, [sum(col) for col in zip(*rows)], rows, range(len(cartan)))
    return b, _least_frame(cartan, moved, [j for j, x in enumerate(b) if x == 0])


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data; build through :func:`root_system`."""

    name: str
    family: str
    rank: int
    cartan: tuple[IntVec, ...]        # row i = simple root alpha_i in weight coords
    cartan_det: int
    cartan_inverse: tuple[IntVec, ...]  # s C^-1 in integers, s = inverse_denominator
    inverse_denominator: int            # the least common denominator of C^-1
    dual_permutation: tuple[int, ...]   # pi with -w0 omega_i = omega_pi(i), an involution
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

    def _weight_row(self, lam: Sequence) -> tuple[list[int], int]:
        """lam as an integer row over its least common denominator s, and s;
        ValueError unless lam has one coordinate per simple root."""
        (row,), s = xa.integer_rows([lam])
        if len(row) != self.rank:
            raise ValueError("weight rank mismatch")
        return row, s

    def to_dominant(self, lam: Sequence) -> xa.Vec:
        row, s = self._weight_row(lam)
        return tuple(Fraction(x, s) for x in _dominant_row(self.cartan, row))

    def lattice_orbit(self, lam: Sequence) -> tuple[dict[IntVec, int], int]:
        """Weyl orbit of lam as integer rows over the least common
        denominator s of lam, each mapped to the sign of the shortest group
        element carrying s lam there; and s."""
        row, s = self._weight_row(lam)
        return _reflection_closure(self.cartan, [tuple(row)]), s

    def weyl_orbit(self, lam: Sequence) -> tuple[xa.Vec, ...]:
        signs, s = self.lattice_orbit(lam)
        return tuple(tuple(Fraction(x, s) for x in v) for v in sorted(signs))

    def __hash__(self) -> int:
        # the name determines the rest; ensembles are hashed with their system
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.name})"


def root_system(name: str) -> RootSystem:
    """Root system by name, in either case: A_n (n >= 1), B_n and C_n
    (n >= 2), D_n (n >= 3) or G2.  Each system is built once."""
    name = name.strip().upper()
    if len(name) < 2 or name[0] not in "ABCDG" or not name[1:].isdigit():
        raise ValueError(f"cannot parse root system name {name!r}")
    return _root_system(name[0], int(name[1:]))


@lru_cache(maxsize=None)
def _root_system(family: str, rank: int) -> RootSystem:
    ratios, bonds = _dynkin(family, rank)
    # Cartan matrix C_ij = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j); a bond
    # pairs two simple roots to -1 / min(r_i, r_j)
    cartan = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in bonds:
        low = min(ratios[i], ratios[j])
        cartan[i][j], cartan[j][i] = -ratios[j] // low, -ratios[i] // low
    cartan = tuple(map(tuple, cartan))
    _, det, sign = xa._eliminate(list(cartan), rank)  # det C = sign * the last pivot
    adj, s = xa.integer_rows(xa.mat_inverse(cartan))
    # the roots are the W-orbits of the simple roots, and a root has the
    # length of the simple roots in its orbit
    ratio_of: dict[IntVec, int] = {}
    for row, r in zip(cartan, ratios):
        if row not in ratio_of:
            ratio_of.update(dict.fromkeys(_reflection_closure(cartan, [row]), r))
    # s times the simple-root coordinates c of a root w are w (s C^-1); the
    # root is positive iff its height sum(c) is, and beta^vee = r_beta beta
    # has the simple-coroot coordinates c_i r_beta / r_i
    positive = []
    for w, r in ratio_of.items():
        c = [sum(map(operator.mul, w, col)) for col in zip(*adj)]
        height = sum(c) // s
        if height > 0:
            positive.append((height, w, tuple(x * r // (s * q) for x, q in zip(c, ratios)), r))
    positive.sort()  # by height, so the simple roots come first
    heights, roots, coroots, root_ratios = zip(*positive)
    # the number of positive roots of height k is the number of exponents
    # m_j >= k (Kostant), so the exponents are the dual partition, and the
    # degrees of W are m_j + 1
    counts = [heights.count(k) for k in range(1, heights[-1] + 1)]
    degrees = sorted(1 + sum(n >= j for n in counts) for j in range(1, rank + 1))
    # -w0 omega_i is the dominant conjugate of -omega_i
    dual = tuple(_dominant_row(cartan, [-int(i == j) for j in range(rank)]).index(1) for i in range(rank))
    return RootSystem(
        name=f"{family}{rank}",
        family=family,
        rank=rank,
        cartan=cartan,
        cartan_det=sign * det,
        cartan_inverse=tuple(map(tuple, adj)),
        inverse_denominator=s,
        dual_permutation=dual,
        positive_roots=tuple(map(xa.as_vec, roots)),
        coroots=coroots,
        root_ratios=root_ratios,
        highest_root=xa.as_vec(roots[-1]),
        degrees=tuple(degrees),
        dual_coxeter=1 + sum(coroots[-1]),  # 1 + (rho, theta^vee), theta the highest root
    )


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


def _killing_numerator(rs: RootSystem, row: Sequence[int], other: Sequence[int]) -> int:
    """(row, other) in the Killing pairing, times `_casimir_unit(rs)`.

    The Killing pairing is the sum over all roots of the pairings with the
    root, (lam, mu) = 2 sum_beta (lam, beta)(mu, beta) over the positive
    roots, and (lam, beta) = <k_beta, lam> / (2 h r_beta) (see
    `Metric.root_forms`)."""
    r2 = max(rs.root_ratios) ** 2
    return sum(a * b * (r2 // (r * r)) for a, b, r in
               zip(_coroot_pairings(rs, row), _coroot_pairings(rs, other), rs.root_ratios))


def _casimir_numerator(rs: RootSystem, row: Sequence[int], s: int = 1) -> int:
    """(lam, lam + 2 rho) for lam = row / s, in the Killing pairing, times
    `_casimir_unit(rs)` s^2."""
    return _killing_numerator(rs, row, [x + 2 * s for x in row])


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
    """Highest weight of the dual representation: the dominant form of -lam.
    With mu the dominant form of lam, that is -w0 mu, the coordinates of mu
    permuted by the involution `RootSystem.dual_permutation`."""
    mu = rs.to_dominant(lam)
    return tuple(mu[i] for i in rs.dual_permutation)


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
    return _fs_parity(rs, v) if symmetric_partner(rs, v) == v else 0


def reality_type(rs: RootSystem, lam: Sequence) -> str:
    """"real", "complex" or "quaternionic" type of the irreducible
    representation with highest weight lam."""
    fs = frobenius_schur_indicator(rs, lam)
    return {1: "real", 0: "complex", -1: "quaternionic"}[fs]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

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

    # -- the product of root pairings --------------------------------------

    def root_product_poly(self) -> Polynomial:
        """The root product as a polynomial in weight coordinates.  It stays
        in the library only because `bench/layers.py` `METHODS` wraps it by
        name, until ROADMAP item 3 lands."""
        const, forms = self.root_forms()
        poly = Polynomial.constant(self.rs.rank, const)
        for k in forms:
            poly = poly * Polynomial.linear_form(k)
        return poly

    def root_forms(self) -> tuple[Fraction, tuple[IntVec, ...]]:
        """The product over the positive roots of the metric pairing with
        them, as constant * prod_beta <k_beta, x> over the primitive integer
        coroot rows k_beta: the Killing pairing with beta is
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
        squared of the weight lattice).  That matrix is
        scale C^-1 diag(1 / r) / (2 h), r the simple length ratios, so the
        determinant is scale^rank / ((2 h)^rank det C prod r_i)."""
        rs = self.rs
        return self.scale**rs.rank / (
            (2 * rs.dual_coxeter) ** rs.rank * rs.cartan_det * math.prod(rs.root_ratios[: rs.rank]))

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
        return (2 * rs.dual_coxeter * self.scale) ** rs.rank * simple * rs.cartan_det

    def torus_volume(self) -> float:
        """Riemannian volume of the maximal torus."""
        return xa._sqrt_pi_power(*self._torus_volume_sq())

    def _torus_volume_sq(self) -> tuple[int, int, int]:
        """(2 pi)^(2 rank) times `coroot_gram_det`, as (a, b, e), a / b pi^e."""
        return xa._quotient([(4**self.rs.rank, 1, 2 * self.rs.rank), self.coroot_gram_det()], [])

    def group_volume(self) -> float:
        """Riemannian volume of the compact simply connected group."""
        return xa._sqrt_pi_power(*self._group_volume_sq())

    def _group_volume_sq(self) -> tuple[int, int, int]:
        """The squared group volume as (a, b, e), a / b pi^e: Macdonald's
        formula (2 pi)^N vol(T) / p(rho) in the Killing metric, times
        scale^(dim / 2).  Read in this metric, vol(T) / p(rho) carries
        scale^(rank / 2 - N) of it, so scale^(2N) is left (4N squared)."""
        p, p_rho = self.rs.num_positive_roots, self.root_product_at_rho()
        return xa._quotient([(4**p, 1, 2 * p), self._torus_volume_sq(), self.scale ** (4 * p)], [p_rho, p_rho])

    # -- lattice point enumeration ------------------------------------------

    def _inverse_gram(self) -> tuple[list[list[int]], int]:
        """The inverse of the fundamental-weight Gram matrix of the metric as
        integer rows over a common denominator: (2 h / scale) r_i C_ij, with
        r the simple length ratios in diagram order.  (That Gram matrix is
        scale C^-1 diag(1 / r) / (2 h); see `weight_gram_det`.)"""
        rs, scale = self.rs, self.scale
        ratios, _ = _dynkin(rs.family, rs.rank)
        unit = 2 * rs.dual_coxeter * scale.denominator
        return [[unit * r * c for c in row] for r, row in zip(ratios, rs.cartan)], scale.numerator

    def dominant_weights_in_ball(self, radius) -> tuple[xa.Vec, ...]:
        """All dominant integral weights with metric norm <= radius, in
        lexicographic order.  A weight is kept when its Killing numerator
        (the integer Gram form of `_killing_numerator`) times scale /
        `_casimir_unit` is at most radius^2, compared in integers.  That Gram
        form is a positive multiple of C^-1 diag(1 / r), every entry of which
        is positive, so on dominant weights the norm grows in each
        coordinate: the lexicographic scan stops a coordinate at its first
        value outside the ball (the later coordinates 0) and visits about
        rank points per weight kept."""
        r = xa.as_fraction(radius)
        if r < 0:
            raise ValueError("radius must be non-negative")
        rs, rsq = self.rs, r * r
        units = [[int(i == j) for j in range(rs.rank)] for i in range(rs.rank)]
        g = [[_killing_numerator(rs, a, b) for b in units] for a in units]
        lhs = self.scale.numerator * rsq.denominator
        cap = rsq.numerator * _casimir_unit(rs) * self.scale.denominator
        out: list[xa.Vec] = []

        def scan(prefix: tuple[int, ...], norm: int, pull: list[int]) -> None:
            # norm = prefix^T g prefix and pull = g prefix, the later coordinates 0
            j = len(prefix)
            if j == rs.rank:
                out.append(tuple(Fraction(c) for c in prefix))
                return
            c = 0
            while (q := norm + c * (2 * pull[j] + c * g[j][j])) * lhs <= cap:
                scan((*prefix, c), q, [p + c * x for p, x in zip(pull, g[j])])
                c += 1

        scan((), 0, [0] * rs.rank)
        return tuple(out)

    # -- ball integrals -----------------------------------------------------

    def integrate_ball(self, poly: Polynomial, radius: float = 1.0) -> float:
        """Integral of a polynomial on the weight space over the metric ball
        of the given radius, against the metric volume.  It stays in the
        library only because `bench/layers.py` `METHODS` wraps it by name,
        until ROADMAP item 3 lands.

        The standard Gaussian of the metric has covariance Sigma = G^-1 in
        weight coordinates (G the Gram matrix, `_inverse_gram`), and the
        homogeneous part q of degree 2N has the exact moment
        E[q] = Delta^N q / (2^N N!) with Delta = sum_ij Sigma_ij d_i d_j.
        Polar coordinates turn it into
        E[q] (2 pi)^(k/2) r^(2N+k) / (2^(N+k/2-1) Gamma(N+k/2) (2N+k)) on the
        ball of radius r in rank k; parts of odd degree vanish.  The moments
        are computed in integers, with the denominators of Sigma and q
        cleared once; each application of Delta is one pass over the integer
        coefficients."""
        k = self.rs.rank
        sigma, s = self._inverse_gram()
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
    return xa._sqrt_pi_power(*_ball_factor_sq(n, k)) * r ** (2 * n + k)


def _ball_factor_sq(n: int, k: int) -> tuple[int, int, int]:
    """The square of `_ball_factor(n, k, 1)` as (a, b, e), a / b pi^e: the
    factor is (2 pi)^(k/2) / (2^(n + k/2 - 1) Gamma(n + k/2) (2n + k))."""
    return xa._quotient([(4, 1, k)], [4**n, (2 * n + k) ** 2, xa._gamma_sq(2 * n + k)])


def unit_volume_metric(rs: RootSystem) -> Metric:
    """The rescaled Killing metric normalizing the group volume to 1: the
    scale is (vol(G)^2)^(-1 / dim), read in logs of its exact ints."""
    a, b, e = Metric(rs)._group_volume_sq()
    scale = math.exp((math.log(b) - math.log(a) - e * math.log(math.pi)) / rs.dimension)
    return Metric(rs, xa.as_fraction(scale))
