"""Random real trigonometric systems on the standard torus.

A random function is a Gaussian combination of characters exp(2 pi i <lam, x>)
over a finite, centrally symmetric frequency support in Z^n, with independent
standard complex coefficients tied by conjugation so the function is real.
The module computes the expected number of real zeros of a square system, the
generic number of complex zeros, and the classical one-dimensional limit
constants these ratios converge to.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct
from typing import Sequence

import numpy as np

from . import exactalg as xa
from .convex import (
    Ellipsoid,
    MixedVolumeResult,
    Polytope,
    convex_hull,
    mixed_volume_ellipsoids,
    mixed_volume_polytopes,
)

__all__ = [
    "Support",
    "TorusEnsembleResult",
    "segment_support",
    "box_support",
    "ball_support",
    "newton_polytope",
    "newton_ellipsoid_torus",
    "mean_real_count_torus",
    "complex_count_torus",
    "real_proportion_torus",
    "kac_limit",
    "segment_proportion",
]


def _lattice_point(p) -> tuple[int, ...]:
    """The point p as a tuple of ints; ValueError, naming p, unless every
    coordinate c is integral, int(c) == c."""
    p = tuple(p)
    try:
        q = tuple(map(int, p))
    except (ValueError, OverflowError):  # NaN or an infinity
        q = None
    if q != p:
        raise ValueError(f"frequency ({', '.join(map(str, p))}) is not a lattice point")
    return q


@dataclass(frozen=True)
class Support:
    """Finite frequency support in Z^n, deduplicated and sorted."""

    points: tuple[tuple[int, ...], ...]

    def __init__(self, points):
        pts = sorted({_lattice_point(p) for p in points})
        if not pts:
            raise ValueError("empty support")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("inconsistent frequency dimensions")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def is_centrally_symmetric(self) -> bool:
        pts = set(self.points)
        return all(tuple(-c for c in p) in pts for p in pts)

    def require_symmetric(self) -> "Support":
        if not self.is_centrally_symmetric():
            raise ValueError("support must satisfy -S = S for a real ensemble")
        return self


def segment_support(m: int) -> Support:
    """One-dimensional support {-m, ..., m}."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    return Support([(j,) for j in range(-m, m + 1)])


def box_support(n: int, m: int) -> Support:
    """Product support {-m, ..., m}^n."""
    if n < 1 or m < 1:
        raise ValueError("dimension and degree must be >= 1")
    return Support(list(_iproduct(range(-m, m + 1), repeat=n)))


def ball_support(n: int, m: int) -> Support:
    """Lattice points of Euclidean norm at most m in Z^n."""
    if n < 1 or m < 1:
        raise ValueError("dimension and radius must be >= 1")
    pts = [
        p
        for p in _iproduct(range(-m, m + 1), repeat=n)
        if sum(c * c for c in p) <= m * m
    ]
    return Support(pts)


@functools.lru_cache(maxsize=128)
def newton_polytope(support: Support) -> Polytope:
    """Convex hull of the frequency support (exact), hulled once per support
    per process (`newton_polytope.cache_clear()` empties the cache)."""
    return convex_hull(support.points)


def newton_ellipsoid_torus(support: Support) -> Ellipsoid:
    """Second-moment ellipsoid of the support: Q = (2 pi)^2 / #S *
    sum_{lam in S} lam lam^T, the derivative covariance of the ensemble."""
    pts = np.array(support.points, dtype=float)
    q = (2 * math.pi) ** 2 / len(support) * (pts.T @ pts)
    return Ellipsoid(q)


def _as_support_list(supports) -> list[Support]:
    if isinstance(supports, Support):
        supports = [supports] * supports.dim
    out = list(supports)
    if not out:
        raise ValueError("no supports given")
    d = out[0].dim
    if any(s.dim != d for s in out):
        raise ValueError("supports live in different dimensions")
    if len(out) != d:
        raise ValueError(f"need {d} supports in dimension {d}")
    return out


def mean_real_count_torus(
    supports: Support | Sequence[Support],
    method: str = "auto",
    seed: int | None = None,
) -> MixedVolumeResult:
    """Expected number of real common zeros on the torus [0,1)^n of n
    independent random real ensembles: n!/(2 pi)^n times the mixed volume of
    the second-moment ellipsoids.

    `method` ("auto" or "mc") and `seed` go to `mixed_volume_ellipsoids`,
    and the result's `method` names the rule "auto" took ("balls", "volume",
    "sphere" or "mc"); "auto" asks for a seed only in dimension >= 4, or in
    dimension 3 when every support lies in a plane.  Each distinct support
    is checked and its ellipsoid built once.
    """
    sups = _as_support_list(supports)
    n = sups[0].dim
    ellipsoids = {s: newton_ellipsoid_torus(s.require_symmetric()) for s in set(sups)}
    ell = [ellipsoids[s] for s in sups]
    mv = mixed_volume_ellipsoids(ell, method=method, seed=seed)
    factor = math.factorial(n) / (2 * math.pi) ** n
    return MixedVolumeResult(factor * mv.value, factor * mv.stderr, mv.method, mv.samples)


def complex_count_torus(supports: Support | Sequence[Support]) -> Fraction:
    """Generic number of complex-torus solutions: n! times the mixed volume
    of the frequency hulls (exact), one hull per distinct support."""
    sups = _as_support_list(supports)
    n = sups[0].dim
    hulls = {s: newton_polytope(s) for s in set(sups)}
    bodies = [hulls[s] for s in sups]
    return math.factorial(n) * mixed_volume_polytopes(bodies)


@dataclass(frozen=True)
class TorusEnsembleResult:
    """Real/complex zero-count summary for a torus system; `samples` is the
    Gaussian sample count of a Monte Carlo mean (None for a closed form)."""

    real_count: float
    real_stderr: float
    complex_count: Fraction
    proportion: float
    method: str
    samples: int | None = None


def real_proportion_torus(
    supports: Support | Sequence[Support],
    method: str = "auto",
    seed: int | None = None,
) -> TorusEnsembleResult:
    """Ratio of the expected real zero count to the complex count."""
    sups = _as_support_list(supports)
    mean = mean_real_count_torus(sups, method=method, seed=seed)
    total = complex_count_torus(sups)
    if total == 0:
        raise ValueError("degenerate system: zero complex count")
    return TorusEnsembleResult(
        real_count=mean.value,
        real_stderr=mean.stderr,
        complex_count=total,
        proportion=mean.value / float(total),
        method=mean.method,
        samples=mean.samples,
    )


# ---------------------------------------------------------------------------
# one-dimensional limit constants
# ---------------------------------------------------------------------------

def _beta_sq(n: int) -> tuple[int, int, int]:
    """B(3/2, (n+1)/2)^2 = Gamma(3/2)^2 Gamma((n+1)/2)^2 / Gamma(n/2+2)^2 as
    (a, b, e), a / b pi^e."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return xa._quotient([xa._gamma_sq(3), xa._gamma_sq(n + 1)], [xa._gamma_sq(n + 4)])


def kac_limit(n: int) -> float:
    """Limiting real/complex proportion in dimension n:
    (sigma_{n-1} beta_n / sigma_n)^{n/2}, which equals (n+2)^{-n/2}.  The
    ratio is assembled exactly, with vol(B^m)^2 = pi^m / Gamma(m/2 + 1)^2;
    ArithmeticError where its power underflows the normal doubles, from
    n = 256 on."""
    surface_ratio = xa._sqrt_pi_power(*xa._quotient(
        [_beta_sq(n), (1, 1, n - 1), xa._gamma_sq(n + 2)], [xa._gamma_sq(n + 1), (1, 1, n)]))
    value = surface_ratio ** (n / 2)
    if value < sys.float_info.min:
        raise ArithmeticError(f"kac_limit({n}) = {n + 2}^(-{n}/2) = "
                              f"10^{-n / 2 * math.log10(n + 2):.1f} underflows a double")
    return value


def segment_proportion(m: int) -> float:
    """Closed form of the real proportion for the degree-m segment support
    in dimension one: sqrt((m+1) / (3m))."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    return math.sqrt((m + 1) / (3 * m))
