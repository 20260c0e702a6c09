"""Random invariant ensembles on compact simple Lie groups.

An ensemble is a finite spectrum of irreducible representations (dominant
highest weights with multiplicities); the random function is the Gaussian
combination of all their matrix elements, normalized so the covariance is the
sum of dim * character terms.  The module computes the exact second-moment
radius of such an ensemble, the expected number of real common zeros of a
full system, the generic complex solution count along two independent
routes, and the large-spectrum limits of the real/complex proportion.

Every integrand is built from the integer coroot forms <k_beta, x> of
`Metric.root_forms`: the squared root product p^2 is one product of them, and
the Killing norm |x|^2 = sum_beta <k_beta, x>^2 / (2 h^2 r_beta^2) times p^2
is a sum of such products over the same forms.  The limit law reads the
Gaussian moment of p^2 off its closed form (`Metric.root_product_moment`).
A metric passed to a function must belong to the same root system.

Every constant is gathered exactly as a rational times a power of pi and
read as one double (`exactalg._sqrt_pi_power`): the Kac-Rice constant of the
real mean, the Newton-body calibration and the limit law's identity factor,
so none leaves the double range before the answer does.  The calibrated
route polarizes the same exact integrals as the lattice route, and vol(G)
and vol(T) cancel inside it, so it checks only the metric-scale powers and
the weight covolume against p(rho)^2.

Each exact piece is computed once per process: the hull of the Weyl orbits
of a spectrum's maximal weights (`_orbit_hull`, keyed on the root system and
the weights' integer rows) and the p^2 integral over a body
(`_density_integral`, keyed on the root system and the body), which both
count routes and `newton_body_volume` read.  Both are `functools.lru_cache`s
of at most _CACHE_SIZE entries; `cache_clear()` on either empties it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import exactalg as xa
from .convex import (
    Polytope,
    convex_hull,
    integrate_polynomial_over_polytope,
    polarize,
)
from .polynomials import FormProducts
from .rootsystems import (
    Metric,
    RootSystem,
    _ball_factor_sq,
    _casimir_numerator,
    _casimir_unit,
    _conjugacy_key,
    _dominant_row,
    _reflection_closure,
    weyl_dimension,
)
from .torus import kac_limit

__all__ = [
    "RepEnsemble",
    "InvariantHessianForm",
    "GroupEnsembleResult",
    "LimitComparison",
    "f_form",
    "killing_radius",
    "weighted_polytope",
    "newton_body_volume",
    "mean_real_count_group",
    "complex_count_reductive",
    "real_proportion_group",
    "asymptotic_radius",
    "asymptotic_mean",
    "limit_real_proportion_group",
]


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepEnsemble:
    """Spectrum of a random invariant function: dominant integral highest
    weights, held as int tuples, with positive multiplicities."""

    rs: RootSystem
    entries: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, rs: RootSystem, entries):
        merged: dict[tuple[int, ...], int] = {}
        for weight, mult in entries:
            v = xa.as_vec(weight)
            if len(v) != rs.rank:
                raise ValueError("weight rank mismatch")
            if any(c < 0 or c.denominator != 1 for c in v):
                raise ValueError(f"weight {v} is not dominant integral")
            try:
                m = int(mult)
            except (ValueError, OverflowError):  # NaN or an infinity
                m = None
            if m != mult:
                raise ValueError(f"multiplicity {mult} is not an integer")
            if m < 1:
                raise ValueError("multiplicities must be positive")
            row = tuple(c.numerator for c in v)
            merged[row] = merged.get(row, 0) + m
        if not merged:
            raise ValueError("empty spectrum")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "entries", tuple(sorted(merged.items())))

    def require_self_dual(self) -> "RepEnsemble":
        """Check that the spectrum holds the dual of each of its weights, as
        a real ensemble needs (the group analogue of -S = S on the torus)."""
        dual, rows = self.rs.dual_permutation, set(self.weights)
        missing = sorted({tuple(row[i] for i in dual) for row in rows} - rows)
        if missing:
            names = ", ".join("(" + ",".join(map(str, w)) + ")" for w in missing)
            raise ValueError(
                f"spectrum must be closed under duality for a real ensemble; add {names}"
            )
        return self

    @classmethod
    def single(cls, rs: RootSystem, weight, mult: int = 1) -> "RepEnsemble":
        return cls(rs, [(weight, mult)])

    @classmethod
    def ball(cls, rs: RootSystem, radius, dilation: int = 1) -> "RepEnsemble":
        """All dominant weights of Killing norm <= dilation * radius."""
        r = xa.as_fraction(radius) * dilation
        weights = Metric(rs).dominant_weights_in_ball(r)
        return cls(rs, [(w, 1) for w in weights])

    @property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        return tuple(w for w, _ in self.entries)

    @property
    def is_flat(self) -> bool:
        return all(m == 1 for _, m in self.entries)

    def flatten(self) -> "RepEnsemble":
        """Same spectrum with every multiplicity set to 1.  Repeating an
        irreducible component spans no new functions, so every quantity
        computed from an ensemble is invariant under this."""
        if self.is_flat:
            return self
        return RepEnsemble(self.rs, [(w, 1) for w in self.weights])

    def __repr__(self) -> str:  # pragma: no cover
        return f"RepEnsemble({self.rs.name}, {len(self.entries)} weights)"


def _as_ensemble_list(ensembles) -> list[RepEnsemble]:
    if isinstance(ensembles, RepEnsemble):
        ensembles = [ensembles] * ensembles.rs.dimension
    out = list(ensembles)
    if not out:
        raise ValueError("no ensembles given")
    rs0 = out[0].rs
    if any(e.rs != rs0 for e in out):
        raise ValueError("ensembles must share one root system")
    if len(out) != rs0.dimension:
        raise ValueError(
            f"need {rs0.dimension} ensembles for a full system on {rs0.name}"
        )
    return out


# ---------------------------------------------------------------------------
# second-moment (Hessian) form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantHessianForm:
    """Isotropic derivative covariance of an invariant ensemble: a ball in
    the cotangent space at the identity, recorded by its squared radius in
    the Killing metric."""

    dimension: int
    radius_sq_killing: Fraction

    def radius(self) -> float:
        return math.sqrt(float(self.radius_sq_killing))


def f_form(ensemble: RepEnsemble) -> InvariantHessianForm:
    """Derivative covariance of the ensemble, an invariant ball whose
    squared Killing radius is the dimension-squared weighted Casimir mean
    over the distinct weights.  (Multiplicities never enter: the function
    space of a repeated component is the same as of a single copy.)"""
    rs = ensemble.rs
    n = rs.dimension
    num = den = 0
    for weight in ensemble.weights:
        d2 = weyl_dimension(rs, weight) ** 2
        num += d2 * _casimir_numerator(rs, weight)
        den += d2
    return InvariantHessianForm(n, Fraction(num, _casimir_unit(rs) * n * den))


def killing_radius(ensemble: RepEnsemble) -> float:
    return f_form(ensemble).radius()


# ---------------------------------------------------------------------------
# weight polytopes and their densities
# ---------------------------------------------------------------------------

# hulls and density integrals kept per process (`_orbit_hull`,
# `_density_integral`): far more than the distinct bodies of one system
_CACHE_SIZE = 128


def weighted_polytope(ensemble: RepEnsemble | RootSystem, weight=None) -> Polytope:
    """Convex hull of the Weyl orbits of the spectrum (exact, in weight
    coordinates).  Accepts either an ensemble or (root system, weight).

    Only the orbits of the maximal weights are hulled.  A dominant mu lies in
    conv(W lambda), lambda dominant, exactly when lambda - mu is a
    non-negative combination of simple roots, and conv(W lambda) is
    W-stable, so it holds the whole orbit of mu.  Dropping such orbits keeps
    every extreme point, and `Polytope` reads its facets and triangulation
    off the extreme points alone, so the polytope is the same as the hull of
    every orbit."""
    if isinstance(ensemble, RepEnsemble):
        rs, weights = ensemble.rs, ensemble.weights
    elif weight is None:
        raise ValueError("a root system needs a weight")
    else:
        rs, weights = ensemble, [xa.as_vec(weight)]
    # the orbits of the integer rows s w, s a common denominator, shrunk by s
    rows, s = xa.integer_rows(weights)
    if any(len(row) != rs.rank for row in rows):
        raise ValueError("weight rank mismatch")
    return _orbit_hull(rs, tuple(map(tuple, rows))).dilate(Fraction(1, s))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _orbit_hull(rs: RootSystem, rows: tuple[tuple[int, ...], ...]) -> Polytope:
    """Hull of the W-orbits of the integer rows, from their maximal dominant
    conjugates.  mu is dropped when some lambda has (lambda - mu) C^-1 >= 0,
    C the Cartan matrix (row i = alpha_i), read on `RootSystem.cartan_inverse`:
    a positive multiple of the simple-root coordinates."""
    cartan, columns = rs.cartan, tuple(zip(*rs.cartan_inverse))
    coeffs = {v: tuple(sum(map(operator.mul, v, col)) for col in columns)
              for v in (_dominant_row(cartan, row) for row in rows)}
    # a weight is only dominated by one of larger height (coefficient sum),
    # and domination is transitive, so each is compared with the maximal
    # ones found before it
    maximal: list[tuple[int, ...]] = []
    for v in sorted(coeffs, key=lambda v: sum(coeffs[v]), reverse=True):
        if not any(all(map(operator.ge, coeffs[u], coeffs[v])) for u in maximal):
            maximal.append(v)
    return convex_hull(_reflection_closure(cartan, maximal))


def _squared_root_product(rs: RootSystem) -> FormProducts:
    """p^2 = c^2 prod_beta l_beta^2 as one product of squared root forms."""
    const, forms = Metric(rs).root_forms()
    return FormProducts(rs.rank, forms, [(const * const, (2,) * len(forms))])


def _weyl_normal_class(rs: RootSystem, body: Polytope):
    """The `normal_class` hook of W on `body`, or None unless the body's
    vertex rows are closed under the simple reflections: the key of the Weyl
    orbit of a facet normal n, and with the vertex rows of a facet simplex
    the key of the simplex's orbit (`_conjugacy_key`).

    W acts on normals contragrediently, s_i n = n - (n . alpha_i) e_i.  So
    t = C n, t_i = n . alpha_i, reflects as t - t_i (column i of C), and the
    key is the dominant conjugate of t under the columns of C."""
    cartan = rs.cartan
    verts = set(body.coords)
    if any(tuple(x - v[i] * a for x, a in zip(v, row)) not in verts
           for v in body.coords for i, row in enumerate(cartan)):
        return None
    columns = tuple(zip(*cartan))

    def key(n, rows=None):
        if rows is not None:
            return _conjugacy_key(cartan, rows)
        return _dominant_row(columns, [sum(map(operator.mul, n, row)) for row in cartan])
    return key


def _invariant_integral(rs: RootSystem, body: Polytope, integrand: FormProducts) -> Fraction:
    """Exact integral of a W-invariant integrand over the body, against
    Lebesgue measure in weight coordinates (W acts by unimodular integer
    matrices), one facet plane per W-orbit when the body is W-stable."""
    return integrate_polynomial_over_polytope(body, integrand,
                                              normal_class=_weyl_normal_class(rs, body))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _density_integral(rs: RootSystem, body: Polytope) -> Fraction:
    """Exact integral of p^2 over the body, taken once per body: both count
    routes and `newton_body_volume` read it from here."""
    return _invariant_integral(rs, body, _squared_root_product(rs))


def _metric_of(rs: RootSystem, metric: Metric | None) -> Metric:
    """`metric`, or the Killing metric of rs if it is None; ValueError for a
    metric of another root system."""
    if metric is None:
        return Metric(rs)
    if metric.rs != rs:
        raise ValueError(f"metric of {metric.rs.name} given for a system on {rs.name}")
    return metric


def _calibration_sq(rs: RootSystem, metric: Metric) -> tuple[int, int, int]:
    """The square of the body-independent factor of `newton_body_volume` as
    (a, b, e), a / b pi^e: the calibration vol(G) / (|W| vol(T)) times the
    metric density scale^(2N + rank / 2) times the Killing weight covolume."""
    return xa._quotient(
        [metric._group_volume_sq(), metric.scale ** (4 * rs.num_positive_roots + rs.rank),
         Metric(rs).weight_gram_det()],
        [rs.weyl_order**2, metric._torus_volume_sq()])


def newton_body_volume(
    ensemble: RepEnsemble | RootSystem,
    weight=None,
    metric: Metric | None = None,
) -> float:
    """Metric volume of the Newton body of a spectrum: the weight polytope
    carrying the squared root-product density, calibrated by the group and
    torus volumes.  For the unit metric ball in rank one this reproduces the
    Euclidean unit-ball volume in the group dimension."""
    rs = ensemble.rs if isinstance(ensemble, RepEnsemble) else ensemble
    calibration = _calibration_sq(rs, _metric_of(rs, metric))
    integral = _density_integral(rs, weighted_polytope(ensemble, weight))
    return xa._sqrt_pi_power(*xa._quotient([calibration, integral, integral], []))


# ---------------------------------------------------------------------------
# counting formulas
# ---------------------------------------------------------------------------

def _kac_rice_sq(rs: RootSystem, metric: Metric) -> tuple[int, int, int]:
    """(vol(G) n! vol(B^n) / (2 pi)^n)^2 as (a, b, e), a / b pi^e, with
    vol(B^n)^2 = pi^n / Gamma(n/2 + 1)^2: the Kac-Rice constant that, times
    the n derivative radii in `metric`, is the expected real count."""
    n = rs.dimension
    return xa._quotient([metric._group_volume_sq(), math.factorial(n) ** 2, (1, 1, n)],
                        [xa._gamma_sq(n + 2), (4**n, 1, 2 * n)])


def mean_real_count_group(ensembles: RepEnsemble | Sequence[RepEnsemble]) -> float:
    """Expected number of real common zeros of a full system of independent
    invariant ensembles, computed in the Killing metric; the value does not
    depend on the metric scale.  Each spectrum must be closed under duality
    (`RepEnsemble.require_self_dual`)."""
    ens = _as_ensemble_list(ensembles)
    radii_sq = {e: f_form(e.require_self_dual()).radius_sq_killing for e in set(ens)}
    return xa._sqrt_pi_power(*xa._quotient(
        [_kac_rice_sq(ens[0].rs, Metric(ens[0].rs)), *(radii_sq[e] for e in ens)], []))


def complex_count_reductive(
    ensembles: RepEnsemble | Sequence[RepEnsemble],
    route: str = "lattice",
    metric: Metric | None = None,
):
    """Generic number of complex common zeros of a full system.

    route="lattice": exact rational value from the polarized weight-polytope
    integrals of the normalized squared root product.
    route="calibrated": floating-point value from metric Newton-body volumes
    calibrated by torus/group volumes, over the same exact polarized
    integral; agrees with the lattice route and is independent of the
    metric scale.
    """
    if route not in ("lattice", "calibrated"):
        raise ValueError(f"unknown route {route!r}")
    ens = _as_ensemble_list(ensembles)
    rs = ens[0].rs
    metric = _metric_of(rs, metric)
    n = rs.dimension
    hulls = {e: weighted_polytope(e) for e in set(ens)}
    mixed = polarize([hulls[e] for e in ens], functools.partial(_density_integral, rs))
    if route == "lattice":
        p_rho = Metric(rs).root_product_at_rho()
        return Fraction(math.factorial(n), rs.weyl_order) * mixed / (p_rho * p_rho)
    p_rho = metric.root_product_at_rho()
    return xa._sqrt_pi_power(*xa._quotient(
        [math.factorial(n) ** 2, metric._torus_volume_sq(), _calibration_sq(rs, metric), mixed, mixed],
        [p_rho, p_rho, p_rho, p_rho, metric.weight_gram_det(), metric._group_volume_sq()]))


@dataclass(frozen=True)
class GroupEnsembleResult:
    """Real/complex zero-count summary for a group system."""

    root_system: str
    real_count: float
    complex_count: float
    complex_exact: Fraction | None
    proportion: float
    route: str


def real_proportion_group(
    ensembles: RepEnsemble | Sequence[RepEnsemble],
    route: str = "lattice",
    metric: Metric | None = None,
) -> GroupEnsembleResult:
    ens = _as_ensemble_list(ensembles)
    rs = ens[0].rs
    mean = mean_real_count_group(ens)
    total = complex_count_reductive(ens, route=route, metric=metric)
    exact = total if isinstance(total, Fraction) else None
    total_f = float(total)
    if total_f == 0:
        raise ValueError("degenerate system: zero complex count")
    return GroupEnsembleResult(
        root_system=rs.name,
        real_count=mean,
        complex_count=total_f,
        complex_exact=exact,
        proportion=mean / total_f,
        route=route,
    )


# ---------------------------------------------------------------------------
# dilation asymptotics
# ---------------------------------------------------------------------------

def asymptotic_radius(rs: RootSystem, body) -> float:
    """Limit of killing_radius(spectrum of m * body) / m as the dilation m
    grows.  `body` is a weight-space polytope, or a finite non-negative
    number for the metric ball of that radius (closed form
    radius / sqrt(n + 2)); ValueError otherwise."""
    r_sq = _asymptotic_radius_sq(rs, body)
    return xa._sqrt_pi_power(r_sq.numerator, r_sq.denominator)


def _asymptotic_radius_sq(rs: RootSystem, body) -> Fraction:
    """The square of `asymptotic_radius`, exactly: the mean of |x|^2 / n
    under the density p^2 on a polytope, radius^2 / (n + 2) on a ball."""
    n = rs.dimension
    if isinstance(body, Polytope):
        const, forms = Metric(rs).root_forms()
        c2, h2, twos = const * const, 2 * rs.dual_coxeter**2, (2,) * len(forms)
        # |x|^2 p^2 over the same forms: the Killing form is
        # sum_beta <k_beta, x>^2 / (2 h^2 r_beta^2) (see `_casimir_numerator`)
        norm_p_sq = FormProducts(rs.rank, forms, [
            (c2 / (h2 * r * r), twos[:j] + (4,) + twos[j + 1:])
            for j, r in enumerate(rs.root_ratios)])
        num = _invariant_integral(rs, body, norm_p_sq)
        den = _density_integral(rs, body)
        if den == 0:
            raise ValueError("degenerate body")
        return num / den / n
    if not (math.isfinite(body) and body >= 0):
        raise ValueError(f"ball radius must be finite and non-negative, got {body!r}")
    return xa.as_fraction(body) ** 2 / (n + 2)


def asymptotic_mean(rs: RootSystem, radius, dilation: float) -> float:
    """Leading-order expected real count for the spectrum of a large
    dilation of a body: a weight-space polytope or a ball radius, as in
    `asymptotic_radius`.  ValueError for a ball radius that is not finite and
    non-negative, or a dilation that is not finite and positive."""
    if not (math.isfinite(dilation) and dilation > 0):
        raise ValueError(f"dilation must be finite and positive, got {dilation!r}")
    r_sq = xa.as_fraction(dilation) ** 2 * _asymptotic_radius_sq(rs, radius)
    return xa._sqrt_pi_power(*xa._quotient([_kac_rice_sq(rs, Metric(rs)), r_sq**rs.dimension], []))


@dataclass(frozen=True)
class LimitComparison:
    """Two independent evaluations of the limiting real proportion."""

    closed_form: float
    pipeline: float
    identity_factor: float


def limit_real_proportion_group(rs: RootSystem, metric: Metric | None = None) -> LimitComparison:
    """Limiting real/complex proportion for growing ball spectra.

    closed_form: the dimension-only constant (n+2)^{-n/2}, shared with the
    torus limit (`kac_limit`, which raises ArithmeticError where it
    underflows a double, from n = 256 on).  pipeline: the same limit
    assembled from the group volume, the moment of the squared root product
    on the unit metric ball (its closed-form Gaussian moment times a radial
    constant), and the lattice covolume, all in the supplied metric; the
    ratio of the two (identity_factor) is an exact identity equal to 1 for
    every metric.  It sets Macdonald's volume formula (`Metric.group_volume`)
    against the Macdonald-Mehta integral.
    """
    n = rs.dimension
    factor = _limit_identity_factor(rs, _metric_of(rs, metric))
    closed = kac_limit(n)
    return LimitComparison(
        closed_form=closed,
        pipeline=factor * (n + 2) ** (-n / 2),
        identity_factor=factor,
    )


def _limit_identity_factor(rs: RootSystem, metric: Metric) -> float:
    """The identity factor of `limit_real_proportion_group`:
    vol(G) vol(B^n) |W| p(rho)^2 covol / ((2 pi)^n E_ball[p^2] scale^n), with
    E_ball[p^2] the Macdonald-Mehta moment times `_ball_factor` and the
    scale^-n because derivative-covariance radii live in the dual; its
    square is gathered exactly, as every constant of this module is."""
    n = rs.dimension
    p_rho, moment, scale_n = metric.root_product_at_rho(), metric.root_product_moment(), metric.scale**n
    # squared: the Kac-Rice constant, |W| p(rho)^2 and covol over n!, E_ball[p^2] and scale^n
    return xa._sqrt_pi_power(*xa._quotient(
        [_kac_rice_sq(rs, metric), rs.weyl_order**2, p_rho, p_rho, p_rho, p_rho, metric.weight_gram_det()],
        [math.factorial(n) ** 2, moment, moment, _ball_factor_sq(rs.num_positive_roots, rs.rank),
         scale_n, scale_n]))
