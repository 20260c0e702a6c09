"""Random invariant ensembles on compact simple Lie groups.

An ensemble is a finite spectrum of irreducible representations (dominant
highest weights with multiplicities); the random function is the Gaussian
combination of all their matrix elements, normalized so the covariance is the
sum of dim * character terms.  The module computes the exact second-moment
radius of such an ensemble, the expected number of real common zeros of a
full system, the generic complex solution count along two independent
routes, and the large-spectrum limits of the real/complex proportion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import exactalg as xa
from .convex import (
    Ellipsoid,
    Polytope,
    convex_hull,
    integrate_polynomial_over_polytope,
    polarize,
    unit_ball_volume,
)
from .polynomials import FormProducts, Polynomial
from .rootsystems import (
    Metric,
    RootSystem,
    casimir,
    reality_type,
    root_system,
    symmetric_partner,
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
    weights with positive multiplicities."""

    rs: RootSystem
    entries: tuple[tuple[xa.Vec, int], ...]

    def __init__(self, rs: RootSystem, entries):
        merged: dict[xa.Vec, int] = {}
        for weight, mult in entries:
            v = xa.as_vec(weight)
            if len(v) != rs.rank:
                raise ValueError("weight rank mismatch")
            if any(c < 0 or c.denominator != 1 for c in v):
                raise ValueError(f"weight {v} is not dominant integral")
            m = int(mult)
            if m < 1:
                raise ValueError("multiplicities must be positive")
            merged[v] = merged.get(v, 0) + m
        if not merged:
            raise ValueError("empty spectrum")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "entries", tuple(sorted(merged.items())))

    def require_self_dual(self) -> "RepEnsemble":
        """Check that the spectrum holds the dual of each of its weights, as
        a real ensemble needs (the group analogue of -S = S on the torus)."""
        weights = set(self.weights)
        missing = sorted({symmetric_partner(self.rs, w) for w in weights} - weights)
        if missing:
            names = ", ".join("(" + ",".join(str(c) for c in w) + ")" for w in missing)
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
    def weights(self) -> tuple[xa.Vec, ...]:
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

    def reality_types(self) -> dict[xa.Vec, str]:
        return {w: reality_type(self.rs, w) for w in self.weights}

    def __repr__(self) -> str:  # pragma: no cover
        return f"RepEnsemble({self.rs.name}, {len(self.entries)} weights)"


def _as_ensemble_list(ensembles, rs: RootSystem | None = None) -> list[RepEnsemble]:
    if isinstance(ensembles, RepEnsemble):
        ensembles = [ensembles] * ensembles.rs.dimension
    out = list(ensembles)
    if not out:
        raise ValueError("no ensembles given")
    rs0 = out[0].rs
    if any(e.rs is not rs0 for e in out):
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

    def radius(self, metric: Metric | None = None) -> float:
        scale = float(metric.scale) if metric is not None else 1.0
        return math.sqrt(float(self.radius_sq_killing) / scale)

    def as_ellipsoid(self, metric: Metric | None = None) -> Ellipsoid:
        r = self.radius(metric)
        import numpy as np

        return Ellipsoid(r * r * np.eye(self.dimension))


def f_form(ensemble: RepEnsemble) -> InvariantHessianForm:
    """Derivative covariance of the ensemble, an invariant ball whose
    squared Killing radius is the dimension-squared weighted Casimir mean
    over the distinct weights.  (Multiplicities never enter: the function
    space of a repeated component is the same as of a single copy.)"""
    rs = ensemble.rs
    n = rs.dimension
    num = Fraction(0)
    den = Fraction(0)
    for weight in ensemble.weights:
        d2 = Fraction(weyl_dimension(rs, weight) ** 2)
        num += d2 * casimir(rs, weight)
        den += d2
    return InvariantHessianForm(n, num / (n * den))


def killing_radius(ensemble: RepEnsemble) -> float:
    return f_form(ensemble).radius()


# ---------------------------------------------------------------------------
# weight polytopes and their densities
# ---------------------------------------------------------------------------

def weighted_polytope(ensemble: RepEnsemble | RootSystem, weight=None) -> Polytope:
    """Convex hull of the Weyl orbits of the spectrum (exact, in weight
    coordinates).  Accepts either an ensemble or (root system, weight)."""
    if isinstance(ensemble, RepEnsemble):
        rs = ensemble.rs
        weights = ensemble.weights
    else:
        rs = ensemble
        weights = [xa.as_vec(weight)]
    pts = []
    for w in weights:
        pts.extend(rs.weyl_orbit(w))
    return convex_hull(pts)


def _squared_root_product(rs: RootSystem) -> FormProducts:
    """p^2 = c^2 prod_beta l_beta^2 as one product of squared root forms."""
    const, forms = Metric(rs).root_forms()
    return FormProducts(rs.rank, forms, [(const * const, (2,) * len(forms))])


def _lattice_density_integral(rs: RootSystem, body: Polytope) -> Fraction:
    """Exact integral over the body of the squared root product, against
    Lebesgue measure in weight coordinates (weight-lattice normalization)."""
    return integrate_polynomial_over_polytope(body, _squared_root_product(rs))


def newton_body_volume(
    ensemble: RepEnsemble | RootSystem,
    weight=None,
    metric: Metric | None = None,
    body: Polytope | None = None,
) -> float:
    """Metric volume of the Newton body of a spectrum: the weight polytope
    carrying the squared root-product density, calibrated by the group and
    torus volumes.  For the unit metric ball in rank one this reproduces the
    Euclidean unit-ball volume in the group dimension."""
    if isinstance(ensemble, RepEnsemble):
        rs = ensemble.rs
        if body is None:
            body = weighted_polytope(ensemble)
    else:
        rs = ensemble
        if body is None:
            body = weighted_polytope(rs, weight)
    metric = metric or Metric(rs)
    exact = _lattice_density_integral(rs, body)
    scale = float(metric.scale)
    p = rs.num_positive_roots
    k = rs.rank
    density = scale ** (2 * p + k / 2) * Metric(rs).weight_covolume()
    calibration = metric.group_volume() / (rs.weyl_order * metric.torus_volume())
    return calibration * density * float(exact)


# ---------------------------------------------------------------------------
# counting formulas
# ---------------------------------------------------------------------------

def mean_real_count_group(
    ensembles: RepEnsemble | Sequence[RepEnsemble],
    metric: Metric | None = None,
) -> float:
    """Expected number of real common zeros of a full system of independent
    invariant ensembles.  The value does not depend on the metric scale; the
    argument only fixes the geometry the factors are reported in.  Each
    spectrum must be closed under duality (`RepEnsemble.require_self_dual`)."""
    ens = _as_ensemble_list(ensembles)
    distinct = set(ens)
    for e in distinct:
        e.require_self_dual()
    rs = ens[0].rs
    n = rs.dimension
    base = Metric(rs)
    value = base.group_volume() * math.factorial(n) / (2 * math.pi) ** n
    value *= unit_ball_volume(n)
    radii = {e: killing_radius(e) for e in distinct}
    for e in ens:
        value *= radii[e]
    return value


def complex_count_reductive(
    ensembles: RepEnsemble | Sequence[RepEnsemble],
    route: str = "lattice",
    metric: Metric | None = None,
):
    """Generic number of complex common zeros of a full system.

    route="lattice": exact rational value from the polarized weight-polytope
    integrals of the normalized squared root product.
    route="calibrated": floating-point value from metric Newton-body volumes
    calibrated by torus/group volumes; agrees with the lattice route and is
    independent of the metric scale.
    """
    ens = _as_ensemble_list(ensembles)
    rs = ens[0].rs
    n = rs.dimension
    hulls = {e: weighted_polytope(e) for e in set(ens)}
    bodies = [hulls[e] for e in ens]

    if route == "lattice":
        p_rho_sq = Metric(rs).root_product_at_rho() ** 2
        mixed = polarize(bodies, lambda b: _lattice_density_integral(rs, b)) / p_rho_sq
        return Fraction(math.factorial(n), rs.weyl_order) * mixed

    if route == "calibrated":
        metric = metric or Metric(rs)
        mixed = polarize(bodies, lambda b: newton_body_volume(rs, metric=metric, body=b))
        value = math.factorial(n) * metric.torus_volume() * mixed
        value /= (
            float(metric.root_product_at_rho()) ** 2
            * metric.weight_covolume()
            * metric.group_volume()
        )
        return value

    raise ValueError(f"unknown route {route!r}")


@dataclass(frozen=True)
class GroupEnsembleResult:
    """Real/complex zero-count summary for a group system."""

    root_system: str
    real_count: float
    complex_count: float
    complex_exact: Fraction | None
    proportion: float
    route: str

    def as_dict(self) -> dict:
        return {
            "root_system": self.root_system,
            "real_count": self.real_count,
            "complex_count": self.complex_count,
            "complex_exact": None if self.complex_exact is None else str(self.complex_exact),
            "proportion": self.proportion,
            "route": self.route,
        }


def real_proportion_group(
    ensembles: RepEnsemble | Sequence[RepEnsemble],
    route: str = "lattice",
    metric: Metric | None = None,
) -> GroupEnsembleResult:
    ens = _as_ensemble_list(ensembles)
    rs = ens[0].rs
    mean = mean_real_count_group(ens, metric=metric)
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
    grows.  `body` is a weight-space polytope, or a number for the metric
    ball of that radius (closed form radius / sqrt(n + 2))."""
    n = rs.dimension
    if isinstance(body, Polytope):
        p_sq = _squared_root_product(rs)
        norm = FormProducts.from_polynomial(Polynomial.quadratic_form(Metric(rs).gram()))
        num = integrate_polynomial_over_polytope(body, p_sq * norm)
        den = integrate_polynomial_over_polytope(body, p_sq)
        if den == 0:
            raise ValueError("degenerate body")
        return math.sqrt(float(num / den) / n)
    radius = float(body)
    return radius / math.sqrt(n + 2)


def asymptotic_mean(rs: RootSystem, radius, dilation: float) -> float:
    """Leading-order expected real count for the ball spectrum of the given
    radius at a large dilation."""
    n = rs.dimension
    r_inf = asymptotic_radius(rs, radius)
    base = Metric(rs)
    return (
        base.group_volume()
        * math.factorial(n)
        / (2 * math.pi) ** n
        * unit_ball_volume(n)
        * (dilation * r_inf) ** n
    )


@dataclass(frozen=True)
class LimitComparison:
    """Two independent evaluations of the limiting real proportion."""

    closed_form: float
    pipeline: float
    identity_factor: float

    def as_dict(self) -> dict:
        return {
            "closed_form": self.closed_form,
            "pipeline": self.pipeline,
            "identity_factor": self.identity_factor,
        }


def limit_real_proportion_group(rs: RootSystem, metric: Metric | None = None) -> LimitComparison:
    """Limiting real/complex proportion for growing ball spectra.

    closed_form: the dimension-only constant (n+2)^{-n/2}, shared with the
    torus limit.  pipeline: the same limit assembled from the group volume,
    the root-product moments on the unit metric ball, and the lattice
    covolume, all in the supplied metric; the ratio of the two
    (identity_factor) is an exact identity equal to 1 for every metric.
    """
    n = rs.dimension
    base = metric or Metric(rs)
    p_poly = base.root_product_poly()
    ball_moment = base.integrate_ball(p_poly * p_poly, 1.0)
    # derivative-covariance radii live in the dual, hence the scale^-n
    factor = (
        base.group_volume()
        * unit_ball_volume(n)
        * rs.weyl_order
        * float(base.root_product_at_rho()) ** 2
        * base.weight_covolume()
        / ((2 * math.pi) ** n * ball_moment * float(base.scale) ** n)
    )
    closed = kac_limit(n)
    return LimitComparison(
        closed_form=closed,
        pipeline=factor * (n + 2) ** (-n / 2),
        identity_factor=factor,
    )
