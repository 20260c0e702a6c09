"""Which package functions the traced pass wraps, and the per-layer metrics.

Layers are the package's modules.  Every function a module exports in
`__all__` becomes a span, except where `KINDS` says otherwise: `exactalg`
elimination and polynomial arithmetic are timed without span records, and
`Polynomial.__call__` is only counted (`polynomials.poly_evals`).  The
vector helpers of `exactalg` (`vec_add`, `dot`, ...) are not wrapped at all;
their time is charged to their caller, mostly `convex`.
"""

from __future__ import annotations

import sys
import time

from tracer import Tracer

MODULES = ("convex", "exactalg", "polynomials", "rootsystems", "torus", "groups",
           "montecarlo", "cli")

# module -> exported names to wrap (None: every function in __all__)
EXPORTS = {
    "exactalg": ("rank", "mat_det", "solve", "nullspace_vector", "mat_inverse"),
    "cli": ("main",),
}
# (module, class, method, traced name)
METHODS = (
    ("convex", "Polytope", "volume", "convex.Polytope.volume"),
    ("rootsystems", "RootSystem", "weyl_orbit", "rootsystems.weyl_orbit"),
    ("rootsystems", "Metric", "root_product_poly", "rootsystems.root_product_poly"),
    ("rootsystems", "Metric", "dominant_weights_in_ball",
     "rootsystems.dominant_weights_in_ball"),
    ("rootsystems", "Metric", "integrate_ball", "rootsystems.integrate_ball"),
    ("polynomials", "Polynomial", "__mul__", "polynomials.multiply"),
    ("polynomials", "Polynomial", "__add__", "polynomials.add"),
    ("polynomials", "Polynomial", "__call__", "polynomials.poly_evals"),
)
KINDS = {
    "exactalg.rank": "timed",
    "exactalg.mat_det": "timed",
    "exactalg.solve": "timed",
    "exactalg.nullspace_vector": "timed",
    "exactalg.mat_inverse": "timed",
    "polynomials.sphere_monomial_integral": "timed",
    "polynomials.multiply": "timed",
    "polynomials.add": "timed",
    "polynomials.poly_evals": "count",
}


# -- hooks: run the call and record work counters ---------------------------

def _convex_hull(tr: Tracer, fn, args, kwargs):
    points = list(args[0])
    poly = fn(points, *args[1:], **kwargs)
    tr.counts["convex.hull.points_in"] += len(points)
    tr.counts["convex.hull.vertices_out"] += len(poly.vertices)
    tr.counts["convex.hull.simplices"] += len(poly.triangulation)
    return poly


def _polarize(tr: Tracer, fn, args, kwargs):
    bodies, functional = args[0], args[1]

    def counted(body):
        tr.counts["convex.polarize.functional_evals"] += 1
        return functional(body)

    return fn(bodies, counted, *args[2:], **kwargs)


def _mixed_volume_ellipsoids(tr: Tracer, fn, args, kwargs):
    res = fn(*args, **kwargs)
    tr.counts[f"convex.mixed_volume_ellipsoids.method.{res.method}"] += 1
    return res


def _integrate_over_simplex(tr: Tracer, fn, args, kwargs):
    before = tr.counts["polynomials.poly_evals"]
    res = fn(*args, **kwargs)
    tr.counts["polynomials.quadrature_nodes"] += tr.counts["polynomials.poly_evals"] - before
    return res


def _complex_count_reductive(tr: Tracer, fn, args, kwargs):
    route = kwargs.get("route", args[1] if len(args) > 1 else "lattice")
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        tr.counts[f"groups.complex_count_reductive.{route}_s"] += time.perf_counter() - start


def _mc_stats(name: str):
    def hook(tr: Tracer, fn, args, kwargs):
        res = fn(*args, **kwargs)
        tr.counts[f"montecarlo.{name}.samples"] += res.samples
        tr.counts[f"montecarlo.{name}.discarded"] += res.discarded
        return res
    return hook


def _cli_main(tr: Tracer, fn, args, kwargs):
    code = 1
    try:
        code = fn(*args, **kwargs)
        return code
    finally:
        if code != 0:
            tr.counts["cli.main.nonzero_exits"] += 1


HOOKS = {
    "convex.convex_hull": _convex_hull,
    "convex.polarize": _polarize,
    "convex.mixed_volume_ellipsoids": _mixed_volume_ellipsoids,
    "polynomials.integrate_over_simplex": _integrate_over_simplex,
    "groups.complex_count_reductive": _complex_count_reductive,
    "montecarlo.count_zeros_circle": _mc_stats("count_zeros_circle"),
    "montecarlo.count_common_zeros_torus2": _mc_stats("count_common_zeros_torus2"),
    "montecarlo.gaussian_mixed_volume": _mc_stats("gaussian_mixed_volume"),
    "cli.main": _cli_main,
}


def install(rr) -> Tracer:
    """Wrap the package's layer boundaries; `Tracer.uninstall` undoes it."""
    tracer = Tracer()
    modules = {m: sys.modules[f"{rr.__name__}.{m}"] for m in MODULES}
    namespaces = [vars(rr)] + [vars(m) for m in modules.values()]
    for mod_name, module in modules.items():
        names = EXPORTS.get(mod_name) or module.__all__
        for attr in names:
            fn = getattr(module, attr)
            if not callable(fn) or isinstance(fn, type):
                continue
            if getattr(fn, "__module__", None) != module.__name__:
                continue  # re-exported from another layer; wrapped there
            name = f"{mod_name}.{attr}"
            wrapper = tracer.wrap(name, fn, KINDS.get(name, "span"), HOOKS.get(name))
            tracer.patch_function(namespaces, fn, wrapper)
    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        wrapper = tracer.wrap(name, cls.__dict__[attr], KINDS.get(name, "span"),
                              HOOKS.get(name))
        tracer.patch_method(cls, attr, wrapper)
    return tracer


# -- per-layer metrics ---------------------------------------------------------

PER_LAYER = (
    ("convex.convex_hull.calls", "count"),
    ("convex.convex_hull.self_s", "s"),
    ("convex.hull.points_in", "count"),
    ("convex.hull.vertices_out", "count"),
    ("convex.hull.simplices", "count"),
    ("convex.minkowski_sum.calls", "count"),
    ("convex.minkowski_sum.self_s", "s"),
    ("convex.polarize.calls", "count"),
    ("convex.polarize.functional_evals", "count"),
    ("convex.polarize.self_s", "s"),
    ("convex.integrate_polynomial_over_polytope.self_s", "s"),
    ("convex.mixed_volume_ellipsoids.self_s", "s"),
    ("convex.mixed_volume_ellipsoids.method.exact1d", "count"),
    ("convex.mixed_volume_ellipsoids.method.exact2d", "count"),
    ("convex.mixed_volume_ellipsoids.method.balls", "count"),
    ("convex.mixed_volume_ellipsoids.method.mc", "count"),
    ("convex.self_s", "s"),
    ("exactalg.rank.calls", "count"),
    ("exactalg.mat_det.calls", "count"),
    ("exactalg.nullspace_vector.calls", "count"),
    ("exactalg.solve.calls", "count"),
    ("exactalg.self_s", "s"),
    ("polynomials.integrate_over_simplex.calls", "count"),
    ("polynomials.integrate_over_simplex.self_s", "s"),
    ("polynomials.quadrature_nodes", "count"),
    ("polynomials.poly_evals", "count"),
    ("polynomials.self_s", "s"),
    ("rootsystems.weyl_orbit.calls", "count"),
    ("rootsystems.weyl_orbit.self_s", "s"),
    ("rootsystems.root_product_poly.self_s", "s"),
    ("rootsystems.dominant_weights_in_ball.self_s", "s"),
    ("rootsystems.self_s", "s"),
    ("torus.complex_count_torus.s", "s"),
    ("torus.mean_real_count_torus.s", "s"),
    ("torus.newton_polytope.s", "s"),
    ("torus.self_s", "s"),
    ("groups.complex_count_reductive.lattice_s", "s"),
    ("groups.complex_count_reductive.calibrated_s", "s"),
    ("groups.weighted_polytope.s", "s"),
    ("groups.mean_real_count_group.s", "s"),
    ("groups.self_s", "s"),
    ("montecarlo.count_zeros_circle.s", "s"),
    ("montecarlo.count_zeros_circle.samples", "count"),
    ("montecarlo.count_common_zeros_torus2.s", "s"),
    ("montecarlo.count_common_zeros_torus2.samples", "count"),
    ("montecarlo.count_common_zeros_torus2.discarded", "count"),
    ("montecarlo.gaussian_mixed_volume.s", "s"),
    ("montecarlo.gaussian_mixed_volume.samples", "count"),
    ("montecarlo.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.nonzero_exits", "count"),
    ("bench.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.job_coverage", "ratio"),
    ("trace.spans", "count"),
    ("circle_samples_per_s", "1/s"),
    ("torus2_samples_per_s", "1/s"),
    ("discard_ratio", "ratio"),
    ("failed_ratio", "ratio"),
    ("probes.failed", "count"),
)


def per_layer_values(tr: Tracer) -> dict[str, float]:
    """Values of the tracer-derived per-layer metrics (all but the trace.*
    and run-level entries, which the runner adds)."""
    values: dict[str, float] = {}
    for name, seconds in tr.layer_self_time().items():
        values[f"{name}.self_s"] = seconds
    for name in tr.calls:
        values[f"{name}.calls"] = tr.calls[name]
        values[f"{name}.self_s"] = tr.self_time[name]
        values[f"{name}.s"] = tr.inclusive.get(name, 0.0)
    values.update(tr.counts)
    return {name: values.get(name, 0) for name, _ in PER_LAYER}
