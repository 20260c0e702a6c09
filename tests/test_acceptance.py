"""Acceptance gate: twelve go/no-go checks, one test (and one verdict line)
per criterion, each with its tolerance and runtime budget pinned.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED line
per criterion; each test also prints a ``[PASS]``/``[FAIL]`` detail line.
"""

import math
import time
from fractions import Fraction

import numpy as np

from realroots import convex, groups, montecarlo, torus
from realroots import exactalg as xa
from realroots.convex import (
    Ellipsoid,
    convex_hull,
    minkowski_sum,
    mixed_volume_polytopes,
)
from realroots.groups import RepEnsemble, f_form, killing_radius, mean_real_count_group
from realroots.rootsystems import Metric, root_system, unit_volume_metric
from equidistribution import equidistribution_check
from su2_oracle import su2_f_form_oracle

A1 = root_system("A1")
A2 = root_system("A2")

BETA_CLOSED_FORMS = [
    Fraction(2, 3),
    math.pi / 8,
    Fraction(4, 15),
    math.pi / 16,
    Fraction(16, 105),
    5 * math.pi / 128,
    Fraction(32, 315),
    7 * math.pi / 256,
    Fraction(256, 3465),
    21 * math.pi / 1024,
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {detail}")
    assert ok, detail


def test_criterion_01_beta_table_closed_forms():
    start = time.perf_counter()
    errs = [
        abs(xa._sqrt_pi_power(*torus._beta_sq(n)) - float(BETA_CLOSED_FORMS[n - 1]))
        for n in range(1, 11)
    ]
    elapsed = time.perf_counter() - start
    ok = max(errs) <= 1e-12 and elapsed < 1.0
    report(1, ok, f"beta-table max err {max(errs):.2e} in {elapsed:.3f}s (tol 1e-12, <1s)")


def test_criterion_02_univariate_proportion_exact():
    start = time.perf_counter()
    errs = [
        abs(
            torus.real_proportion_torus(torus.segment_support(m)).proportion
            - math.sqrt((m + 1) / (3 * m))
        )
        for m in range(1, 101)
    ]
    big = torus.real_proportion_torus(torus.segment_support(1000)).proportion
    tail_err = abs(big - 1 / math.sqrt(3))
    elapsed = time.perf_counter() - start
    ok = max(errs) <= 1e-12 and tail_err <= 1e-3 and elapsed < 5.0
    report(
        2,
        ok,
        f"proportion m=1..100 max err {max(errs):.2e} (tol 1e-12); "
        f"m=1000 err {tail_err:.2e} (tol 1e-3); {elapsed:.2f}s (<5s)",
    )


def test_criterion_03_limit_identity_small_dimensions():
    errs = [abs(torus.kac_limit(n) - (n + 2) ** (-n / 2)) for n in range(1, 11)]
    ok = max(errs) <= 1e-12
    report(3, ok, f"kac_limit identity n=1..10 max err {max(errs):.2e} (tol 1e-12)")


def test_criterion_04_monte_carlo_circle():
    start = time.perf_counter()
    stats = montecarlo.count_zeros_circle(torus.segment_support(5), 2000, seed=20260814)
    elapsed = time.perf_counter() - start
    z = (stats.value - 2 * math.sqrt(10)) / stats.stderr
    ok = abs(z) <= 3.0 and elapsed < 60.0
    report(
        4,
        ok,
        f"circle m=5 mean {stats.value:.4f} vs {2 * math.sqrt(10):.4f}, "
        f"z = {z:+.2f} (|z|<=3); {elapsed:.1f}s (<60s)",
    )


def test_criterion_05_monte_carlo_torus_pair():
    start = time.perf_counter()
    stats = montecarlo.count_common_zeros_torus2(torus.box_support(2, 1), 520, seed=20260814)
    elapsed = time.perf_counter() - start
    z = (stats.value - 4 * math.pi / 3) / stats.stderr
    ok = (
        stats.samples >= 500
        and abs(z) <= 3.0
        and stats.discarded < 0.01 * (stats.samples + stats.discarded)
        and elapsed < 600.0
    )
    report(
        5,
        ok,
        f"torus pair mean {stats.value:.4f} vs {4 * math.pi / 3:.4f}, z = {z:+.2f} "
        f"(|z|<=3), {stats.samples} accepted, {stats.discarded} discarded (<1%); "
        f"{elapsed:.1f}s (<10min)",
    )


def test_criterion_06_gaussian_volume_oracle():
    rng = np.random.default_rng(20260814)

    def random_spd():
        a = rng.normal(size=(2, 2))
        return a.T @ a + 0.3 * np.eye(2)

    worst = 0.0
    for i in range(20):
        q1, q2 = random_spd(), random_spd()
        exact = float(convex._mixed_area(q1, q2))
        estimate = montecarlo.gaussian_mixed_volume(
            [q1, q2], samples=1_000_000, seed=100 + i
        ).value
        worst = max(worst, abs(estimate - exact) / exact)

    line = montecarlo.gaussian_mixed_volume([np.array([[2.25]])], samples=400_000, seed=7)
    line_err = abs(line.value - 2 * math.sqrt(2.25)) / (2 * math.sqrt(2.25))
    ok = worst < 0.01 and line_err <= 1e-15 and line.stderr == 0.0
    report(
        6,
        ok,
        f"20 ellipse pairs worst rel err {worst:.2%} (<1%); "
        f"1-d normalization rel err {line_err:.1e} (<=1e-15), stderr {line.stderr:g} (0)",
    )


def test_criterion_07_rank_one_group_volume():
    vol = Metric(A1).group_volume()
    want = 32 * math.sqrt(2) * math.pi**2
    rel = abs(vol - want) / want
    ok = rel <= 1e-10
    report(7, ok, f"group volume {vol:.12f} vs 32*sqrt(2)*pi^2, rel err {rel:.2e} (tol 1e-10)")


def test_criterion_08_rank_one_radius_formula():
    three = RepEnsemble(A1, [((0,), 1), ((1,), 1), ((2,), 1)])
    exact = killing_radius(three)
    err = abs(exact - 0.5)
    oracle = math.sqrt(su2_f_form_oracle([(0, 1), (1, 1), (2, 1)]))
    oracle_err = abs(oracle - 0.5)
    adjoint_sq = f_form(RepEnsemble.single(A1, A1.highest_root)).radius_sq_killing
    ok = err <= 1e-12 and oracle_err <= 1e-4 and adjoint_sq == Fraction(1, 3)
    report(
        8,
        ok,
        f"radius({{0,w,2w}}) err {err:.2e} (tol 1e-12); quadrature oracle err "
        f"{oracle_err:.2e} (tol 1e-4); adjoint radius^2 == 1/3 exactly: "
        f"{adjoint_sq == Fraction(1, 3)}",
    )


def test_criterion_09_two_route_count_equality():
    worst = 0.0
    cases = 0
    for k in range(1, 5):
        weights = [RepEnsemble.single(A1, (k,))]
        for a in range(5):
            for b in range(5):
                if (a or b) and a * a + b * b <= 16:
                    weights.append(RepEnsemble.single(A2, (a, b)))
        for ens in weights:
            lattice = float(groups.complex_count_reductive(ens, route="lattice"))
            calibrated = groups.complex_count_reductive(ens, route="calibrated")
            worst = max(worst, abs(lattice - calibrated) / lattice)
            cases += 1
    ok = worst <= 1e-9
    report(9, ok, f"two-route counts over {cases} ensembles, worst rel {worst:.2e} (tol 1e-9)")


def test_criterion_10_asymptotic_radius_convergence():
    limit = groups.asymptotic_radius(A1, 1)
    errs = {}
    for m in (4, 8, 16, 32):
        scaled = killing_radius(RepEnsemble.ball(A1, 1, m)) / m
        errs[m] = abs(scaled - limit)
    bounded = all(err * m <= 0.5 for m, err in errs.items())  # err = O(1/m)
    shrinking = errs[32] < errs[4]
    ok = bounded and shrinking and abs(limit - 1 / math.sqrt(5)) < 1e-15
    report(
        10,
        ok,
        "radius/m errors "
        + ", ".join(f"m={m}: {e:.4f}" for m, e in errs.items())
        + f"; err*m <= 0.5 and err(32) < err(4): {bounded and shrinking}",
    )


def test_criterion_11_normalization_invariance():
    via_killing = groups.limit_real_proportion_group(A1)
    via_unit = groups.limit_real_proportion_group(A1, metric=unit_volume_metric(A1))
    via_rescaled = groups.limit_real_proportion_group(A1, metric=Metric(A1, Fraction(7, 3)))
    spread = max(
        abs(via_killing.pipeline - via_unit.pipeline),
        abs(via_killing.pipeline - via_rescaled.pipeline),
    )
    trend = [
        abs(
            groups.real_proportion_group(RepEnsemble.ball(A1, 1, m)).proportion
            - via_killing.closed_form
        )
        for m in (2, 4, 8, 12)
    ]
    approaching = all(a > b for a, b in zip(trend, trend[1:]))
    ok = spread <= 1e-10 and approaching
    report(
        11,
        ok,
        f"limit spread across three normalizations {spread:.2e} (tol 1e-10); "
        f"finite-size errors {', '.join(f'{e:.4f}' for e in trend)} strictly decreasing",
    )


def test_criterion_12_property_suites():
    # mixed-volume symmetry and multilinearity (exact rational arithmetic)
    square = convex_hull([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    triangle = convex_hull([(0, 0), (2, 0), (0, 2)])
    segment = convex_hull([(0, 0), (1, 3)])
    sym = abs(
        mixed_volume_polytopes([square, triangle])
        - mixed_volume_polytopes([triangle, square])
    )
    lhs = mixed_volume_polytopes([minkowski_sum(square, segment.dilate(2)), triangle])
    rhs = mixed_volume_polytopes([square, triangle]) + 2 * mixed_volume_polytopes(
        [segment, triangle]
    )
    multilinear = abs(lhs - rhs)
    diagonal = abs(mixed_volume_polytopes([triangle, triangle]) - triangle.volume())

    # flattening invariance: multiplicities change nothing downstream
    heavy = RepEnsemble(A1, [((2,), 3), ((0,), 2)])
    flat = heavy.flatten()
    flat_radius = abs(killing_radius(heavy) - killing_radius(flat))
    flat_count = abs(
        float(groups.complex_count_reductive(heavy))
        - float(groups.complex_count_reductive(flat))
    )

    # product structure of the mean for rank one
    e1 = RepEnsemble.single(A1, (1,))
    e2 = RepEnsemble.single(A1, (2,))
    e3 = RepEnsemble(A1, [((0,), 1), ((2,), 1)])
    mixed = mean_real_count_group([e1, e2, e3])
    prod = (
        mean_real_count_group([e1] * 3)
        * mean_real_count_group([e2] * 3)
        * mean_real_count_group([e3] * 3)
    )
    hodge = abs(mixed**3 - prod) / prod

    # zeros equidistribute on the circle
    pvals = []
    for seed in (1, 2, 3):
        locs = montecarlo.circle_zero_locations(torus.segment_support(5), 300, seed=seed)
        pvals.append(equidistribution_check(locs)[1])

    ok = (
        sym == 0
        and multilinear == 0
        and diagonal == 0
        and flat_radius == 0.0
        and flat_count == 0.0
        and hodge <= 1e-9
        and min(pvals) > 0.001
    )
    report(
        12,
        ok,
        f"symmetry {float(sym):.1e}; multilinearity {float(multilinear):.1e}; "
        f"diagonal {float(diagonal):.1e}; "
        f"flattening radius/count diffs {flat_radius:.1e}/{flat_count:.1e}; "
        f"product-mean rel err {hodge:.2e} (tol 1e-9); "
        f"equidistribution p-values {', '.join(f'{p:.3f}' for p in pvals)} (> 0.001)",
    )
