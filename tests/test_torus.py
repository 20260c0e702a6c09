"""Torus ensembles: closed-form constants, Newton bodies, and count formulas."""

import dataclasses
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import realroots
from package_caches import clear_package_caches, package_caches

from realroots import cli
from realroots.exactalg import _sqrt_pi_power
from realroots.torus import (
    Support,
    _beta_sq,
    ball_support,
    box_support,
    complex_count_torus,
    kac_limit,
    mean_real_count_torus,
    newton_ellipsoid_torus,
    newton_polytope,
    real_proportion_torus,
    segment_proportion,
    segment_support,
)

# frozen closed forms for the derivative-moment constants, n = 1..10
BETA_TABLE = [
    2 / 3,
    math.pi / 8,
    4 / 15,
    math.pi / 16,
    16 / 105,
    5 * math.pi / 128,
    32 / 315,
    7 * math.pi / 256,
    256 / 3465,
    21 * math.pi / 1024,
]


def beta(n):
    """B(3/2, (n+1)/2) as the kac_limit reads it, from its exact square."""
    return _sqrt_pi_power(*_beta_sq(n))


def test_beta_table():
    for n, want in enumerate(BETA_TABLE, start=1):
        assert beta(n) == pytest.approx(want, abs=1e-14)


def test_kac_limit_closed_form():
    for n in range(1, 11):
        assert kac_limit(n) == pytest.approx((n + 2) ** (-n / 2), abs=1e-14)
    assert kac_limit(2) == pytest.approx(0.25, abs=1e-14)


def test_kac_limit_is_positive_or_names_the_underflow():
    # the power underflowed to a silent 0.0 from n = 270 on
    for n in (100, 253, 255):
        assert kac_limit(n) == pytest.approx((n + 2) ** (-n / 2), rel=1e-12)
        assert kac_limit(n) > 0
    for n in (256, 270, 1000):
        with pytest.raises(ArithmeticError, match="underflows a double"):
            kac_limit(n)


def test_beta_constant_past_the_gamma_overflow():
    # math.gamma((n + 1) / 2) overflows from n = 343 on; B(3/2, (n+1)/2)
    # decays like (sqrt(pi) / 2) (n / 2)^(-3/2)
    n = 2001
    assert beta(n) == pytest.approx(
        math.exp(math.lgamma(1.5) + math.lgamma((n + 1) / 2) - math.lgamma(n / 2 + 2)), rel=1e-12)


def test_segment_proportion_closed_form():
    for m in range(1, 101):
        assert segment_proportion(m) == pytest.approx(
            math.sqrt((m + 1) / (3 * m)), abs=1e-14
        )
    assert segment_proportion(1000) == pytest.approx(1 / math.sqrt(3), abs=1e-3)


# -- supports -----------------------------------------------------------------

def test_support_construction_dedupes_and_sorts():
    s = Support([(1,), (0,), (-1,), (1,)])
    assert s.points == ((-1,), (0,), (1,))
    # integral coordinates of any number type are the same lattice points
    assert Support([(1.0,), (Fraction(0),), (np.int64(-1),)]) == s
    assert s.dim == 1
    assert len(s) == 3


@pytest.mark.parametrize("points,bad", [
    ([(0.5, 0), (-0.5, 0)], "(0.5, 0)"),
    ([(1.5,), (-1.5,), (0,)], "(1.5)"),
    ([(Fraction(1, 2),), (0,)], "(1/2)"),
    ([(float("nan"), 0)], "(nan, 0)"),
])
def test_support_rejects_a_non_integral_frequency(points, bad):
    # refused, not truncated to a nearby lattice point
    with pytest.raises(ValueError, match=re.escape(f"frequency {bad} is not a lattice point")):
        Support(points)


def test_support_factories():
    assert len(segment_support(2)) == 5
    assert len(box_support(2, 1)) == 9
    assert len(ball_support(2, 2)) == 13  # lattice points in the radius-2 disc
    assert box_support(3, 1).dim == 3


def test_central_symmetry_enforcement():
    assert box_support(2, 1).is_centrally_symmetric()
    asym = Support([(1, 0), (0, 1)])
    assert not asym.is_centrally_symmetric()
    with pytest.raises(ValueError):
        asym.require_symmetric()


def test_newton_polytope_of_box_support():
    p = newton_polytope(box_support(2, 1))
    assert p.volume() == 4
    assert len(p.vertices) == 4


def test_newton_ellipsoid_of_box_is_round():
    e = newton_ellipsoid_torus(box_support(2, 1))
    r = e.ball_radius()
    assert r is not None
    # second-moment normalization: Q = (8 pi^2 / 3) * I
    assert r * r == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-12)


# -- counts -------------------------------------------------------------------

def test_segment_counts_are_kac_exact():
    for m in (1, 2, 5, 12):
        mean = mean_real_count_torus(segment_support(m))
        assert mean.method == "balls"
        assert mean.value == pytest.approx(2 * math.sqrt(m * (m + 1) / 3), rel=1e-13)
        assert complex_count_torus(segment_support(m)) == 2 * m


def test_box_ensemble_matches_closed_forms():
    b = box_support(2, 1)
    mean = mean_real_count_torus(b)
    assert mean.method == "balls"
    assert mean.value == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert complex_count_torus(b) == 8


def test_mixed_supports_complex_count():
    small = box_support(2, 1)
    large = box_support(2, 2)
    # mixed volume of the squares [-1,1]^2 and [-2,2]^2 is 8
    assert complex_count_torus([small, large]) == 16


def test_real_proportion_pipeline_consistency(capsys):
    seg = segment_support(5)
    res = real_proportion_torus(seg)
    assert res.method == "balls"
    assert res.real_stderr == 0.0
    assert res.complex_count == 10
    assert res.proportion == pytest.approx(segment_proportion(5), rel=1e-13)
    d = dataclasses.asdict(res)
    assert list(d) == ["real_count", "real_stderr", "complex_count", "proportion", "method", "samples"]
    assert res.samples is None and d["samples"] is None
    # the CLI report carries the exact count as its exact string
    assert cli.main(["torus", "--support", "segment:5"]) == 0
    report = json.loads(capsys.readouterr().out)["results"]
    assert list(report) == list(d)
    assert (report["complex_count"], report["method"], report["samples"]) == ("10", "balls", None)


def test_real_proportion_reports_the_monte_carlo_sample_count():
    sups = [box_support(3, 1), ball_support(3, 1), ball_support(3, 1)]
    res = real_proportion_torus(sups, method="mc", seed=3)
    assert (res.method, res.samples, dataclasses.asdict(res)["samples"]) == ("mc", 2**15, 2**15)
    assert res.real_stderr > 0


def test_box_proportion_value():
    res = real_proportion_torus(box_support(2, 1))
    assert res.proportion == pytest.approx(math.pi / 6, rel=1e-12)


def test_three_dimensional_box_counts():
    b = box_support(3, 1)
    assert complex_count_torus(b) == 48  # 3! * vol([-1,1]^3)
    mean = mean_real_count_torus(b)
    # Q = (8 pi^2/3) I in three variables as well
    want = math.factorial(3) / (2 * math.pi) ** 3 * (4 * math.pi / 3) * (
        8 * math.pi ** 2 / 3
    ) ** 1.5
    assert mean.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "supports,hulls,count",
    [(box_support(3, 1), 1, 48), ([box_support(3, 1), ball_support(3, 1), ball_support(3, 1)], 2, 24)],
    ids=["box:3:1", "box:3:1+ball:3:1+ball:3:1"],
)
def test_complex_count_builds_one_hull_per_distinct_support(monkeypatch, supports, hulls, count):
    import realroots.torus as tor

    built = []

    def counted(support):
        built.append(support)
        return newton_polytope(support)

    monkeypatch.setattr(tor, "newton_polytope", counted)
    assert complex_count_torus(supports) == count
    assert len(built) == hulls


# a non-round support in R^3: its ellipsoid is diag(1, 4, 1) times (2 pi)^2 2/7
OVAL3 = Support([(1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0)])


@pytest.mark.parametrize("seed", [-1, "x", 2.5, True])
@pytest.mark.parametrize("method", ["auto", "mc"])
def test_a_seed_is_checked_under_every_method(method, seed):
    # neither method draws on box:2:1, yet the seed it is given must still be
    # a non-negative integer: auto takes the ball's closed form, and mc in
    # the plane returns the closed mixed area
    support = box_support(2, 1)
    assert real_proportion_torus(support, method=method, seed=7).method in (method, "balls")
    with pytest.raises(ValueError, match=re.escape(f"for the seed, got {seed!r}")):
        real_proportion_torus(support, method=method, seed=seed)
    with pytest.raises(ValueError, match=re.escape(f"for the seed, got {seed!r}")):
        real_proportion_torus(segment_support(3), method="auto", seed=seed)


@pytest.mark.parametrize("method", ["balls", "volume", "sphere"])
def test_a_forced_closed_form_is_an_unknown_method(method):
    # box:2:1 is a ball, so each rule's own condition holds: only its name
    # is refused (auto reports it in the result's method)
    support = box_support(2, 1)
    message = re.escape(f"unknown method {method!r}; use auto or mc")
    for entry in (mean_real_count_torus, real_proportion_torus):
        with pytest.raises(ValueError, match=message):
            entry(support, method=method)


@pytest.mark.parametrize(
    "supports,distinct",
    [([OVAL3] * 3, 1), ([box_support(3, 1), ball_support(3, 1), ball_support(3, 1)], 2)],
    ids=["oval3x3", "box:3:1+ball:3:1+ball:3:1"],
)
@pytest.mark.parametrize("method", ["auto", "mc"])
def test_mean_builds_one_ellipsoid_per_distinct_support(monkeypatch, supports, distinct, method):
    import realroots.torus as tor
    from realroots.convex import mixed_volume_ellipsoids

    kwargs = {"method": method, "seed": 5}
    # one ellipsoid per copy, as the mean was assembled before
    mv = mixed_volume_ellipsoids([newton_ellipsoid_torus(s) for s in supports], **kwargs)
    factor = math.factorial(3) / (2 * math.pi) ** 3
    built, checked = [], []
    require = Support.require_symmetric

    def counted_ellipsoid(support):
        built.append(support)
        return newton_ellipsoid_torus(support)

    def counted_check(support):
        checked.append(support)
        return require(support)

    monkeypatch.setattr(tor, "newton_ellipsoid_torus", counted_ellipsoid)
    monkeypatch.setattr(Support, "require_symmetric", counted_check)
    got = mean_real_count_torus(supports, **kwargs)
    assert len(built) == len(checked) == distinct
    assert set(built) == set(checked) == set(supports)
    assert (got.value, got.stderr, got.method, got.samples) == (
        factor * mv.value, factor * mv.stderr, mv.method, mv.samples)


def test_newton_polytopes_are_hulled_once_per_support_per_process(monkeypatch):
    # the box of the one-support system is the box of the mixed one; cleared
    # by the rule the bench applies before each pass, the cache hulls again
    import realroots.torus as tor

    clear_package_caches()
    hulled = []

    def counted(points):
        hulled.append(points)
        return realroots.convex_hull(points)

    monkeypatch.setattr(tor, "convex_hull", counted)
    box, ball = box_support(3, 1), ball_support(3, 1)
    assert complex_count_torus(box) == 48
    assert complex_count_torus([box, ball, ball]) == 24
    assert newton_polytope(Support(box.points)) is newton_polytope(box)
    assert hulled == [box.points, ball.points]
    assert tor.newton_polytope in package_caches()
    clear_package_caches()
    assert complex_count_torus(box) == 48 and len(hulled) == 3


def test_support_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        complex_count_torus([segment_support(1), box_support(2, 1)])


def test_planar_sphere_mean_does_not_import_scipy_special():
    code = (
        "import sys\n"
        "from realroots.torus import Support, box_support, mean_real_count_torus\n"
        "oval = Support([(0, 0), (1, 0), (-1, 0), (0, 2), (0, -2), (1, 1), (-1, -1)])\n"
        "assert mean_real_count_torus([oval, box_support(2, 1)]).method == 'sphere'\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'\n"
    )
    src = str(Path(realroots.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
