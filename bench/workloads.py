"""Workload inputs, job lists and output checks for the realroots benchmark.

`build(name, seed, rr)` turns a workload name and a seed into a list of
jobs.  Everything random is drawn here from the seed; the package only
receives the generated supports, ensembles and seeds.  A job's `run` calls
the public API (or `realroots.cli.main`) through attribute lookups on the
package at call time, so the tracer's wrappers are seen when installed.

Every job carries a check that raises `CheckFailed` when the output is wrong.
Reference values are either closed forms computed here, independent
computations (scipy hulls), or exact values pinned from the commit the
benchmark was defined on.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import numpy as np

REL_TOL = 1e-9
MC_SIGMAS = 5.0
# Below this many kept samples the standard error is itself unreliable (three
# samples can agree exactly), so only finiteness is checked.
MC_MIN_SAMPLES = 10


class CheckFailed(Exception):
    """A job returned, but its output is wrong or inadmissible."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # "circle" / "torus2": the job's result is a MonteCarloStats whose samples
    # feed the samples-per-second figures.
    counter: str | None = None
    # Probes track known admissibility defects; their outcome is reported on
    # its own and is not part of the failed/attempted counts.
    probe: bool = False


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


@dataclass
class Workload:
    jobs: list[Job] = field(default_factory=list)
    # generated inputs worth recording next to the results
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * max(abs(want), 1e-300)


def check_exact(got, want: int | Fraction) -> None:
    _require(isinstance(got, Fraction), f"expected an exact Fraction, got {type(got).__name__}")
    _require(got == want, f"exact value {got} != {want}")


def check_admissible(real: float, complex_count: float) -> None:
    _require(math.isfinite(real) and math.isfinite(complex_count), "non-finite count")
    _require(real <= complex_count, f"real count {real} exceeds complex count {complex_count}")


def check_mc_mean(stats, mean: float) -> None:
    _require(stats.samples >= 2 and math.isfinite(stats.value), "too few kept samples")
    _require(math.isfinite(stats.stderr) and stats.stderr >= 0, f"bad stderr {stats.stderr}")
    if stats.samples < MC_MIN_SAMPLES:
        return
    _require(
        abs(stats.value - mean) <= MC_SIGMAS * stats.stderr,
        f"Monte Carlo mean {stats.value:.4f} +- {stats.stderr:.4f} is more than "
        f"{MC_SIGMAS} standard errors from {mean:.4f}",
    )


def strict_json(text: str) -> dict:
    """Parse JSON, rejecting NaN and infinities."""

    def reject(token: str):
        raise CheckFailed(f"non-standard JSON constant {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def run_cli(rr, argv: list[str]) -> CliOutput:
    """Run `realroots.cli.main` in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = rr.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutput(code, out.getvalue(), err.getvalue())


def check_cli_ok(out: CliOutput) -> dict:
    _require(out.code == 0, f"exit {out.code}: {out.stderr.strip()}")
    report = strict_json(out.stdout)
    _require(report.get("status") == "ok", f"status {report.get('status')!r}")
    return report


def check_admissible_report(out: CliOutput) -> None:
    """Probe rule: exit 0 with an admissible strict-JSON report, or the
    documented usage exit 2 with a message."""
    if out.code == 2:
        _require(bool(out.stderr.strip()), "usage exit without a message")
        return
    res = check_cli_ok(out)["results"]
    check_admissible(float(res["real_count"]), float(res["complex_count"]))
    mc = res.get("monte_carlo")
    if mc is not None:
        _require(mc["samples"] >= 2, f"Monte Carlo report from {mc['samples']} sample(s)")


# ---------------------------------------------------------------------------
# closed forms computed independently of the package
# ---------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def derivative_covariance(points) -> np.ndarray:
    pts = np.array(points, dtype=float)
    return (2 * math.pi) ** 2 / len(pts) * (pts.T @ pts)


def mean_real_identical(points) -> float:
    """Expected real zero count of n copies of one ensemble: n!/(2 pi)^n
    times the volume of its second-moment ellipsoid."""
    q = derivative_covariance(points)
    n = q.shape[0]
    vol = unit_ball_volume(n) * math.sqrt(np.linalg.det(q))
    return math.factorial(n) / (2 * math.pi) ** n * vol


def mean_real_balls(point_sets) -> float:
    """Same for n ensembles whose ellipsoids are all balls: the mixed volume
    is the ball volume times the product of radii."""
    n = len(point_sets)
    radii = []
    for pts in point_sets:
        q = derivative_covariance(pts)
        _require(np.allclose(q, q[0, 0] * np.eye(n)), "support is not round")
        radii.append(math.sqrt(q[0, 0]))
    return math.factorial(n) / (2 * math.pi) ** n * unit_ball_volume(n) * math.prod(radii)


def segment_real(m: int) -> float:
    return 2 * math.sqrt(m * (m + 1) / 3)


def box2_real(m: int) -> float:
    """Expected common zeros of two box:2:m ensembles, 2 pi m(m+1)/3."""
    return 2 * math.pi * m * (m + 1) / 3


# ---------------------------------------------------------------------------
# torus jobs
# ---------------------------------------------------------------------------

def random_support_3d(rng: np.random.Generator, pairs: int = 9, vertices: int = 10):
    """Centrally symmetric support in [-2,2]^3: the origin plus `pairs` random
    +-p pairs, redrawn until its hull is simplicial with exactly `vertices`
    vertices (so 2 * vertices - 4 triangular facets).

    The exact hull's cost grows steeply with the vertex count (about 2 s
    for 8 vertices and 13 s for 14 on a 2-core Xeon VM) and, at a fixed
    count, with coplanar boundary points (10 vertices: 2.4-3.3 s with 16
    facets, 3.7-4.7 s with 10), so fixing both keeps the work per seed
    comparable.  Returns the points and scipy's float volume of their hull,
    the independent check of 3!*vol.
    """
    from scipy.spatial import ConvexHull

    while True:
        half: set[tuple[int, ...]] = set()
        while len(half) < pairs:
            p = tuple(int(c) for c in rng.integers(-2, 3, size=3))
            if any(p) and tuple(-c for c in p) not in half:
                half.add(p)
        pts = sorted(half | {tuple(-c for c in p) for p in half} | {(0, 0, 0)})
        arr = np.array(pts, dtype=float)
        if np.linalg.matrix_rank(arr) < 3:
            continue
        hull = ConvexHull(arr)
        facets = len(np.unique(np.round(hull.equations, 9), axis=0))
        if len(hull.vertices) == vertices and facets == 2 * vertices - 4:
            return pts, float(hull.volume)


def torus_job(rr, name, supports, complex_want, real_want, **kwargs) -> Job:
    """`real_proportion_torus` with an exact complex check and an analytic
    real check (within MC_SIGMAS standard errors when the mean is sampled)."""

    def check(res) -> None:
        if isinstance(complex_want, float):  # a scipy volume, not a pinned value
            _require(close(float(res.complex_count), complex_want),
                     f"complex count {res.complex_count} != {complex_want} (scipy hull)")
            _require(res.complex_count.denominator == 1, "complex count is not an integer")
        else:
            check_exact(res.complex_count, complex_want)
        check_admissible(res.real_count, float(res.complex_count))
        if res.real_stderr > 0:
            _require(abs(res.real_count - real_want) <= MC_SIGMAS * res.real_stderr,
                     f"sampled mean {res.real_count} +- {res.real_stderr} vs {real_want}")
        else:
            _require(close(res.real_count, real_want, 1e-8),
                     f"real count {res.real_count} != {real_want}")

    return Job(name, lambda: rr.real_proportion_torus(supports, **kwargs), check)


def build_torus_exact(rr, seed: int, w: Workload) -> None:
    rng = np.random.default_rng(seed)
    box31 = rr.box_support(3, 1)
    ball31 = rr.ball_support(3, 1)
    w.jobs.append(torus_job(rr, "box:3:1", box31, 48, mean_real_identical(box31.points)))
    w.jobs.append(torus_job(
        rr, "box:3:1+ball:3:1+ball:3:1", [box31, ball31, ball31], 24,
        mean_real_balls([box31.points, ball31.points, ball31.points])))
    for k in range(2):
        pts, vol = random_support_3d(rng)
        w.inputs[f"random3d-{k}"] = pts
        w.jobs.append(torus_job(
            rr, f"random3d-{k}", rr.Support(pts), 6.0 * vol, mean_real_identical(pts),
            method="mc", seed=int(rng.integers(2**31))))
    for text, want in (("box:2:5", 200), ("ball:2:8", 372)):
        sup = rr.cli.parse_support(text)
        w.jobs.append(torus_job(rr, text, sup, want, mean_real_identical(sup.points)))
    seg = rr.segment_support(20)
    w.jobs.append(torus_job(rr, "segment:20", seg, 40, segment_real(20)))
    # not a ball, so the mean takes the planar exact2d quadrature
    oval = rr.Support([(0, 0), (1, 0), (-1, 0), (0, 2), (0, -2), (1, 1), (-1, -1)])
    w.jobs.append(torus_job(rr, "oval2d", oval, 10, mean_real_identical(oval.points)))


# ---------------------------------------------------------------------------
# group jobs
# ---------------------------------------------------------------------------

# Exact lattice-route counts pinned from the commit the benchmark was
# defined on (the tests pin A1, A2, B2 and G2).
GROUP_COUNTS = {
    "A1": 16,
    "A2": 5562,
    "A3": 15933760,
    "B2": 24576,
    "C3": 3657433088,
    "G2": 10576332,
}
A2_BALL_1_4 = 33360155286


def group_jobs(rr, label, ensembles, want, routes=("lattice", "calibrated")) -> list[Job]:
    jobs = []
    if "lattice" in routes:
        def check_lattice(res) -> None:
            check_exact(res.complex_exact, want)
            check_admissible(res.real_count, res.complex_count)
        jobs.append(Job(f"{label}/lattice",
                        lambda: rr.real_proportion_group(ensembles, route="lattice"),
                        check_lattice))
    if "calibrated" in routes:
        def check_calibrated(value) -> None:
            _require(close(float(value), float(want)),
                     f"calibrated {value} disagrees with lattice {want}")
        jobs.append(Job(f"{label}/calibrated",
                        lambda: rr.complex_count_reductive(ensembles, route="calibrated"),
                        check_calibrated))
    return jobs


def limit_job(rr, name: str) -> Job:
    def check(cmp) -> None:
        _require(close(cmp.identity_factor, 1.0), f"identity factor {cmp.identity_factor}")
        _require(close(cmp.pipeline, cmp.closed_form), "pipeline != closed form")
    return Job(f"limit:{name}",
               lambda: rr.limit_real_proportion_group(rr.root_system(name)), check)


def cli_group_job(rr, system: str) -> Job:
    argv = ["group", "--system", system, "--spectrum", "adjoint", "--route", "both"]

    def check(out: CliOutput) -> None:
        res = check_cli_ok(out)["results"]
        _require(res["complex_exact"] == str(GROUP_COUNTS[system]),
                 f"complex_exact {res['complex_exact']}")
        _require(close(res["complex_count_calibrated"], GROUP_COUNTS[system]),
                 "routes disagree")
        check_admissible(res["real_count"], res["complex_count"])

    return Job(f"cli:group {system} adjoint both", lambda: run_cli(rr, argv), check)


def cli_verify_job(rr) -> Job:
    def check(out: CliOutput) -> None:
        res = check_cli_ok(out)["results"]
        _require(not res["failures"], f"verify failures {res['failures']}")
    return Job("cli:verify", lambda: run_cli(rr, ["verify"]), check)


def adjoint(rr, name: str):
    rs = rr.root_system(name)
    return rr.RepEnsemble.single(rs, rs.highest_root)


def build_group_exact(rr, seed: int, w: Workload) -> None:
    rng = np.random.default_rng(seed)
    w.jobs += group_jobs(rr, "A3:adjoint", adjoint(rr, "A3"), GROUP_COUNTS["A3"])
    w.jobs += group_jobs(rr, "C3:adjoint", adjoint(rr, "C3"), GROUP_COUNTS["C3"],
                         routes=("lattice",))
    # a copies of the adjoint and 8-a of weight (2,2) = 2 * highest root: the
    # count is homogeneous of degree dim A2 = 8 in each body, so it is
    # 5562 * 2^(8-a).
    a = int(rng.integers(1, 8))
    w.inputs["a2_adjoint_copies"] = a
    a2 = rr.root_system("A2")
    system = [adjoint(rr, "A2")] * a + [rr.RepEnsemble.single(a2, (2, 2))] * (8 - a)
    w.jobs += group_jobs(rr, f"A2:adjoint^{a}+(2,2)^{8 - a}", system,
                         GROUP_COUNTS["A2"] * 2 ** (8 - a))
    for name in ("B2", "G2"):
        w.jobs += group_jobs(rr, f"{name}:adjoint", adjoint(rr, name), GROUP_COUNTS[name])
    w.jobs += group_jobs(rr, "A2:ball:1:4", rr.RepEnsemble.ball(a2, 1, 4), A2_BALL_1_4,
                         routes=("lattice",))
    w.jobs += [limit_job(rr, "A2"), limit_job(rr, "B2")]
    w.jobs += [cli_group_job(rr, "A2"), cli_verify_job(rr)]
    # complex-type spectrum not closed under duality (ROADMAP item 4)
    argv = ["group", "--system", "A2", "--spectrum", "weight:1,0"]
    w.jobs.append(Job("probe:group A2 weight:1,0", lambda: run_cli(rr, argv),
                      check_admissible_report, probe=True))


# ---------------------------------------------------------------------------
# Monte Carlo jobs
# ---------------------------------------------------------------------------

def circle_job(rr, m: int, samples: int, seed: int) -> Job:
    sup = rr.segment_support(m)
    return Job(f"circle:segment:{m}x{samples}",
               lambda: rr.count_zeros_circle(sup, samples, seed),
               lambda stats: check_mc_mean(stats, segment_real(m)), counter="circle")


def torus2_job(rr, m: int, samples: int, seed: int) -> Job:
    sup = rr.box_support(2, m)
    return Job(f"torus2:box:2:{m}x{samples}",
               lambda: rr.count_common_zeros_torus2(sup, samples, seed),
               lambda stats: check_mc_mean(stats, box2_real(m)), counter="torus2")


def cli_torus_mc_job(rr, m: int, samples: int, seed: int) -> Job:
    argv = ["torus", "--support", f"box:2:{m}", "--samples", str(samples), "--seed", str(seed)]

    def check(out: CliOutput) -> None:
        res = check_cli_ok(out)["results"]
        _require(res["complex_count"] == str(2 * (2 * m) ** 2), f"complex {res['complex_count']}")
        _require(close(res["real_count"], box2_real(m)), f"real {res['real_count']}")
        check_admissible(res["real_count"], float(res["complex_count"]))
        check_mc_mean(SimpleNamespace(**res["monte_carlo"]), box2_real(m))

    return Job(f"cli:torus box:2:{m} --samples {samples}", lambda: run_cli(rr, argv), check)


def probe_torus_one_sample(rr, seed: int) -> Job:
    argv = ["torus", "--support", "segment:5", "--samples", "1", "--seed", str(seed)]
    return Job("probe:torus segment:5 --samples 1", lambda: run_cli(rr, argv),
               check_admissible_report, probe=True)


# The box:2:2 planar counter's per-sample cost is heavy-tailed: over 120
# samples the median was 0.3 s and 26 MB, the 95th percentile 1.7 s and
# 161 MB, and the worst 17 s and 3.2 GB.  With 12 seeded samples, one hard
# sample would set a third of `wall_s` and all of `peak_rss_mb`, so this job
# always draws the same samples (package seed 0) and commits are compared on
# the same inputs.  The other counters vary with the workload seed.
BOX22_SEED = 0


def build_montecarlo(rr, seed: int, w: Workload) -> None:
    s = [int(x) for x in np.random.SeedSequence(seed).generate_state(5)]
    w.jobs += [
        circle_job(rr, 20, 128, s[0]),
        circle_job(rr, 5, 1000, s[1]),
        torus2_job(rr, 2, 12, BOX22_SEED),
        torus2_job(rr, 1, 40, s[2]),
        cli_torus_mc_job(rr, 1, 20, s[3]),
        probe_torus_one_sample(rr, s[4]),
    ]


def build_smoke(rr, seed: int, w: Workload) -> None:
    s = [int(x) for x in np.random.SeedSequence(seed).generate_state(4)]
    seg3 = rr.segment_support(3)
    w.jobs += [
        torus_job(rr, "segment:3", seg3, 6, segment_real(3)),
        *group_jobs(rr, "A1:adjoint", adjoint(rr, "A1"), GROUP_COUNTS["A1"]),
        limit_job(rr, "A1"),
        cli_group_job(rr, "A1"),
        circle_job(rr, 3, 16, s[0]),
        torus2_job(rr, 1, 3, s[1]),
        cli_torus_mc_job(rr, 1, 3, s[2]),
        probe_torus_one_sample(rr, s[3]),
    ]


WORKLOADS = {
    "torus-exact": build_torus_exact,
    "group-exact": build_group_exact,
    "montecarlo": build_montecarlo,
    # tiny inputs through every kind of job, for the harness self-test
    "smoke": build_smoke,
}


def build(name: str, seed: int, rr) -> Workload:
    w = Workload()
    WORKLOADS[name](rr, seed, w)
    return w
