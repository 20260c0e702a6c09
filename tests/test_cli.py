"""Command-line interface: parsing, report formats, exit codes."""

import json
import math
from fractions import Fraction

import pytest

from realroots import montecarlo
from realroots.cli import (
    NUMERICAL_ERROR,
    TOLERANCE_ERROR,
    USAGE_ERROR,
    Report,
    main,
    parse_spectrum,
    parse_support,
)
from realroots.rootsystems import root_system

A1 = root_system("A1")
A2 = root_system("A2")


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


# -- argument parsing -----------------------------------------------------------

def test_parse_support_shorthands():
    assert len(parse_support("segment:3").points) == 7
    assert parse_support("box:2:1").dim == 2
    assert len(parse_support("box:2:1").points) == 9
    assert len(parse_support("ball:2:1").points) == 5
    pts = parse_support("points:(0,0);(1,0);(-1,0)")
    assert pts.points == ((-1, 0), (0, 0), (1, 0))


@pytest.mark.parametrize("bad", ["segment:x", "box:2", "disk:1:1", "points:(a,b)"])
def test_parse_support_rejects_garbage(bad):
    with pytest.raises(SystemExit):
        parse_support(bad)


def test_asymmetric_support_is_usage_error(capsys):
    # parses fine as a point set; rejected when a real ensemble needs -S = S
    assert main(["torus", "--support", "points:(1,0)"]) == USAGE_ERROR


def test_parse_spectrum_shorthands():
    adj = parse_spectrum(A1, "adjoint")
    assert adj.weights == ((Fraction(2),),)
    assert parse_spectrum(A1, "trivial").weights == ((Fraction(0),),)
    assert parse_spectrum(A1, "weight:3").weights == ((Fraction(3),),)
    ball = parse_spectrum(A1, "ball:1:2")
    assert len(ball.weights) == 6  # dominant weights 0..5 after dilation by 2
    named = parse_spectrum(A2, "ball-spectrum:A2:1:1")
    assert named.weights == parse_spectrum(A2, "ball:1:1").weights


def test_parse_spectrum_rejects_mismatched_system():
    with pytest.raises(SystemExit):
        parse_spectrum(A1, "ball-spectrum:A2:1:1")
    with pytest.raises(SystemExit):
        parse_spectrum(A1, "weight:1,2")  # wrong rank
    with pytest.raises(SystemExit):
        parse_spectrum(A1, "weight:-1")  # not dominant


# -- torus subcommand ------------------------------------------------------------

def test_torus_segment_report(capsys):
    code, report = run_json(capsys, ["torus", "--support", "segment:5"])
    assert code == 0
    assert report["status"] == "ok"
    res = report["results"]
    # exact rationals are serialized as strings to avoid silent rounding
    assert Fraction(res["complex_count"]) == 10
    assert res["real_count"] == pytest.approx(2 * math.sqrt(10), rel=1e-12)
    assert res["proportion"] == pytest.approx(math.sqrt(6 / 15), rel=1e-12)


def test_torus_monte_carlo_attaches_z_score(capsys):
    code, report = run_json(
        capsys,
        ["torus", "--support", "segment:4", "--samples", "200", "--seed", "1"],
    )
    assert code == 0
    mc = report["results"]["monte_carlo"]
    assert mc["samples"] == 200
    assert abs(mc["z_score"]) < 5


@pytest.mark.parametrize("support", ["segment:4", "box:2:1"])
def test_torus_monte_carlo_reports_discarded_samples(capsys, support):
    argv = ["torus", "--support", support, "--samples", "20", "--seed", "1"]
    code, report = run_json(capsys, argv)
    assert code == 0
    mc = report["results"]["monte_carlo"]
    assert (mc["samples"], mc["discarded"]) == (20, 0)


def test_torus_monte_carlo_counts_discards_apart(capsys, monkeypatch):
    # without halving, a circle sample with an undecided grid cell is discarded
    monkeypatch.setattr(montecarlo, "_CIRCLE_ROUNDS", 0)
    argv = ["torus", "--support", "segment:4", "--samples", "40", "--seed", "1"]
    code, report = run_json(capsys, argv)
    assert code == 0
    mc = report["results"]["monte_carlo"]
    assert mc["discarded"] > 0 and mc["samples"] >= 2
    assert mc["samples"] + mc["discarded"] == 40


def test_torus_monte_carlo_with_every_sample_discarded_is_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "_BOX_LEVELS", 0)
    argv = ["torus", "--support", "box:2:1", "--samples", "5", "--seed", "1"]
    assert main(argv) == NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fewer than 2 kept" in captured.err


def test_torus_samples_require_seed(capsys):
    assert main(["torus", "--support", "segment:2", "--samples", "10"]) == USAGE_ERROR


@pytest.mark.parametrize("samples", ["0", "1"])
def test_torus_rejects_fewer_than_two_samples(capsys, samples):
    argv = ["torus", "--support", "segment:5", "--samples", samples, "--seed", "1"]
    assert main(argv) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples must be at least 2" in captured.err


@pytest.mark.parametrize("argv", [
    ["--support", "segment:3", "--samples", "3", "--seed", "-1"],
    ["--support", "box:2:1", "--method", "mc", "--seed", "-1"],
], ids=["counter", "mc-mean"])
def test_torus_negative_seed_is_a_usage_error_naming_the_flag(capsys, argv):
    # numpy read "expected non-negative integer", naming no flag
    assert main(["torus", *argv]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --seed must be a non-negative integer" in captured.err


def test_torus_z_score_is_null_without_spread(capsys):
    # a cos + b sin always has exactly two zeros, and the mean is exact
    code, report = run_json(
        capsys, ["torus", "--support", "points:(1);(-1)", "--samples", "5", "--seed", "1"]
    )
    assert code == 0
    mc = report["results"]["monte_carlo"]
    assert (mc["value"], mc["stderr"]) == (2.0, 0.0)
    assert mc["z_score"] is None


def test_json_report_rejects_non_finite_values():
    report = Report("torus", "f", {}, {"real_count": float("nan")})
    with pytest.raises(ArithmeticError):
        report.render("json")


NON_ROUND_3D = "points:(1,0,0);(-1,0,0);(0,2,0);(0,-2,0);(0,0,1);(0,0,-1);(0,0,0)"
# as many points as NON_ROUND_3D and as wide on every axis, so its ellipsoid
# contains the NON_ROUND_3D one
WIDER_3D = "points:(1,0,0);(-1,0,0);(0,2,0);(0,-2,0);(0,0,2);(0,0,-2);(0,0,0)"


def octahedron_mean(a: float, b: float, c: float) -> float:
    """3!/(2 pi)^3 vol(E) for the support {0, +-a e1, +-b e2, +-c e3}, whose
    ellipsoid has Q = (2 pi)^2 diag(2a^2, 2b^2, 2c^2) / 7."""
    return 8 * math.pi * math.sqrt(8 / 343) * a * b * c


@pytest.mark.parametrize("seed", [[], ["--seed", "3"]])
def test_torus_one_non_round_support_is_exact(capsys, seed):
    code, report = run_json(capsys, ["torus", "--support", NON_ROUND_3D, *seed])
    assert code == 0
    res = report["results"]
    assert (res["method"], res["real_stderr"], res["samples"]) == ("volume", 0.0, None)
    assert Fraction(res["complex_count"]) == 16
    # one ellipsoid n times: 3!/(2 pi)^3 * vol(E) = 8 pi sqrt(32) / 7^(3/2)
    exact = 8 * math.pi * math.sqrt(32) / 7 ** 1.5
    assert abs(res["real_count"] - exact) < 1e-12 * exact
    assert octahedron_mean(1, 2, 1) == pytest.approx(exact, rel=1e-12)


def test_torus_seed_reaches_the_monte_carlo_mean(capsys):
    argv = ["torus", "--support", NON_ROUND_3D, "--support", WIDER_3D, "--support", WIDER_3D,
            "--method", "mc"]
    code, report = run_json(capsys, [*argv, "--seed", "3"])
    assert code == 0
    assert report["status"] == "ok"
    res = report["results"]
    assert res["method"] == "mc" and res["real_stderr"] > 0
    # the mean's own sample count, apart from the counter's --samples
    assert res["samples"] == 100_000 and report["config"]["samples"] is None
    # mixed volumes are monotone: V(E1, E1, E1) <= V(E1, E2, E2) <= V(E2, E2, E2)
    low, high = octahedron_mean(1, 2, 1), octahedron_mean(1, 2, 2)
    assert low - 5 * res["real_stderr"] < res["real_count"] < high + 5 * res["real_stderr"]
    _, again = run_json(capsys, [*argv, "--seed", "3"])
    _, other = run_json(capsys, [*argv, "--seed", "4"])
    assert again["results"]["real_count"] == res["real_count"]
    assert other["results"]["real_count"] != res["real_count"]


def test_torus_mc_mean_without_seed_is_usage_error(capsys):
    argv = ["torus", "--support", NON_ROUND_3D, "--support", WIDER_3D, "--support", WIDER_3D,
            "--method", "mc"]
    assert main(argv) == USAGE_ERROR
    assert "mc method needs a seed" in capsys.readouterr().err


def test_torus_mixed_non_round_mean_needs_no_seed(capsys):
    argv = ["torus", "--support", NON_ROUND_3D, "--support", WIDER_3D, "--support", WIDER_3D]
    code, report = run_json(capsys, argv)
    assert code == 0
    res = report["results"]
    assert res["method"] == "sphere"
    assert abs(res["real_count"] - 13.12080754300) <= 1e-9
    assert res["real_stderr"] <= 1e-9
    assert octahedron_mean(1, 2, 1) < res["real_count"] < octahedron_mean(1, 2, 2)


def test_torus_removed_planar_method_is_usage_error(capsys):
    argv = ["torus", "--support", "points:(1,0);(-1,0);(0,2);(0,-2);(0,0)", "--method", "exact2d"]
    assert main(argv) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown method 'exact2d'" in captured.err


def test_torus_removed_segment_method_is_usage_error(capsys):
    argv = ["torus", "--support", "segment:3", "--method", "exact1d"]
    assert main(argv) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown method 'exact1d'" in captured.err


def test_torus_bad_support_is_usage_error(capsys):
    assert main(["torus", "--support", "segment:x"]) == USAGE_ERROR


def test_torus_mixed_supports(capsys):
    code, report = run_json(
        capsys, ["torus", "--support", "box:2:1", "--support", "box:2:2"]
    )
    assert code == 0
    assert Fraction(report["results"]["complex_count"]) == 16


# -- group subcommand -------------------------------------------------------------

def test_group_adjoint_both_routes(capsys):
    code, report = run_json(
        capsys, ["group", "--system", "A1", "--spectrum", "adjoint", "--route", "both"]
    )
    assert code == 0
    res = report["results"]
    assert Fraction(res["complex_exact"]) == 16
    assert res["route_difference"] < 1e-9
    assert res["killing_radii"][0] == pytest.approx(1 / math.sqrt(3), rel=1e-12)


def test_group_metric_scale_leaves_counts_alone(capsys):
    _, plain = run_json(capsys, ["group", "--system", "A2", "--spectrum", "adjoint"])
    _, scaled = run_json(
        capsys,
        ["group", "--system", "A2", "--spectrum", "adjoint", "--metric-scale", "7/3"],
    )
    assert Fraction(plain["results"]["complex_exact"]) == 5562
    assert plain["results"]["complex_exact"] == scaled["results"]["complex_exact"]
    assert plain["results"]["real_count"] == pytest.approx(
        scaled["results"]["real_count"], rel=1e-12
    )


def test_group_requires_known_system(capsys):
    assert main(["group", "--system", "E9", "--spectrum", "adjoint"]) == USAGE_ERROR


def test_group_rejects_foreign_ball_spectrum(capsys):
    code = main(["group", "--system", "A1", "--spectrum", "ball-spectrum:A2:1:1"])
    assert code == USAGE_ERROR


@pytest.mark.parametrize("system,spectrum", [("A2", "weight:1,0"), ("A3", "weight:1,0,0")])
def test_group_rejects_spectrum_not_closed_under_duality(capsys, system, spectrum):
    assert main(["group", "--system", system, "--spectrum", spectrum]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "closed under duality" in captured.err


# -- verify subcommand ---------------------------------------------------------------

def test_verify_passes_at_default_tolerance(capsys):
    code, report = run_json(capsys, ["verify"])
    assert code == 0
    assert report["status"] == "ok"
    assert report["results"]["failures"] == []
    assert all(err <= 1e-9 for err in report["results"]["checks"].values())
    assert {f"limit-identity-{name}" for name in ("A1", "A2", "B2", "G2")} <= set(
        report["results"]["checks"]
    )


def test_verify_flags_tolerance_failures(capsys):
    code, report = run_json(capsys, ["verify", "--tolerance", "1e-300"])
    assert code == TOLERANCE_ERROR
    assert report["status"] == "tolerance-failure"
    assert report["results"]["failures"]


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5", "-1e-9", "-inf"])
def test_verify_rejects_a_non_finite_or_negative_tolerance(capsys, tolerance):
    # no error is <= nan, so every check used to fail as a numerical failure;
    # "-1e-9" and "-inf" used to stop in argparse at "expected one argument"
    assert main(["verify", "--tolerance", tolerance]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --tolerance must be finite and non-negative" in captured.err


# -- report formats ------------------------------------------------------------------

def test_missing_subcommand_is_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == USAGE_ERROR


def test_csv_and_md_render(capsys):
    assert main(["torus", "--support", "segment:2", "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert "complex_count" in csv_text and "," in csv_text
    assert main(["torus", "--support", "segment:2", "--format", "md"]) == 0
    md_text = capsys.readouterr().out
    assert md_text.count("|") >= 6


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "verify"


def test_out_to_a_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["torus", "--support", "segment:3", "--out", str(target)])
    assert code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {target}" in captured.err
    assert not target.parent.exists()


def test_exit_code_constants_are_distinct():
    assert len({USAGE_ERROR, TOLERANCE_ERROR, NUMERICAL_ERROR, 0}) == 4
