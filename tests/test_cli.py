"""Command-line interface: parsing, report formats, exit codes."""

import json
import math
from fractions import Fraction

import pytest

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


def test_torus_samples_require_seed(capsys):
    assert main(["torus", "--support", "segment:2", "--samples", "10"]) == USAGE_ERROR


@pytest.mark.parametrize("samples", ["0", "1"])
def test_torus_rejects_fewer_than_two_samples(capsys, samples):
    argv = ["torus", "--support", "segment:5", "--samples", samples, "--seed", "1"]
    assert main(argv) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples must be at least 2" in captured.err


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


def test_torus_seed_reaches_the_monte_carlo_mean(capsys):
    code, report = run_json(capsys, ["torus", "--support", NON_ROUND_3D, "--seed", "3"])
    assert code == 0
    assert report["status"] == "ok"
    res = report["results"]
    assert res["method"] == "mc"
    assert Fraction(res["complex_count"]) == 16
    # one ellipsoid n times: 3!/(2 pi)^3 * vol(E) = 8 pi sqrt(32) / 7^(3/2)
    exact = 8 * math.pi * math.sqrt(32) / 7 ** 1.5
    assert abs(res["real_count"] - exact) < 5 * res["real_stderr"]


def test_torus_mc_mean_without_seed_is_usage_error(capsys):
    assert main(["torus", "--support", NON_ROUND_3D]) == USAGE_ERROR
    assert "mc method needs a seed" in capsys.readouterr().err


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


# -- verify subcommand ---------------------------------------------------------------

def test_verify_passes_at_default_tolerance(capsys):
    code, report = run_json(capsys, ["verify"])
    assert code == 0
    assert report["status"] == "ok"
    assert report["results"]["failures"] == []
    assert all(err <= 1e-9 for err in report["results"]["checks"].values())


def test_verify_flags_tolerance_failures(capsys):
    code, report = run_json(capsys, ["verify", "--tolerance", "1e-300"])
    assert code == TOLERANCE_ERROR
    assert report["status"] == "tolerance-failure"
    assert report["results"]["failures"]


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


def test_exit_code_constants_are_distinct():
    assert len({USAGE_ERROR, TOLERANCE_ERROR, NUMERICAL_ERROR, 0}) == 4
