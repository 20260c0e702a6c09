"""Command-line interface: parsing, report formats, exit codes."""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from realroots import montecarlo, torus
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


def test_parse_spectrum_rejects_mismatched_system():
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


def test_a_linear_algebra_failure_is_numerical_failure(capsys, monkeypatch):
    # LinAlgError subclasses ValueError, so the usage clause caught it first:
    # "error: ..." and exit 2
    def singular(support):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(torus, "newton_ellipsoid_torus", singular)
    assert main(["torus", "--support", "box:2:1"]) == NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: eigenvalues did not converge\n"


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


@pytest.mark.parametrize("scale", ["1/0", "x"])
def test_group_unreadable_metric_scale_is_a_usage_error_naming_the_flag(capsys, scale):
    # 1/0 used to leave Fraction's ZeroDivisionError to the numerical-failure exit
    argv = ["group", "--system", "A2", "--spectrum", "adjoint", "--metric-scale", scale]
    assert main(argv) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: bad --metric-scale {scale!r}" in captured.err


def test_group_requires_known_system(capsys):
    assert main(["group", "--system", "E9", "--spectrum", "adjoint"]) == USAGE_ERROR


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


def test_one_parser_serves_every_call_and_keeps_no_state(capsys):
    # built once per process: an argparse exit, two reports and a usage
    # error, and no call sees another's values
    from realroots import cli

    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["torus"])
    assert exc.value.code == USAGE_ERROR
    code, first = run_json(capsys, ["torus", "--support", "segment:2"])
    code2, second = run_json(capsys, ["torus", "--support", "segment:3"])
    assert code == code2 == 0
    assert first["config"]["supports"] == ["segment:2"] and second["config"]["supports"] == ["segment:3"]
    assert main(["torus", "--support", "segment:x"]) == USAGE_ERROR
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_csv_and_md_render(capsys):
    assert main(["torus", "--support", "segment:2", "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert "complex_count" in csv_text and "," in csv_text
    assert main(["torus", "--support", "segment:2", "--format", "md"]) == 0
    md_text = capsys.readouterr().out
    assert md_text.count("|") >= 6


RENDERED = {
    "torus-monte-carlo": (
        ["torus", "--support", "segment:2", "--samples", "5", "--seed", "1"],
        [
            ("command", "torus"),
            ("formula", "mixed-volume-mean/bkk-count"),
            ("status", "ok"),
            ("config.supports.0", "segment:2"),
            ("config.method", "auto"),
            ("config.samples", 5),
            ("config.seed", 1),
            ("result.real_count", 2 * math.sqrt(2)),
            ("result.real_stderr", 0.0),
            ("result.complex_count", Fraction(4)),
            ("result.proportion", math.sqrt(2) / 2),
            ("result.method", "balls"),
            ("result.samples", None),
            ("result.monte_carlo.value", 2.8),
            ("result.monte_carlo.stderr", math.sqrt(0.24)),
            ("result.monte_carlo.samples", 5),
            ("result.monte_carlo.discarded", 0),
            ("result.monte_carlo.z_score", (2.8 - 2 * math.sqrt(2)) / math.sqrt(0.24)),
        ],
    ),
    "group-both": (
        ["group", "--system", "A1", "--spectrum", "adjoint", "--route", "both"],
        [
            ("command", "group"),
            ("formula", "weyl-mean-count/lattice-route-count/calibrated-route-count"),
            ("status", "ok"),
            ("config.system", "A1"),
            ("config.spectra.0", "adjoint"),
            ("config.route", "both"),
            ("config.metric_scale", None),
            ("result.root_system", "A1"),
            ("result.real_count", 32 * math.sqrt(6) / 9),
            ("result.complex_count", 16.0),
            ("result.complex_exact", Fraction(16)),
            ("result.proportion", 2 * math.sqrt(6) / 9),
            ("result.route", "lattice"),
            ("result.killing_radii.0", 1 / math.sqrt(3)),
            ("result.complex_count_calibrated", 16.0),
            ("result.route_difference", 0.0),
        ],
    ),
}


def _assert_rendered(text, expected, none_text):
    """`text` is a csv or md cell: exact rationals and strings by their
    exact string, floats by value."""
    if isinstance(expected, (Fraction, str, int)):
        assert text == str(expected)
    elif expected is None:
        assert text == none_text
    else:
        assert float(text) == pytest.approx(expected, rel=1e-12)


def _dotted(prefix, data):
    """A json section's (key, value) pairs, nested objects and arrays under
    dotted keys."""
    rows = []
    for key, value in data.items() if isinstance(data, dict) else enumerate(data):
        nested = isinstance(value, (dict, list))
        rows += _dotted(f"{prefix}.{key}", value) if nested else [(f"{prefix}.{key}", value)]
    return rows


@pytest.mark.parametrize("case", sorted(RENDERED))
def test_reports_render_keys_in_order_and_rationals_as_exact_strings(capsys, case):
    # floats are compared by value: eigh-based means may differ in the last
    # ulp between numpy builds
    argv, rows = RENDERED[case]
    keys = [key for key, _ in rows]

    assert main(argv + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["command", "formula", "status", "config", "results"]
    flat = [(key, report[key]) for key in ("command", "formula", "status")]
    flat += _dotted("config", report["config"]) + _dotted("result", report["results"])
    assert [key for key, _ in flat] == keys
    for (key, got), (_, expected) in zip(flat, rows):
        if isinstance(expected, Fraction):
            assert got == str(expected), key
        else:
            assert got == pytest.approx(expected, rel=1e-12), key

    assert main(argv + ["--format", "csv"]) == 0
    table = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert table[0] == ["key", "value"]
    assert [key for key, _ in table[1:]] == keys
    for (key, text), (_, expected) in zip(table[1:], rows):
        _assert_rendered(text, expected, "")

    assert main(argv + ["--format", "md"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| key | value |", "| --- | --- |"]
    cells = [line[2:-2].split(" | ", 1) for line in lines[2:]]
    assert [key for key, _ in cells] == keys
    for (key, text), (_, expected) in zip(cells, rows):
        _assert_rendered(text, expected, "None")


def test_tables_flatten_nested_results_to_dotted_keys():
    report = Report(
        command="c", formula="f", config={"outer": {"inner": {"deep": None}}},
        results={"plain": Fraction(1, 3), "nested": {"exact": Fraction(-5, 2), "value": 0.5},
                 "listed": [Fraction(7, 4), {"name": "x"}, []], "empty": {}},
    )
    rows = [
        ("config.outer.inner.deep", "", "None"),
        ("result.plain", "1/3", "1/3"),
        ("result.nested.exact", "-5/2", "-5/2"),
        ("result.nested.value", "0.5", "0.5"),
        # a list's entries by index; an empty list or dict by its JSON text
        ("result.listed.0", "7/4", "7/4"),
        ("result.listed.1.name", "x", "x"),
        ("result.listed.2", "[]", "[]"),
        ("result.empty", "{}", "{}"),
    ]
    table = list(csv.reader(io.StringIO(report.render("csv"))))
    assert table[4:] == [[key, cell] for key, cell, _ in rows]
    lines = report.render("md").splitlines()
    assert lines[5:] == [f"| {key} | {cell} |" for key, _, cell in rows]
    # json keeps the nesting
    assert json.loads(report.render("json"))["results"]["nested"] == {"exact": "-5/2", "value": 0.5}


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
