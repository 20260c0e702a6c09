"""Command-line interface.

Subcommands:
  torus   zero-count statistics for random trigonometric systems on [0,1)^n
  group   zero-count statistics for invariant ensembles on a compact group
  verify  deterministic self-checks of the analytic identities

Exit codes: 0 success, 2 usage error, 3 tolerance failure (verify), 4
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import groups, montecarlo, torus
from .rootsystems import Metric, root_system

__all__ = ["main", "Report"]

USAGE_ERROR = 2
TOLERANCE_ERROR = 3
NUMERICAL_ERROR = 4


@dataclass
class Report:
    """Uniform result container for all subcommands.  A value that is no
    JSON type, such as an exact `Fraction` count, renders by `str` in every
    format."""

    command: str
    formula: str
    config: dict
    results: dict
    status: str = "ok"

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "formula": self.formula,
            "status": self.status,
            "config": self.config,
            "results": self.results,
        }

    def _flat(self) -> list[tuple[str, object]]:
        """(key, value) rows for the csv and md tables: the entries of a
        nested dict or list are rows of their own, under dotted keys (a
        list's by index), and an empty one is a row with its JSON text."""
        rows: list[tuple[str, object]] = [
            ("command", self.command),
            ("formula", self.formula),
            ("status", self.status),
        ]

        def walk(prefix: str, data: dict | list) -> None:
            for key, value in data.items() if isinstance(data, dict) else enumerate(data):
                if not isinstance(value, (dict, list)):
                    rows.append((f"{prefix}.{key}", value))
                elif value:
                    walk(f"{prefix}.{key}", value)
                else:
                    rows.append((f"{prefix}.{key}", json.dumps(value)))

        walk("config", self.config)
        walk("result", self.results)
        return rows

    def render(self, fmt: str) -> str:
        if fmt == "json":
            try:
                return json.dumps(self.as_dict(), indent=2, default=str, allow_nan=False)
            except ValueError as exc:  # NaN or infinity is not valid JSON
                raise ArithmeticError(f"non-finite value in report: {exc}") from exc
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["key", "value"])
            for key, value in self._flat():
                writer.writerow([key, value])
            return buf.getvalue().rstrip("\n")
        if fmt == "md":
            lines = ["| key | value |", "| --- | --- |"]
            for key, value in self._flat():
                lines.append(f"| {key} | {value} |")
            return "\n".join(lines)
        raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def parse_support(text: str) -> torus.Support:
    """Support shorthands: segment:m, box:n:m, ball:n:m, or
    points:(a,b);(c,d);..."""
    parts = text.split(":")
    try:
        if parts[0] == "segment" and len(parts) == 2:
            return torus.segment_support(int(parts[1]))
        if parts[0] == "box" and len(parts) == 3:
            return torus.box_support(int(parts[1]), int(parts[2]))
        if parts[0] == "ball" and len(parts) == 3:
            return torus.ball_support(int(parts[1]), int(parts[2]))
        if parts[0] == "points" and len(parts) == 2:
            pts = []
            for chunk in parts[1].split(";"):
                chunk = chunk.strip().strip("()")
                if chunk:
                    pts.append(tuple(int(c) for c in chunk.split(",")))
            return torus.Support(pts)
    except ValueError as exc:
        raise SystemExit(f"bad support {text!r}: {exc}") from exc
    raise SystemExit(f"cannot parse support {text!r}")


def parse_spectrum(rs, text: str) -> groups.RepEnsemble:
    """Spectrum shorthands: adjoint, trivial, weight:a,b,... or ball:r:m."""
    parts = text.split(":")
    try:
        if parts[0] == "adjoint" and len(parts) == 1:
            return groups.RepEnsemble.single(rs, rs.highest_root)
        if parts[0] == "trivial" and len(parts) == 1:
            return groups.RepEnsemble.single(rs, (0,) * rs.rank)
        if parts[0] == "weight" and len(parts) == 2:
            coords = tuple(Fraction(c) for c in parts[1].split(","))
            return groups.RepEnsemble.single(rs, coords)
        if parts[0] == "ball" and len(parts) == 3:
            return groups.RepEnsemble.ball(rs, Fraction(parts[1]), int(parts[2]))
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"bad spectrum {text!r}: {exc}") from exc
    raise SystemExit(f"cannot parse spectrum {text!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every float literal, "-1e-9" and "-inf"
    too, as a value.  argparse before Python 3.13 reads only the "-1" and
    "-.5" forms of a negative number as one, and any other word that starts
    with "-" as an option, so `--tolerance -1e-9` stopped at "expected one
    argument" before the tolerance check."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The `realroots` argument parser, built once per process: parsing
    keeps no state in it, as each call fills a fresh namespace."""
    parser = _Parser(
        prog="realroots",
        description="Expected real and complex zero counts of random "
        "exponential sums on tori and compact groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", choices=("json", "csv", "md"), default="json")
    common.add_argument("--out", help="write the report to this path instead of stdout")

    p_torus = sub.add_parser("torus", parents=[common], help="torus ensembles")
    p_torus.add_argument(
        "--support",
        action="append",
        required=True,
        help="segment:m | box:n:m | ball:n:m | points:(..);(..)  "
        "(repeat for mixed systems; one support is reused n times)",
    )
    p_torus.add_argument(
        "--method",
        default="auto",
        help="mixed-volume method for the mean: auto | balls | volume | sphere | mc",
    )
    p_torus.add_argument(
        "--samples", type=int, help="also run the Monte Carlo counter on this many samples (>= 2)"
    )
    p_torus.add_argument(
        "--seed",
        type=int,
        help="seed of the Monte Carlo counter (required with --samples) and of the "
        "mc mixed-volume mean (auto takes mc only in dimension >= 4, or in dimension 3 "
        "when every support lies in a plane)",
    )

    p_group = sub.add_parser("group", parents=[common], help="compact-group ensembles")
    p_group.add_argument("--system", required=True, help="root system name, e.g. A1, A2, B2, G2")
    p_group.add_argument(
        "--spectrum",
        action="append",
        required=True,
        help="adjoint | trivial | weight:a,b | ball:r:m "
        "(repeat for mixed systems; one spectrum is reused n times)",
    )
    p_group.add_argument("--route", choices=("lattice", "calibrated", "both"), default="lattice")
    p_group.add_argument("--metric-scale", help="positive rational metric rescaling")

    p_verify = sub.add_parser("verify", parents=[common], help="deterministic self-checks")
    p_verify.add_argument("--tolerance", type=float, default=1e-9)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(report: Report, fmt: str, out: str | None) -> None:
    text = report.render(fmt)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SystemExit(f"cannot write {out}: {exc.strerror}") from exc
    else:
        print(text)


def _run_torus(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise SystemExit("--seed must be a non-negative integer")
    sups = [parse_support(s) for s in args.support]
    system = sups if len(sups) > 1 else sups[0]
    if args.samples is not None:
        if args.samples < 2:
            raise SystemExit("--samples must be at least 2 for a mean and its standard error")
        if args.seed is None:
            raise SystemExit("--samples requires --seed")
    result = torus.real_proportion_torus(system, method=args.method, seed=args.seed)
    results = asdict(result)
    if args.samples is not None:
        dim = sups[0].dim
        if dim == 1:
            stats = montecarlo.count_zeros_circle(sups[0], args.samples, args.seed)
        elif dim == 2:
            pair = sups if len(sups) == 2 else [sups[0], sups[0]]
            stats = montecarlo.count_common_zeros_torus2(pair, args.samples, args.seed)
        else:
            raise SystemExit("Monte Carlo counting supports dimensions 1 and 2")
        results["monte_carlo"] = asdict(stats)
        spread = math.hypot(stats.stderr, result.real_stderr)
        results["monte_carlo"]["z_score"] = (
            (stats.value - result.real_count) / spread if spread > 0 else None
        )
    report = Report(
        command="torus",
        formula="mixed-volume-mean/bkk-count",
        config={
            "supports": args.support,
            "method": args.method,
            "samples": args.samples,
            "seed": args.seed,
        },
        results=results,
    )
    _emit(report, args.fmt, args.out)
    return 0


def _run_group(args) -> int:
    rs = root_system(args.system)
    ensembles = [parse_spectrum(rs, s) for s in args.spectrum]
    system = ensembles if len(ensembles) > 1 else ensembles[0]
    metric = None
    if args.metric_scale is not None:
        try:
            scale = Fraction(args.metric_scale)
        except (ValueError, ZeroDivisionError) as exc:
            raise SystemExit(f"bad --metric-scale {args.metric_scale!r}: {exc}") from exc
        metric = Metric(rs, scale)
    route = args.route
    primary = "lattice" if route == "both" else route
    result = groups.real_proportion_group(system, route=primary, metric=metric)
    results = asdict(result)
    results["killing_radii"] = [groups.killing_radius(e) for e in ensembles]
    if route == "both":
        other = groups.complex_count_reductive(system, route="calibrated", metric=metric)
        results["complex_count_calibrated"] = float(other)
        results["route_difference"] = abs(float(other) - result.complex_count)
    report = Report(
        command="group",
        formula={
            "lattice": "weyl-mean-count/lattice-route-count",
            "calibrated": "weyl-mean-count/calibrated-route-count",
            "both": "weyl-mean-count/lattice-route-count/calibrated-route-count",
        }[route],
        config={
            "system": args.system,
            "spectra": args.spectrum,
            "route": route,
            "metric_scale": args.metric_scale,
        },
        results=results,
    )
    _emit(report, args.fmt, args.out)
    return 0


def _run_verify(args) -> int:
    tol = args.tolerance
    if not 0 <= tol < math.inf:
        raise SystemExit(f"--tolerance must be finite and non-negative, got {tol}")
    checks: list[tuple[str, float]] = []

    for n in range(1, 11):
        checks.append(
            (f"kac-limit-identity-n{n}", abs(torus.kac_limit(n) - (n + 2) ** (-n / 2)))
        )
    for m in (1, 2, 5, 20, 100):
        got = torus.real_proportion_torus(torus.segment_support(m)).proportion
        checks.append((f"segment-proportion-m{m}", abs(got - torus.segment_proportion(m))))

    a1 = root_system("A1")
    vol = Metric(a1).group_volume()
    checks.append(("rank-one-group-volume", abs(vol - 32 * math.sqrt(2) * math.pi**2)))
    adj = groups.RepEnsemble.single(a1, a1.highest_root)
    lattice = float(groups.complex_count_reductive(adj, route="lattice"))
    calibrated = groups.complex_count_reductive(adj, route="calibrated")
    checks.append(("rank-one-adjoint-route-match", abs(lattice - calibrated)))
    checks.append(("rank-one-adjoint-count-integer", abs(lattice - 16.0)))
    for name in ("A1", "A2", "B2", "G2"):
        cmp = groups.limit_real_proportion_group(root_system(name))
        checks.append((f"limit-identity-{name}", abs(cmp.identity_factor - 1.0)))

    failures = [(name, err) for name, err in checks if not err <= tol]
    report = Report(
        command="verify",
        formula="self-check-battery",
        config={"tolerance": tol},
        results={
            "checks": {name: err for name, err in checks},
            "failures": [name for name, _ in failures],
        },
        status="ok" if not failures else "tolerance-failure",
    )
    _emit(report, args.fmt, args.out)
    return 0 if not failures else TOLERANCE_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "torus":
            code = _run_torus(args)
        elif args.command == "group":
            code = _run_group(args)
        else:
            code = _run_verify(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return USAGE_ERROR
        raise
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # before ValueError, which LinAlgError subclasses
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:
        # domain validation (unknown system, asymmetric support, bad weight)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
