"""Self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 -m pytest -q bench/test_harness.py

It runs the `smoke` workload (segment:3, A1 adjoint, box:2:1 with 3
samples, both probes) through the untraced and traced paths, and checks
that every metric named in BENCHMARK.json is emitted with its unit, that
output checks catch wrong answers without stopping the run, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import speed
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, cwd: Path = run.ROOT, script: Path = run.BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric(trace):
    result = result_line(bench("--trace", trace))
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert_metrics(result, declared)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.job_coverage"] >= 0.95
        assert m["cli.main.calls"] > 0 and m["montecarlo.count_zeros_circle.samples"] > 0
        assert m["polynomials.integrate_over_simplex.calls"] > 0
        spans = json.loads((run.RESULTS / "smoke-seed3-spans.json").read_text())
        assert spans["spans"] and spans["fields"][0] == "id"


def test_provenance_is_printed():
    proc = bench("--trace", "0")
    prov = json.loads(proc.stdout.splitlines()[0])["provenance"]
    for key in ("python", "numpy", "scipy", "nproc", "threads_pinned", "seed",
                "git_commit", "workload_why"):
        assert key in prov
    assert prov["threads_pinned"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(prov["workload_why"]) == {w["name"] for w in SPEC["workloads"]}


def test_failed_check_is_counted_and_run_goes_on():
    rr = run.import_package()
    seg3 = rr.segment_support(3)
    w = workloads.Workload(jobs=[
        workloads.torus_job(rr, "wrong", seg3, 7, workloads.segment_real(3)),
        workloads.torus_job(rr, "right", seg3, 6, workloads.segment_real(3)),
    ])
    p = run.run_pass(w, run.package_caches())
    assert [r["ok"] for r in p["jobs"]] == [False, True]
    assert "exact value 6 != 7" in p["jobs"][0]["error"]
    assert run.tally([p]) == {"attempted": 2, "failed": 1,
                              "probes_attempted": 0, "probes_failed": 0}


def test_reference_seconds_scale_by_sampled_speed():
    sampler = speed.SpeedSampler()
    # two samples at half the reference speed; 0.1 s of the interval sampling
    sampler.samples = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    measured, reference = sampler.elapsed((5.0, 0.3, 0), (6.0, 0.4, 1))
    assert measured == pytest.approx(0.9)
    assert reference == pytest.approx(0.45)
    mark = sampler.mark()
    assert mark[2] == 2 and sampler.overhead > 0


def test_checks_reject_bad_outputs():
    with pytest.raises(workloads.CheckFailed):
        workloads.strict_json('{"x": NaN}')
    with pytest.raises(workloads.CheckFailed):
        workloads.check_exact(6.0, 6)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_admissible(7.05, 3.0)
    usage = workloads.CliOutput(2, "", "error: bad spectrum")
    workloads.check_admissible_report(usage)
    silent = workloads.CliOutput(2, "", "")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_admissible_report(silent)
    report = {"status": "ok", "results": {"real_count": 7.05, "complex_count": 3.0}}
    with pytest.raises(workloads.CheckFailed):
        workloads.check_admissible_report(workloads.CliOutput(0, json.dumps(report), ""))
    workloads.check_exact(Fraction(6), 6)


def test_refuses_to_run_without_package_sources():
    bare = run.RESULTS / "bare-checkout"  # holds only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
