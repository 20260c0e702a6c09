"""realroots benchmark: one workload per run, closed loop, one thread.

Usage (from the repository root):

    python3 bench/run.py --workload torus-exact --seed 1 --seconds 30 --trace 0

A run

1. measures set-up (`setup_s`): a fresh interpreter imports `realroots`
   from `src/` and builds the workload's inputs; this is repeated
   SETUP_REPEATS times and the median is reported;
2. builds the same inputs in this process and runs the job list in passes,
   each job starting when the previous one returns.  Before every pass the
   package's `lru_cache`s are cleared, because a CLI user pays for them on
   each invocation.  The first pass always runs; further passes run while
   they fit in `--seconds`.  `wall_s` is the median pass time;
   `setup_s` and `wall_s` are in reference seconds (see `speed.py`):
   measured seconds scaled by the host speed sampled while they ran;
3. checks every job's output; a failed check is counted, never retried;
4. with `--trace 1`, builds the inputs once more and runs one more pass with
   the tracer's wrappers installed, and reports per-layer metrics instead of
   the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A full record (provenance,
per-job times, failures, probes and, when traced, the function table) is
written to `bench/results/`, and the traced spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import speed  # stdlib only, so the thread pins still precede numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPEATS = 11
# set-up takes a fraction of a second, so its speed is sampled more often
SETUP_SAMPLE_INTERVAL_S = 0.01
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "REALROOTS_THREADS")

UNITS = {"setup_s": "s", "measured_setup_s": "s", "wall_s": "s", "measured_wall_s": "s",
         "peak_rss_mb": "MB", "failed_ratio": "ratio",
         "circle_samples_per_s": "1/s", "torus2_samples_per_s": "1/s", "discard_ratio": "ratio"}
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ---------------------------------------------------------------------------
# environment and provenance
# ---------------------------------------------------------------------------

def pin_threads() -> dict[str, str | None]:
    """Pin BLAS and package threads to 1 before numpy loads; return the
    values inherited from the caller."""
    inherited = {k: os.environ.get(k) for k in THREAD_VARS}
    for key in THREAD_VARS:
        os.environ[key] = "1"
    return inherited


def import_package():
    """Import realroots from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "realroots" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import realroots
    import realroots.cli  # noqa: F401  (jobs call realroots.cli.main)

    if Path(realroots.__file__).resolve().parent != SRC / "realroots":
        raise BenchError(f"imported realroots from {realroots.__file__}, not {SRC}")
    return realroots


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "realroots").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def workload_whys() -> dict[str, str]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {w["name"]: w["why"] for w in spec.get("workloads", [])}


def provenance(args, inherited: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "threads_inherited": inherited,
        "threads_pinned": {k: os.environ[k] for k in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_why": workload_whys(),
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_child(workload: str, seed: int) -> None:
    """Body of one fresh set-up process: time import plus input building."""
    sampler = speed.SpeedSampler(SETUP_SAMPLE_INTERVAL_S)
    sampler.start()
    try:
        begin = sampler.mark()
        rr = import_package()
        import workloads

        workloads.build(workload, seed, rr)
        end = sampler.mark()
    finally:
        sampler.stop()
    measured, reference = sampler.elapsed(begin, end)
    print(json.dumps({"setup_s": reference, "measured_s": measured}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def package_caches() -> list:
    """Every lru_cache-decorated function in the package's modules."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "realroots" or name.startswith("realroots."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    caches[id(obj)] = obj
    return list(caches.values())


def run_pass(workload, caches, sampler=None, tracer=None) -> dict:
    """Run the job list once.  Returns per-job records and the pass's
    reference seconds (`wall_s`) and measured seconds (`measured_s`).

    A started sampler also samples the host's speed during the jobs; an
    unstarted one only at the marks around each job."""
    sampler = sampler or speed.SpeedSampler()
    for cache in caches:
        cache.cache_clear()
    records = []
    start = sampler.mark()
    for job in workload.jobs:
        rec = {"job": job.name, "probe": job.probe, "ok": True, "error": None}
        result = None
        begin = sampler.mark()
        done = None
        with tracer.job_span(job.name) if tracer else nullcontext():
            try:
                result = job.run()
                done = sampler.mark()
                job.check(result)
            except Exception as exc:  # a failed job is recorded; the run goes on
                rec["ok"] = False
                rec["error"] = f"{type(exc).__name__}: {exc}"[:500]
        rec["seconds"], rec["ref_seconds"] = sampler.elapsed(begin, done or sampler.mark())
        if job.counter and result is not None:
            rec["counter"] = job.counter
            rec["samples"] = int(result.samples)
            rec["discarded"] = int(result.discarded)
        records.append(rec)
    measured, reference = sampler.elapsed(start, sampler.mark())
    return {"wall_s": reference, "measured_s": measured, "jobs": records}


def counter_rates(p: dict) -> dict[str, float]:
    """Samples per second and discard ratio of the Monte Carlo jobs."""
    out = {}
    for counter in ("circle", "torus2"):
        recs = [r for r in p["jobs"] if r.get("counter") == counter]
        if recs:
            drawn = sum(r["samples"] + r["discarded"] for r in recs)
            out[f"{counter}_samples_per_s"] = drawn / sum(r["ref_seconds"] for r in recs)
            if counter == "torus2":
                out["discard_ratio"] = sum(r["discarded"] for r in recs) / drawn
    return out


def tally(passes: list[dict]) -> dict[str, int]:
    jobs = [r for p in passes for r in p["jobs"]]
    return {
        "attempted": sum(not r["probe"] for r in jobs),
        "failed": sum(not r["probe"] and not r["ok"] for r in jobs),
        "probes_attempted": sum(r["probe"] for r in jobs),
        "probes_failed": sum(r["probe"] and not r["ok"] for r in jobs),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def per_layer_metrics(tracer, traced: dict, untraced_wall: float, rates: dict,
                      counts: dict, passes: int) -> dict[str, dict]:
    """`traced` is the traced pass.  Its reference seconds rest only on the
    samples taken between jobs, since the timer is off while tracing."""
    import layers

    values = layers.per_layer_values(tracer)
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.job_coverage"] = tracer.job_seconds() / traced["measured_s"]
    values["trace.spans"] = len(tracer.spans)
    for key in ("circle_samples_per_s", "torus2_samples_per_s", "discard_ratio"):
        values[key] = rates.get(key, 0.0)
    values["failed_ratio"] = counts["failed"] / counts["attempted"]
    values["probes.failed"] = counts["probes_failed"] / passes
    return {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    inherited = pin_threads()
    sys.path.insert(0, str(BENCH_DIR))
    if args.setup_child:  # before anything imports numpy
        setup_child(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")

    setups = measure_setup(args.workload, args.seed)
    rr = import_package()
    workload = workloads.build(args.workload, args.seed, rr)
    caches = package_caches()
    prov = provenance(args, inherited)

    passes = []
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, caches, sampler))
            elapsed = time.perf_counter() - start
            estimate = statistics.median(p["measured_s"] for p in passes)
            if elapsed + estimate > args.seconds:
                break
    finally:
        sampler.stop()
    wall = statistics.median(p["wall_s"] for p in passes)
    measured_wall = statistics.median(p["measured_s"] for p in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_pass = [counter_rates(p) for p in passes]
    rates = {key: statistics.median(r[key] for r in per_pass if key in r)
             for key in sorted({key for r in per_pass for key in r})}

    record = {"provenance": prov, "inputs": workload.inputs, "setups": setups}
    traced = None
    if args.trace:
        import layers

        tracer = layers.install(rr)
        try:
            # input building is traced too, from cold caches as in a fresh
            # process, because root systems and ball spectra are built there
            for cache in caches:
                cache.cache_clear()
            with tracer.job_span("setup", name="setup"):
                workloads.build(args.workload, args.seed, rr)
            traced = run_pass(workload, caches, tracer=tracer)
        finally:
            tracer.uninstall()
        passes_all = passes + [traced]
    else:
        passes_all = passes
    counts = tally(passes_all)

    summary = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "measured_setup_s": statistics.median(s["measured_s"] for s in setups),
        "wall_s": wall,
        "measured_wall_s": measured_wall,
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": counts["failed"] / counts["attempted"],
        **rates,
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, traced, wall, rates, counts, len(passes_all))
        record["functions"] = tracer.function_table()
        record["layer_self_s"] = tracer.layer_self_time()
        record["counts"] = dict(tracer.counts)
        write_spans(args, tracer)
    else:
        metrics = {k: {"value": summary[k], "unit": UNITS[k]} for k in END_TO_END}

    record.update(summary=summary, counts=counts, passes=passes_all, metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    print(json.dumps({"provenance": prov}))
    print_summary(args, summary, counts, passes_all, record)
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


def write_spans(args, tracer) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    fields = ("id", "parent", "job", "name", "start", "end")
    with path.open("w") as fh:
        json.dump({"fields": fields, "spans": tracer.spans}, fh)


def print_summary(args, summary: dict, counts: dict, passes: list[dict], record: dict) -> None:
    print(f"# {args.workload} seed={args.seed}: {len(passes)} pass(es)")
    for key, unit in UNITS.items():
        if key in summary:
            print(f"{key} = {summary[key]:.6g} {unit}")
    print(f"jobs attempted={counts['attempted']} failed={counts['failed']}; "
          f"probes attempted={counts['probes_attempted']} failed={counts['probes_failed']}")
    failures = {}
    for p in passes:
        for r in p["jobs"]:
            if not r["ok"]:
                key = ("probe" if r["probe"] else "FAILED", r["job"], r["error"])
                failures[key] = failures.get(key, 0) + 1
    for (kind, job, error), n in failures.items():
        print(f"{kind} ({n} of {len(passes)} passes): {job}: {error}")
    if "layer_self_s" in record:
        total = sum(record["layer_self_s"].values())
        shares = sorted(record["layer_self_s"].items(), key=lambda kv: -kv[1])
        print("self time by layer: " + ", ".join(
            f"{k} {v:.3f}s ({100 * v / total:.1f}%)" for k, v in shares))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
