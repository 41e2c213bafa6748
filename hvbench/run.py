"""The hatvol benchmark.

    python3 hvbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is imported from its
`src/` tree. Each workload is a seeded list of CLI jobs (workloads.py).
A pass runs the whole list through `hatvol.cli.main(argv)` in a fresh
worker interpreter: a closed loop with one client, one job at a time.
A round takes a few setup and cold samples and then one pass; rounds
repeat until the next one would end after `--seconds`.

End-to-end metrics, measured with tracing off:
  setup_s      fresh interpreter start until `import hatvol.cli` returns
  cold_cli_s   a fresh `python -m hatvol` process running the probe job
  wall_s       one pass of the job list in the worker
  peak_rss_mb  the worker's maximum resident set size
The value reported for each is the median of its samples in the run.
fail_ratio (failed / attempted jobs) is printed with them.

With `--trace 1` one untraced pass is followed by traced passes, and the
per-layer metrics are the median over traced passes of the tracer's
span statistics (tracer.py), with the overhead as traced wall_s over
untraced wall_s. Raw spans go to .hvbench/trace-*.jsonl, one JSON array
[name, start_ns, end_ns, parent_index, run_id, error, counters] a line.

Every output is checked against independent reference values
(checker.py, oracle.py). Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. A fuller report is written to .hvbench/.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".hvbench"

SETUP_PER_ROUND = 5
COLD_PER_ROUND = 3
WORKER_TIMEOUT_S = 150
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {"setup_s": "s", "cold_cli_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

# per-layer metrics: traced name -> statistics kept
PER_LAYER = {
    "simplex.solve_covering": ("calls", "self_s", "rows"),
    "invariants.lct": ("calls", "total_s"),
    "invariants.howald_membership_value": ("total_s",),
    "geometry.Polyhedron.facets": ("calls", "self_s"),
    "linalg.nullspace": ("calls", "total_s"),
    "monomials.MonomialIdeal.multiplicity": ("calls", "total_s", "self_s"),
    "geometry.vertices_from_h": ("calls", "self_s"),
    "geometry.convex_hull": ("calls", "self_s"),
    "geometry.volume": ("calls", "self_s"),
    "linalg.rank": ("calls", "total_s"),
    "linalg.solve_affine": ("calls", "total_s"),
    "linalg.det": ("calls", "total_s"),
    "monomials.enumerate_staircases": ("items", "self_s"),
    "invariants.normalized_colength": ("self_s",),
    "monomials.MonomialIdeal.staircase": ("calls",),
    "monomials.valuation_ideal": ("calls", "total_s"),
    "invariants.hvol_toric": ("calls", "self_s", "exact_ratio"),
    "models.normalized_volume_of_valuation": ("calls",),
    "scipy.optimize.minimize": ("calls", "total_s", "nfev"),
    "scipy.import": ("total_s",),
    "geometry.Cone": ("calls", "self_s"),
    "models.cone_construction": ("total_s",),
    "models.toric_kss_oracle": ("total_s",),
    "cli.main": ("total_s", "self_s"),
    "models.load_model": ("total_s",),
}


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


def per_layer_names():
    return [f"{name}.{stat}" for name, stats in PER_LAYER.items() for stat in stats] + ["trace.overhead"]


# ---------------------------------------------------------------------------
# processes


def child_env():
    """The caller's environment without HATVOL_* settings, importing the
    checkout's src/, with single-threaded BLAS and OpenMP."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HATVOL_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


SETUP_CODE = "import time, hatvol.cli; print(time.monotonic())"


def setup_sample(env, cwd):
    """Seconds from a fresh interpreter's start until `import hatvol.cli` returns."""
    started = time.monotonic()  # one system-wide clock for parent and child
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout.strip()) - started


def cold_sample(argv, env, cwd):
    """(seconds, completed process) of one fresh `python -m hatvol` run."""
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "hatvol", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - started, done


def run_pass(jobs, env, cwd, trace, spans_path):
    """One worker process over the job list; returns its report."""
    spec = {"jobs": jobs, "trace": trace, "results": "results.json", "spans": str(spans_path) if trace else None}
    (cwd / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    results = cwd / "results.json"
    results.unlink(missing_ok=True)
    started = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), "spec.json"], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        problem = None if done.returncode == 0 else f"worker exited {done.returncode}: {done.stderr[-300:]}"
    except subprocess.TimeoutExpired:
        problem = f"worker timed out after {WORKER_TIMEOUT_S} s"
    elapsed = time.perf_counter() - started
    if problem is not None or not results.exists():
        crashed = {"rc": "worker", "stdout": "", "stderr": problem or "no results", "seconds": 0.0}
        return {"wall_s": elapsed, "peak_rss_mb": 0.0, "outputs": [crashed] * len(jobs), "elapsed": elapsed}
    report = json.loads(results.read_text(encoding="utf-8"))
    report["elapsed"] = elapsed
    return report


def run_rounds(workload, env, cwd, seconds, trace, spans_stem):
    """Rounds of setup samples, cold samples and one pass, until the next
    round would end after `seconds`; at least one. Spreading the samples
    over the run keeps their medians steady on a machine whose speed
    drifts from second to second."""
    jobs = [job.argv for job in workload.jobs]
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=cwd, check=True,
                   capture_output=True, timeout=60)  # compiles the bytecode cache
    started = time.perf_counter()
    reference = run_pass(jobs, env, cwd, False, None) if trace else None
    setup, cold, passes, rounds = [], [], [], []
    while True:
        round_started = time.perf_counter()
        setup += [setup_sample(env, cwd) for _ in range(SETUP_PER_ROUND)]
        cold += [cold_sample(workload.probe.argv, env, cwd) for _ in range(COLD_PER_ROUND)]
        passes.append(run_pass(jobs, env, cwd, trace, f"{spans_stem}-pass{len(passes)}.jsonl"))
        rounds.append(time.perf_counter() - round_started)
        if time.perf_counter() - started + statistics.median(rounds) > seconds:
            return setup, cold, passes, reference


# ---------------------------------------------------------------------------
# statistics and report


def summary(samples):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out["tail"] = {"p": p, "value": ordered[math.ceil(p / 100 * n) - 1]}
            break
    return out


def describe(name, unit, s):
    tail = f"p{s['tail']['p']:g} {s['tail']['value']:.4f}" if s["tail"] else "no percentile with 10 beyond"
    return f"  {name:<13}{s['median']:>12.4f} {unit:<5} median of {s['n']}; {tail}"


def layer_metrics(layers, overhead):
    values = {}
    for name, stats in PER_LAYER.items():
        entry = layers.get(name, {})
        for stat in stats:
            if stat == "exact_ratio":
                values[f"{name}.{stat}"] = entry.get("exact", 0) / entry["calls"] if entry.get("calls") else 0.0
            else:
                values[f"{name}.{stat}"] = entry.get(stat, 0)
    values["trace.overhead"] = overhead
    return values


def machine():
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "scipy": scipy_version, "commit": commit}


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (result object, report)."""
    workload = workloads.build(name, seed)
    jobs = [job.argv for job in workload.jobs]
    references = [checker.expected(job.check) for job in workload.jobs]
    probe_reference = checker.expected(workload.probe.check)
    env = child_env()
    OUT.mkdir(exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        for fname, doc in workload.files.items():
            (cwd / fname).write_text(json.dumps(doc), encoding="utf-8")
        spans_stem = OUT / f"trace-{name}-seed{seed}"
        setup, cold, passes, reference_pass = run_rounds(workload, env, cwd, seconds, bool(trace), spans_stem)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    failures = []
    for _, done in cold:
        reason = checker.verify(workload.probe.check, probe_reference, done.returncode, done.stdout, done.stderr)
        if reason:
            failures.append(f"probe {' '.join(workload.probe.argv)}: {reason}")
    latencies = {}
    for report in passes + ([reference_pass] if reference_pass else []):
        for job, ref, output in zip(workload.jobs, references, report["outputs"]):
            reason = checker.verify(job.check, ref, output["rc"], output["stdout"], output["stderr"])
            if reason:
                failures.append(f"{' '.join(job.argv)}: {reason}")
            latencies.setdefault(job.argv[0], []).append(output["seconds"])
    attempted = len(cold) + len(jobs) * (len(passes) + (1 if reference_pass else 0))

    end_to_end = {
        "setup_s": summary(setup),
        "cold_cli_s": summary([s for s, _ in cold]),
        "wall_s": summary([p["wall_s"] for p in passes]),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in passes]),
    }
    report = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds, "trace": trace,
        "load": "closed loop, one client, one job at a time", "jobs_per_pass": len(jobs),
        "passes": len(passes), "wall_s_by_pass": [p["wall_s"] for p in passes],
        "attempted": attempted, "failed": len(failures), "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "job_latency_s": {command: summary(values) for command, values in latencies.items()},
    }
    if trace:
        per_pass = [
            layer_metrics(p.get("layers", {}), p["wall_s"] / reference_pass["wall_s"]) for p in passes
        ]
        metrics = {m: {"value": statistics.median(pp[m] for pp in per_pass), "unit": unit_of(m)}
                   for m in per_layer_names()}
        report["layers_by_pass"] = [p.get("layers", {}) for p in passes]
        report["untraced_wall_s"] = reference_pass["wall_s"]
    else:
        metrics = {m: {"value": end_to_end[m]["median"], "unit": u} for m, u in END_TO_END.items()}
    report["metrics"] = metrics
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, report


def print_report(report):
    print(f"workload {report['workload']} (seed {report['seed']}, {report['seconds']} s, "
          f"{report['load']}, {report['passes']} passes of {report['jobs_per_pass']} jobs)")
    print(f"  why: {report['why']}")
    if report["trace"]:
        print(f"  traced run: wall_s and peak_rss_mb below are traced; one untraced pass took "
              f"{report['untraced_wall_s']:.4f} s")
    for name, unit in END_TO_END.items():
        print(describe(name, unit, report["end_to_end"][name]))
    print(f"  {'fail_ratio':<13}{report['fail_ratio']:>12.4f} ratio {report['failed']} of {report['attempted']} jobs")
    for command, s in sorted(report["job_latency_s"].items()):
        print(describe(f"job {command}", "s", s))
    if report["trace"]:
        for name, metric in report["metrics"].items():
            print(f"  {name:<48}{metric['value']:>14.6g} {metric['unit']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.GENERATORS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hatvol" / "cli.py").is_file():
        sys.stderr.write(f"hvbench: no hatvol sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    info = machine()
    print("hatvol benchmark: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, args.trace)
        report["machine"] = info
        path = OUT / f"report-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1), encoding="utf-8")
        print_report(report)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
