"""Compare the CLI output of this tree with that of a git revision.

    python3 tools/payload_diff.py REF [--seeds 1,2,3,7,10]

Builds the job lists of the three benchmark workloads for each seed
(hvbench/workloads.py, each list with its probe job) and runs them
through `hatvol.cli.main` twice: once with this tree's `src/` and once
with `git archive REF src`. Each side runs in its own interpreter, in a
temporary directory holding the input files, with HATVOL_* variables
stripped from the environment, since older revisions read them as
settings. A job matches when its exit code, its
stderr and its JSON report without `timing_ms` are equal on both
sides. Prints each job that differs, with what differs (rc, stderr or
a report key such as result or stats), and a summary line; exits 1 on
any difference.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "hvbench"))

import workloads  # noqa: E402

# runs in the child interpreter: argv[1] names a JSON list of
# [directory, argv] pairs, argv[2] the file the outputs go to
CHILD = """
import json, os, sys
import hatvol.cli as cli
from worker import run_job
jobs = json.load(open(sys.argv[1], encoding="utf-8"))
outputs = []
for directory, argv in jobs:
    os.chdir(directory)
    outputs.append(run_job(cli, argv))
json.dump(outputs, open(sys.argv[2], "w", encoding="utf-8"))
"""


def job_list(seeds):
    """(workload name, seed, file dict, argv) for every job, probes included."""
    jobs = []
    for seed in seeds:
        for name in workloads.GENERATORS:
            workload = workloads.build(name, seed)
            for job in workload.jobs + [workload.probe]:
                jobs.append((name, seed, workload.files, job.argv))
    return jobs


def run_side(src, jobs, scratch):
    """The outputs of every job under the hatvol package in ``src``."""
    pairs = []
    for name, seed, files, argv in jobs:
        directory = scratch / f"{name}-{seed}"
        if not directory.exists():
            directory.mkdir()
            for fname, doc in files.items():
                (directory / fname).write_text(json.dumps(doc), encoding="utf-8")
        pairs.append((str(directory), argv))
    spec, outputs = scratch / "jobs.json", scratch / "outputs.json"
    spec.write_text(json.dumps(pairs), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if not k.startswith("HATVOL_")}
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT / "hvbench")])
    subprocess.run([sys.executable, "-c", CHILD, str(spec), str(outputs)], env=env, cwd=scratch, check=True)
    return json.loads(outputs.read_text(encoding="utf-8"))


def fields(output):
    """rc, stderr and each key of the JSON report but `timing_ms`; the
    whole of stdout in place of the keys when it is not a JSON report."""
    out = {"rc": output["rc"], "stderr": output["stderr"]}
    try:
        report = json.loads(output["stdout"])
    except ValueError:
        report = None
    if isinstance(report, dict):
        report.pop("timing_ms", None)
        out.update(report)
    else:
        out["stdout"] = output["stdout"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare against")
    parser.add_argument("--seeds", default="1,2,3,7,10", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    jobs = job_list(seeds)
    archive = subprocess.run(["git", "archive", args.ref, "src"], cwd=ROOT, check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as ours, tempfile.TemporaryDirectory() as theirs:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(theirs, filter="data")
        new = run_side(ROOT / "src", jobs, Path(ours))
        old = run_side(Path(theirs) / "src", jobs, Path(theirs))
    differ = 0
    for (name, seed, _, job), a, b in zip(jobs, new, old):
        a, b = fields(a), fields(b)
        parts = [key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
        if parts:
            differ += 1
            print(f"{name} seed {seed}: {' '.join(job)}: {', '.join(parts)} differ")
    print(f"{len(jobs) - differ} of {len(jobs)} jobs match {args.ref} (seeds {args.seeds})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
