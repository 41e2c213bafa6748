"""Regenerate the payload-identity data that tests/test_payloads.py checks.

    python3 tools/payload_snapshot.py [--seeds 1,2,3,7,10]

Builds the job lists of the three benchmark workloads for each seed
(hvbench/workloads.py, each list with its probe job), runs them in this
process through `hvbench/worker.run_job` against this tree's `src/`,
each workload in a temporary directory holding its input files, and
writes one JSON line per job to tests/data/payloads.jsonl: workload,
seed, argv and the fields `payload_diff.py` compares (rc, stderr and
each key of the JSON report but `timing_ms`). A change that alters a
payload on purpose reruns this script and lists each changed job.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "payloads.jsonl"
SEEDS = (1, 2, 3, 7, 10)
for path in (ROOT / "src", ROOT / "hvbench", ROOT / "tools"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from payload_diff import fields, job_list  # noqa: E402
from worker import run_job  # noqa: E402


def snapshot(seeds=SEEDS):
    """One record per job of the benchmark job lists at ``seeds``, run in
    this process, in the order of `payload_diff.job_list`."""
    import hatvol.cli as cli

    records = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        try:
            for name, seed, files, argv in job_list(seeds):
                directory = Path(scratch) / f"{name}-{seed}"
                if not directory.exists():
                    directory.mkdir()
                    for fname, doc in files.items():
                        (directory / fname).write_text(json.dumps(doc), encoding="utf-8")
                os.chdir(directory)
                records.append({"workload": name, "seed": seed, "argv": argv, "payload": fields(run_job(cli, argv))})
        finally:
            os.chdir(here)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)), help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    records = snapshot([int(s) for s in args.seeds.split(",")])
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"{len(records)} jobs written to {DATA.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
