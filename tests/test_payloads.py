"""Payload identity: every job of the three benchmark job lists (probes
included) at the seeds of tests/data/payloads.jsonl gives the exit code,
stderr and report (without `timing_ms`) recorded there.

The jobs are rebuilt by hvbench/workloads.py and run in process through
hvbench/worker.run_job (tools/payload_snapshot.py). A change that alters
a payload on purpose regenerates the file with that script and names
each changed job.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import payload_snapshot  # noqa: E402


def test_benchmark_payloads_are_unchanged():
    with open(payload_snapshot.DATA, encoding="utf-8") as handle:
        expected = [json.loads(line) for line in handle]
    seeds = sorted({record["seed"] for record in expected})
    actual = payload_snapshot.snapshot(seeds)
    assert len(actual) == len(expected) == 114 * len(seeds)
    differ = []
    for old, new in zip(expected, actual):
        assert (old["workload"], old["seed"], old["argv"]) == (new["workload"], new["seed"], new["argv"])
        a, b = old["payload"], new["payload"]
        keys = [key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
        if keys:
            differ.append(f"{old['workload']} seed {old['seed']}: {' '.join(old['argv'])}: {', '.join(keys)} differ")
    assert not differ, "\n".join(differ)
