"""The exact normalized-colength corpus: every case of
tools/colength_corpus.py gives the value and argmin recorded in
tests/data/colength_corpus.jsonl.

The subtree bound of the exact scan only skips work; a bound that cut a
subtree holding the optimum, or a tie, changes a line here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import colength_corpus  # noqa: E402


def _records():
    with open(colength_corpus.DATA, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_corpus_covers_the_case_list():
    records = _records()
    assert [colength_corpus.case_key(r) for r in records] == [tuple(case) for case in colength_corpus.CASES]
    assert len(records) == 245
    # the scans whose bar falls below the m^k seed: argmin other than m^k
    others = [r for r in records if any(sum(g) != r["k"] for g in r["argmin_gens"])]
    assert len(others) == 65


def test_corpus_values_and_argmins_are_unchanged():
    differ = []
    for record in _records():
        actual = colength_corpus.run_case(*colength_corpus.case_key(record))
        if actual != record:
            differ.append(f"{record['coeffs']} c={record['c']} k={record['k']}: {actual['value']} {actual['argmin_gens']}")
    assert not differ, "\n".join(differ)
