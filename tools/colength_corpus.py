"""Regenerate the exact normalized-colength corpus that
tests/test_colength_corpus.py checks.

    python3 tools/colength_corpus.py

Runs exact `invariants.normalized_colength` on every case of `CASES`, in
this process against this tree's `src/`, and writes one JSON line per
case to tests/data/colength_corpus.jsonl: n, boundary coefficients, c, k,
the value and the argmin's generators. The cases are the boundaries
and constants below, each at every level k in its range:

- n = 2, k = 2..12: boundaries (0,0), (1/2,0), (1/3,2/5), (0,3/4),
  (2/7,5/9); c = 1/8, 1/24, 1/4, 1/2 (220 cases);
- n = 3, k = 2..4: boundaries (0,0,0), (1/2,0,1/3); c = 1/24, 1/12, 1/6
  (18 cases);
- n = 2, k = 2..8, boundary (3/4,0), c = 1/8 (7 cases), whose scans
  lower the bar below the m^k seed and end at another argmin.

The recorded results are those of the scan before its subtree bound
used lattice counts; a change to the bound must leave every line as it
is, value and argmin.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "colength_corpus.jsonl"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from hatvol.models import MonomialPair  # noqa: E402
from hatvol.rationals import format_rational  # noqa: E402


def _grid(boundaries, constants, ks):
    return [(coeffs, c, k) for coeffs in boundaries for c in constants for k in ks]


F = Fraction
CASES = (
    _grid(
        [(0, 0), (F(1, 2), 0), (F(1, 3), F(2, 5)), (0, F(3, 4)), (F(2, 7), F(5, 9))],
        [F(1, 8), F(1, 24), F(1, 4), F(1, 2)],
        range(2, 13),
    )
    + _grid([(0, 0, 0), (F(1, 2), 0, F(1, 3))], [F(1, 24), F(1, 12), F(1, 6)], range(2, 5))
    + _grid([(F(3, 4), 0)], [F(1, 8)], range(2, 9))
)


def case_key(record):
    """The (coeffs, c, k) of a corpus line, as the scan takes them."""
    return tuple(map(Fraction, record["coeffs"])), Fraction(record["c"]), record["k"]


def run_case(coeffs, c, k):
    """The corpus line of one case, computed by this tree."""
    from hatvol import invariants

    value, ideal = invariants.normalized_colength(MonomialPair(len(coeffs), coeffs), c, k)
    return {
        "n": len(coeffs),
        "coeffs": [format_rational(F(x)) for x in coeffs],
        "c": format_rational(c),
        "k": k,
        "value": format_rational(value),
        "argmin_gens": [list(g) for g in ideal.gens],
    }


def main():
    records = [run_case(*case) for case in CASES]
    with open(DATA, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"{len(records)} cases written to {DATA.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
