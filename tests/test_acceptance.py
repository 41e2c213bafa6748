"""Full-size verification criteria, one test per criterion.

Each test runs the same check as `hatvol verify --suite full`, prints
the pass/fail line, and asserts both the outcome and the stated runtime
budget.
"""

import time

import pytest

from hatvol import acceptance

BUDGETS_S = {
    "smooth-point-value": 5,
    "pair-bound-witness": 1,
    "normalized-multiplicity-lower-bound": 300,
    "colength-multiplicity-comparison": 300,
    "colength-convergence": 600,
    "lattice-counting-and-riemann-gap": 300,
    "cone-k-semistability": 120,
    "q-divisibility-bound": 1,
    "engine-cross-validation": 600,
}


@pytest.mark.parametrize("name,func", acceptance.CRITERIA, ids=[n for n, _ in acceptance.CRITERIA])
def test_criterion(name, func):
    start = time.perf_counter()
    passed, measured, tolerance, detail = func(fast=False)
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: measured={measured} tolerance={tolerance} ({elapsed:.1f}s) {detail}")
    assert passed, f"{name}: {measured} (tolerance {tolerance})"
    assert elapsed <= BUDGETS_S[name], f"{name} exceeded its runtime budget: {elapsed:.1f}s"
