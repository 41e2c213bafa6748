"""Tests of the benchmark itself: python3 -m pytest hvbench -q

They need no hatvol: generators, checker and tracer are exercised on
their own.
"""

import json
import unittest
from fractions import Fraction
from pathlib import Path

import checker
import oracle
import run
import tracer
import workloads


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name in workloads.GENERATORS:
            first, again, other = (workloads.build(name, s) for s in (3, 3, 4))
            self.assertEqual(json.dumps(first.files), json.dumps(again.files))
            self.assertEqual([j.argv for j in first.jobs], [j.argv for j in again.jobs])
            self.assertNotEqual(json.dumps(first.files), json.dumps(other.files))

    def test_ideals_are_stratified_by_generator_count(self):
        ideals = workloads.stratified_ideals(5)
        counts = [len(g) for g in ideals]
        self.assertEqual(counts, sorted(workloads.N3_STRATA * workloads.N3_PER_STRATUM))
        self.assertEqual(len({json.dumps(g) for g in ideals}), len(ideals))
        power = workloads.N3_POWER
        for gens in ideals:
            # between m^power and m: no unit, and every monomial of degree power is inside
            self.assertNotIn([0, 0, 0], gens)
            for u in [(a, b, power - a - b) for a in range(power + 1) for b in range(power + 1 - a)]:
                self.assertTrue(any(all(x >= y for x, y in zip(u, g)) for g in gens))

    def test_transform_is_unimodular(self):
        rng = workloads.random.Random(0)
        for dim in (2, 3, 4):
            for _ in range(20):
                g = workloads.random_unimodular(rng, dim)
                self.assertEqual(abs(_det(g)), 1)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def _report(result):
    return json.dumps({"result": result})


class CheckerTest(unittest.TestCase):
    gens = [[2, 0, 0], [0, 3, 0], [0, 0, 4], [1, 1, 1]]

    def test_reference_values(self):
        self.assertEqual(oracle.lct_3d([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3)
        self.assertEqual(oracle.multiplicity_3d([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), 8)
        self.assertEqual(oracle.lct_2d([(3, 0), (0, 2)], (0, 0)), Fraction(5, 6))
        self.assertEqual(oracle.lct_2d([(3, 0), (0, 2)], (Fraction(1, 2), 0)), Fraction(2, 3))

    def test_corrupted_lct_fails(self):
        check = {"kind": "lct", "gens": self.gens}
        ref = checker.expected(check)
        good = _report({"value": ref, "minimizing_weight": ["9"], "active_constraints": []})
        self.assertIsNone(checker.verify(check, ref, 0, good, ""))
        off = workloads.rational(Fraction(ref) + Fraction(1, 100))
        self.assertIsNotNone(checker.verify(check, ref, 0, _report({"value": off}), ""))

    def test_error_exit_and_error_json_fail(self):
        check = {"kind": "mult", "gens": self.gens}
        ref = checker.expected(check)
        good = _report({"value": ref, "exact": True})
        self.assertIsNone(checker.verify(check, ref, 0, good, ""))
        self.assertIsNotNone(checker.verify(check, ref, 3, good, ""))
        self.assertIsNotNone(checker.verify(check, ref, 0, good, '{"error": "non-converged"}'))
        self.assertIsNotNone(checker.verify(check, ref, 0, "not json", ""))

    def test_scan_argmin_and_toric_invariants(self):
        check = {"kind": "scan", "coeffs": ["0", "0"], "c": "1/8", "k_min": 2, "k_max": 4}
        ref = checker.expected(check)
        self.assertEqual([r["value"] for r in ref], ["6", "16/3", "5"])
        self.assertIsNone(checker.verify(check, ref, 0, _report({"rows": ref}), ""))
        swapped = [dict(r) for r in ref]
        swapped[2]["argmin_gens"] = [[4, 0], [0, 4], [2, 1], [1, 2]]
        self.assertIsNotNone(checker.verify(check, ref, 0, _report({"rows": swapped}), ""))
        hvol = {"kind": "hvol", "value": None}
        near = {"value": workloads.BLOWUP_VALUE + 1e-12, "exact": False, "tolerance": 1e-9}
        self.assertIsNone(checker.verify(hvol, None, 0, _report(near), ""))
        far = dict(near, value=workloads.BLOWUP_VALUE + 1e-6)
        self.assertIsNotNone(checker.verify(hvol, None, 0, _report(far), ""))
        inexact = {"value": 9.0, "exact": False, "tolerance": 1e-9}
        self.assertIsNotNone(checker.verify({"kind": "hvol", "value": "9"}, None, 0, _report(inexact), ""))


def ns(seconds):
    return round(seconds * 1e9)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.GENERATORS))
        self.assertEqual(sorted(m["name"] for m in spec["end_to_end"]), sorted(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.per_layer_names())
        self.assertEqual([m["unit"] for m in spec["per_layer"]], [run.unit_of(n) for n in run.per_layer_names()])


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TracerTest(unittest.TestCase):
    def test_self_time_on_nested_calls(self):
        clock = FakeClock()
        t = tracer.Tracer(clock)

        def leaf():
            clock.now += 3

        def middle():
            clock.now += 5
            leaf()
            leaf()
            clock.now += 1

        def generate():
            for i in range(2):
                clock.now += 2
                yield i

        def outer():
            clock.now += 10
            middle()
            for _ in generate():
                clock.now += 4
            raise ValueError("escapes")

        leaf = t.wrap("leaf", leaf)
        middle = t.wrap("middle", middle)
        generate = t.wrap("generate", generate)
        outer = t.wrap("outer", outer)
        with self.assertRaises(ValueError):
            outer()
        stats = tracer.aggregate(t.spans)
        self.assertEqual((stats["leaf"]["calls"], stats["leaf"]["errors"]), (2, 0))
        self.assertEqual(ns(stats["leaf"]["total_s"]), 6)
        self.assertEqual(ns(stats["leaf"]["self_s"]), 6)
        self.assertEqual(ns(stats["middle"]["self_s"]), 6)
        self.assertEqual(ns(stats["middle"]["total_s"]), 12)
        # three next() calls, two of them yielding; 2 ns each
        self.assertEqual(stats["generate"]["calls"], 3)
        self.assertEqual(stats["generate"]["items"], 2)
        self.assertEqual(ns(stats["generate"]["self_s"]), 4)
        # 10 + 12 (middle) + 4 (generator) + 8 (loop body) = 34 ns; 18 ns own
        self.assertEqual(ns(stats["outer"]["total_s"]), 34)
        self.assertEqual(ns(stats["outer"]["self_s"]), 18)
        self.assertEqual(stats["outer"]["errors"], 1)
        self.assertEqual(t.spans[0][tracer.PARENT], -1)
        self.assertTrue(all(span[tracer.PARENT] == 0 for span in t.spans if span[tracer.NAME] == "middle"))

    def test_recursion_counts_total_once(self):
        clock = FakeClock()
        t = tracer.Tracer(clock)

        class Owner:
            pass

        def down(depth):
            clock.now += 1
            if depth:
                Owner.down(depth - 1)

        Owner.down = staticmethod(down)
        t.patch(Owner, "down", "down")
        Owner.down(2)
        stats = tracer.aggregate(t.spans)
        self.assertEqual(stats["down"]["calls"], 3)
        self.assertEqual(ns(stats["down"]["total_s"]), 3)
        self.assertEqual(ns(stats["down"]["self_s"]), 3)


if __name__ == "__main__":
    unittest.main()
