"""Correctness check of CLI outputs against independent reference values.

Only the fields the mathematics fixes are compared: exact values, the
lct value, multiplicity, colength, and scan rows with their tie-broken
argmin. LP weights and inexact minimizers are not. Checks that hold for
any seed ride along: toric values equal the base's invariant, the
blow-up cone is within its reported tolerance of (46 + 13 sqrt 13)/12,
and every scan row is at least n^n prod(1 - a_i).
"""

import json
import math
from fractions import Fraction

import oracle
from workloads import BLOWUP_VALUE, rational


def _gens(gens):
    return [list(g) for g in gens]


def expected(check):
    """Reference answer for one job's check record."""
    kind = check["kind"]
    if kind == "scan":
        rows = oracle.scan_rows_2d(check["coeffs"], Fraction(check["c"]), check["k_min"], check["k_max"])
        return [{"k": k, "value": rational(v), "argmin_gens": _gens(g)} for k, v, g in rows]
    if kind == "hatl":
        c, k, coeffs = Fraction(check["c"]), check["k"], check["coeffs"]
        if check["mode"] == "upper":
            value, gens = oracle.hatl_upper_2d(coeffs, c, k)
        elif len(coeffs) == 2:
            value, gens = oracle.hatl_exact_2d(coeffs, c, k)
        else:
            value, gens = oracle.hatl_exact_3d(c, k)
        return {"value": rational(value), "argmin": _gens(gens)}
    if kind == "lct":
        return rational(oracle.lct_3d(check["gens"]))
    if kind == "mult":
        return rational(oracle.multiplicity_3d(check["gens"]))
    return None  # hvol, cone, qbound: the check record holds the invariants


def verify(check, reference, rc, stdout, stderr):
    """None when the job's output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()[:200]}"
    if stderr.strip():
        return f"error output: {stderr.strip()[:200]}"
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    try:
        return _verify_result(check, reference, result)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed result: {exc!r}"


def _verify_result(check, ref, result):
    kind = check["kind"]
    if kind == "scan":
        rows = [{"k": r["k"], "value": r["value"], "argmin_gens": r["argmin_gens"]} for r in result["rows"]]
        if rows != ref:
            return "scan rows differ from the reference"
        n = len(check["coeffs"])
        bound = Fraction(n) ** n * math.prod(1 - Fraction(a) for a in check["coeffs"])
        if any(Fraction(r["value"]) < bound for r in rows):
            return f"a scan row falls below n^n prod(1 - a_i) = {bound}"
        return None
    if kind == "hatl":
        got = {"value": result["value"], "argmin": result["argmin"]}
        return None if got == ref else f"hatl {got['value']} != {ref['value']} or argmin differs"
    if kind in ("lct", "mult"):
        return None if result["value"] == ref else f"{kind} {result['value']} != {ref}"
    if kind == "hvol":
        if check["value"] is None:
            tol = result["tolerance"] * max(1.0, BLOWUP_VALUE)
            if result["exact"] or abs(result["value"] - BLOWUP_VALUE) > tol:
                return f"hvol {result['value']} not within {tol} of (46+13 sqrt 13)/12"
            return None
        if result["exact"] is not True or result["value"] != check["value"]:
            return f"hvol {result['value']} (exact={result['exact']}) != {check['value']}"
        return None
    if kind == "cone":
        rays, m = result["rays"], [Fraction(x) for x in result["m_covector"]]
        if result["degree_bound"] != check["degree"] or len(rays) != check["rays"]:
            return f"cone: degree {result['degree_bound']}, {len(rays)} rays"
        if any(sum(a * x for a, x in zip(m, r)) != 1 for r in rays) or any(math.gcd(*r) != 1 for r in rays):
            return "cone: rays not primitive or covector not one on every ray"
        return None
    if kind == "qbound":
        want = {"value": check["value"], "limit": check["limit"], "oracle": check["oracle"],
                "holds": Fraction(check["value"]) <= Fraction(check["limit"])}
        got = {key: result[key] for key in want}
        return None if got == want else f"qbound {got} != {want}"
    return f"unknown check kind {kind!r}"
