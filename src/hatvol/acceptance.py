"""The verification suite behind `hatvol verify` and the acceptance tests.

Each criterion exercises one exactly-computable statement (smooth-point
values, the pair bound with its witness, the normalized-multiplicity
lower bound, the colength-multiplicity comparison, colength convergence,
lattice-counting and Riemann-sum error bounds, cone K-semistability,
the divisibility bound, and engine cross-validation) at a fixed size
with a pinned tolerance. The fast suite runs reduced sizes of the same
checks; the full suite runs the stated ones.
"""

import functools
import itertools
import math
import random
import time
from collections import namedtuple
from fractions import Fraction

from . import geometry, invariants, linalg, monomials, simplex
from .errors import HatvolError, InvariantViolationError
from .models import (
    FanoConeInput,
    MonomialPair,
    ToricSingularity,
    WeightValuation,
    log_discrepancy,
    normalized_volume_of_valuation,
    valuation_volume,
)
SEED = 20260810


class CriterionResult(namedtuple("CriterionResult", "name passed measured tolerance runtime detail hard_failure")):
    __slots__ = ()

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured={self.measured} tolerance={self.tolerance} "
            f"({self.runtime:.1f}s)" + (f" {self.detail}" if self.detail else "")
        )


# ---------------------------------------------------------------------------
# corpora


def random_bodies(count, dim, rng, max_denominator=8):
    """Random full-dimensional rational polytopes inside the unit box.

    Vertex coordinates are p/q with q drawn from 1..max_denominator.
    Hulls of 8 to 12 points (12 to 16 in dimension three) keep the
    bodies at nontrivial volume, so counting errors are
    boundary-dominated rather than cancellation noise.
    """
    bodies = []
    lo, hi = (12, 16) if dim == 3 else (8, 12)
    while len(bodies) < count:
        npts = rng.randint(lo, hi)
        pts = []
        for _ in range(npts):
            coord = []
            for _ in range(dim):
                q = rng.randint(1, max_denominator)
                coord.append(Fraction(rng.randint(0, q), q))
            pts.append(tuple(coord))
        body = geometry.convex_hull(pts)
        if body.is_full_dimensional:
            bodies.append(body)
    return bodies


def random_monotone_functions(count, rng, max_breaks=4, denominator=16):
    """Monotone piecewise-linear and step functions on [0, 1] into [0, 1].

    Each entry is (evaluate, exact_integral); integrals are computed in
    closed form from the pieces, independently of any Riemann sum.
    """
    out = []
    for index in range(count):
        increasing = rng.random() < 0.5
        breaks = sorted(
            {Fraction(0), Fraction(1)}
            | {Fraction(rng.randint(1, denominator - 1), denominator) for _ in range(rng.randint(0, max_breaks))}
        )
        levels = sorted(Fraction(rng.randint(0, 16), 16) for _ in range(len(breaks)))
        if not increasing:
            levels = levels[::-1]
        if index % 2 == 0:
            # piecewise linear interpolation through (breaks[i], levels[i])
            def evaluate(t, bs=breaks, ls=levels):
                for (x0, y0), (x1, y1) in zip(zip(bs, ls), zip(bs[1:], ls[1:])):
                    if x0 <= t <= x1:
                        if x0 == x1:
                            return y0
                        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
                raise ValueError(t)

            integral = sum(
                (x1 - x0) * (y0 + y1) / 2
                for (x0, y0), (x1, y1) in zip(zip(breaks, levels), zip(breaks[1:], levels[1:]))
            )
        else:
            # right-continuous step function, value levels[i] on [breaks[i], breaks[i+1])
            def evaluate(t, bs=breaks, ls=levels):
                for x0, x1, y in zip(bs, bs[1:], ls):
                    if x0 <= t < x1:
                        return y
                return ls[-1]

            integral = sum((x1 - x0) * y for x0, x1, y in zip(breaks, breaks[1:], levels[:-1]))
        out.append((evaluate, integral))
    return out


def random_ideals_2d(count, rng, max_pure=7, extra=2):
    """Random m-primary ideals in two variables with few generators."""
    out = []
    for _ in range(count):
        px = rng.randint(2, max_pure)
        py = rng.randint(2, max_pure)
        gens = [(px, 0), (0, py)]
        for _ in range(rng.randint(0, extra)):
            gens.append((rng.randint(1, px - 1), rng.randint(1, py - 1)))
        out.append(monomials.MonomialIdeal(2, gens))
    return out


# ---------------------------------------------------------------------------
# criteria


def criterion_smooth_point(fast=False):
    """Normalized volume of affine space is n^n, closed form and numeric."""
    tol = 1e-9
    worst = 0.0
    for n in (2, 3, 4):
        expected = Fraction(n) ** n
        closed = invariants.hvol_closed_form(MonomialPair(n, (0,) * n))
        if not (closed.exact and closed.value == expected):
            return False, f"closed form at n={n} gave {closed.value}", f"== {expected}", ""
        orthant = ToricSingularity(geometry.Cone([tuple(int(i == j) for j in range(n)) for i in range(n)]))
        numeric = invariants.hvol_toric(orthant)
        rel = abs(numeric.numeric_value - float(expected)) / float(expected)
        worst = max(worst, rel)
        if rel > tol:
            return False, f"numeric at n={n} off by {rel:.3g}", f"rel {tol}", ""
        if not (numeric.exact and numeric.value == expected):
            return False, f"rational upgrade failed at n={n}", "exact equality", ""
    return True, f"max relative numeric error {worst:.2e}", f"rel {tol}", ""


def criterion_pair_witness(fast=False):
    """Pair bound (1-a) n^n met exactly by the explicit witness valuation."""
    for a in (Fraction(1, 2), Fraction(2, 3)):
        for n in (2, 3):
            model = MonomialPair(n, (a,) + (0,) * (n - 1))
            expected = (1 - a) * Fraction(n) ** n
            closed = invariants.hvol_closed_form(model)
            witness = invariants.maxhvol_witness_check(model)
            if closed.value != expected or witness.value != expected:
                return False, f"a={a} n={n}: closed {closed.value}, witness {witness.value}", f"== {expected}", ""
            # the witness discrepancy decomposes through the ambient space:
            # sum of weights minus a times the order along the hyperplane
            ambient = sum(witness.weights)
            if ambient != 1 / (1 - a) + (n - 1):
                return False, f"ambient discrepancy {ambient}", "1/(1-a) + (n-1)", ""
            if witness.log_discrepancy != ambient - a * witness.weights[0]:
                return False, "discrepancy decomposition failed", "exact", ""
            if witness.log_discrepancy != n or witness.volume != 1 - a:
                return False, f"witness data A={witness.log_discrepancy} vol={witness.volume}", "A=n, vol=1-a", ""
    return True, "all four pairs exact, discrepancy decomposition verified", "exact equality", ""


def criterion_normalized_multiplicity(fast=False):
    """lct^2 e >= 4 on the exhaustive two-variable corpus, sharp at powers."""
    k = 6 if fast else 8
    model = MonomialPair(2, (0, 0))
    least = None
    count = 0
    for ideal in monomials.enumerate_staircases(2, k):
        count += 1
        value = invariants.normalized_multiplicity(model, ideal)
        if value < 4:
            return False, f"normalized multiplicity {value} at {ideal.gens}", ">= 4 exact", ""
        if least is None or value < least:
            least = value
    powers_attain = all(
        invariants.normalized_multiplicity(model, monomials.maximal_power(2, j)) == 4
        for j in range(1, k + 1)
    )
    if least != 4 or not powers_attain:
        return False, f"minimum {least}, powers attain: {powers_attain}", "min == 4 at powers", ""
    return True, f"min over {count} ideals (k={k}) is exactly 4", ">= 4 exact", ""


def criterion_lech(fast=False):
    """n! colength >= multiplicity on the corpus and in every Lech probe."""
    kmax = 5 if fast else 8
    count = 0
    for ideal in monomials.enumerate_staircases(2, kmax):
        count += 1
        if 2 * ideal.colength() < ideal.multiplicity():
            # impossible on a regular point: always an engine bug
            raise InvariantViolationError(
                "lech-violated",
                f"2 l = {2 * ideal.colength()} < e = {ideal.multiplicity()} at {ideal.gens}",
            )
    for k in range(2, kmax + 1):
        invariants.lech_gap_probe(2, k, Fraction(1, 2))
    return True, f"{count} ideals exact; probe ratios >= 1 for k <= {kmax}", ">= 1 exact", ""


def criterion_colength_convergence(fast=False):
    """Normalized colengths stay above the volume and close in from above."""
    kmax = 6 if fast else 10
    model = MonomialPair(2, (0, 0))
    scan = invariants.colength_convergence_scan(model, Fraction(1, 8), range(2, kmax + 1))
    last_k, last_value, _ = scan.rows[-1]
    envelope = Fraction(9, 2) if not fast else Fraction(5)
    if any(value < 4 for _, value, _ in scan.rows):
        return False, "a row fell below 4", ">= 4 exact", ""
    if last_value > envelope:
        return False, f"value {last_value} at k={last_k}", f"<= {envelope}", ""
    surprises = [
        (k, ideal.gens)
        for k, _, ideal in scan.rows
        if ideal != monomials.maximal_power(2, k)
    ]
    detail = f"unexpected argmin at k={[k for k, _ in surprises]}" if surprises else ""
    if not fast:
        # three-variable enumeration: values stay above 27 and descend
        scan3 = invariants.colength_convergence_scan(
            MonomialPair(3, (0, 0, 0)), Fraction(1, 24), range(2, 5)
        )
        values3 = [value for _, value, _ in scan3.rows]
        if any(v < 27 for v in values3) or values3 != sorted(values3, reverse=True):
            return False, f"three-variable scan gave {values3}", ">= 27, decreasing", detail
        detail = (detail + " " if detail else "") + f"n=3 rows {[str(v) for v in values3]}"
    return True, f"rows >= 4, value {last_value} at k={last_k}", f"<= {envelope}", detail


def criterion_lattice_counting(fast=False):
    """Counting errors shrink along dilations; Riemann gaps stay under 2/k."""
    rng = random.Random(SEED)
    n2, n3 = (12, 5) if fast else (50, 20)
    ks = [20, 40] if fast else [20, 40, 60, 80]
    eps = Fraction(1, 20)
    bodies = random_bodies(n2, 2, rng) + random_bodies(n3, 3, rng)
    worst_final = Fraction(0)
    for body in bodies:
        probe = geometry.counting_error_probe(body, ks, epsilon=eps)
        if probe.k0 is None or probe.k0 > ks[-1]:
            return False, f"no threshold below {ks[-1]} for a body with volume {body.volume()}", f"error <= {eps}", ""
        if probe.error_at(ks[-1]) > probe.error_at(ks[0]):
            return False, "error grew from the first to the last dilation", "monotone envelope", ""
        worst_final = max(worst_final, probe.error_at(ks[-1]))
    functions = random_monotone_functions(20 if fast else 100, rng)
    k_values = range(2, 17) if fast else range(2, 65)
    for evaluate, integral in functions:
        for k in k_values:
            samples = {Fraction(j, k): evaluate(Fraction(j, k)) for j in range(k + 1)}
            gap = geometry.monotone_riemann_gap(samples, 0, 1, k, integral)
            if not gap.holds:
                return False, f"gap {gap.gap} exceeded 2/{k}", "gap <= 2/k exact", ""
    return (
        True,
        f"{len(bodies)} bodies, worst error {float(worst_final):.4f} at k={ks[-1]}; all Riemann gaps within 2/k",
        f"count error <= {eps}, gap <= 2/k",
        "",
    )


def criterion_kss_cone(fast=False):
    """Equality at semistable cones, strict deficit at the unstable one."""
    tol = invariants.KSS_TOLERANCE
    p1 = FanoConeInput(geometry.convex_hull([(0,), (2,)]), 1)
    verdict = invariants.kss_via_cone(p1)
    if not (verdict.verdict == "K-SEMISTABLE" and verdict.hvol_result.exact and verdict.hvol_result.value == 2):
        return False, f"line cone gave {verdict.hvol_result.value}", "== 2 exact", ""
    p2 = FanoConeInput(geometry.convex_hull([(0, 0), (3, 0), (0, 3)]), 1)
    verdict = invariants.kss_via_cone(p2)
    off = abs(float(verdict.hvol_result.value) - 9.0)
    if not (verdict.verdict == "K-SEMISTABLE" and verdict.oracle is True and off <= tol * 9):
        return False, f"plane cone off by {off:.2e}", f"within {tol} of 9", ""
    p112 = FanoConeInput(geometry.convex_hull([(-1, -1), (-1, 1), (3, -1)]), 1)
    verdict = invariants.kss_via_cone(p112)
    margin = float(verdict.margin) / float(verdict.bound)
    if not (verdict.verdict == "UNSTABLE" and verdict.oracle is False and margin > 1e-3):
        return False, f"unstable cone margin {margin:.2e}", "> 1e-3 relative", ""
    return True, f"equalities exact, unstable margin {margin:.3f} of bound", f"tol {tol}, margin > 1e-3", ""


def criterion_q_bound(fast=False):
    """q times the anticanonical degree never exceeds n^n at semistable bases."""
    cases = [
        (FanoConeInput(geometry.convex_hull([(0,), (2,)]), 1), 2, Fraction(4), Fraction(4)),
        (FanoConeInput(geometry.convex_hull([(0, 0), (3, 0), (0, 3)]), 1), 3, Fraction(27), Fraction(27)),
        (FanoConeInput(geometry.convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)]), 1), 2, Fraction(16), Fraction(27)),
    ]
    for fano, q, value, limit in cases:
        report = invariants.q_bound_check(fano, q)
        if report.value != value or report.limit != limit or not report.holds or not report.oracle:
            return False, f"q={q}: got {report.value} <= {report.limit}, oracle {report.oracle}", "exact table", ""
    return True, "4 <= 4, 27 <= 27, 16 <= 27 exact", "exact", ""


@functools.lru_cache(maxsize=None)
def _minor_plan(dim):
    """How the minors of dim - 1 rows build up, row by row. The 1-minors
    are the first row; level t >= 2 lists, for each t-set of columns in
    combinations order, the terms (sign, column, index of a (t-1)-minor)
    of its expansion along row t. The last entry gives, for each column
    j, the sign and index of the minor without it."""
    levels = []
    index = {(j,): j for j in range(dim)}
    for t in range(2, dim):
        subsets = list(itertools.combinations(range(dim), t))
        levels.append(tuple(
            tuple(((-1) ** (t - 1 - p), j, index[cols[:p] + cols[p + 1:]]) for p, j in enumerate(cols))
            for cols in subsets
        ))
        index = {cols: i for i, cols in enumerate(subsets)}
    final = tuple(((-1) ** j, index[tuple(i for i in range(dim) if i != j)]) for j in range(dim))
    return levels, final


def _kernel_vector(rows, dim):
    """Signed maximal minors of dim - 1 integer rows: coordinate j is
    (-1)^j times the minor without column j. The vector is orthogonal to
    every row, and zero exactly when the rows are dependent."""
    levels, final = _minor_plan(dim)
    minors = rows[0]
    for row, level in zip(rows[1:], levels):
        minors = [sum(s * row[j] * minors[k] for s, j, k in terms) for terms in level]
    return tuple(s * minors[k] for s, k in final)


def _extreme_rays_by_subsets(normals, dim):
    """The oracle for `geometry._extreme_rays`, by brute force: every ray
    of the pointed cone {y : <a, y> >= 0 for every row a} spans the
    kernel of dim - 1 of the rows, so try the kernel vector of every
    (dim - 1)-subset, in both directions, against every row."""
    if dim == 1:
        return sorted(c for c in ((1,), (-1,)) if all(a[0] * c[0] >= 0 for a in normals))
    found = set()
    for subset in itertools.combinations(normals, dim - 1):
        kernel = _kernel_vector(subset, dim)
        if not any(kernel):
            continue
        ray = linalg.primitive(kernel)
        for cand in (ray, tuple(-x for x in ray)):
            if cand not in found and all(linalg.dot(n, cand) >= 0 for n in normals):
                found.add(cand)
    return sorted(found)


def newton_normals(ideal):
    """The rows whose dual cone gives the Newton polyhedron's facets: each
    generator g homogenized to (g, 1), each coordinate ray e_i to (e_i, 0)."""
    n = ideal.n
    return [g + (1,) for g in ideal.gens] + [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]


def kernel_oracle_corpus(fast=False):
    """The ideals whose Newton polyhedra check the facet kernel: every
    ideal of `enumerate_staircases(3, 4)`, or every 20th in the fast suite."""
    return itertools.islice(monomials.enumerate_staircases(3, 4), 0, None, 20 if fast else 1)


def _check_facet_kernel(ideal):
    """Double description against the subset oracle on one Newton
    polyhedron: the same rays, and each zero set the rows on which its
    ray vanishes."""
    normals = newton_normals(ideal)
    dim = ideal.n + 1
    got = geometry._extreme_rays(normals, dim)
    rays = [ray for ray, _ in got]
    expected = _extreme_rays_by_subsets(normals, dim)
    if rays != expected:
        raise InvariantViolationError(
            "facet-kernel-disagreement",
            f"double description gave {rays}, the subset oracle gave {expected}",
            gens=[list(g) for g in ideal.gens],
        )
    for ray, zeros in got:
        pairing = sum(1 << i for i, a in enumerate(normals) if linalg.dot(a, ray) == 0)
        if zeros != pairing:
            raise InvariantViolationError(
                "facet-kernel-disagreement",
                f"double description gave the zero set {zeros:#b} to ray {ray}, its pairings give {pairing:#b}",
                gens=[list(g) for g in ideal.gens],
            )


def multiplicity_oracle_corpus(fast=False):
    """The ideals whose multiplicities meet the box covolume: every 5th
    ideal of `enumerate_staircases(3, 4)`, or every 50th in the fast
    suite."""
    return itertools.islice(monomials.enumerate_staircases(3, 4), 0, None, 50 if fast else 5)


def box_covolume_multiplicity(ideal):
    """e(a) = n! (D^n - vol(P ∩ [0, D]^n)) for an m-primary ideal, where
    P is the Newton polyhedron and D the largest exponent of a generator.
    P ∩ [0, D]^n is the hull of the generators with every subset of
    their coordinates raised to D, so this reads e(a) off one
    `convex_hull` and its `volume`, not off the Newton fan."""
    n = ideal.n
    top = max(max(g) for g in ideal.gens)
    corners = {
        tuple(top if i in raised else x for i, x in enumerate(g))
        for g in ideal.gens
        for r in range(n + 1)
        for raised in itertools.combinations(range(n), r)
    }
    return math.factorial(n) * (top**n - geometry.volume(geometry.convex_hull(corners)))


def _check_multiplicity_by_box(ideal):
    expected = box_covolume_multiplicity(ideal)
    got = ideal.multiplicity()
    if got != expected:
        raise InvariantViolationError(
            "multiplicity-disagreement",
            f"the Newton fan gave e = {got}, the box covolume gave {expected}",
            gens=[list(g) for g in ideal.gens],
        )


# Exhaustive corpora (n, k, boundary) on which lct meets the simplex
# oracle; the fast suite runs the boundary-free n = 2 corpus at k = 6.
LCT_ORACLE_CORPORA = (
    (2, 10, (0, 0)),
    (3, 4, (0, 0, 0)),
    (2, 6, (Fraction(1, 2), 0)),
    (2, 6, (Fraction(2, 7), Fraction(5, 9))),
    (3, 3, (Fraction(1, 2), 0, Fraction(1, 3))),
)
LCT_ORACLE_CORPORA_FAST = ((2, 6, (0, 0)),) + LCT_ORACLE_CORPORA[2:]


def _check_lct_against_lp(model, ideal):
    """lct from Newton facets against the simplex solver of the covering LP.

    The values must agree, and the reported weight must be a feasible
    point of the program at that value, with the active constraints
    exactly the generators it meets with equality. Where the optimum is
    unique this forces the simplex weight; a different feasible weight
    at the same value shows that the optimum is not unique.
    """
    result = invariants.lct(model, ideal)
    costs = [1 - a for a in model.coeffs]
    lp = simplex.solve_covering(costs, ideal.gens)
    # the weight as integers over a positive common denominator
    weight, den = linalg._scaled(result.minimizing_weight)
    pairings = [linalg.dot(g, weight) for g in ideal.gens]
    if not (
        result.value == lp.value
        and Fraction(linalg.dot(costs, weight), den) == lp.value
        and all(w >= 0 for w in weight)
        and all(p >= den for p in pairings)
        and result.active_constraints == tuple(g for g, p in zip(ideal.gens, pairings) if p == den)
    ):
        raise InvariantViolationError(
            "lct-path-disagreement",
            f"linear program gave {lp.value} at {lp.weights}, "
            f"Newton facets gave {result.value} at {result.minimizing_weight}",
            gens=[list(g) for g in ideal.gens],
            coeffs=[str(a) for a in model.coeffs],
        )


# Exact scans (n, k, boundary, c) on which the pruned `normalized_colength`
# meets the plain minimum; the fast suite runs the first two. Where the
# argmin is not m^k (the nonzero boundaries), the seed of the scan is not
# the optimum, so unsound pruning cannot hide behind it.
PRUNING_ORACLE_CASES = (
    (2, 6, (Fraction(3, 4), 0), Fraction(1, 8)),
    (3, 3, (0, 0, 0), Fraction(1, 24)),
    (3, 4, (0, 0, 0), Fraction(1, 24)),
    (3, 4, (0, 0, 0), Fraction(1, 6)),
    (3, 4, (Fraction(2, 3), 0, 0), Fraction(1, 24)),
    (3, 4, (Fraction(2, 3), 0, 0), Fraction(1, 6)),
    (2, 8, (Fraction(1, 2), 0), Fraction(1, 8)),
)


def _check_pruned_scan(model, c, k):
    """The exact `normalized_colength` against the plain `_argmin` over
    every staircase of colength at least c k^n, valued with the public
    `lct` and no pruning: the same value and the same argmin."""
    n = model.n
    least = math.ceil(c * k**n)
    family = (ideal for ideal in monomials.enumerate_staircases(n, k) if ideal.colength() >= least)
    factor = math.factorial(n)
    value, argmin, _ = invariants._argmin(
        family, lambda ideal: factor * invariants.lct(model, ideal).value ** n * ideal.colength()
    )
    got, got_argmin = invariants.normalized_colength(model, c, k)
    if (got, got_argmin.gens) != (value, argmin.gens):
        raise InvariantViolationError(
            "pruned-scan-disagreement",
            f"the pruned scan gave {got} at {[list(g) for g in got_argmin.gens]}, "
            f"the plain minimum {value} at {[list(g) for g in argmin.gens]}",
            n=n, k=k, c=str(c), coeffs=[str(a) for a in model.coeffs],
        )


def criterion_cross_validation(fast=False):
    """Independent paths agree: facet kernels, multiplicities by box
    covolume, thresholds, pruned exact scans, multiplicities by the
    colength limit, scaling."""
    rng = random.Random(SEED + 1)
    kernels = 0
    for ideal in kernel_oracle_corpus(fast):
        kernels += 1
        _check_facet_kernel(ideal)
    covolumes = 0
    for ideal in multiplicity_oracle_corpus(fast):
        covolumes += 1
        _check_multiplicity_by_box(ideal)
    corpus = 0
    for n, k, coeffs in LCT_ORACLE_CORPORA_FAST if fast else LCT_ORACLE_CORPORA:
        model = MonomialPair(n, coeffs)
        for ideal in monomials.enumerate_staircases(n, k):
            corpus += 1
            _check_lct_against_lp(model, ideal)
    scans = PRUNING_ORACLE_CASES[:2] if fast else PRUNING_ORACLE_CASES
    for n, k, coeffs, c in scans:
        _check_pruned_scan(MonomialPair(n, coeffs), c, k)
    plane = MonomialPair(2, (0, 0))
    vertex_checks = 0
    for ideal in monomials.enumerate_staircases(2, 4 if fast else 6):
        vertex_checks += 1
        check = simplex.solve_covering_by_vertices([1, 1], ideal.gens)
        if check.value != invariants.lct(plane, ideal).value:
            return False, f"vertex solver disagrees at {ideal.gens}", "exact equality", ""
    m_exp = 40
    ideal_count = 25 if fast else 100
    worst = Fraction(0)
    for ideal in random_ideals_2d(ideal_count, rng):
        e = ideal.multiplicity()
        approx = Fraction(2 * ideal.power(m_exp).colength(), m_exp**2)
        rel = abs(approx / e - 1)
        worst = max(worst, rel)
        if rel > Fraction(5, 100):
            return False, f"limit off by {float(rel):.3f} at {ideal.gens}", "within 5%", ""
    cases = 25 if fast else 100
    for _ in range(cases):
        n = rng.choice([2, 3])
        coeffs = tuple(Fraction(rng.randint(0, 3), rng.randint(4, 6)) for _ in range(n))
        pair = MonomialPair(n, coeffs)
        w = WeightValuation(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if normalized_volume_of_valuation(pair, w.scaled(lam)) != normalized_volume_of_valuation(pair, w):
            return False, "scale invariance failed", "exact", ""
        if log_discrepancy(pair, w.scaled(lam)) != lam * log_discrepancy(pair, w):
            return False, "log discrepancy not linear in scale", "exact", ""
        if valuation_volume(pair, w.scaled(lam)) != lam**-n * valuation_volume(pair, w):
            return False, "volume scaling failed", "exact", ""
    return (
        True,
        f"{kernels} facet-kernel checks against subset enumeration and pairings, "
        f"{covolumes} n = 3 multiplicities against box covolumes, "
        f"{corpus} threshold cross-checks against the LP, {vertex_checks} against vertex enumeration, "
        f"{len(scans)} pruned exact scans against the plain minimum, "
        f"worst limit deviation {float(worst):.3f}, {cases} scaling cases",
        "exact / within 5%",
        "",
    )


CRITERIA = (
    ("smooth-point-value", criterion_smooth_point),
    ("pair-bound-witness", criterion_pair_witness),
    ("normalized-multiplicity-lower-bound", criterion_normalized_multiplicity),
    ("colength-multiplicity-comparison", criterion_lech),
    ("colength-convergence", criterion_colength_convergence),
    ("lattice-counting-and-riemann-gap", criterion_lattice_counting),
    ("cone-k-semistability", criterion_kss_cone),
    ("q-divisibility-bound", criterion_q_bound),
    ("engine-cross-validation", criterion_cross_validation),
)


def run_suite(suite="fast"):
    """Run the verification criteria; returns a list of CriterionResult."""
    fast = suite != "full"
    results = []
    for name, func in CRITERIA:
        start = time.perf_counter()
        try:
            passed, measured, tolerance, detail = func(fast=fast)
            hard = False
        except InvariantViolationError as exc:
            passed, measured, tolerance, detail = False, f"invariant violation: {exc}", "", ""
            hard = True
        except HatvolError as exc:
            passed, measured, tolerance, detail = False, f"{exc.code}: {exc}", "", ""
            hard = False
        results.append(
            CriterionResult(
                name=name,
                passed=passed,
                measured=measured,
                tolerance=tolerance,
                runtime=time.perf_counter() - start,
                detail=detail,
                hard_failure=hard,
            )
        )
    return results


def suite_exit_code(results):
    if any(r.hard_failure for r in results):
        return 4
    if any(not r.passed for r in results):
        return 1
    return 0
