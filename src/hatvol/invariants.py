"""The invariant engine.

Log canonical thresholds from the Newton facets (the covering LP in
`simplex` is their oracle in `verify`), normalized multiplicities,
normalized-volume minimization (closed form on monomial pairs, numeric
with rational upgrade on toric cones), the normalized
colength functional with its convergence scans, and the comparison
probes that the verification suite drives.
"""

import bisect
import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from . import geometry, linalg, monomials
from .errors import BudgetExceededError, InvariantViolationError, NonConvergedError, ValidationError
from .models import (
    FanoConeInput,
    MonomialPair,
    ToricSingularity,
    WeightValuation,
    anticanonical_polytope,
    cone_construction,
    fano_degree_bound,
    log_discrepancy,
    normalized_volume_of_valuation,
    toric_kss_oracle,
    valuation_volume,
)
from .rationals import format_rational, parse_rational

EQUIVARIANT_WARNING = (
    "equivariant value: the infimum ranges over torus-invariant data only, "
    "an upper bound for the unrestricted infimum"
)


# ---------------------------------------------------------------------------
# log canonical threshold


class LctResult(namedtuple("LctResult", "value minimizing_weight active_constraints")):
    """The threshold, the weight of the chosen facet and the active
    constraints: the generator exponents met with equality."""

    __slots__ = ()

    def to_payload(self):
        return {
            "value": format_rational(self.value),
            "minimizing_weight": [format_rational(w) for w in self.minimizing_weight],
            "active_constraints": [list(g) for g in self.active_constraints],
        }


def lct(model, ideal):
    """Log canonical threshold of a monomial ideal on a monomial pair.

    The covering program min <1 - a, w> over w >= 0 with <w, g> >= 1 for
    every generator g is blocking-dual to the Newton polyhedron: its
    vertices are normal / c over the Newton facets <normal, u> >= c with
    c > 0 (Howald). So the threshold is the least <1 - a, normal> / c
    over those facets, for every boundary. The minimizing weight is
    normal / c of the chosen facet, the lexicographically greatest on a
    tie, and the active constraints are the generators on that facet.
    `verify` checks this against the simplex solver in `simplex`.
    """
    if not isinstance(model, MonomialPair):
        raise ValidationError("invalid-model", "lct is computed on monomial pairs")
    if ideal.n != model.n:
        raise ValidationError("dimension-mismatch", "ideal and model dimensions differ")
    if ideal.is_unit:
        raise ValidationError("lct-undefined", "the unit ideal has no log canonical threshold")
    costs, scale = model.integer_costs
    num, normal, c = _facet_pick(costs, ideal.newton_facets())
    return LctResult(
        value=Fraction(num, scale * c),
        minimizing_weight=tuple(Fraction(x, c) for x in normal),
        active_constraints=tuple(g for g in ideal.gens if linalg.dot(normal, g) == c),
    )


def _facet_pick(costs, facets):
    """(<costs, normal>, normal, c) for the facet <normal, u> >= c with the
    least <costs, normal> / c, and on a tie the lexicographically greatest
    normal / c. Integer costs and facets, compared by cross-multiplying."""
    best_num = best_normal = best_c = None
    for normal, c in facets:
        num = linalg.dot(costs, normal)
        if best_num is None:
            best_num, best_normal, best_c = num, normal, c
            continue
        lhs, rhs = num * best_c, best_num * c
        if lhs < rhs or (
            lhs == rhs and tuple(x * best_c for x in normal) > tuple(x * c for x in best_normal)
        ):
            best_num, best_normal, best_c = num, normal, c
    return best_num, best_normal, best_c


def normalized_multiplicity(model, ideal):
    """lct^n times the Hilbert-Samuel multiplicity, exact."""
    return lct(model, ideal).value ** model.n * ideal.multiplicity()


# ---------------------------------------------------------------------------
# normalized volume


class NormalizedVolumeResult(
    namedtuple(
        "NormalizedVolumeResult",
        "value exact method minimizer tolerance certificate numeric_value warnings",
        defaults=(None, None, None, ()),
    )
):
    """A normalized volume: value is a Fraction when exact, a float
    otherwise; method is closed_form or numeric_slice; minimizer is a
    WeightValuation. tolerance, certificate and numeric_value are None
    where they do not apply."""

    __slots__ = ()

    def to_payload(self):
        payload = {
            "value": format_rational(self.value) if self.exact else float(self.value),
            "exact": self.exact,
            "method": self.method,
            "minimizer": [format_rational(w) for w in self.minimizer.weights],
        }
        if self.tolerance is not None:
            payload["tolerance"] = self.tolerance
        if self.certificate is not None:
            payload["certificate"] = self.certificate
        return payload


def hvol_closed_form(model):
    """Normalized volume of a monomial pair: n^n prod(1 - a_i).

    The minimizer has weights 1/(n (1 - a_i)); the certificate records
    the arithmetic-geometric equality condition that all (1 - a_i) w_i
    coincide, which is verified exactly, as is the value against the
    reported minimizer.
    """
    if not isinstance(model, MonomialPair):
        raise ValidationError("invalid-model", "closed form applies to monomial pairs")
    n = model.n
    value = Fraction(n) ** n * math.prod(1 - a for a in model.coeffs)
    weights = tuple(1 / (n * (1 - a)) for a in model.coeffs)
    minimizer = WeightValuation(weights)
    terms = {(1 - a) * w for a, w in zip(model.coeffs, weights)}
    if terms != {Fraction(1, n)}:
        raise InvariantViolationError("am-gm-certificate", "equality condition failed at the closed-form minimizer")
    if normalized_volume_of_valuation(model, minimizer) != value:
        raise InvariantViolationError("closed-form-mismatch", "closed form disagrees with direct evaluation")
    return NormalizedVolumeResult(
        value=value,
        exact=True,
        method="closed_form",
        minimizer=minimizer,
        certificate="arithmetic-geometric equality: (1-a_i) w_i = 1/n for every i",
    )


class _ToricObjective:
    """The slice-restricted volume product: float derivatives for Newton,
    an integer certificate for the exact upgrade.

    The dual cone is triangulated once; on the interior the objective is
    the smooth rational function
        f(xi) = <m, xi>^n * V(xi),  V(xi) = sum_T c_T / prod_{i in T} p_i,
    with p_i = <d_i, xi> over the dual rays d_i and c_T = |det T|. It is
    homogeneous of degree zero and strictly convex on the slice
    <m, xi> = 1, where it equals V. The triangulation is that of the dual
    rays scaled onto one level of <xi0, .>, xi0 the sum of the rays:
    integer points d_i (l / l_i), l_i = <xi0, d_i> and l their lcm.
    """

    def __init__(self, model):
        self.n = model.n
        self.m = model.m_covector
        self.duals = list(model.dual_cone.rays)
        xi0 = tuple(sum(c) for c in zip(*model.cone.rays))
        levels = [linalg.dot(xi0, d) for d in self.duals]
        top = math.lcm(*levels)
        points = [tuple(x * (top // level) for x in d) for d, level in zip(self.duals, levels)]
        # every slice point is a vertex, so body vertex j is points[order[j]]
        order = sorted(range(len(points)), key=points.__getitem__)
        self.simplices = []
        for tri in geometry.convex_hull(points).triangulation():
            # `derivatives` sums floats in simplex order, and `_fan` ends each
            # simplex with an edge in sorted-point order: put it in dual order
            tri = tuple(order[j] for j in tri[:-2]) + tuple(sorted(order[j] for j in tri[-2:]))
            self.simplices.append((tri, int(abs(linalg.det([self.duals[i] for i in tri])))))
        self.scale = math.lcm(*(x.denominator for x in self.m))
        self.covector = linalg.clear_denominators(self.m)

    def derivatives(self, xi):
        """(f, grad f, H) at a point xi of the slice, in the arithmetic of xi.

        Newton calls it in floats; the exact upgrade reads `certificate`
        instead. H is the Hessian of V,
        sum_T t_T (s_T s_T^T + sum_{i in T} d_i d_i^T / p_i^2) with
        t_T = c_T / prod_{i in T} p_i and s_T = sum_{i in T} d_i / p_i; it
        agrees with the Hessian of f on directions tangent to the slice,
        the only ones a step takes.
        """
        n = self.n
        pairings = [linalg.dot(d, xi) for d in self.duals]
        value = 0
        dvol = [0] * n
        hess = [[0] * n for _ in range(n)]
        for tri, c in self.simplices:
            prod = 1
            for i in tri:
                prod *= pairings[i]
            t = c / prod
            scaled = [[x / pairings[i] for x in self.duals[i]] for i in tri]
            s = [sum(col) for col in zip(*scaled)]
            value += t
            for j in range(n):
                dvol[j] -= t * s[j]
                for k in range(n):
                    hess[j][k] += t * (s[j] * s[k] + sum(u[j] * u[k] for u in scaled))
        gradient = tuple(n * mj * value + dj for mj, dj in zip(self.m, dvol))
        return value, gradient, hess

    def certificate(self, xi):
        """(f(xi), whether grad f(xi) = 0) at a rational interior point xi,
        on the slice or not, in integers up to the one final `Fraction`.

        xi is scaled to an integer point x. With p_i = <d_i, x>,
        Q = prod_i p_i, A_T = c_T Q / prod_{i in T} p_i, m = mm / M for an
        integer vector mm and L = <mm, x>,
            f = L^n sum_T A_T / (M^n Q),
        and Q^2 M^n / L^(n-1) times the j-th partial derivative of f is
            sum_T A_T (n mm_j Q - L sum_{i in T} d_ij Q / p_i),
        so the gradient vanishes exactly when these sums all do.
        """
        n = self.n
        x = linalg.clear_denominators(xi)
        pairings = [sum(map(operator.mul, d, x)) for d in self.duals]
        whole = math.prod(pairings)
        cofactors = [whole // p for p in pairings]
        level = sum(map(operator.mul, self.covector, x))
        total = 0
        sums = [0] * n  # sum_T A_T sum_{i in T} d_ij Q / p_i
        for tri, c in self.simplices:
            prod = 1
            for i in tri:
                prod *= pairings[i]
            weight = c * whole // prod
            total += weight
            for j in range(n):
                sums[j] += weight * sum(self.duals[i][j] * cofactors[i] for i in tri)
        stationary = all(n * mj * whole * total == level * s for mj, s in zip(self.covector, sums))
        return Fraction(level**n * total, self.scale**n * whole), stationary


# Damped Newton on the slice. f is a float sum of a few terms, so its
# value resolves decreases only down to about 1e-15 f. Half the squared
# Newton decrement estimates f - f*; once it falls under NEWTON_DECREMENT
# times f, well above that resolution, one last full step is taken
# without the Armijo test: it squares the minimizer's error, a gain the
# value can no longer show. TOLERANCE is the relative agreement the exact
# upgrade asks of the Newton value, and the tolerance every toric result
# reports.
NEWTON_MAX_STEPS = 50
NEWTON_DECREMENT = 1e-12
TOLERANCE = 1e-9
ARMIJO_SHARE = 0.25
SHORTEST_STEP = 1e-12


def _newton_minimize(model, objective):
    """Minimize f on the slice <m, xi> = 1 in floats.

    Starts at the ray barycenter, which is interior and on the slice.
    Each step solves the KKT system [H m; m^T 0] exactly and halves
    until it stays interior and meets the Armijo condition. Returns the
    last iterate, its value and whether the decrement test was met; a
    singular system ends the iteration unsettled.
    """
    n = model.n
    m = model.m_covector
    rays = model.cone.rays
    xi = [sum(r[i] for r in rays) / len(rays) for i in range(n)]
    value, gradient, hess = objective.derivatives(xi)
    for _ in range(NEWTON_MAX_STEPS):
        rows = [row + [mi] for row, mi in zip(hess, m)] + [list(m) + [0]]
        solution = linalg.solve_affine(rows, [-g for g in gradient] + [0], n + 1)
        if solution is None:  # a float Hessian that lost its rank
            return xi, value, False
        step = [float(x) for x in solution[:n]]
        decrement = -linalg.dot(gradient, step)
        final = decrement <= 2 * NEWTON_DECREMENT * value
        t = 1.0
        while True:
            trial = [x + t * dx for x, dx in zip(xi, step)]
            if model.is_interior(trial):
                level = linalg.dot(m, trial)
                trial = [x / level for x in trial]
                derivatives = objective.derivatives(trial)
                if final or derivatives[0] <= value - ARMIJO_SHARE * t * decrement:
                    break
            t /= 2
            if t < SHORTEST_STEP:
                return xi, value, False
        xi, (value, gradient, hess) = trial, derivatives
        if final:
            return xi, value, True
    return xi, value, False


def hvol_toric(model):
    """Normalized volume of a toric singularity over interior weight vectors.

    The objective is scale invariant and strictly convex on the slice
    where the Gorenstein covector pairs to one (Martelli-Sparks-Yau), so
    a damped Newton iteration from the ray barycenter finds its minimum.
    When the minimizer rounds to a nearby rational point of height at
    most 64 at which the exact gradient vanishes, the result is upgraded
    to an exact value computed through the independent hull-based
    volume, provided the Newton value agrees with it to within
    TOLERANCE. Otherwise the float value is reported with TOLERANCE if
    the exact value at its rational minimizer agrees as well, and
    NonConvergedError is raised if it does not, if the iteration did not
    settle or if its floats overflowed. Cones of dimension above
    `geometry.MAX_DIM` are refused before the iteration starts.
    """
    if not isinstance(model, ToricSingularity):
        raise ValidationError("invalid-model", "expected a toric singularity")
    # the exact upgrade reads the hull volume of the dual body, so a cone
    # the hulls cannot take is refused up front, whether or not it fires
    geometry._check_dim(model.n)
    objective = _ToricObjective(model)
    try:
        xi_unit, numeric_value, converged = _newton_minimize(model, objective)
    except (OverflowError, ZeroDivisionError) as exc:
        # entries too large for floats, or pairings lost to cancellation
        raise NonConvergedError(f"Newton iteration failed in floating point: {exc}") from exc

    # rational upgrade near a low-height rational point
    candidate = tuple(Fraction(x).limit_denominator(64) for x in xi_unit)
    point = linalg.clear_denominators(candidate)
    if model.is_interior(point):
        value, stationary = objective.certificate(point)
        if stationary:
            level = linalg.dot(model.m_covector, candidate)
            candidate = tuple(x / level for x in candidate)
            exact_value = normalized_volume_of_valuation(model, WeightValuation(candidate))
            if exact_value != value:
                raise InvariantViolationError(
                    "volume-path-disagreement",
                    "triangulation and hull volumes differ at the upgraded minimizer",
                )
            # the certificate is exact; this gate checks it against the
            # separate float Newton path
            if _agrees(exact_value, numeric_value):
                return NormalizedVolumeResult(
                    value=exact_value,
                    exact=True,
                    method="numeric_slice",
                    minimizer=WeightValuation(candidate),
                    tolerance=TOLERANCE,
                    certificate="zero exact gradient at rational interior weights of height <= 64",
                    numeric_value=numeric_value,
                    warnings=(EQUIVARIANT_WARNING,),
                )

    if not converged:
        raise NonConvergedError(
            f"Newton iteration did not settle within {NEWTON_MAX_STEPS} steps",
            best=numeric_value,
        )
    reported = tuple(Fraction(x).limit_denominator(10**9) for x in xi_unit)
    point = linalg.clear_denominators(reported)
    if not (model.is_interior(point) and _agrees(objective.certificate(point)[0], numeric_value)):
        raise NonConvergedError(
            f"the Newton value is not within {TOLERANCE} of the exact value at its reported minimizer",
            best=numeric_value,
        )
    level = linalg.dot(model.m_covector, reported)
    reported = tuple(x / level for x in reported)
    return NormalizedVolumeResult(
        value=numeric_value,
        exact=False,
        method="numeric_slice",
        minimizer=WeightValuation(reported),
        tolerance=TOLERANCE,
        numeric_value=numeric_value,
        warnings=(EQUIVARIANT_WARNING,),
    )


def _agrees(exact, numeric):
    """Whether a float is within TOLERANCE of an exact value, relative when
    above one; compared exactly, as a huge value would overflow a float."""
    numeric = Fraction(numeric)
    return abs(exact - numeric) <= Fraction(TOLERANCE) * max(1, abs(numeric))


def hvol(model):
    """Normalized volume of any supported model."""
    if isinstance(model, MonomialPair):
        return hvol_closed_form(model)
    if isinstance(model, ToricSingularity):
        return hvol_toric(model)
    if isinstance(model, FanoConeInput):
        return hvol_toric(cone_construction(model))
    raise ValidationError("invalid-model", f"unsupported model {type(model).__name__}")


# ---------------------------------------------------------------------------
# normalized colength


DEFAULT_WEIGHT_RATIOS = (
    Fraction(1),
    Fraction(5, 4),
    Fraction(4, 3),
    Fraction(3, 2),
    Fraction(5, 3),
    Fraction(2),
    Fraction(5, 2),
    Fraction(3),
    Fraction(4),
)


def default_scan_constant(n):
    """Default colength fraction c = e(m) / (4 n!), always feasible."""
    return Fraction(1, 4 * math.factorial(n))


def _staircase_key(ideal):
    return ideal.staircase()


class ScanStats:
    """Work counters of normalized-colength scans, summed over the calls
    that share one instance: ideals that reached the minimization, ideals
    the lower bound ruled out, lct evaluations, and in exact mode the
    inner nodes of the staircase recursion whose subtree bound was
    computed and the subtrees that bound skipped. Each starts at 0."""

    __slots__ = ("ideals_seen", "ideals_pruned", "lct_evaluations", "nodes_visited", "subtrees_pruned")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def to_payload(self):
        return {name: getattr(self, name) for name in self.__slots__}


def _argmin(ideals, value):
    """(least value, its ideal, number of ideals), or None when
    ``ideals`` is empty. Ties go to the lexicographically least
    staircase, so the argmin does not depend on enumeration order.

    ``value`` is called on every ideal: this is the plain minimum that
    the Lech probe takes and that the tests hold the pruned
    `normalized_colength` to, so it skips nothing itself.
    """
    best = None
    count = 0
    for ideal in ideals:
        count += 1
        v = value(ideal)
        if best is None or v < best[0]:
            best = (v, ideal)
        elif v == best[0] and _staircase_key(ideal) < _staircase_key(best[1]):
            best = (v, ideal)
    return None if best is None else (best[0], best[1], count)


def _lct_floor(costs, gens):
    """(p, q) with p / q at most the least <costs, w> over w >= 0 with
    <w, g> >= 1 for every generator g: the lct in units of the cost
    scale. By Howald monotonicity it is at least the threshold of any
    subideal, here (x_1^{d_1}, ..., x_n^{d_n}) over the pure powers, with
    sum costs_i / d_i, and each principal (x^g), with the least
    costs_i / g_i over g_i > 0; the greatest of these is returned."""
    sum_p, sum_q = 0, 1
    best_p, best_q = 0, 1
    for g in gens:
        low_p = support = 0
        for cost, x in zip(costs, g):
            if x:
                support += 1
                if not low_p or cost * low_q < low_p * x:
                    low_p, low_q = cost, x
        if low_p * best_q > best_p * low_q:
            best_p, best_q = low_p, low_q
        if support == 1:
            sum_p, sum_q = sum_p * low_q + low_p * sum_q, sum_q * low_q
    if sum_p * best_q > best_p * sum_q:
        return sum_p, sum_q
    return best_p, best_q


@functools.cache
def _compact_normals(n, k):
    """W(n, k): a superset of the primitive normals of the compact Newton
    facets of the ideals a with m^k <= a <= m, sorted.

    Such a facet is spanned by n affinely independent minimal generators
    of a, each of degree at most k, and its normal is positive; n is 2 or
    3, as in the enumeration. At n = 2 the normal is
    (y0 - y1, x1 - x0) / gcd for two points of {|u| <= k}: the primitive
    (p, q) with 1 <= p, q <= k. At n = 3 it is the positive primitive
    cross product of d = p1 - p0 and e = p2 - p0 for three points of
    {|u| <= k}, with p0 the lexicographically least, so d and e are
    lexicographically positive. They may be taken primitive, since
    p0 + d / gcd(d) lies in the set too and spans the same plane. Such a
    pair has a base p0 exactly when the least one, max(0, -d, -e), has
    degree at most k less the degrees of d and e.
    """
    if n == 2:
        return tuple((p, q) for p in range(1, k + 1) for q in range(1, k + 1) if math.gcd(p, q) == 1)
    differences = []
    for d in itertools.product(range(-k, k + 1), repeat=3):
        up = sum(x for x in d if x > 0)
        if d > (0, 0, 0) and 0 < up - sum(d) <= k and up <= k and math.gcd(*d) == 1:
            differences.append((d, tuple(max(0, -x) for x in d), sum(d)))
    found = set()
    for i, ((d0, d1, d2), (f0, f1, f2), d_sum) in enumerate(differences):
        for (e0, e1, e2), (g0, g1, g2), e_sum in differences[i + 1 :]:
            base = (f0 if f0 > g0 else g0) + (f1 if f1 > g1 else g1) + (f2 if f2 > g2 else g2)
            if base > k or base + d_sum > k or base + e_sum > k:
                continue
            w0, w1, w2 = d1 * e2 - d2 * e1, d2 * e0 - d0 * e2, d0 * e1 - d1 * e0
            if w0 < 0:
                w0, w1, w2 = -w0, -w1, -w2
            if w0 > 0 and w1 > 0 and w2 > 0:
                g = math.gcd(w0, w1, w2)
                found.add((w0 // g, w1 // g, w2 // g))
    return tuple(sorted(found))


@functools.cache
def _level_counts(w, k):
    """(ts, counts): the values t of w on N^n with 0 < t <= k min(w), in
    increasing order, and for each the lattice count
    N_w(t) = #{u in N^n : <w, u> < t}. Every ideal a >= m^k has
    w(a) <= w(x_i^k) = k w_i."""
    top = k * min(w)
    values = [0]
    for wi in w:
        values = [v + wi * j for v in values for j in range((top - v) // wi + 1)]
    values.sort()
    ts, counts = [], []
    for below, t in enumerate(values):
        if t != (ts[-1] if ts else 0):  # the first u at value t: `below` lie under it
            ts.append(t)
            counts.append(below)
    return tuple(ts), tuple(counts)


def _tying_levels(levels, n, k, costs, scale, bar, floor_colength):
    """For the weights w of W(n, k), the values t at which an ideal a
    with w(a) = t, lct(a) = A(w) / (scale t) and colength at least
    floor_colength could still tie the bar, with A(w) = <costs, w>: the
    (w, ts, counts, caps) with the lattice counts N_w(t) and the caps
    floor(bar (scale t)^n / (n! A(w)^n)), keeping the t with N_w(t) and
    floor_colength both at most the cap. The caps grow with t.

    ``levels`` holds (w, ts, counts) triples to cut. None stands for all
    of W(n, k), and then two tests skip a weight before its counts are
    read. One is its valuation volume A(w)^n / (scale^n prod w) above the
    bar: then no t is kept, since N_w(t) >= t^n / (n! prod w), as the
    unit cubes at the points under t cover the simplex <w, x> < t. The
    other is the cap at the largest t, k min(w), below floor_colength.
    The bar only falls during a scan, so the levels kept at a lower bar
    are among those kept at a higher one.
    """
    num, den = bar.numerator * scale**n, bar.denominator * math.factorial(n)
    if levels is None:
        levels = (
            (w, *_level_counts(w, k))
            for w in _compact_normals(n, k)
            if (volume := linalg.dot(costs, w) ** n) * bar.denominator <= num * math.prod(w)
            and num * (k * min(w)) ** n >= floor_colength * den * volume
        )
    out = []
    for w, ts, counts in levels:
        weight_den = den * linalg.dot(costs, w) ** n
        first = bisect.bisect_left(ts, floor_colength * weight_den, key=lambda t: num * t**n)
        kept = [
            (t, count, cap)
            for t, count in zip(ts[first:], counts[first:])
            if (cap := num * t**n // weight_den) >= count
        ]
        if kept:
            out.append((w, *map(tuple, zip(*kept))))
    return out


def _check_level_budget(n, k, mode):
    """Refuse level k past the budget of its mode: `monomials.ENUM_BUDGETS`
    in exact mode, `monomials.UPPER_BUDGETS` in upper mode (a dimension
    without one is refused past k = 1)."""
    if mode == "exact":
        monomials._check_enumeration_budget(n, k)
    elif mode == "upper":
        budget = monomials.UPPER_BUDGETS.get(n, 1)
        if k > budget:
            raise BudgetExceededError(
                f"upper-mode scan for n={n} is budgeted at k <= {budget}, got k={k}",
                n=n, k=k, budget=budget,
            )


def normalized_colength(model, c, k, mode="exact", stats=None):
    """The normalized colength at level k: n! times the least
    lct^n * colength over ideals between the k-th power of the maximal
    ideal and the maximal ideal with colength at least c k^n.

    Exact mode minimizes over every monomial staircase in range (refusing
    beyond `monomials.ENUM_BUDGETS`); upper mode scans valuation ideals
    of a rational weight grid and therefore only bounds the infimum from
    above (refusing beyond `monomials.UPPER_BUDGETS`).
    Ties are broken by the lexicographically least staircase.

    Each value is exact, from the integer facet pick of `lct`. The scan
    keeps one incumbent, the bar: the least value computed so far and, in
    exact mode, a seed, the best value among the powers m^j, j <= k, that
    lie in the family. m^j has lct sum (1-a_i) / j and colength
    C(n+j-1, n), and n! (sum (1-a_i)/j)^n C(n+j-1, n) falls as j grows
    (for n >= 2), so the seed is the value of m^k, which is in the family
    whenever any ideal is. Upper mode has no seed; on the default grid
    its first ideal, of weights (1, ..., 1), is m^k itself.

    Two lower bounds on n! lct^n colength decide every skip: whatever
    they put strictly above the bar can neither win nor tie.
    - An ideal a is skipped unseen when n! B^n l(a) is above the bar for
      B = max(sum (1-a_i)/d_i, max_g min_{g_i>0} (1-a_i)/g_i) over its
      pure degrees d_i and generators g. B is a lower bound for lct(a):
      a contains (x_1^{d_1}, ..., x_n^{d_n}) and each (x^g), and lct
      grows with the ideal (Howald).
    - Exact mode also skips whole subtrees of the staircase recursion
      (`monomials.enumerate_staircases` with its ``prune`` hook). Every
      ideal a below a node contains the node's smallest ideal a_min and
      has colength at least L, the greater of c k^n rounded up and the
      fixed column heights plus the floors of the open ones. lct(a) is
      A(w) / t for a compact Newton facet <w, u> >= t of a, in cost
      units, with A(w) = <costs, w>: w lies in W(n, k)
      (`_compact_normals`), and t = w(a) <= w(a_min), a value of w on
      N^n. No monomial u with <w, u> < t lies in a, so l(a) is also at
      least the lattice count N_w(t) = #{u : <w, u> < t}. The subtree
      goes when n! (A(w) / (scale t))^n max(L, N_w(t)) is above the bar
      for every w in W(n, k) and every such t <= w(a_min). Each of these
      terms is at least n! lct(a_min)^n L. Per bar, `_tying_levels`
      keeps the weights and values that can still tie, with their
      colength caps, so a node costs one least <w, g> over the
      generators of a_min and one bisect per kept weight.

    Ties are never skipped, so the value and the argmin are those of the
    plain `_argmin` over the whole family. ``stats`` (a ScanStats) counts
    the work.
    """
    if not isinstance(model, MonomialPair):
        raise ValidationError("invalid-model", "normalized colength is computed on monomial pairs")
    c = parse_rational(c)
    if c <= 0:
        raise ValidationError("infeasible-c", "c must be positive")
    if k < 2:
        raise ValidationError("invalid-exponent", "k must be at least 2")
    n = model.n
    min_colength = math.ceil(c * Fraction(k) ** n)
    full = math.comb(n + k - 1, n)  # colength of m^k: the monomials of degree < k
    if min_colength > full:
        raise ValidationError(
            "infeasible-c",
            f"no ideal above m^{k} has colength >= {min_colength} (maximum is {full})",
            c=format_rational(c), k=k,
        )
    floor_colength = max(1, min_colength)
    factor = math.factorial(n)
    costs, scale = model.integer_costs

    if stats is None:
        stats = ScanStats()
    bar = None  # the incumbent

    def unbeaten(ideal):
        # whether n! B^n l(a) is at most the bar, for B = p / (scale q)
        stats.ideals_seen += 1
        if bar is not None:
            p, q = _lct_floor(costs, ideal.gens)
            if factor * ideal.colength() * bar.denominator * p**n > bar.numerator * (scale * q) ** n:
                stats.ideals_pruned += 1
                return False
        return True

    def value(ideal):
        nonlocal bar
        stats.lct_evaluations += 1
        num, _, level = _facet_pick(costs, ideal.newton_facets())
        v = Fraction(factor * num**n * ideal.colength(), (scale * level) ** n)
        if bar is None or v < bar:
            bar = v
        return v

    ties = None  # `_tying_levels` cut at the bar `tied_at`
    tied_at = None

    def prune(a_min, least_colength):
        nonlocal ties, tied_at
        stats.nodes_visited += 1
        if ties is None:
            ties, tied_at = _tying_levels(None, n, k, costs, scale, bar, floor_colength), bar
        gens = a_min.gens
        while True:
            for w, ts, _, caps in ties:
                at = bisect.bisect_right(ts, min([sum(map(operator.mul, w, g)) for g in gens]))
                if at and caps[at - 1] >= least_colength:
                    break
            else:
                stats.subtrees_pruned += 1
                return True
            # levels cut at a higher bar keep more: a subtree they prune goes at
            # any lower bar too, one they keep is asked again at this bar
            if tied_at is bar:
                return False
            ties = _tying_levels([level[:3] for level in ties], n, k, costs, scale, bar, floor_colength)
            tied_at = bar

    _check_level_budget(n, k, mode)
    if mode == "exact":
        ideals = monomials.enumerate_staircases(n, k, min_colength=floor_colength, prune=prune)
        bar = Fraction(factor * sum(costs) ** n * full, (scale * k) ** n)
    elif mode == "upper":
        ideals = _valuation_ideals(n, k, min_colength, DEFAULT_WEIGHT_RATIOS)
    else:
        raise ValidationError("invalid-mode", f"unknown mode {mode!r}")
    best = _argmin(filter(unbeaten, ideals), value)
    if best is None and mode == "exact":
        # m^k is in range and ties are never skipped: only unsound pruning gets here
        raise InvariantViolationError(
            "empty-exact-scan", f"the exact scan at k={k} evaluated no ideal, though m^{k} is in range", n=n, k=k
        )
    if best is None:
        raise ValidationError(
            "infeasible-c",
            "no valuation ideal on the weight grid meets the colength constraint",
        )
    return best[0], best[1]


def _valuation_ideals(n, k, min_colength, ratios):
    """Distinct valuation ideals of the weight grid with colength >= min_colength."""
    seen = set()
    for weights in _weight_grid(n, ratios):
        ideal = monomials.valuation_ideal(weights, k)
        if ideal in seen:
            continue
        seen.add(ideal)
        if ideal.colength() >= min_colength:
            yield ideal


def _weight_grid(n, ratios):
    """Rational weight vectors with minimum entry one."""
    for combo in itertools.product(ratios, repeat=n):
        if min(combo) == 1:
            yield combo


class ColengthScanResult(
    namedtuple(
        "ColengthScanResult",
        "c mode rows liminf_estimate reference_hvol warnings",
        defaults=((EQUIVARIANT_WARNING,),),
    )
):
    """A convergence scan: rows are (k, value, argmin ideal) triples."""

    __slots__ = ()

    def to_payload(self):
        return {
            "c": format_rational(self.c),
            "mode": self.mode,
            "rows": [
                {
                    "k": k,
                    "value": format_rational(value),
                    "argmin_gens": [list(g) for g in ideal.gens],
                }
                for k, value, ideal in self.rows
            ],
            "liminf_estimate": format_rational(self.liminf_estimate),
            "reference_hvol": format_rational(self.reference_hvol),
        }

    def csv_rows(self):
        out = [("k", "value_num", "value_den", "argmin_gens", "mode")]
        for k, value, ideal in self.rows:
            gens = ";".join(",".join(str(x) for x in g) for g in ideal.gens)
            out.append((k, value.numerator, value.denominator, gens, self.mode))
        return out


def colength_convergence_scan(model, c, k_range, mode="exact", stats=None):
    """Normalized colengths along increasing k, with a liminf estimate.

    The estimate is the minimum over the tail half of the scanned range.
    Every row is checked exactly against the closed-form normalized
    volume from below; a row falling under it would contradict the
    regular-point colength-multiplicity comparison and is reported as an
    internal invariant violation. ``stats`` (a ScanStats) sums the work
    of every row. A level past the budget of the mode is refused while
    the range is read, before the first row and before a long range is
    held in memory.
    """
    reference = hvol_closed_form(model).value
    ks = []
    for k in k_range:
        _check_level_budget(model.n, k, mode)
        ks.append(k)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError("invalid-range", "k_range must be nonempty and strictly increasing")
    c = parse_rational(c)
    rows = []
    for k in ks:
        value, ideal = normalized_colength(model, c, k, mode=mode, stats=stats)
        if value < reference:
            raise InvariantViolationError(
                "colength-below-volume",
                f"normalized colength {value} at k={k} fell below the normalized volume {reference}",
            )
        rows.append((k, value, ideal))
    tail = rows[len(rows) // 2 :]
    liminf_estimate = min(value for _, value, _ in tail)
    return ColengthScanResult(
        c=c,
        mode=mode,
        rows=tuple(rows),
        liminf_estimate=liminf_estimate,
        reference_hvol=reference,
    )


# ---------------------------------------------------------------------------
# probes


LechGapReport = namedtuple("LechGapReport", "n k delta min_ratio witness ideals_scanned")


def lech_gap_probe(n, k, delta):
    """Minimum of n! colength / multiplicity over ideals squeezed between
    the k-th and ceil(delta k)-th powers of the maximal ideal.

    On affine space the comparison is exact (the ratio never drops below
    one); that is asserted, so a smaller ratio surfaces as an internal
    invariant violation rather than a report entry.
    """
    delta = parse_rational(delta)
    if not 0 < delta < 1:
        raise ValidationError("invalid-range", "delta must lie in (0, 1)")
    j = math.ceil(delta * k)
    factor = math.factorial(n)
    best = _argmin(
        monomials.enumerate_staircases(n, k, contain_power=j),
        lambda ideal: Fraction(factor * ideal.colength()) / ideal.multiplicity(),
    )
    if best is None:
        raise ValidationError("invalid-range", f"no ideals between m^{k} and m^{j}")
    ratio, witness, count = best
    if ratio < 1:
        raise InvariantViolationError(
            "lech-violated",
            f"colength-multiplicity ratio {ratio} below one on a regular point",
            witness=[list(g) for g in witness.gens],
        )
    return LechGapReport(n=n, k=k, delta=delta, min_ratio=ratio, witness=witness, ideals_scanned=count)


class KssVerdict(namedtuple("KssVerdict", "verdict hvol_result bound margin oracle tolerance")):
    """verdict is K-SEMISTABLE or UNSTABLE; margin is bound - hvol, a
    Fraction or a float as the hvol result is exact or not."""

    __slots__ = ()

    def to_payload(self):
        return {
            "verdict": self.verdict,
            "hvol": self.hvol_result.to_payload(),
            "bound": format_rational(self.bound),
            "margin": format_rational(self.margin) if isinstance(self.margin, Fraction) else float(self.margin),
            "oracle": self.oracle,
            "tolerance": self.tolerance,
        }


# the relative gap between the normalized volume and the degree bound
# below which kss_via_cone reads them as equal
KSS_TOLERANCE = 1e-6


def kss_via_cone(fano):
    """K-semistability of a polarized toric base through its cone.

    Compares the normalized volume of the cone vertex against the
    degree bound: equality within KSS_TOLERANCE means K-SEMISTABLE, a
    deficit beyond it means UNSTABLE, and an excess beyond it is
    impossible, so it is raised as an invariant violation.
    The barycenter criterion is evaluated independently, and any
    disagreement with the verdict is a hard error.
    """
    model = cone_construction(fano)
    result = hvol_toric(model)
    bound = fano_degree_bound(fano)
    # compare in the value's own arithmetic: exact values in Fraction
    b = bound if result.exact else float(bound)
    margin = b - result.value
    over = margin < -KSS_TOLERANCE * b
    semistable = abs(margin) <= KSS_TOLERANCE * b
    if over:
        raise InvariantViolationError(
            "kss-bound-violated",
            f"normalized volume {result.value} exceeds the degree bound {bound}",
        )
    verdict = "K-SEMISTABLE" if semistable else "UNSTABLE"
    oracle = toric_kss_oracle(anticanonical_polytope(fano))
    if oracle != semistable:
        raise InvariantViolationError(
            "oracle-disagreement",
            f"barycenter criterion says {oracle}, volume comparison says {semistable}",
            bound=format_rational(bound),
        )
    return KssVerdict(
        verdict=verdict,
        hvol_result=result,
        bound=bound,
        margin=margin,
        oracle=oracle,
        tolerance=KSS_TOLERANCE,
    )


class QBoundReport(namedtuple("QBoundReport", "q n value limit oracle asserted")):
    """value is q (n-1)! vol(Q), limit is n^n."""

    __slots__ = ()

    @property
    def holds(self):
        return self.value <= self.limit

    def to_payload(self):
        return {
            "q": self.q,
            "n": self.n,
            "value": format_rational(self.value),
            "limit": format_rational(self.limit),
            "oracle": self.oracle,
            "asserted": self.asserted,
            "holds": self.holds,
        }


def q_bound_check(fano, q):
    """Check q times the anticanonical degree against n^n.

    Q = polytope / r is the anticanonical moment polytope of the base, with
    (-K)^(n-1) = (n-1)! vol(Q); q is the supplied divisibility of -K. The
    inequality is asserted only when the barycenter oracle certifies Q
    K-semistable; otherwise the numbers are reported without an assertion.
    """
    if q < 1:
        raise ValidationError("invalid-index", "q must be a positive integer")
    n = fano.base_dim + 1
    anticanonical = anticanonical_polytope(fano)
    value = q * math.factorial(n - 1) * anticanonical.volume()
    limit = Fraction(n) ** n
    oracle = toric_kss_oracle(anticanonical)
    if oracle and value > limit:
        raise InvariantViolationError(
            "q-bound-violated",
            f"q (-K)^(n-1) = {value} exceeds n^n = {limit} on a K-semistable base",
        )
    return QBoundReport(q=q, n=n, value=value, limit=limit, oracle=oracle, asserted=oracle)


WitnessReport = namedtuple("WitnessReport", "weights log_discrepancy volume value closed_form")


def maxhvol_witness_check(model):
    """Evaluate the explicit witness valuation on a single-hyperplane pair.

    For boundary coefficient a on one hyperplane, the weights
    (1/(1-a), 1, ..., 1) give log discrepancy n and volume 1 - a; the
    product (1-a) n^n must meet the closed form exactly.
    """
    if not isinstance(model, MonomialPair):
        raise ValidationError("invalid-model", "witness check applies to monomial pairs")
    nonzero = [i for i, a in enumerate(model.coeffs) if a != 0]
    if len(nonzero) > 1:
        raise ValidationError("invalid-coefficient", "witness check needs at most one nonzero coefficient")
    idx = nonzero[0] if nonzero else 0
    a = model.coeffs[idx]
    weights = tuple(1 / (1 - a) if i == idx else Fraction(1) for i in range(model.n))
    valuation = WeightValuation(weights)
    disc = log_discrepancy(model, valuation)
    vol = valuation_volume(model, valuation)
    value = disc**model.n * vol
    expected = (1 - a) * Fraction(model.n) ** model.n
    closed = hvol_closed_form(model).value
    if disc != model.n or vol != 1 - a or value != expected or closed != value:
        raise InvariantViolationError(
            "witness-mismatch",
            f"witness valuation gave A={disc}, vol={vol}, product {value}; expected {expected}",
        )
    return WitnessReport(
        weights=weights,
        log_discrepancy=disc,
        volume=vol,
        value=value,
        closed_form=closed,
    )
