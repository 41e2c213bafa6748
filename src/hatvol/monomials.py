"""Monomial ideals in n variables: staircases, Newton polyhedra,
colengths, multiplicities, powers, integral closures, valuation ideals,
and exhaustive enumeration of the ideals squeezed between two powers of
the maximal ideal.
"""

import itertools
import math
from fractions import Fraction

from . import geometry, linalg
from .errors import BudgetExceededError, ValidationError
from .rationals import parse_int, parse_rational

# exhaustive enumeration is exact or refuses to run; these are the
# default staircase budgets per ambient dimension
ENUM_BUDGETS = {2: 12, 3: 5}

# fixed k ceilings of the upper-mode valuation-ideal scan per ambient
# dimension, each about 20 s or less on a 2-core machine; other
# dimensions are refused
UPPER_BUDGETS = {1: 100000, 2: 480, 3: 5, 4: 2}


def _antichain(points):
    """Minimal elements under componentwise <=."""
    pts = sorted(set(points))
    if pts and len(pts[0]) == 2:
        out = []
        best_y = None
        for x, y in pts:
            if best_y is None or y < best_y:
                out.append((x, y))
                best_y = y
        return out
    out = []
    for p in pts:
        if not any(all(q[i] <= p[i] for i in range(len(p))) for q in out):
            out.append(p)
    return out


def _dominates(u, g):
    return all(u[i] >= g[i] for i in range(len(u)))


class Staircase:
    """The finite set of standard monomials below an m-primary ideal."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = tuple(sorted(points))

    @property
    def size(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, Staircase) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"Staircase(size={self.size})"


class MonomialIdeal:
    """A monomial ideal given by its minimal generating exponents.

    Generators are antichain-reduced and kept in descending
    lexicographic order, so equal ideals compare equal.
    """

    __slots__ = ("n", "gens", "_colength")

    def __init__(self, n, gens):
        n = parse_int(n, "dimension")
        if n < 1:
            raise ValidationError("invalid-dimension", "ambient dimension must be positive")
        cleaned = []
        for g in gens:
            g = tuple(parse_int(x, "exponent") for x in g)
            if len(g) != n:
                raise ValidationError("dimension-mismatch", f"generator {g} has wrong length")
            if any(x < 0 for x in g):
                raise ValidationError("invalid-exponent", f"generator {g} has a negative exponent")
            cleaned.append(g)
        if not cleaned:
            raise ValidationError("empty-input", "a monomial ideal needs at least one generator")
        self.n = n
        self.gens = tuple(sorted(_antichain(cleaned), reverse=True))
        self._colength = None

    # -- structure ----------------------------------------------------

    @property
    def is_unit(self):
        return self.gens == (tuple(0 for _ in range(self.n)),)

    @property
    def is_primary(self):
        """True when some pure power of every variable is a generator."""
        if self.is_unit:
            return False
        for axis in range(self.n):
            if not any(g[axis] > 0 and all(g[j] == 0 for j in range(self.n) if j != axis) for g in self.gens):
                return False
        return True

    def pure_degrees(self):
        """Per-axis exponent of the pure-power generator; None where absent."""
        out = []
        for axis in range(self.n):
            degs = [g[axis] for g in self.gens if all(g[j] == 0 for j in range(self.n) if j != axis)]
            out.append(min(degs) if degs else None)
        return tuple(out)

    def contains_exponent(self, u):
        return any(_dominates(u, g) for g in self.gens)

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal) and self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def __le__(self, other):
        """Ideal containment self <= other, i.e. every generator lies in other."""
        return all(other.contains_exponent(g) for g in self.gens)

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, gens={list(self.gens)})"

    # -- serialization ------------------------------------------------

    def to_json(self):
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, data):
        try:
            return cls(data["n"], data["gens"])
        except (KeyError, TypeError) as exc:
            raise ValidationError("invalid-ideal-json", f"malformed ideal document: {exc}") from exc

    # -- invariants ---------------------------------------------------

    def colength(self):
        """Number of standard monomials, dim_k R/a; requires m-primary."""
        if self._colength is None:
            if not self.is_primary:
                raise ValidationError("infinite-colength", "colength is finite only for m-primary ideals")
            if self.n == 2:
                self._colength = self._colength2()
            else:
                self._colength = sum(1 for _ in self._staircase_iter())
        return self._colength

    def _colength2(self):
        px = self.pure_degrees()[0]
        total = 0
        i = 0
        asc = sorted(self.gens)
        min_y = None
        for x in range(px):
            while i < len(asc) and asc[i][0] <= x:
                min_y = asc[i][1] if min_y is None else min(min_y, asc[i][1])
                i += 1
            total += min_y
        return total

    def _staircase_iter(self):
        box = [range(d) for d in self.pure_degrees()]
        for u in itertools.product(*box):
            if not self.contains_exponent(u):
                yield u

    def staircase(self):
        if not self.is_primary:
            raise ValidationError("infinite-colength", "staircase is finite only for m-primary ideals")
        return Staircase(self._staircase_iter())

    def power(self, m):
        """The m-th power, generated by all m-fold sums of generators."""
        if m < 1:
            raise ValidationError("invalid-exponent", "power exponent must be a positive integer")
        if m == 1:
            return self
        sums = set()
        for combo in itertools.combinations_with_replacement(self.gens, m):
            sums.add(tuple(sum(c) for c in zip(*combo)))
        return MonomialIdeal(self.n, sums)

    def newton_polyhedron(self):
        """conv(generators) + nonnegative orthant, with exact facets."""
        rays = [tuple(int(i == j) for j in range(self.n)) for i in range(self.n)]
        return geometry.Polyhedron(self.gens, rays)

    def lower_hull(self):
        """Vertices of the compact edges of the Newton polygon (n = 2),
        by increasing first exponent: the monotone-chain lower hull of
        the generators, with collinear points dropped."""
        hull = []
        for p in sorted(self.gens):
            while len(hull) >= 2:
                ax, ay = hull[-2]
                bx, by = hull[-1]
                if (bx - ax) * (p[1] - by) - (by - ay) * (p[0] - bx) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return hull

    def newton_facets(self):
        """The facets <normal, u> >= c of the Newton polyhedron with c > 0,
        as (normal, c) with primitive normal: every facet but the
        coordinate ones. For an m-primary ideal they are all compact.

        For n = 2 they are read off the lower hull, plus an axis-parallel
        facet on each axis that lacks a pure power; otherwise they are
        filtered from :meth:`newton_polyhedron`.
        """
        if self.n != 2:
            return [(normal, c) for normal, c in self.newton_polyhedron().facets if c > 0]
        hull = self.lower_hull()
        facets = []
        if hull[0][0] > 0:
            facets.append(((1, 0), hull[0][0]))
        if hull[-1][1] > 0:
            facets.append(((0, 1), hull[-1][1]))
        for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
            g = math.gcd(y0 - y1, x1 - x0)
            normal = ((y0 - y1) // g, (x1 - x0) // g)
            facets.append((normal, normal[0] * x0 + normal[1] * y0))
        return facets

    def multiplicity(self):
        """Hilbert-Samuel multiplicity e(a): n! times the covolume of the
        Newton polyhedron in the orthant. That region is the union of the
        cones from the origin over the compact Newton facets, so e(a) sums
        |det| over a triangulation of each facet by the generators on it.
        An exact integer for m-primary monomial ideals; cross-checkable
        against the colength-of-powers limit n! l(R/a^m)/m^n.
        """
        if not self.is_primary:
            raise ValidationError("infinite-covolume", "multiplicity is finite only for m-primary ideals")
        total = Fraction(0)
        for normal, c in self.newton_facets():
            face = [g for g in self.gens if linalg.dot(normal, g) == c]
            for simplex in geometry._triangulate_indices(face, self.n - 1):
                total += abs(linalg.det([face[i] for i in simplex]))
        return total

    def integral_closure(self):
        """Ideal of all lattice points of the Newton polyhedron.

        Same multiplicity, colength no larger.
        """
        if not self.is_primary:
            raise ValidationError("infinite-covolume", "integral closure implemented for m-primary ideals")
        poly = self.newton_polyhedron()
        degs = self.pure_degrees()
        members = set()
        for u in itertools.product(*[range(d + 1) for d in degs]):
            if poly.contains(u):
                members.add(u)
        minimal = [
            u
            for u in members
            if all(u[i] == 0 or tuple(u[j] - int(j == i) for j in range(self.n)) not in members for i in range(self.n))
        ]
        return MonomialIdeal(self.n, minimal)


def maximal_ideal(n):
    return MonomialIdeal(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])


def maximal_power(n, k):
    """m^k, generated by all exponents of total degree k."""
    if k < 1:
        raise ValidationError("invalid-exponent", "power must be positive")
    gens = [u for u in itertools.product(range(k + 1), repeat=n) if sum(u) == k]
    return MonomialIdeal(n, gens)


def valuation_ideal(weights, k):
    """The ideal of monomials of weighted order at least k.

    For positive rational weights w this is the valuation ideal
    a_k(v_w) = ({x^u : <w, u> >= k}); its minimal generators are found
    by a bounded search up to the pure-power box.
    """
    w = [parse_rational(x) for x in weights]
    if any(x <= 0 for x in w):
        raise ValidationError("invalid-weight", "weights must be strictly positive")
    k = parse_rational(k)
    if k <= 0:
        raise ValidationError("invalid-weight", "threshold k must be positive")
    n = len(w)
    bounds = [math.ceil(k / wi) for wi in w]
    if n == 2:
        gens = []
        for x in range(bounds[0] + 1):
            rem = k - w[0] * x
            y = max(0, math.ceil(rem / w[1]))
            gens.append((x, y))
            if y == 0:
                break
        return MonomialIdeal(2, gens)
    gens = []
    for u in itertools.product(*[range(b + 1) for b in bounds]):
        if linalg.dot(w, u) < k:
            continue
        if all(u[i] == 0 or linalg.dot(w, tuple(u[j] - int(j == i) for j in range(n))) < k for i in range(n)):
            gens.append(u)
    return MonomialIdeal(n, gens)


def enumerate_staircases(n, k, min_colength=1, contain_power=None, budgets=None):
    """Yield every monomial ideal with m^k <= a <= m and colength >= min_colength.

    Each ideal appears exactly once, as the downward-closed staircase it
    cuts out of the truncated box, in lexicographic order of the
    staircase profile. ``contain_power`` = j further restricts to
    a <= m^j. Refuses (rather than truncates) when k exceeds the
    configured budget.
    """
    budgets = dict(ENUM_BUDGETS) if budgets is None else budgets
    if n not in (2, 3):
        raise ValidationError("invalid-dimension", "exhaustive enumeration supports n in {2, 3}")
    if k < 1:
        raise ValidationError("invalid-exponent", "k must be a positive integer")
    budget = budgets.get(n)
    if budget is not None and k > budget:
        raise BudgetExceededError(
            f"enumeration for n={n} is budgeted at k <= {budget}, got k={k}",
            n=n, k=k, budget=budget,
        )
    floor_j = contain_power if contain_power is not None else 0
    if n == 2:
        yield from _enumerate_2d(k, min_colength, floor_j)
    else:
        yield from _enumerate_3d(k, min_colength, floor_j)


def _profile_ideal_2d(profile, k):
    c = list(profile) + [0]
    gens = [(0, c[0])]
    for x in range(1, k + 1):
        if c[x] < c[x - 1]:
            gens.append((x, c[x]))
    ideal = MonomialIdeal(2, gens)
    ideal._colength = sum(profile)
    return ideal


def _enumerate_2d(k, min_colength, floor_j):
    profile = [0] * k

    def rec(x, prev):
        if x == k:
            if sum(profile) >= min_colength:
                yield _profile_ideal_2d(tuple(profile), k)
            return
        lo = max(0 if x > 0 else 1, floor_j - x)
        hi = min(prev, k - x)
        for c in range(lo, hi + 1):
            profile[x] = c
            yield from rec(x + 1, c)
            profile[x] = 0

    yield from rec(0, k)


def _enumerate_3d(k, min_colength, floor_j):
    cells = sorted((x, y) for x in range(k) for y in range(k) if x + y <= k - 1)
    heights = {}

    def staircase_points():
        return [(x, y, z) for (x, y), h in heights.items() for z in range(h)]

    def gens_from_heights():
        pts = set(staircase_points())
        gens = []
        for u in itertools.product(range(k + 1), repeat=3):
            if u in pts:
                continue
            if all(u[i] == 0 or tuple(u[j] - int(j == i) for j in range(3)) in pts for i in range(3)):
                gens.append(u)
        ideal = MonomialIdeal(3, gens)
        ideal._colength = len(pts)
        return ideal

    def rec(i):
        if i == len(cells):
            if sum(heights.values()) >= min_colength:
                yield gens_from_heights()
            return
        x, y = cells[i]
        top = k - x - y
        if x > 0:
            top = min(top, heights[(x - 1, y)])
        if y > 0:
            top = min(top, heights[(x, y - 1)])
        lo = max(0, floor_j - x - y)
        if (x, y) == (0, 0):
            lo = max(lo, 1)
        if lo > top:
            return
        for c in range(lo, top + 1):
            heights[(x, y)] = c
            yield from rec(i + 1)
        del heights[(x, y)]

    yield from rec(0)
