"""Monomial ideals in n variables: staircases, Newton polyhedra,
colengths, multiplicities, powers, valuation ideals, and exhaustive
enumeration of the ideals squeezed between two powers of the maximal
ideal.

Every staircase is held by its column heights: for each cell u of the
first n - 1 exponents, in lexicographic order, h(u) is the number of
standard monomials (u, z). Colength, staircase, valuation ideals and
the enumeration all fill in heights; one corner reader turns heights
back into minimal generators.
"""

import itertools
import math
import operator
from fractions import Fraction

from . import geometry, linalg
from .errors import BudgetExceededError, ValidationError
from .rationals import parse_int, parse_rational

# exhaustive enumeration is exact or refuses to run; these are the fixed
# staircase budgets per ambient dimension
ENUM_BUDGETS = {2: 12, 3: 5}

# the largest level k the upper-mode valuation-ideal scan accepts in each
# ambient dimension; a dimension not listed is refused past k = 1
UPPER_BUDGETS = {1: 100000, 2: 480, 3: 5, 4: 2}

# largest box of column cells a height computation builds; larger boxes
# (huge exponents on outside input) are refused
MAX_BOX_CELLS = 10**6


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
        if not any(all(map(operator.le, q, p)) for q in out):
            out.append(p)
    return out


def _strides(dims):
    """Index strides of the cells of a box of these dimensions, refusing
    a box of more than MAX_BOX_CELLS cells."""
    size = math.prod(dims)
    if size > MAX_BOX_CELLS:
        raise BudgetExceededError(
            f"a staircase box of {size} cells exceeds the limit of {MAX_BOX_CELLS}",
            cells=size, budget=MAX_BOX_CELLS,
        )
    return [math.prod(dims[i + 1 :]) for i in range(len(dims))]


def _cells(dims):
    """The cells of the box prod(range(d) for d in dims), lexicographically
    and lazily: unlike itertools.product, which holds every range as a
    tuple, it keeps nothing but the current prefix."""
    if not dims:
        yield ()
        return
    for head in _cells(dims[:-1]):
        for x in range(dims[-1]):
            yield head + (x,)


def _box(dims):
    """The cells of the box prod(range(d) for d in dims) in lexicographic
    order, and for each cell the indices of the cells one step below it."""
    strides = _strides(dims)
    cells = list(itertools.product(*[range(d) for d in dims]))
    return cells, [[i - s for x, s in zip(u, strides) if x] for i, u in enumerate(cells)]


def _corners(cells, below, heights):
    """The minimal generators of the ideal with these column heights: the
    (u, h(u)) whose column is lower than every column one step below it.
    The cells must reach one step past every column of positive height."""
    gens = []
    for u, lower, h in zip(cells, below, heights):
        for j in lower:
            if heights[j] <= h:
                break
        else:
            gens.append(u + (h,))
    return gens


class MonomialIdeal:
    """A monomial ideal given by its minimal generating exponents.

    Generators are antichain-reduced and kept in descending
    lexicographic order, so equal ideals compare equal.
    """

    __slots__ = ("n", "gens", "_colength", "_columns", "_facets", "_polyhedron")

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
        self._set(n, tuple(sorted(_antichain(cleaned), reverse=True)))

    def _set(self, n, gens):
        self.n = n
        self.gens = gens
        self._colength = None
        self._columns = None
        self._facets = None
        self._polyhedron = None

    @classmethod
    def _from_corners(cls, n, gens):
        """The ideal with the generators `_corners` returns: already a
        lexicographically sorted antichain of int tuples, so they are only
        put in descending order, without parsing or reduction."""
        ideal = cls.__new__(cls)
        ideal._set(n, tuple(reversed(gens)))
        return ideal

    # -- structure ----------------------------------------------------

    @property
    def is_unit(self):
        return self.gens == (tuple(0 for _ in range(self.n)),)

    @property
    def is_primary(self):
        """True when some pure power of every variable is a generator."""
        return not self.is_unit and None not in self.pure_degrees()

    def pure_degrees(self):
        """Per-axis exponent of the pure-power generator; None where absent."""
        out = []
        for axis in range(self.n):
            degs = [g[axis] for g in self.gens if all(g[j] == 0 for j in range(self.n) if j != axis)]
            out.append(min(degs) if degs else None)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal) and self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, gens={list(self.gens)})"

    # -- serialization ------------------------------------------------

    @classmethod
    def from_json(cls, data):
        gens = data.get("gens") if isinstance(data, dict) else None
        if not isinstance(gens, list) or "n" not in data or not all(isinstance(g, list) for g in gens):
            raise ValidationError("invalid-ideal-json", "ideal document needs 'n' and a 'gens' list of lists")
        return cls(data["n"], gens)

    # -- invariants ---------------------------------------------------

    def colength(self):
        """Number of standard monomials, dim_k R/a; requires m-primary."""
        if self._colength is None:
            self._colength = sum(self._column_heights()[1])
        return self._colength

    def staircase(self):
        """The standard monomials as a sorted tuple of exponent vectors."""
        dims, heights = self._column_heights()
        return tuple(u + (z,) for u, h in zip(_cells(dims), heights) for z in range(h))

    def _column_heights(self):
        """(dims, heights): the dimensions of the box one step past the
        first n - 1 pure degrees, and for its cells u in lexicographic
        order h(u), the least last exponent of a generator at or below u.
        Only heights are stored; the cell one step below u along axis j
        sits strides[j] places before it."""
        if self._columns is None:
            if not self.is_primary:
                raise ValidationError("infinite-colength", "colength is finite only for m-primary ideals")
            dims = [d + 1 for d in self.pure_degrees()[:-1]]
            strides = _strides(dims)
            tops = {g[:-1]: g[-1] for g in self.gens}
            heights = []
            for i, u in enumerate(_cells(dims)):
                h = tops.get(u, math.inf)
                for x, s in zip(u, strides):
                    if x and heights[i - s] < h:
                        h = heights[i - s]
                heights.append(h)
            self._columns = (dims, heights)
        return self._columns

    def power(self, m):
        """The m-th power, generated by all m-fold sums of generators.

        Every partial sum lies in the box of exponents up to m times the
        largest of each coordinate, so a power whose box has more than
        MAX_BOX_CELLS cells is refused before the first sum."""
        if m < 1:
            raise ValidationError("invalid-exponent", "power exponent must be a positive integer")
        if m == 1:
            return self
        size = math.prod(m * max(col) + 1 for col in zip(*self.gens))
        if size > MAX_BOX_CELLS:
            raise BudgetExceededError(
                f"the exponent box of a {m}-th power has {size} cells, over the limit of {MAX_BOX_CELLS}",
                cells=size, budget=MAX_BOX_CELLS,
            )
        sums = set(self.gens)
        for _ in range(m - 1):
            sums = {tuple(a + b for a, b in zip(s, g)) for s in sums for g in self.gens}
        return MonomialIdeal(self.n, sums)

    def newton_polyhedron(self):
        """conv(generators) + nonnegative orthant, with exact facets, built
        once per ideal: the Newton facets and the multiplicity read the
        same facets and incidences."""
        if self._polyhedron is None:
            rays = [tuple(int(i == j) for j in range(self.n)) for i in range(self.n)]
            self._polyhedron = geometry.Polyhedron(self.gens, rays)
        return self._polyhedron

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
        filtered from :meth:`newton_polyhedron`. Computed once per ideal,
        as a tuple.
        """
        if self._facets is None:
            self._facets = tuple(self._newton_facets())
        return self._facets

    def _newton_facets(self):
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
        |det| over a triangulation of each facet by its vertices.

        For n = 2 the facets are the edges of the lower hull. From n = 3 on
        it is `geometry.Polyhedron.covolume` of the one Newton polyhedron,
        read off the facet incidences that the Newton facets come from,
        with no facet charted or hulled again. An exact integer for
        m-primary monomial ideals; cross-checkable against the
        colength-of-powers limit n! l(R/a^m)/m^n and the covolume of the
        box-truncated polyhedron.
        """
        if not self.is_primary:
            raise ValidationError("infinite-covolume", "multiplicity is finite only for m-primary ideals")
        if self.n == 1:
            return Fraction(self.gens[0][0])
        if self.n == 2:
            hull = self.lower_hull()
            return Fraction(sum(abs(x0 * y1 - x1 * y0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])))
        return Fraction(self.newton_polyhedron().covolume())


def maximal_power(n, k):
    """m^k, generated by all exponents of total degree k."""
    if k < 1:
        raise ValidationError("invalid-exponent", "power must be positive")
    return valuation_ideal((1,) * n, k)


def valuation_ideal(weights, k):
    """The ideal of monomials of weighted order at least k.

    For positive rational weights w this is the valuation ideal
    a_k(v_w) = ({x^u : <w, u> >= k}). Its column over u has height
    max(0, ceil((k - <w', u>) / w_n)), where w' holds the first n - 1
    weights; the columns vanish once some u_i reaches ceil(k / w_i).
    """
    w = [parse_rational(x) for x in weights]
    if any(x <= 0 for x in w):
        raise ValidationError("invalid-weight", "weights must be strictly positive")
    k = parse_rational(k)
    if k <= 0:
        raise ValidationError("invalid-weight", "threshold k must be positive")
    # in integers: ceil(a / b) = -(-a // b) for b > 0
    *head, last, level = linalg.clear_denominators(w + [k])
    dims = [-(-level // wi) + 1 for wi in head]
    cells, below = _box(dims)
    heights = [max(0, -((linalg.dot(head, u) - level) // last)) for u in cells]
    return _with_columns(len(w), dims, cells, below, heights)


def _with_columns(n, dims, cells, below, heights):
    """The ideal with these column heights over the box one step past its
    first n - 1 pure degrees, keeping them as its `_column_heights`."""
    ideal = MonomialIdeal._from_corners(n, _corners(cells, below, heights))
    ideal._columns = (dims, heights)
    return ideal


def _check_enumeration_budget(n, k):
    """Refuse an exhaustive enumeration at level k past ENUM_BUDGETS[n];
    a dimension without a budget passes."""
    budget = ENUM_BUDGETS.get(n)
    if budget is not None and k > budget:
        raise BudgetExceededError(
            f"enumeration for n={n} is budgeted at k <= {budget}, got k={k}",
            n=n, k=k, budget=budget,
        )


def enumerate_staircases(n, k, min_colength=1, contain_power=None, prune=None):
    """Yield every monomial ideal with m^k <= a <= m and colength >= min_colength.

    Each ideal appears exactly once, as the column heights it sets over
    the cells |u| <= k - 1 of the first n - 1 exponents, in
    lexicographic order of those heights (cells in lexicographic order).
    Each height runs upward from its floor to the least of k - |u| and
    the heights one step below. ``contain_power`` = j further restricts
    to a <= m^j. Refuses (rather than truncates) when k exceeds
    ENUM_BUDGETS.

    ``prune(a_min, least_colength)``, if given, is asked at every inner
    node of the recursion before its subtree is enumerated; a true answer
    skips the whole subtree. a_min sets every open column to its
    ceiling, so it is the smallest ideal of the subtree and every ideal
    yielded below the node contains it. least_colength is the greater of
    min_colength and the fixed heights plus the floors of the open
    columns, a lower bound for the colength of every ideal yielded
    below. The hook is called lazily, between yields, so it may read
    state the consumer updates. Without it every ideal in range is
    yielded.
    """
    if n not in (2, 3):
        raise ValidationError("invalid-dimension", "exhaustive enumeration supports n in {2, 3}")
    if k < 1:
        raise ValidationError("invalid-exponent", "k must be a positive integer")
    _check_enumeration_budget(n, k)
    floor_j = contain_power if contain_power is not None else 0
    # cells with |u| >= k keep height 0; they let the corner reader see
    # the generators with last exponent 0
    cells, below = _box([k + 1] * (n - 1))
    free = [
        (i, max(0 if any(u) else 1, floor_j - sum(u)), k - sum(u), below[i])
        for i, u in enumerate(cells)
        if sum(u) < k
    ]
    # floors[d]: the least total height of the columns free[d:]
    floors = list(itertools.accumulate(reversed([lo for _, lo, _, _ in free]), initial=0))[::-1]
    heights = [0] * len(cells)

    def ceiling(top, lower):
        for j in lower:
            if heights[j] < top:
                top = heights[j]
        return top

    def smallest(depth):
        # an open column's height is read only after the recursion sets
        # it, so a_min is built in place over the open columns
        for i, _, top, lower in free[depth:]:
            heights[i] = ceiling(top, lower)
        return MonomialIdeal._from_corners(n, _corners(cells, below, heights))

    def rec(depth, total, a_min):
        if depth == len(free):
            if total >= min_colength:
                ideal = MonomialIdeal._from_corners(n, _corners(cells, below, heights))
                ideal._colength = total
                yield ideal
            return
        if prune is not None:
            if a_min is None:
                a_min = smallest(depth)
            if prune(a_min, max(min_colength, total + floors[depth])):
                return
        i, lo, top, lower = free[depth]
        top = ceiling(top, lower)
        for c in range(lo, top + 1):
            heights[i] = c
            # the child at the ceiling has this node's a_min, and reuses
            # the object with what the hook cached on it
            yield from rec(depth + 1, total + c, a_min if c == top else None)

    yield from rec(0, 0, None)
