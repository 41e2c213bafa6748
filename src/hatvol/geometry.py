"""Exact rational polyhedral geometry in ambient dimension up to four.

Convex bodies are stored by their vertices, with the bitmask of the
vertices on each facet. Every facet system (of a hull, of a polyhedron
with recession rays, of a cone) comes from one kernel, `_extreme_rays`,
which finds the extreme rays of a dual cone by double description over
integer normals: a simplicial start from independent rows, found by the
fraction-free reduction of `linalg` on a dim x dim transform block, one
cut per further row, adjacency read off zero sets held as bitmasks. For
hulls and polyhedra the cone is the homogenization one dimension higher,
and `Polyhedron.facets` alone reads facets off it, with the points on
each as ``incidence``; `convex_hull` clears its points to one common
denominator and hulls the integer points as a `Polyhedron` with no rays.
The rest is read off these incidences, with no dot product and no rank
test: `_vertices` keeps a point (or a ray) whose set of facets lies in
no other point's set, and one fan, `_fan`, from the least vertex
triangulates every body, taking the facets of a face as its maximal
intersections with the other facets (`_ridges`). Volumes, barycenters
and the toric slice all triangulate through `ConvexBody.triangulation`.
A `Polyhedron` owns its covolume: it fans each facet <a, x> >= c with
c > 0 the same way and sums the cones from the origin over the
simplices; over the orthant that is the multiplicity of a monomial
ideal. A point set of lower affine dimension is flattened by a
coordinate chart, the pivot columns of the row echelon form of its
differences, onto which it projects one-to-one and in sorted order, so
degenerate hulls keep their indices. A `Cone` is pointed and
full-dimensional, as the cone of a toric singularity is, and its dual is
read off its own double description. Convex bodies run
in integers too: a `ConvexBody` holds its vertices and right-hand sides
as ints over one common denominator and builds a `fractions.Fraction`
only for a value it returns. No floating point enters here.
"""

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .errors import BudgetExceededError, InvariantViolationError, ValidationError
from .rationals import parse_int

MAX_DIM = 4

# most prefix cells one lattice count scans, and one counting probe over
# all its dilations together; larger dilated boxes and probes are refused
MAX_LATTICE_CELLS = 10**6


def _check_dim(dim):
    """Refuse an ambient dimension above MAX_DIM."""
    if dim > MAX_DIM:
        raise ValidationError("unsupported-dimension", f"dimension {dim} exceeds supported maximum {MAX_DIM}")


# ---------------------------------------------------------------------------
# convex bodies


class ConvexBody:
    """A bounded convex polytope with exact rational vertices, in ints.

    Instances are produced by :func:`convex_hull` and are immutable.
    ``_points`` are the sorted vertices times a positive common
    denominator ``_den``, as int tuples; the `Fraction` ``vertices`` are
    built when first read. ``facets`` is the irredundant system of
    inequalities <a, x> <= b with primitive integer normals; for a body
    of lower affine dimension the system is complemented by
    ``equations`` cutting out the affine hull. Both are stored with den b
    as an int. ``_incidence`` holds, for each facet, the bitmask of the
    vertices on it (bit i for ``vertices[i]``).
    """

    __slots__ = ("dim", "affine_dim", "_points", "_den", "_vertices", "_facets", "_equations", "_incidence")

    def __init__(self, dim, affine_dim, points, den, facets, equations, incidence):
        self.dim = dim
        self.affine_dim = affine_dim
        self._points = points
        self._den = den
        self._vertices = None
        self._facets = facets
        self._equations = equations
        self._incidence = incidence

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = tuple(tuple(Fraction(x, self._den) for x in p) for p in self._points)
        return self._vertices

    @property
    def is_full_dimensional(self):
        return self.affine_dim == self.dim

    @property
    def facets(self):
        return tuple((a, Fraction(b, self._den)) for a, b in self._facets)

    @property
    def equations(self):
        return tuple((a, Fraction(b, self._den)) for a, b in self._equations)

    def __eq__(self, other):
        return (
            isinstance(other, ConvexBody)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return f"ConvexBody(dim={self.dim}, vertices={len(self._points)}, affine_dim={self.affine_dim})"

    def contains(self, point, strict=False):
        """Exact membership test; ``strict`` tests the interior. The point
        is cleared to ints x / q, and <a, x / q> <= b / den tested in ints."""
        x, q = linalg._scaled(point)
        if len(x) != self.dim:
            raise ValidationError("dimension-mismatch", "point dimension differs from body dimension")
        den = self._den
        for normal, rhs in self._equations:
            if den * linalg.dot(normal, x) != q * rhs:
                return False
        if strict and self._equations:
            return False
        for normal, rhs in self._facets:
            value, bound = den * linalg.dot(normal, x), q * rhs
            if value > bound or (strict and value == bound):
                return False
        return True

    def triangulation(self):
        """The simplices of the body as index tuples into ``vertices``:
        ``[(0,)]`` for a point, otherwise the fan `_fan` over the vertex
        sets of the body's own facets in its affine dimension. Only
        vertices are used, and no face is hulled again."""
        if self.affine_dim == 0:
            return [(0,)]
        return _fan(self._points, self._incidence, self.affine_dim)

    def volume(self):
        return volume(self)

    def barycenter(self):
        """Exact barycenter (uniform mass), over the same fan as volume."""
        if not self.is_full_dimensional:
            raise ValidationError("degenerate-body", "barycenter implemented for full-dimensional bodies")
        total = 0
        weighted = [0] * self.dim
        for simplex, det in _simplices(self):
            total += det
            for i in range(self.dim):
                weighted[i] += det * sum(p[i] for p in simplex)
        return tuple(Fraction(w, total * (self.dim + 1) * self._den) for w in weighted)


def convex_hull(points):
    """Convex hull of exact rational points as a :class:`ConvexBody`.

    The points are cleared to one common denominator (none for ints) and
    hulled by :func:`_int_body`. The vertex set is minimal and sorted,
    and `ConvexBody.triangulation` indexes into it. Lower-dimensional
    inputs are supported: the body is flagged not full-dimensional, its
    facets are those of the hull in chart coordinates, zero-padded to the
    ambient dimension, and explicit equations cut out the affine hull.
    """
    points = list(points)
    if not points:
        raise ValidationError("empty-input", "convex hull of an empty point set")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise ValidationError("dimension-mismatch", "points of mixed dimension")
    flat, den = linalg._scaled([x for p in points for x in p])
    return _int_body([tuple(flat[i * dim : (i + 1) * dim]) for i in range(len(points))], den)


def _int_body(points, den):
    """The hull of the points p / den, for int points p and a positive int
    den, by :func:`_int_hull`, with the vertices and right-hand sides kept
    as ints over den."""
    pts = sorted(set(map(tuple, points)))
    dim = len(pts[0])
    _check_dim(dim)
    if dim < 1:
        raise ValidationError("unsupported-dimension", "dimension must be at least 1")
    keep, facets, equations, affine_dim, incidence = _int_hull(pts)
    kept = tuple(pts[i] for i in keep)
    return ConvexBody(dim, affine_dim, kept, den, tuple(facets), tuple(equations), incidence)


def _int_hull(points):
    """The hull of sorted, distinct integer points, all in ints: (vertex
    indices, facets (a, b) for <a, x> <= b, equations (a, b) for
    <a, x> = b, affine dimension, vertex bitmask of each facet).

    A full-dimensional hull reads its facets <a, x> >= c and their point
    sets off `Polyhedron` with no rays, as <-a, x> <= -c sorted by
    (normal, rhs). A lower-dimensional one is hulled again in chart
    coordinates. The first coordinate in which two of the points differ
    is a pivot column of the chart, so the projection keeps them sorted
    and distinct, and indices, facets and incidences carry over.
    """
    dim = len(points[0])
    base = points[0]
    diffs = [tuple(x - y for x, y in zip(p, base)) for p in points[1:]]
    # projecting onto the pivot columns of the row echelon form of the
    # differences is one-to-one on the affine hull of the points, so facets,
    # vertices and triangulations of the projected points are theirs
    chart = linalg._pivot_columns(diffs)
    affine_dim = len(chart)
    if affine_dim == dim:
        hull = Polyhedron(points, ())
        facets = sorted((tuple(-x for x in a), -c, m) for (a, c), m in zip(hull.facets, hull.incidence))
        masks = [m for _, _, m in facets]
        keep = _vertices(masks, len(points))
        incidence = tuple(sum(1 << j for j, i in enumerate(keep) if m >> i & 1) for m in masks)
        return keep, [(a, b) for a, b, _ in facets], [], dim, incidence
    normals = [linalg.primitive(linalg.clear_denominators(n)) for n in linalg.nullspace(diffs, dim)]
    equations = sorted((a, linalg.dot(a, base)) for a in normals)
    if affine_dim == 0:
        return [0], [], equations, 0, ()
    keep, sub_facets, _, _, incidence = _int_hull([tuple(p[c] for c in chart) for p in points])
    facets = []
    for normal, rhs in sub_facets:
        # zero-padded, a primitive chart normal stays primitive
        lift = dict(zip(chart, normal))
        facets.append((tuple(lift.get(i, 0) for i in range(dim)), rhs))
    return keep, facets, equations, affine_dim, incidence


def _vertices(facets, count):
    """Indices of the vertices among ``count`` distinct points, given as
    ``facets`` the bitmask of the points on each facet.

    A point is a vertex exactly when the facets through it meet in it
    alone, that is, when its set of facets lies in no other point's set.
    With the zero sets of the dual rays of a pointed cone over its
    distinct primitive rays, the same test finds the extreme rays.
    """
    everything = (1 << count) - 1
    out = []
    for i in range(count):
        bit = 1 << i
        meet = everything
        for mask in facets:
            if mask & bit:
                meet &= mask
        if meet == bit:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# triangulation and volume


def _fan(points, facets, d):
    """Triangulate a d-polytope into index tuples over ``points``, given
    the vertex sets of its facets as bitmasks (bit i for points[i]).

    A segment is the pair of its two vertices. From d = 2 on, the
    polytope is fanned from its lexicographically least vertex over
    triangulations of the facets that do not pass through it. The facets
    of a facet F are the maximal nonempty intersections of F with the
    other facets, so no face is hulled again.
    """
    if d == 1:
        return [tuple(_members(facets[0] | facets[1]))]
    union = 0
    for face in facets:
        union |= face
    apex = min(_members(union), key=points.__getitem__)
    simplices = []
    for k, face in enumerate(facets):
        if face >> apex & 1:
            continue
        for sub in _fan(points, _ridges(face, facets[:k] + facets[k + 1 :]), d - 1):
            simplices.append((apex,) + sub)
    return simplices


def _ridges(face, others):
    """The facets of a face, as the vertex bitmasks of its maximal
    nonempty intersections with ``others``, the vertex bitmasks of the
    other facets of the polytope, in order of first appearance."""
    meets = [m for m in dict.fromkeys(face & other for other in others) if m]
    return [m for m in meets if not any(m & n == m and m != n for n in meets)]


def _members(mask):
    """The set bits of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _simplices(body):
    """Each simplex of the fan of a full-dimensional body over the vertex
    sets of its own facets, as its int corners (den times the vertices),
    with the int |det| of its edges (dim! den^dim times its volume)."""
    points = body._points
    for idx in body.triangulation():
        simplex = [points[i] for i in idx]
        apex = simplex[0]
        yield simplex, abs(linalg._det([[x - y for x, y in zip(p, apex)] for p in simplex[1:]]))


def volume(body):
    """Exact Euclidean volume; zero (degenerate) for lower-dimensional bodies."""
    if not body.is_full_dimensional:
        return Fraction(0)
    return Fraction(sum(det for _, det in _simplices(body)), math.factorial(body.dim) * body._den**body.dim)


# ---------------------------------------------------------------------------
# lattice point counting


def _int_ceil(num, den):
    return -((-num) // den)


def _dilated_bounds(body, k):
    """The integer range of each coordinate over the dilate k * body."""
    return [(_int_ceil(k * min(c), body._den), k * max(c) // body._den) for c in zip(*body._points)]


def _prefix_cells(bounds):
    """Cells of the box of all but the last coordinate ranges."""
    return math.prod(max(0, hi - lo + 1) for lo, hi in bounds[:-1])


def _check_cells(cells, what):
    if cells > MAX_LATTICE_CELLS:
        raise BudgetExceededError(
            f"{what} of {cells} cells exceeds the limit of {MAX_LATTICE_CELLS}",
            cells=cells, budget=MAX_LATTICE_CELLS,
        )


def lattice_points(body, k):
    """Exact count of integer points in the dilate k * body.

    Iterates the integer bounding box of the first dim - 1 coordinates
    and resolves the last coordinate as an exact interval read off the
    integer facet system.
    """
    if k < 1:
        raise ValidationError("invalid-dilation", "dilation factor must be a positive integer")
    dim = body.dim
    # integral forms den * <a, u> <= k * b; an equation is two of them
    rows = list(body._facets)
    for normal, rhs in body._equations:
        rows += [(normal, rhs), (tuple(-a for a in normal), -rhs)]
    ineqs = [(tuple(body._den * a for a in normal), k * rhs) for normal, rhs in rows]
    bounds = _dilated_bounds(body, k)
    prefix_ranges = [range(lo, hi + 1) for lo, hi in bounds[:-1]]
    _check_cells(_prefix_cells(bounds), "a dilated box")
    lo_last, hi_last = bounds[-1]
    count = 0
    for prefix in itertools.product(*prefix_ranges):
        lo, hi = lo_last, hi_last
        ok = True
        for a, b in ineqs:
            partial = sum(a[i] * prefix[i] for i in range(dim - 1))
            c = a[-1]
            if c > 0:
                hi = min(hi, (b - partial) // c)
            elif c < 0:
                lo = max(lo, _int_ceil(b - partial, c))
            elif partial > b:
                ok = False
                break
        if ok and hi >= lo:
            count += hi - lo + 1
    return count


class CountingProbeResult(namedtuple("CountingProbeResult", "rows epsilon k0")):
    """Per-dilation lattice counting errors and the empirical threshold:
    rows are (k, exact absolute error) pairs, and k0 is the least k in
    range from which all later errors are <= epsilon, or None."""

    __slots__ = ()

    def error_at(self, k):
        for kk, err in self.rows:
            if kk == k:
                return err
        raise KeyError(k)


def counting_error_probe(body, k_range, epsilon=Fraction(1, 20)):
    """Tabulate |#(k*body ∩ Z^n)/k^n - vol(body)| over a dilation range.

    Reports every per-k error without smoothing, plus the least k in the
    range after which every error stays within epsilon (None if never).
    A negative epsilon is refused. Before the first count, each dilated
    prefix box and the running sum of their sizes are checked against
    MAX_LATTICE_CELLS.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValidationError("invalid-epsilon", f"epsilon must be nonnegative, got {epsilon}")
    ks = list(k_range)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError("invalid-range", "k_range must be nonempty and strictly increasing")
    if ks[0] < 1:
        raise ValidationError("invalid-dilation", "dilation factor must be a positive integer")
    total = 0
    for k in ks:
        cells = _prefix_cells(_dilated_bounds(body, k))
        _check_cells(cells, "a dilated box")
        total += cells
        _check_cells(total, "a counting probe")
    vol = volume(body)
    n = body.dim
    rows = []
    for k in ks:
        err = abs(Fraction(lattice_points(body, k), k**n) - vol)
        rows.append((k, err))
    k0 = None
    for i in range(len(rows) - 1, -1, -1):
        if rows[i][1] <= epsilon:
            k0 = rows[i][0]
        else:
            break
    return CountingProbeResult(rows=tuple(rows), epsilon=epsilon, k0=k0)


# ---------------------------------------------------------------------------
# monotone Riemann sums


class RiemannGapResult(namedtuple("RiemannGapResult", "gap bound")):
    __slots__ = ()

    @property
    def holds(self):
        return self.gap <= self.bound


def monotone_riemann_gap(samples, a, b, k, integral):
    """Gap between an exact integral and the (1/k)-grid Riemann sum.

    ``samples`` maps each grid point of [a, b] ∩ (1/k)Z to a value in
    [0, 1]; the values must be monotone along the grid. The caller
    supplies the exact integral of the sampled function.
    """
    a, b, integral = Fraction(a), Fraction(b), Fraction(integral)
    if k < 1:
        raise ValidationError("invalid-range", "k must be a positive integer")
    grid = [Fraction(j, k) for j in range(math.ceil(a * k), math.floor(b * k) + 1)]
    values = []
    for t in grid:
        if t not in samples:
            raise ValidationError("missing-sample", f"no sample at grid point {t}")
        g = Fraction(samples[t])
        if g < 0 or g > 1:
            raise ValidationError("invalid-sample", f"sample {g} at {t} outside [0, 1]")
        values.append(g)
    increasing = all(x <= y for x, y in zip(values, values[1:]))
    decreasing = all(x >= y for x, y in zip(values, values[1:]))
    if not (increasing or decreasing):
        raise ValidationError("monotonicity-violation", "samples are not monotone along the grid")
    riemann = sum(values, Fraction(0)) / k
    return RiemannGapResult(gap=abs(integral - riemann), bound=Fraction(2, k))


# ---------------------------------------------------------------------------
# cones


class Cone:
    """A pointed full-dimensional rational polyhedral cone, the cone of a
    toric singularity, given by generator rays.

    On construction the rays are normalized to primitive vectors and
    reduced to the extreme ones, so that representations are unique. Any
    other cone is refused as `invalid-cone`.
    """

    __slots__ = ("dim", "rays", "_dual_rays")

    def __init__(self, rays):
        rays = list(rays)
        if not rays:
            raise ValidationError("empty-input", "a cone needs at least one ray")
        dim = len(rays[0])
        if any(len(r) != dim for r in rays):
            raise ValidationError("dimension-mismatch", "rays of mixed dimension")
        prim = []
        for r in rays:
            r = tuple(parse_int(x, "ray coordinate") for x in r)
            if all(x == 0 for x in r):
                raise ValidationError("invalid-cone", "zero vector is not a ray")
            prim.append(linalg.primitive(r))
        prim = sorted(set(prim))
        # the facet normals of a full-dimensional cone; it is pointed when
        # their sum pairs positively with every ray
        dual = _extreme_rays(prim, dim) if linalg.rank(prim) == dim else []
        normals = [w for w, _ in dual]
        interior = [sum(col) for col in zip(*normals)]
        if not normals or any(linalg.dot(interior, r) <= 0 for r in prim):
            raise ValidationError("invalid-cone", "toric singularities need a pointed full-dimensional cone")
        self.dim = dim
        self._dual_rays = normals
        self.rays = tuple(prim[i] for i in _vertices([zeros for _, zeros in dual], len(prim)))

    def dual(self):
        """The dual cone {u : <u, v> >= 0 for all rays v}; an involution.

        No second double description: the rays `_extreme_rays` gave this
        cone's facets are primitive, extreme and sorted, so they are the
        dual's rays; the dual of a pointed full-dimensional cone is again
        pointed and full-dimensional, and its own facet normals are this
        cone's rays."""
        dual = Cone.__new__(Cone)
        dual.dim = self.dim
        dual.rays = tuple(self._dual_rays)
        dual._dual_rays = list(self.rays)
        return dual

    def __eq__(self, other):
        return isinstance(other, Cone) and self.rays == other.rays

    def __hash__(self):
        return hash(self.rays)

    def __repr__(self):
        return f"Cone(rays={list(self.rays)})"


def _simplicial_start(rows, dim):
    """The first dim linearly independent rows with the extreme rays of
    the simplicial cone they cut out: ray i pairs positively with chosen
    row i and vanishes on the others. None when the rows have rank below
    dim.

    This is the fraction-free reduction of `linalg._reduce` on the
    transposed rows beside an identity block, carried out on the
    identity block E alone: every step is a row operation, so column c
    of the reduced transpose is E times row c, read when the scan
    reaches it. The pivot columns are the chosen rows, and the scan
    stops at the dim-th. Then E B^T = d I, where B holds the chosen rows
    and d is the last pivot: row i of E, times the sign of d, is ray i.
    """
    # each row of E carries one more entry: its product with the row scanned
    transform = [[int(i == j) for j in range(dim)] + [0] for i in range(dim)]
    chosen, prev = [], 1
    for c, a in enumerate(rows):
        r = len(chosen)
        for e in transform:
            e[dim] = sum(map(operator.mul, e, a))
        pivot = next((i for i in range(r, dim) if transform[i][dim]), None)
        if pivot is None:
            continue
        transform[r], transform[pivot] = transform[pivot], transform[r]
        prev = linalg._pivot(transform, r, dim, prev)
        chosen.append(c)
        if r + 1 == dim:
            sign = 1 if prev > 0 else -1
            return chosen, [linalg.primitive([sign * x for x in e[:dim]]) for e in transform]
    return None


def _extreme_rays(normals, dim):
    """Extreme rays of the cone {y : <a, y> >= 0 for every row a} over
    integer rows a of full rank dim, as pairs (ray, zero set) sorted by
    ray: each ray is a primitive integer vector, and bit i of its zero
    set is set when <a_i, ray> = 0.

    The cone is pointed; it may be lower-dimensional or {0}, which has
    no rays. Double description (Motzkin, Raiffa, Thompson and Thrall
    1953; Fukuda and Prodon 1996): start from the simplicial cone of dim
    independent rows and cut by the other rows one at a time. A cut
    keeps the rays on its + and 0 sides and replaces each adjacent pair
    p, q on opposite sides by <a, p> q - <a, q> p, which lies on the
    hyperplane. Each ray carries its zero set over the rows cut so far
    as a bitmask; p and q are adjacent exactly when their common zeros
    number at least dim - 2 and lie in the zero set of no third ray.
    Everything stays in integers.
    """
    rows = [tuple(a) for a in normals]
    start = _simplicial_start(rows, dim)
    if start is None:
        raise InvariantViolationError("rank-deficient", "facet kernel needs normals of full rank")
    chosen, rays = start
    everywhere = sum(1 << i for i in chosen)
    zeros = [everywhere & ~(1 << i) for i in chosen]
    for index, a in enumerate(rows):
        if index in chosen:
            continue
        bit = 1 << index
        values = [sum(map(operator.mul, a, ray)) for ray in rays]
        kept_rays, kept_zeros, plus, minus = [], [], [], []
        for i, value in enumerate(values):
            if value < 0:
                minus.append(i)
                continue
            if value > 0:
                plus.append(i)
            kept_rays.append(rays[i])
            kept_zeros.append(zeros[i] if value else zeros[i] | bit)
        for i in plus:
            for j in minus:
                common = zeros[i] & zeros[j]
                # i and j hold their common zeros; a third ray must not
                if common.bit_count() < dim - 2 or sum(z & common == common for z in zeros) > 2:
                    continue
                vi, vj = values[i], values[j]
                kept_rays.append(linalg.primitive([vi * y - vj * x for x, y in zip(rays[i], rays[j])]))
                kept_zeros.append(common | bit)
        rays, zeros = kept_rays, kept_zeros
    return sorted(zip(rays, zeros))


# ---------------------------------------------------------------------------
# polyhedra with recession rays


class Polyhedron:
    """An unbounded polyhedron P given by integer generating points plus
    recession rays.

    Points and rays are int vectors from inside the package (Newton
    polyhedra), so they are not parsed again: the points are sorted and
    deduplicated, the rays made primitive. The facet system is derived
    once by :func:`_extreme_rays` on the homogenization cone one
    dimension higher, over the rows (p, 1) for points p and (r, 0) for
    rays r; the V-form and the derived H-form therefore describe the
    same set exactly, in integers. The zero set of each facet over the
    point rows is kept beside it as ``incidence``. With no rays this is
    the facet reader of `convex_hull` too: the hull of full-dimensional
    integer points is such a polyhedron.
    """

    __slots__ = ("dim", "points", "rays", "_facets", "_incidence")

    def __init__(self, points, rays):
        pts = sorted(set(map(tuple, points)))
        if not pts:
            raise ValidationError("empty-input", "a polyhedron needs at least one point")
        self.dim = len(pts[0])
        self.points = tuple(pts)
        self.rays = tuple(sorted(set(linalg.primitive(tuple(r)) for r in rays)))
        self._facets = None
        self._incidence = None

    @property
    def facets(self):
        """Irredundant inequalities <a, x> >= c with primitive integer a, sorted."""
        if self._facets is None:
            rows = [p + (1,) for p in self.points] + [r + (0,) for r in self.rays]
            on_points = (1 << len(self.points)) - 1
            facets = []
            for w, zeros in _extreme_rays(rows, self.dim + 1):
                # every facet holds a point p, so g divides w0 = -<w, p>
                g = math.gcd(*w[:-1])
                if g:  # g == 0 is the trivial inequality 1 >= 0
                    facets.append((tuple(x // g for x in w[:-1]), -w[-1] // g, zeros & on_points))
            facets.sort()
            self._facets = tuple((a, c) for a, c, _ in facets)
            self._incidence = tuple(m for _, _, m in facets)
        return self._facets

    @property
    def incidence(self):
        """For each facet, in the order of ``facets``, the bitmask of the
        points on it (bit i for ``points[i]``)."""
        if self._incidence is None:
            self.facets  # derives the incidences with the facets
        return self._incidence

    def covolume(self):
        """dim! times the volume between P and the origin, as an int, for
        dim >= 2: the sum of |det| over the fan from the origin of each
        facet with c > 0, triangulated by its vertices.

        The vertices come from `_vertices` on the incidences, the facets
        of each such facet from `_ridges` and its triangulation from
        `_fan`, so no facet is charted or hulled again. When the points
        lie in the pointed cone C of the rays and P meets every ray of C,
        each facet with c > 0 is compact and the sum is dim! times the
        volume of C outside P; for the nonnegative orthant that is the
        multiplicity of a monomial ideal from its Newton polyhedron.
        """
        facets, points = self.facets, self.points
        corners = sum(1 << i for i in _vertices(self.incidence, len(points)))
        masks = [m & corners for m in self.incidence]
        total = 0
        for k, (_, c) in enumerate(facets):
            if c > 0:
                ridges = _ridges(masks[k], masks[:k] + masks[k + 1 :])
                for simplex in _fan(points, ridges, self.dim - 1):
                    total += abs(linalg._det([points[i] for i in simplex]))
        return total

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, points={len(self.points)}, rays={len(self.rays)})"
