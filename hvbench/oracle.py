"""Independent reference values for the benchmark's correctness check.

Nothing here imports hatvol. Each value is recomputed from the
generators by another route than the program takes:

- the lct of a monomial ideal comes from the facets of its Newton
  polyhedron (blocking duality: the vertices of {w >= 0 : <g, w> >= 1}
  are the facet normals divided by their right-hand sides), where the
  program solves the covering LP by simplex;
- the multiplicity of a three-variable ideal is 3! times the volume of
  the cones from the origin over the compact Newton facets, found from
  generator triples;
- colengths count standard monomials;
- normalized colengths enumerate every staircase and break ties by the
  lexicographically least staircase, the rule the program documents.
"""

import itertools
import math
from fractions import Fraction

# the weight grid that `hatl --mode upper` scans (ratios to the least weight)
UPPER_WEIGHT_RATIOS = tuple(
    Fraction(r) for r in ("1", "5/4", "4/3", "3/2", "5/3", "2", "5/2", "3", "4")
)


def antichain(points):
    """Minimal exponents under the componentwise order."""
    pts = sorted(set(tuple(p) for p in points))
    return [p for p in pts if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)]


def canonical_gens(points):
    """Minimal generators in the order reports list them (descending)."""
    return sorted(antichain(points), reverse=True)


# ---------------------------------------------------------------------------
# two variables


def profile_2d(gens):
    """Column heights of the staircase: h[x] = least y with (x, y) in the ideal."""
    gens = sorted(antichain(gens))
    width = next(x for x, y in gens if y == 0)
    heights = []
    for x in range(width):
        heights.append(min(y for gx, y in gens if gx <= x))
    return heights


def lct_2d(gens, coeffs):
    """lct on (A^2, a_1 H_1 + a_2 H_2) as the least <1 - a, normal> / rhs
    over the Newton facets with positive right-hand side."""
    pts = sorted(antichain(gens))
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (p[1] - by) - (by - ay) * (p[0] - bx) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    facets = []
    if hull[0][0] > 0:
        facets.append(((1, 0), hull[0][0]))
    if hull[-1][1] > 0:
        facets.append(((0, 1), hull[-1][1]))
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        normal = (y0 - y1, x1 - x0)
        facets.append((normal, normal[0] * x0 + normal[1] * y0))
    cost = [1 - Fraction(a) for a in coeffs]
    return min((cost[0] * nx + cost[1] * ny) / rhs for (nx, ny), rhs in facets if rhs > 0)


def profiles_2d(k, min_colength):
    """Every staircase of an ideal between m^k and m, as column heights."""

    def rec(prefix, prev):
        x = len(prefix)
        if x == k:
            if sum(prefix) >= min_colength:
                yield tuple(prefix)
            return
        for h in range(1 if x == 0 else 0, min(prev, k - x) + 1):
            yield from rec(prefix + [h], h)

    yield from rec([], k)


def gens_from_profile_2d(heights):
    h = list(heights) + [0]
    gens = [(0, h[0])]
    for x in range(1, len(h)):
        if h[x] < h[x - 1]:
            gens.append((x, h[x]))
    return gens


def staircase_2d(heights):
    return tuple((x, y) for x, h in enumerate(heights) for y in range(h))


def valuation_ideal_2d(weights, k):
    """Minimal generators of {x^u : <w, u> >= k}."""
    w0, w1 = (Fraction(w) for w in weights)
    gens = []
    x = 0
    while True:
        y = max(0, math.ceil((k - w0 * x) / w1))
        gens.append((x, y))
        if y == 0:
            return canonical_gens(gens)
        x += 1


def _better(value, key, best):
    return best is None or value < best[0] or (value == best[0] and key() < best[1]())


def hatl_exact_2d(coeffs, c, k):
    """(value, argmin generators) of the exact normalized colength, n = 2."""
    min_colength = max(1, math.ceil(Fraction(c) * k * k))
    best = None
    for heights in profiles_2d(k, min_colength):
        gens = gens_from_profile_2d(heights)
        value = 2 * lct_2d(gens, coeffs) ** 2 * sum(heights)
        if _better(value, lambda h=heights: staircase_2d(h), best):
            best = (value, lambda h=heights: staircase_2d(h), gens)
    return best[0], canonical_gens(best[2])


def hatl_upper_2d(coeffs, c, k):
    """(value, argmin generators) of the upper-mode normalized colength, n = 2."""
    min_colength = math.ceil(Fraction(c) * k * k)
    best = None
    for w in itertools.product(UPPER_WEIGHT_RATIOS, repeat=2):
        if min(w) != 1:
            continue
        gens = valuation_ideal_2d(w, k)
        heights = profile_2d(gens)
        if sum(heights) < min_colength:
            continue
        value = 2 * lct_2d(gens, coeffs) ** 2 * sum(heights)
        if _better(value, lambda h=heights: staircase_2d(h), best):
            best = (value, lambda h=heights: staircase_2d(h), gens)
    return best[0], best[2]


def scan_rows_2d(coeffs, c, k_min, k_max):
    return [(k,) + hatl_exact_2d(coeffs, c, k) for k in range(k_min, k_max + 1)]


# ---------------------------------------------------------------------------
# three variables


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def compact_facets_3d(gens):
    """{(normal, rhs): points on it} for the bounded facets of the Newton
    polyhedron of an m-primary ideal; their normals are strictly positive."""
    pts = antichain(gens)
    facets = {}
    for a, b, c in itertools.combinations(pts, 3):
        normal = _cross(_sub(b, a), _sub(c, a))
        if all(x < 0 for x in normal):
            normal = tuple(-x for x in normal)
        if not all(x > 0 for x in normal):
            continue
        g = math.gcd(*normal)
        normal = tuple(x // g for x in normal)
        rhs = _dot(normal, a)
        if (normal, rhs) in facets:
            continue
        if all(_dot(normal, p) >= rhs for p in pts):
            facets[(normal, rhs)] = [p for p in pts if _dot(normal, p) == rhs]
    return facets


def _twice_area(points):
    """Twice the area of the convex hull of planar integer points."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(reversed(pts))[:-1]
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1])))


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def lct_3d(gens):
    """lct on the boundary-free A^3: the diagonal meets a compact facet."""
    return min(Fraction(sum(normal), rhs) for normal, rhs in compact_facets_3d(gens))


def multiplicity_3d(gens):
    """3! times the covolume; the cone over a facet has volume
    rhs * area_xy / (3 * normal_z)."""
    total = Fraction(0)
    for (normal, rhs), pts in compact_facets_3d(gens).items():
        total += Fraction(rhs * _twice_area([(x, y) for x, y, _ in pts]), normal[2])
    return total


def standard_monomials(gens, n):
    """Sorted exponents outside the ideal; gens must contain pure powers."""
    gens = antichain(gens)
    box = []
    for axis in range(n):
        box.append(min(g[axis] for g in gens if all(g[j] == 0 for j in range(n) if j != axis)))
    return tuple(
        u for u in itertools.product(*(range(d) for d in box))
        if not any(all(u[i] >= g[i] for i in range(n)) for g in gens)
    )


def height_maps_3d(k, min_colength):
    """Every staircase of an ideal between m^k and m, as heights over (x, y)."""
    cells = [(x, y) for x in range(k) for y in range(k - x)]

    def rec(i, heights):
        if i == len(cells):
            if sum(heights.values()) >= min_colength:
                yield dict(heights)
            return
        x, y = cells[i]
        top = k - x - y
        if x > 0:
            top = min(top, heights[(x - 1, y)])
        if y > 0:
            top = min(top, heights[(x, y - 1)])
        for h in range(1 if (x, y) == (0, 0) else 0, top + 1):
            heights[(x, y)] = h
            yield from rec(i + 1, heights)
        del heights[(x, y)]

    yield from rec(0, {})


def gens_from_heights_3d(heights, k):
    """Minimal exponents outside the staircase, in the box [0, k]^3."""
    inside = {(x, y, z) for (x, y), h in heights.items() for z in range(h)}
    gens = []
    for u in itertools.product(range(k + 1), repeat=3):
        if u in inside:
            continue
        if all(u[i] == 0 or _sub(u, tuple(int(j == i) for j in range(3))) in inside for i in range(3)):
            gens.append(u)
    return gens


def hatl_exact_3d(c, k):
    """(value, argmin generators) of the exact normalized colength on A^3."""
    min_colength = max(1, math.ceil(Fraction(c) * k**3))
    best = None
    for heights in height_maps_3d(k, min_colength):
        gens = gens_from_heights_3d(heights, k)
        value = 6 * lct_3d(gens) ** 3 * sum(heights.values())
        if _better(value, lambda g=gens: standard_monomials(g, 3), best):
            best = (value, lambda g=gens: standard_monomials(g, 3), gens)
    return best[0], canonical_gens(best[2])
