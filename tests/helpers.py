"""Test-only helpers over the hatvol API.

No command, `verify`, benchmark or tool needs these, so they live beside
the tests that use them rather than in `src/`.
"""

import operator

from hatvol import linalg
from hatvol import monomials as M
from hatvol.errors import ValidationError
from hatvol.rationals import format_rational


def maximal_ideal(n):
    return M.MonomialIdeal(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])


def contains_exponent(ideal, u):
    """Whether the monomial x^u lies in the ideal."""
    return any(all(map(operator.ge, u, g)) for g in ideal.gens)


def ideal_le(a, b):
    """Ideal containment a <= b: every generator of a lies in b."""
    return all(contains_exponent(b, g) for g in a.gens)


def integral_closure(ideal):
    """Ideal of all lattice points of the Newton polyhedron.

    Every facet <a, u> >= c with c > 0 of an m-primary ideal has a
    positive normal, so the column over u starts at the least z with
    <a', u> + a_n z >= c on every facet. Same multiplicity, colength no
    larger.
    """
    if not ideal.is_primary:
        raise ValidationError("infinite-covolume", "integral closure implemented for m-primary ideals")
    facets = ideal.newton_facets()
    dims = [d + 1 for d in ideal.pure_degrees()[:-1]]
    cells, below = M._box(dims)
    # in integers: ceil(a / b) = -(-a // b) for b > 0
    heights = [max(0, *(-((linalg.dot(a[:-1], u) - c) // a[-1]) for a, c in facets)) for u in cells]
    return M._with_columns(ideal.n, dims, cells, below, heights)


def ideal_to_json(ideal):
    return {"n": ideal.n, "gens": [list(g) for g in ideal.gens]}


def pair_to_json(pair):
    return {"type": "monomial_pair", "n": pair.n, "coeffs": [format_rational(a) for a in pair.coeffs]}


def polyhedron_contains(poly, point):
    """Exact membership in a `geometry.Polyhedron`, by its facets."""
    x, q = linalg._scaled(point)
    return all(linalg.dot(n, x) >= c * q for n, c in poly.facets)


def cone_contains(cone, point, strict=False):
    """Exact membership in a `geometry.Cone`, by its facet normals;
    ``strict`` tests the interior."""
    x = linalg._scaled(point)[0]  # a positive multiple of the point
    for normal in cone._dual_rays:
        value = linalg.dot(normal, x)
        if value < 0 or (strict and value == 0):
            return False
    return True


def random_unimodular(dim, rng, entry_bound=3, steps=6):
    """A random unimodular integer matrix built from shears and swaps."""
    mat = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        c = rng.randint(-entry_bound, entry_bound)
        for col in range(dim):
            mat[i][col] += c * mat[j][col]
        if rng.random() < 0.3:
            mat[i], mat[j] = mat[j], mat[i]
        if all(abs(x) <= entry_bound for row in mat for x in row):
            continue
        mat = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return mat
