import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hatvol import geometry as G
from hatvol import linalg
from hatvol import monomials as M
from hatvol.acceptance import _extreme_rays_by_subsets, newton_normals
from hatvol.errors import BudgetExceededError, InvariantViolationError, ValidationError
from helpers import cone_contains, polyhedron_contains, random_unimodular


def unit_square():
    return G.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


def simplex(n):
    pts = [tuple(0 for _ in range(n))]
    pts += [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return G.convex_hull(pts)


class TestConvexHull:
    def test_interior_point_dropped(self):
        body = G.convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 4))])
        assert body.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
        assert body.is_full_dimensional

    def test_edge_point_of_a_non_simple_polytope_dropped(self):
        # each edge of the 4-d cross-polytope lies on four facets, whose
        # normals have rank 3: a point inside an edge is no vertex
        corners = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
        body = G.convex_hull(corners + [(F(1, 2), F(1, 2), 0, 0), (F(1, 3), 0, F(-2, 3), 0)])
        assert body.vertices == tuple(sorted(corners))
        assert body.volume() == F(2, 3)

    def test_collinear_is_degenerate(self):
        body = G.convex_hull([(0, 0), (1, 1), (F(1, 2), F(1, 2))])
        assert not body.is_full_dimensional
        assert body.affine_dim == 1
        assert body.vertices == ((F(0), F(0)), (F(1), F(1)))

    def test_cube(self):
        cube = G.convex_hull(list(itertools.product((0, 1), repeat=3)))
        assert len(cube.vertices) == 8
        assert len(cube.facets) == 6

    def test_rational_hull_keeps_primitive_normals(self):
        body = G.convex_hull([(0,), (F(1, 2),)])
        assert body.facets == (((-1,), F(0)), ((1,), F(1, 2)))

    def test_empty_input(self):
        with pytest.raises(ValidationError) as info:
            G.convex_hull([])
        assert info.value.code == "empty-input"

    def test_dimension_cap(self):
        with pytest.raises(ValidationError) as info:
            G.convex_hull([tuple(range(5))])
        assert info.value.code == "unsupported-dimension"

    def test_membership(self):
        body = simplex(2)
        assert body.contains((F(1, 4), F(1, 4)))
        assert body.contains((F(1, 4), F(1, 4)), strict=True)
        assert body.contains((0, 1))
        assert not body.contains((0, 1), strict=True)
        assert not body.contains((1, 1))


@st.composite
def degenerate_point_sets(draw):
    """Up to six points on a random rational affine subspace of dimension
    r < d <= 4: a rational base plus combinations of r integer directions
    with coefficients in {0, 1/2, 1}, so every coordinate spans at most 3."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(0, d - 1))
    base = draw(st.tuples(*[st.fractions(-1, 1, max_denominator=3)] * d))
    directions = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d), min_size=r, max_size=r))
    coefficient = st.sampled_from([F(0), F(1, 2), F(1)])
    points = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = [draw(coefficient) for _ in range(r)]
        points.append(tuple(b + sum(c * v[i] for c, v in zip(coeffs, directions)) for i, b in enumerate(base)))
    return points, r


@settings(derandomize=True, max_examples=150, deadline=None)
@given(degenerate_point_sets())
def test_degenerate_hulls(case):
    points, r = case
    body = G.convex_hull(points)
    assert body.affine_dim <= r < body.dim
    assert len(body.equations) == body.dim - body.affine_dim
    assert body.volume() == 0
    for p in points:
        assert all(linalg.dot(a, p) == b for a, b in body.equations)
        assert all(linalg.dot(a, p) <= b for a, b in body.facets)
    assert set(body.vertices) <= set(points)
    for a, b in body.facets:
        # a facet: the vertices on it span affine dimension affine_dim - 1
        face = [v for v in body.vertices if linalg.dot(a, v) == b]
        assert linalg.rank([tuple(x - y for x, y in zip(v, face[0])) for v in face[1:]]) == body.affine_dim - 1
    for k in (1, 2, 3):
        box = [
            range(math.ceil(k * min(col)), math.floor(k * max(col)) + 1) for col in zip(*points)
        ]
        brute = sum(1 for u in itertools.product(*box) if body.contains(tuple(F(x, k) for x in u)))
        assert G.lattice_points(body, k) == brute


class TestDualCone:
    def test_orthant_self_dual(self):
        orthant = G.Cone([(1, 0), (0, 1)])
        assert orthant.dual() == orthant

    def test_orthant_3d_self_dual(self):
        orthant = G.Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert orthant.dual() == orthant

    def test_skew_cone(self):
        cone = G.Cone([(0, 1), (2, -1)])
        assert cone.dual().rays == ((1, 0), (1, 2))

    def test_dual_rays_satisfy_definition(self):
        cone = G.Cone([(0, 1), (2, -1)])
        for u in cone.dual().rays:
            assert all(sum(a * b for a, b in zip(u, r)) >= 0 for r in cone.rays)

    def test_dual_matches_brute_force_region(self):
        # 2d: the dual region inside a box, straight from the definition
        cone = G.Cone([(0, 1), (2, -1)])
        dual = cone.dual()
        for u in itertools.product(range(-6, 7), repeat=2):
            by_definition = all(u[0] * r[0] + u[1] * r[1] >= 0 for r in cone.rays)
            assert cone_contains(dual, u) == by_definition

    def test_involution_on_random_pointed_cones(self):
        rng = random.Random(11)
        built = 0
        while built < 40:
            dim = rng.choice([2, 3])
            rays = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(dim, dim + 2))]
            if any(all(x == 0 for x in r) for r in rays):
                continue
            try:
                cone = G.Cone(rays)
            except ValidationError as exc:
                assert exc.code == "invalid-cone"
                continue
            built += 1
            assert cone.dual().dual() == cone

    def test_invalid_cone_rejected(self):
        # a half-plane, which is not pointed, and a ray in the plane
        for rays in ([(1, 0), (-1, 0), (0, 1)], [(1, 0)]):
            with pytest.raises(ValidationError) as info:
                G.Cone(rays)
            assert info.value.code == "invalid-cone"

    @pytest.mark.parametrize(
        "rays,pointed",
        [
            ([(1, 0, 0), (0, 1, 0)], True),
            ([(2, 1, 0), (-2, -1, 0)], False),
            ([(1, 0, 1), (0, 1, 1), (1, 1, 2)], True),
            ([(1, 0, 1), (0, 1, 1), (-1, -1, -2)], False),
            ([(0, 1, 1, 0), (0, 1, -1, 0), (0, -1, 0, 0)], False),
            ([(0, 1, 1, 0), (0, 1, -1, 0), (0, 1, 0, 0)], True),
        ],
    )
    def test_pointedness_of_lower_dimensional_cones(self, rays, pointed):
        with pytest.raises(ValidationError) as info:
            G.Cone(rays)
        assert info.value.code == "invalid-cone"
        # the unit vectors off the pivot columns span a complement of the
        # rays' span, so the completed cone is pointed exactly when these
        # rays are
        d = len(rays[0])
        pivots = linalg._pivot_columns(rays)
        units = [tuple(int(i == j) for j in range(d)) for i in range(d) if i not in pivots]
        if pointed:
            assert G.Cone(rays + units).dim == d
        else:
            with pytest.raises(ValidationError) as info:
                G.Cone(rays + units)
            assert info.value.code == "invalid-cone"

    @pytest.mark.parametrize(
        "rays,extreme",
        [
            ([(1, 0), (0, 1), (1, 1)], ((0, 1), (1, 0))),
            # (1, 1, 2) lies on a 2-face, (0, 0, 1) inside the cone
            (
                [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (1, 1, 2), (0, 0, 1)],
                ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)),
            ),
        ],
        ids=["2d", "3d"],
    )
    def test_redundant_ray_normalized_away(self, rays, extreme):
        assert G.Cone(rays).rays == extreme


class TestVolume:
    def test_standard_simplex_3d(self):
        assert simplex(3).volume() == F(1, 6)

    def test_unit_square(self):
        assert unit_square().volume() == 1

    def test_right_triangle(self):
        assert G.convex_hull([(0, 0), (2, 0), (0, 3)]).volume() == 3

    def test_degenerate_volume_zero(self):
        segment = G.convex_hull([(0, 0), (1, 1)])
        assert segment.volume() == 0
        assert not segment.is_full_dimensional

    def test_additive_over_triangulation(self):
        body = G.convex_hull([(0, 0), (3, 0), (4, 2), (1, 3), (0, 2)])
        total = F(0)
        for tri, _ in G._simplices(body):
            total += G.convex_hull(tri).volume()
        assert total == body.volume()

    def test_unimodular_invariance(self):
        rng = random.Random(5)
        bodies = [unit_square(), simplex(3), G.convex_hull([(0, 0), (2, 0), (1, 2), (0, 1)])]
        for body in bodies:
            for _ in range(5):
                mat = random_unimodular(body.dim, rng)
                image = G.convex_hull(
                    [tuple(sum(mat[i][j] * v[j] for j in range(body.dim)) for i in range(body.dim)) for v in body.vertices]
                )
                assert image.volume() == body.volume()


def _full_triangulation(body):
    """Reference triangulation of a full-dimensional body: the cones from
    the centroid of its vertices over a triangulation of each facet."""
    center = tuple(sum(c) / len(body.vertices) for c in zip(*body.vertices))
    simplices = []
    for normal, rhs in body.facets:
        face = G.convex_hull([v for v in body.vertices if linalg.dot(normal, v) == rhs])
        for idx in face.triangulation():
            simplices.append((center,) + tuple(face.vertices[i] for i in idx))
    return simplices


def _reference_volume_and_barycenter(body):
    """dim! times the volume, and the barycenter, summed over the centroid fan."""
    total = F(0)
    weighted = [F(0)] * body.dim
    for simplex in _full_triangulation(body):
        vol = abs(linalg.det([[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]]))
        total += vol
        for i in range(body.dim):
            weighted[i] += vol * sum(p[i] for p in simplex) / len(simplex)
    return total, tuple(w / total for w in weighted)


@st.composite
def full_point_sets(draw):
    """Rational points in dimension 1-4 spanning the space, with some of
    their midpoints, which may fall inside the hull, inside a face or on
    an edge."""
    d = draw(st.integers(1, 4))
    coordinate = st.fractions(-2, 2, max_denominator=3)
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=d + 4))
    assume(linalg.rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]]) == d)
    index = st.integers(0, len(points) - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        points.append(tuple((x + y) / 2 for x, y in zip(points[i], points[j])))
    return points


@settings(derandomize=True, max_examples=100, deadline=None)
@given(full_point_sets())
def test_volume_and_barycenter_match_the_centroid_fan(points):
    body = G.convex_hull(points)
    assert body.is_full_dimensional
    # points inside the hull and inside faces of it are not vertices
    centers = [tuple(sum(c) / len(body.vertices) for c in zip(*body.vertices))]
    for normal, rhs in body.facets:
        face = [v for v in body.vertices if linalg.dot(normal, v) == rhs]
        centers.append(tuple(sum(c) / len(face) for c in zip(*face)))
    padded = G.convex_hull(points + centers)
    assert padded.vertices == body.vertices
    assert padded.facets == body.facets
    dets, barycenter = _reference_volume_and_barycenter(body)
    assert padded.volume() == dets / math.factorial(body.dim)
    assert padded.barycenter() == barycenter
    assert body.barycenter() == barycenter


def _rank_vertices(points, facets, rank):
    """Reference vertex test: the indices of the points whose active
    facets <a, x> = b have normals of the given rank, the vertices of a
    hull of that dimension, or the extreme rays of a cone with facets
    (a, 0) when rank is dim - 1."""
    out = []
    for i, p in enumerate(points):
        active = [a for a, b in facets if linalg.dot(a, p) == b]
        if len(active) >= rank and linalg.rank(active) == rank:
            out.append(i)
    return out


def _corners(body, simplices):
    """Each simplex of index tuples into ``body.vertices`` as its points."""
    return [tuple(body.vertices[i] for i in s) for s in simplices]


def _rehull_triangulation(points, d):
    """Reference triangulation of the hull of ``points`` (affine dimension
    d): the fan from the least vertex over the facets not through it,
    each facet found by dot products, charted, hulled and triangulated
    again, with vertices by the rank test."""
    if d == 0:
        return [(0,)]
    if d == 1:
        direction = next(tuple(x - y for x, y in zip(p, points[0])) for p in points[1:] if p != points[0])
        keyed = sorted(range(len(points)), key=lambda i: linalg.dot(direction, points[i]))
        return [(keyed[0], keyed[-1])]
    chart = linalg._pivot_columns([tuple(x - y for x, y in zip(p, points[0])) for p in points[1:]])
    coords = [tuple(p[c] for c in chart) for p in points]
    facets = G.convex_hull(coords).facets
    vertex_idx = _rank_vertices(coords, facets, d)
    apex = min(vertex_idx, key=lambda i: coords[i])
    simplices = []
    for normal, rhs in facets:
        if linalg.dot(normal, coords[apex]) == rhs:
            continue
        face_idx = [i for i in vertex_idx if linalg.dot(normal, coords[i]) == rhs]
        for sub in _rehull_triangulation([coords[i] for i in face_idx], d - 1):
            simplices.append((apex,) + tuple(face_idx[j] for j in sub))
    return simplices


CROSS_4 = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]


@st.composite
def vertex_test_cases(draw):
    """Distinct rational points spanning R^d, d in 1-4, or the corners of
    the 4-d cross-polytope with points inside its edges, each of which
    lies on four facets whose normals have rank 3."""
    if draw(st.booleans()):
        points = draw(full_point_sets())
        return sorted(set(points)), len(points[0])
    edge = st.tuples(st.sampled_from(CROSS_4), st.sampled_from(CROSS_4), st.fractions(0, 1, max_denominator=4))
    points = list(CROSS_4)
    for p, q, t in draw(st.lists(edge, max_size=6)):
        points.append(tuple(t * x + (1 - t) * y for x, y in zip(p, q)))
    return sorted(set(tuple(F(x) for x in p) for p in points)), 4


@settings(derandomize=True, max_examples=150, deadline=None)
@given(vertex_test_cases())
def test_incidence_vertices_match_the_rank_test_on_hulls(case):
    points, d = case
    body = G.convex_hull(points)
    expected = _rank_vertices(points, body.facets, d)
    masks = [sum(1 << i for i, p in enumerate(points) if linalg.dot(a, p) == b) for a, b in body.facets]
    assert G._vertices(masks, len(points)) == expected
    assert body.vertices == tuple(points[i] for i in expected)
    # each facet's bitmask holds exactly the vertices on it
    for (normal, rhs), mask in zip(body.facets, body._incidence):
        assert mask == sum(1 << i for i, v in enumerate(body.vertices) if linalg.dot(normal, v) == rhs)


@st.composite
def pointed_cones(draw):
    """Primitive integer rays of a pointed full-dimensional cone in R^d,
    d in 1-4, some of them sums of two others, which lie inside the cone
    or inside a face of it."""
    d = draw(st.integers(1, 4))
    ray = st.tuples(*[st.integers(-2, 2)] * (d - 1), st.integers(1, 3))
    rays = draw(st.lists(ray, min_size=d, max_size=d + 4))
    assume(linalg.rank(rays) == d)
    index = st.integers(0, len(rays) - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        rays.append(tuple(x + y for x, y in zip(rays[i], rays[j])))
    return sorted(set(linalg.primitive(r) for r in rays)), d


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pointed_cones())
def test_incidence_extreme_rays_match_the_rank_test_on_cones(case):
    rays, d = case
    dual = G._extreme_rays(rays, d)
    expected = _rank_vertices(rays, [(w, 0) for w, _ in dual], d - 1)
    assert G._vertices([zeros for _, zeros in dual], len(rays)) == expected
    assert G.Cone(rays).rays == tuple(rays[i] for i in expected)


@st.composite
def plane_point_sets(draw):
    """Distinct points of affine dimension d in 1 or 2, in R^d or on an
    affine subspace of R^3 through a chart that is not the identity."""
    d = draw(st.integers(1, 2))
    coordinate = st.integers(-2, 2)
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=d + 1, max_size=d + 5, unique=True))
    assume(linalg.rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]]) == d)
    if draw(st.booleans()):
        # (x) -> (x, 2x + 1, -x) or (x, y) -> (y, x + 2y, x - 1)
        lift = (lambda p: (p[0], 2 * p[0] + 1, -p[0])) if d == 1 else (lambda p: (p[1], p[0] + 2 * p[1], p[0] - 1))
        points = [lift(p) for p in points]
    return points, d


@settings(derandomize=True, max_examples=150, deadline=None)
@given(plane_point_sets())
def test_triangulation_in_dimension_up_to_two_matches_the_rehull(case):
    # the same simplices in the same order: _ToricObjective sums floats in it
    points, d = case
    body = G.convex_hull(points)
    # the body numbers its vertices in sorted order, so the reference does too
    points = sorted(points)
    assert _corners(body, body.triangulation()) == [tuple(points[i] for i in s) for s in _rehull_triangulation(points, d)]


CUBE_4 = list(itertools.product((0, 1), repeat=4))


@st.composite
def solid_point_sets(draw):
    """Distinct points spanning R^d, d in 3 or 4: subsets of {0, 1, 2}^d,
    the 4-cube or the 4-d cross-polytope, with non-simplicial faces."""
    kind = draw(st.sampled_from(["grid", "grid", "cube", "cross"]))
    if kind == "cube":
        return CUBE_4, 4
    if kind == "cross":
        return CROSS_4, 4
    d = draw(st.integers(3, 4))
    grid = list(itertools.product(range(3), repeat=d))
    points = draw(st.lists(st.sampled_from(grid), min_size=d + 1, max_size=d + 8, unique=True))
    assume(linalg.rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]]) == d)
    return points, d


@settings(derandomize=True, max_examples=100, deadline=None)
@given(solid_point_sets())
def test_triangulation_in_dimension_three_and_four_matches_the_rehull(case):
    # the same simplices; ridges come in another order on non-simplicial faces
    points, d = case
    body = G.convex_hull(points)
    simplices = body.triangulation()
    points = sorted(points)
    reference = [tuple(points[i] for i in s) for s in _rehull_triangulation(points, d)]
    assert sorted(_corners(body, simplices)) == sorted(reference)
    assert len(set(simplices)) == len(simplices)


class TestLatticePoints:
    @pytest.mark.parametrize("k", [1, 2, 7, 10])
    def test_square(self, k):
        assert G.lattice_points(unit_square(), k) == (k + 1) ** 2

    @pytest.mark.parametrize("k", list(range(1, 11)))
    def test_simplex_against_enumeration(self, k):
        body = simplex(2)
        brute = sum(
            1 for u in itertools.product(range(k + 1), repeat=2) if u[0] + u[1] <= k
        )
        assert G.lattice_points(body, k) == brute == (k + 1) * (k + 2) // 2

    def test_segment(self):
        assert G.lattice_points(G.convex_hull([(0,), (1,)]), 7) == 8

    def test_dilated_box_over_the_cap_refused(self):
        # the cap is checked on the box size before any cell is visited
        with pytest.raises(BudgetExceededError) as info:
            G.lattice_points(unit_square(), G.MAX_LATTICE_CELLS)
        assert info.value.details == {"cells": G.MAX_LATTICE_CELLS + 1, "budget": G.MAX_LATTICE_CELLS}

    def test_triangle_with_fractional_vertices(self):
        body = G.convex_hull([(0, 0), (F(5, 8), F(1, 8)), (F(1, 8), F(7, 8))])
        for k in (3, 8, 11):
            brute = sum(
                1
                for u in itertools.product(range(-1, k + 2), repeat=2)
                if body.contains((F(u[0], k), F(u[1], k)))
            )
            assert G.lattice_points(body, k) == brute


class TestCountingProbe:
    def test_square_error_at_ten(self):
        probe = G.counting_error_probe(unit_square(), [5, 10])
        assert probe.error_at(10) == F(21, 100)

    def test_simplex_error_at_ten(self):
        probe = G.counting_error_probe(simplex(2), [10])
        assert probe.error_at(10) == F(4, 25)

    def test_reports_every_k(self):
        ks = [2, 3, 5, 8, 13]
        probe = G.counting_error_probe(simplex(2), ks)
        assert [k for k, _ in probe.rows] == ks

    def test_k0_found(self):
        probe = G.counting_error_probe(unit_square(), [10, 20, 40, 41, 42, 80])
        assert probe.k0 == 41  # (2k+1)/k^2 <= 1/20 from k = 41 on

    def test_sanity_envelope(self):
        # error at k stays within error at floor(k/2) plus 2 dim / k
        bodies = [unit_square(), simplex(2), simplex(3), G.convex_hull([(0, 0), (F(7, 8), F(1, 8)), (F(1, 4), F(3, 4))])]
        for body in bodies:
            for k in (8, 16, 24, 40):
                probe = G.counting_error_probe(body, [k // 2, k])
                assert probe.error_at(k) <= probe.error_at(k // 2) + F(2 * body.dim, k)


    def test_negative_epsilon_refused(self):
        # refused before the cell caps, which this range would exceed
        with pytest.raises(ValidationError) as info:
            G.counting_error_probe(simplex(3), range(1, 1001), epsilon=-1)
        assert info.value.code == "invalid-epsilon"

    def test_zero_epsilon_allowed(self):
        # the square's error (2k+1)/k^2 never reaches 0
        probe = G.counting_error_probe(unit_square(), [5, 10], epsilon=0)
        assert probe.epsilon == 0 and probe.k0 is None


class TestRiemannGap:
    def test_identity_function(self):
        samples = {F(j, 4): F(j, 4) for j in range(5)}
        result = G.monotone_riemann_gap(samples, 0, 1, 4, F(1, 2))
        assert result.gap == F(1, 8)
        assert result.holds

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_constant_one(self, k):
        samples = {F(j, k): F(1) for j in range(k + 1)}
        result = G.monotone_riemann_gap(samples, 0, 1, k, 1)
        assert result.gap == F(1, k)

    def test_step_function(self):
        samples = {F(0): F(0), F(1, 2): F(1), F(1): F(1)}
        result = G.monotone_riemann_gap(samples, 0, 1, 2, F(1, 2))
        assert result.gap == F(1, 2)
        assert result.bound == 1
        assert result.holds

    def test_non_monotone_rejected(self):
        samples = {F(0): F(0), F(1, 2): F(1), F(1): F(1, 2)}
        with pytest.raises(ValidationError) as info:
            G.monotone_riemann_gap(samples, 0, 1, 2, F(1, 2))
        assert info.value.code == "monotonicity-violation"

    def test_missing_sample_rejected(self):
        with pytest.raises(ValidationError) as info:
            G.monotone_riemann_gap({F(0): F(0)}, 0, 1, 2, F(1, 2))
        assert info.value.code == "missing-sample"


class TestPolyhedron:
    def test_newton_style_facets(self):
        poly = G.Polyhedron([(2, 0), (0, 3)], [(1, 0), (0, 1)])
        assert ((3, 2), F(6)) in poly.facets
        assert polyhedron_contains(poly, (1, 2))
        assert not polyhedron_contains(poly, (1, 1))

    def test_h_and_v_forms_agree(self):
        rng = random.Random(23)
        for _ in range(20):
            gens = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(2, 5))]
            if all(g[0] > 0 for g in gens) or all(g[1] > 0 for g in gens):
                continue
            poly = G.Polyhedron(gens, [(1, 0), (0, 1)])
            for point in gens:
                assert polyhedron_contains(poly, point)


def _truncated_covolume(points, rays):
    """Reference covolume of conv(points) + cone(rays), for points in the
    cone that meet every ray: dim! (vol C_T - vol (P ∩ C_T)), where C_T
    cuts the cone at <xi, x> <= T for an interior functional xi and a
    level T that every point stays under. Both bodies are hulls:
    C_T = conv(0, T r / <xi, r>), and P ∩ C_T is the hull of the points
    and the same ray hits at level T."""
    d = len(rays[0])
    xi = [sum(col) for col in zip(*G.Cone(rays).dual().rays)]
    level = max(linalg.dot(xi, p) for p in points)
    hits = [tuple(F(level * x, linalg.dot(xi, r)) for x in r) for r in rays]
    cut = G.convex_hull([(0,) * d] + hits).volume() - G.convex_hull(list(points) + hits).volume()
    return math.factorial(d) * cut


# cones that are not the orthant, the last one over a square, so not
# simplicial
COVOLUME_CONES = [
    [(1, 0), (1, 2)],
    [(2, -1), (-1, 2)],
    [(1, 1, 0), (0, 1, 1), (1, 0, 1)],
    [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
]


class TestCovolume:
    @pytest.mark.parametrize("rays", COVOLUME_CONES)
    def test_matches_the_truncated_hulls(self, rays):
        rng = random.Random(len(rays) * 10 + len(rays[0]))
        d = len(rays[0])
        cone = G.Cone(rays)
        box = [p for p in itertools.product(range(-6, 7), repeat=d) if any(p) and cone_contains(cone, p)]
        for _ in range(20):
            # a multiple of each ray, so that the polyhedron meets it, and
            # lattice points of the cone, some of them inside facets
            points = [tuple(k * x for x in r) for k, r in zip(rng.choices((1, 2, 3), k=len(rays)), rays)]
            points += rng.sample(box, rng.randint(0, 5))
            poly = G.Polyhedron(points, rays)
            value = poly.covolume()
            assert type(value) is int and value == _truncated_covolume(points, rays)

    def test_the_orthant_gives_the_multiplicity(self):
        poly = G.Polyhedron([(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        ideal = M.MonomialIdeal(3, poly.points)
        assert poly.covolume() == ideal.multiplicity() == _truncated_covolume(poly.points, poly.rays)


def _assert_incidence(poly):
    """Each facet's point mask is the set of points p with <normal, p> == c."""
    assert len(poly.incidence) == len(poly.facets)
    for (normal, c), mask in zip(poly.facets, poly.incidence):
        assert mask == sum(1 << i for i, p in enumerate(poly.points) if linalg.dot(normal, p) == c)


class TestPolyhedronIncidence:
    def test_newton_polyhedra(self):
        rng = random.Random(12)
        ideals = list(itertools.islice(M.enumerate_staircases(3, 4), 0, None, 7))
        ideals += [M.maximal_power(n, k) for n in (2, 3, 4) for k in (1, 3)]
        for _ in range(30):
            gens = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(rng.randint(1, 7))]
            ideals.append(M.MonomialIdeal(4, [g for g in gens if any(g)] or [(1, 1, 1, 1)]))
        for ideal in ideals:
            _assert_incidence(ideal.newton_polyhedron())

    @pytest.mark.parametrize(
        "rays",
        [
            [(1, 0), (1, 2)],
            [(2, -1), (-1, 2)],
            [(1, 1, 0), (0, 1, 1), (1, 0, 1)],
            [(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 0, 1)],
            [(1, -1, 2), (0, 1, 0), (2, 1, -1)],
            [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (1, 0, 0, 0)],
        ],
    )
    def test_rays_that_are_not_the_orthant(self, rays):
        rng = random.Random(len(rays) * 10 + len(rays[0]))
        d = len(rays[0])
        for _ in range(25):
            points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
            # three collinear points and a point shifted along a ray, so
            # that facets hold points that are not vertices
            p, v = points[0], tuple(rng.randint(-1, 1) for _ in range(d))
            points += [tuple(x + y for x, y in zip(p, v)), tuple(x + 2 * y for x, y in zip(p, v))]
            points.append(tuple(x + y for x, y in zip(points[-1], rng.choice(rays))))
            _assert_incidence(G.Polyhedron(points, rays))


def _cone_over(points):
    return [tuple(v) + (1,) for v in points]


CUBE = list(itertools.product((-1, 1), repeat=3))
OCTAHEDRON = [tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
# a centrally symmetric lattice 12-gon around the origin
DODECAGON = [(-2, -3), (-1, -3), (1, -2), (2, -1), (3, 1), (3, 2), (2, 3), (1, 3), (-1, 2), (-2, 1), (-3, -1), (-3, -2)]


@st.composite
def full_rank_normals(draw):
    """Integer rows of full rank d in 2..5, some of them repeated or negated:
    duplicate rows, {0} duals and lower-dimensional duals all occur."""
    d = draw(st.integers(2, 5))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.tuples(*[entry] * d), min_size=d, max_size=d + 3))
    for op, i in draw(st.lists(st.tuples(st.sampled_from("dn"), st.integers(0, len(rows) - 1)), max_size=2)):
        rows.append(rows[i] if op == "d" else tuple(-x for x in rows[i]))
    assume(linalg.rank(rows) == d)
    return rows, d


def _kernel_rays(rows, dim):
    """The rays of `_extreme_rays`, each zero set checked against the
    rows on which its ray vanishes."""
    pairs = G._extreme_rays(rows, dim)
    for ray, zeros in pairs:
        assert zeros == sum(1 << i for i, a in enumerate(rows) if linalg.dot(a, ray) == 0)
    return [ray for ray, _ in pairs]


class TestFacetKernel:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(full_rank_normals())
    def test_matches_subset_enumeration(self, case):
        rows, d = case
        assert _kernel_rays(rows, d) == _extreme_rays_by_subsets(rows, d)

    @pytest.mark.parametrize(
        "rows,dim,rays",
        [
            ([(1, 0), (-1, 0), (0, 1), (0, -1)], 2, []),
            ([(1, 0), (0, 1), (-1, 0)], 2, [(0, 1)]),
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (1, 0, 0)], 3, [(0, 1, 0), (1, 0, 0)]),
            ([(2,), (3,)], 1, [(1,)]),
            ([(2,), (-3,)], 1, []),
        ],
    )
    def test_degenerate_duals(self, rows, dim, rays):
        assert _kernel_rays(rows, dim) == rays == _extreme_rays_by_subsets(rows, dim)

    @pytest.mark.parametrize("polytope,dual_size", [(CUBE, 6), (OCTAHEDRON, 8)])
    def test_cones_with_non_simple_vertices(self, polytope, dual_size):
        # the cube and octahedron cones are dual: the extreme rays of one
        # meet three and four facets of the other
        rows = _cone_over(polytope)
        rays = _kernel_rays(rows, 4)
        assert len(rays) == dual_size
        assert rays == _extreme_rays_by_subsets(rows, 4)
        assert _kernel_rays(rays, 4) == sorted(linalg.primitive(r) for r in rows)

    def test_newton_polyhedron_of_a_diagonal_ideal(self):
        # (x^2, y^3, z^2): the compact facet 3x + 2y + 3z >= 6, the three
        # coordinate facets and the trivial inequality 0 <= 1
        rows = newton_normals(M.MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 2)]))
        assert _kernel_rays(rows, 4) == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (3, 2, 3, -6)]

    def test_dodecagon_cone(self):
        rows = _cone_over(DODECAGON)
        assert _kernel_rays(rows, 3) == [
            (-2, 1, 5), (-1, -1, 5), (-1, 0, 3), (-1, 1, 3), (-1, 2, 5), (0, -1, 3),
            (0, 1, 3), (1, -2, 5), (1, -1, 3), (1, 0, 3), (1, 1, 5), (2, -1, 5),
        ]
        cone = G.Cone(rows)
        assert len(cone.rays) == 12 and cone.dual().dual() == cone

    def test_rank_deficient_normals_refused(self):
        with pytest.raises(InvariantViolationError) as info:
            G._extreme_rays([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)
        assert info.value.code == "rank-deficient"


def _full_block_start(rows, dim):
    """`_simplicial_start` as it was first written: the whole transposed
    block beside the identity, reduced to the end by `linalg._reduce`."""
    m = len(rows)
    block = [[a[i] for a in rows] + [int(i == j) for j in range(dim)] for i in range(dim)]
    chosen, _, d = linalg._reduce(block)
    if chosen[-1] >= m:
        return None
    sign = 1 if d > 0 else -1
    return chosen, [linalg.primitive([sign * x for x in row[m:]]) for row in block]


def _seeded_row_sets(seed, count):
    """Integer row sets in dimensions 1..5, at least dim rows each, a
    third of them spanning fewer dimensions (integer combinations of
    fewer random rows), some with zero, repeated or negated rows."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 5)
        rank = rng.randint(0, dim - 1) if rng.random() < 1 / 3 else dim
        basis = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rank)]
        rows = []
        for _ in range(rng.randint(dim, dim + 4)):
            row = [0] * dim
            for b in basis:
                c = rng.randint(-2, 2)
                row = [x + c * y for x, y in zip(row, b)]
            rows.append(tuple(row))
        if rows and rng.random() < 0.3:
            rows.append(tuple(-x for x in rng.choice(rows)) if rng.random() < 0.5 else rng.choice(rows))
        yield rows, dim


class TestSimplicialStart:
    def test_matches_the_full_block_reduction(self):
        cases = deficient = 0
        for rows, dim in _seeded_row_sets(17, 3000):
            expected = _full_block_start(rows, dim)
            assert G._simplicial_start(rows, dim) == expected
            cases += 1
            deficient += expected is None
        assert deficient >= 800 and cases - deficient >= 1500

    def test_rays_pair_positively_with_their_own_row_only(self):
        for rows, dim in _seeded_row_sets(18, 500):
            start = G._simplicial_start(rows, dim)
            if start is None:
                assert linalg.rank(rows) < dim
                continue
            chosen, rays = start
            assert linalg.rank([rows[i] for i in chosen]) == dim
            for i, ray in zip(chosen, rays):
                assert [linalg.dot(rows[j], ray) > 0 for j in chosen] == [j == i for j in chosen]
                assert all(linalg.dot(rows[j], ray) == 0 for j in chosen if j != i)


def _seeded_pointed_cones(seed, count, dims=(2, 3, 4)):
    """Pointed full-dimensional cones: random rays over a positive last
    coordinate plus sums of pairs of them, so that not every ray is
    extreme."""
    rng = random.Random(seed)
    built = 0
    while built < count:
        d = rng.choice(dims)
        rays = [tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (rng.randint(1, 3),) for _ in range(rng.randint(d, d + 4))]
        if linalg.rank(rays) < d:
            continue
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(rays, 2)
            rays.append(tuple(x + y for x, y in zip(a, b)))
        built += 1
        yield G.Cone(rays)


class TestDirectDual:
    def test_matches_the_double_description_rebuild(self):
        rng = random.Random(5)
        for cone in _seeded_pointed_cones(23, 120):
            dual = cone.dual()
            rebuilt = G.Cone(list(dual.rays))
            assert dual.rays == rebuilt.rays
            # G.Cone refuses a cone that is not pointed and full-dimensional,
            # so the rebuild holds the dual to be both
            assert dual._dual_rays == rebuilt._dual_rays
            box = [tuple(rng.randint(-4, 4) for _ in range(cone.dim)) for _ in range(60)]
            for u in box + list(dual.rays):
                for strict in (False, True):
                    assert cone_contains(dual, u, strict) == cone_contains(rebuilt, u, strict)
            assert dual.dual() == rebuilt.dual() == cone
            assert dual.dual().rays == rebuilt.dual().rays == cone.rays
            assert dual.dual()._dual_rays == rebuilt.dual()._dual_rays == cone._dual_rays


class TestIntegerPoints:
    def test_slice_triangulation_of_integer_points_matches_the_fraction_points(self):
        # the dual rays of a cone scaled onto one level of <xi0, .>, once
        # over Fractions to level 1 and once over ints to the lcm of the
        # levels: the same simplices in the same order
        compared = 0
        for cone in _seeded_pointed_cones(29, 150, dims=(3, 4)):
            duals = list(cone.dual().rays)
            xi0 = tuple(sum(c) for c in zip(*cone.rays))
            levels = [linalg.dot(xi0, d) for d in duals]
            top = math.lcm(*levels)
            fractions = [tuple(F(x, level) for x in d) for d, level in zip(duals, levels)]
            integers = [tuple(x * (top // level) for x in d) for d, level in zip(duals, levels)]
            assert G.convex_hull(integers).triangulation() == G.convex_hull(fractions).triangulation()
            compared += top > 1
        assert compared >= 100

    def test_contains_on_int_points_matches_their_fraction_copies(self):
        rng = random.Random(31)
        # a triangle in R^3 and a segment in R^2 test the equations too
        bodies = [unit_square(), simplex(3), G.convex_hull([(0, 0, 0), (2, 1, 0), (1, 3, 0)]), G.convex_hull([(0, 1), (2, F(1, 2))])]
        for _ in range(20):
            d = rng.randint(2, 4)
            bodies.append(G.convex_hull([tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)) for _ in range(d + 3)]))
        for body in bodies:
            side = range(-3, 4) if body.dim < 4 else range(-2, 3)
            for u in itertools.product(side, repeat=body.dim):
                for strict in (False, True):
                    assert body.contains(u, strict=strict) == body.contains(tuple(map(F, u)), strict=strict)


# The Fraction-coordinate body the integer-backed ConvexBody replaced:
# vertices are the Fraction input points, right-hand sides b / den over
# the lcm den of every input denominator, and the fan, simplices, volume,
# barycenter and membership run over Fraction vertices.


def _fraction_hull(points):
    """(vertices, facets, equations, affine dimension, incidence) of the
    Fraction-coordinate `convex_hull`."""
    pts = sorted(set(tuple(F(x) for x in p) for p in points))
    den = math.lcm(*(x.denominator for p in pts for x in p))
    ints = [tuple(x.numerator * (den // x.denominator) for x in p) for p in pts]
    keep, facets, equations, affine_dim, incidence = G._int_hull(ints)
    return (
        tuple(pts[i] for i in keep),
        tuple((a, F(b, den)) for a, b in facets),
        tuple((a, F(b, den)) for a, b in equations),
        affine_dim,
        incidence,
    )


def _fraction_triangulation(vertices, affine_dim, incidence):
    return [(0,)] if affine_dim == 0 else G._fan(vertices, incidence, affine_dim)


def _fraction_simplices(vertices, triangulation):
    for idx in triangulation:
        simplex = [vertices[i] for i in idx]
        apex = simplex[0]
        yield simplex, abs(linalg.det([[x - y for x, y in zip(p, apex)] for p in simplex[1:]]))


def _fraction_volume(vertices, triangulation):
    dim = len(vertices[0])
    return sum(det for _, det in _fraction_simplices(vertices, triangulation)) / math.factorial(dim)


def _fraction_barycenter(vertices, triangulation):
    dim = len(vertices[0])
    total = F(0)
    weighted = [F(0)] * dim
    for simplex, det in _fraction_simplices(vertices, triangulation):
        total += det
        for i in range(dim):
            weighted[i] += det * sum(p[i] for p in simplex)
    return tuple(w / (total * (dim + 1)) for w in weighted)


def _fraction_contains(facets, equations, point, strict):
    p = tuple(F(x) for x in point)
    if any(linalg.dot(a, p) != b for a, b in equations):
        return False
    if strict and equations:
        return False
    return all(linalg.dot(a, p) < b or (not strict and linalg.dot(a, p) == b) for a, b in facets)


def _seeded_rational_point_sets(seed, count):
    """Points with mixed denominators in dimension d <= 4 on an affine
    subspace of dimension r <= d, so degenerate sets occur: a base point,
    its sums with r random directions and a few random combinations.
    Each comes with probe points for membership: rational and int ones,
    the mean of the points and the midpoints of the first with each."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 4)
        r = rng.randint(0, d)

        def rational():
            return F(rng.randint(-8, 8), rng.randint(1, 6))

        base = tuple(rational() for _ in range(d))
        directions = [tuple(rational() for _ in range(d)) for _ in range(r)]
        combos = [tuple(int(i == j) for i in range(r)) for j in range(-1, r)]
        combos += [tuple(F(rng.randint(0, 4), 4) for _ in range(r)) for _ in range(rng.randint(0, 3))]
        points = [tuple(b + sum(c * v[i] for c, v in zip(cs, directions)) for i, b in enumerate(base)) for cs in combos]
        probes = [tuple(rational() for _ in range(d)) for _ in range(3)]
        probes += [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(3)]
        probes.append(tuple(sum(c) / len(points) for c in zip(*points)))
        probes += [tuple((x + y) / 2 for x, y in zip(points[0], p)) for p in points]
        yield points, probes


@pytest.mark.parametrize("seed", range(4))
def test_integer_body_matches_the_fraction_reference(seed):
    for points, probes in _seeded_rational_point_sets(seed, 125):
        _check_against_the_fraction_reference(points, probes)


def _check_against_the_fraction_reference(points, probes):
    body = G.convex_hull(points)
    vertices, facets, equations, affine_dim, incidence = _fraction_hull(points)
    assert body.vertices == vertices
    assert body.facets == facets and body.equations == equations
    assert body.affine_dim == affine_dim
    triangulation = _fraction_triangulation(vertices, affine_dim, incidence)
    assert body.triangulation() == triangulation
    if body.is_full_dimensional:
        assert body.volume() == _fraction_volume(vertices, triangulation)
        assert body.barycenter() == _fraction_barycenter(vertices, triangulation)
    else:
        assert body.volume() == 0
    for p in probes + list(vertices):
        for strict in (False, True):
            assert body.contains(p, strict=strict) == _fraction_contains(facets, equations, p, strict)
    # the same body from its vertices alone, over another denominator
    assert G.convex_hull(vertices) == body and hash(G.convex_hull(vertices)) == hash(body)


def _cofactor_det(rows):
    """Reference determinant by cofactor expansion along the first row."""
    if not rows:
        return F(1)
    return sum(
        (-1) ** j * F(x) * _cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


@st.composite
def mixed_matrices(draw, square=False):
    """Int/Fraction matrices of at most 5 x 5, some rows zeroed, copied
    or replaced by the sum of two others, so rank-deficient ones occur."""
    n_rows = draw(st.integers(1, 5))
    n_cols = n_rows if square else draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-4, 4), st.integers(1, 6)))
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    index = st.integers(0, n_rows - 1)
    for op, i, j, k in draw(st.lists(st.tuples(st.sampled_from("zds"), index, index, index), max_size=2)):
        if op == "z":
            rows[i] = [0] * n_cols
        elif op == "d":
            rows[i] = list(rows[j])
        else:
            rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
    return rows


def _fraction_eliminate(rows):
    """Reference Gauss-Jordan reduction over Fraction: the reduced rows,
    each with 1 at its pivot, and the pivot columns."""
    rows = [list(map(F, r)) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _fraction_solve(rows, rhs, dim):
    """Reference `solve_affine` on `_fraction_eliminate`."""
    reduced, pivots = _fraction_eliminate([list(row) + [b] for row, b in zip(rows, rhs)])
    if dim in pivots or len(pivots) < dim:
        return None
    x = [F(0)] * dim
    for r, c in enumerate(pivots):
        x[c] = reduced[r][dim]
    return tuple(x)


def _fraction_nullspace(rows, dim):
    """Reference `nullspace` on `_fraction_eliminate`, for nonempty rows."""
    reduced, pivots = _fraction_eliminate(rows)
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        v = [F(0)] * dim
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


class TestIntegerElimination:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(mixed_matrices())
    def test_pivots_and_rank_match_fraction_elimination(self, rows):
        before = [list(r) for r in rows]
        pivots = _fraction_eliminate(rows)[1]
        assert linalg._pivot_columns(rows) == pivots
        assert linalg.rank(rows) == len(pivots)
        assert rows == before

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(mixed_matrices(square=True))
    def test_det_matches_cofactor_expansion(self, rows):
        value = linalg.det(rows)
        assert isinstance(value, F)
        assert value == _cofactor_det(rows)

    def test_det_of_the_empty_matrix(self):
        assert linalg.det([]) == 1 and linalg.rank([]) == 0

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(mixed_matrices())
    def test_solve_and_nullspace_match_fraction_elimination(self, rows):
        # the last column is the right-hand side: with up to 5 rows over
        # up to 4 unknowns, overdetermined, inconsistent and
        # underdetermined systems all occur
        assume(len(rows[0]) >= 2)
        before = [list(r) for r in rows]
        dim = len(rows[0]) - 1
        lhs, rhs = [r[:dim] for r in rows], [r[dim] for r in rows]
        expected = _fraction_solve(lhs, rhs, dim)
        assert linalg.solve_affine(lhs, rhs, dim) == expected
        basis = linalg.nullspace(rows, dim + 1)
        assert basis == _fraction_nullspace(rows, dim + 1)
        assert all(type(x) is F for v in basis for x in v)
        assert rows == before

    def test_float_kkt_system(self):
        # the system [H m; m^T 0] of a Newton step on the slice <m, xi> = 1,
        # with float Hessian and gradient and a Fraction covector: solved
        # at the exact values of the floats
        hess = [[2.718281828459045, 0.1], [0.1, 3.0e-3]]
        gradient = [0.5, -1.25e-7]
        m = [F(1, 3), F(2, 3)]
        rows = [row + [mi] for row, mi in zip(hess, m)] + [list(m) + [0]]
        rhs = [-g for g in gradient] + [0]
        solution = linalg.solve_affine(rows, rhs, 3)
        assert solution == _fraction_solve(rows, rhs, 3)
        assert all(type(x) is F for x in solution)
        assert [sum(F(a) * x for a, x in zip(row, solution)) for row in rows] == [F(b) for b in rhs]
