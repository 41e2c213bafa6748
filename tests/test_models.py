import itertools
import math
import random
from fractions import Fraction as F

import pytest

from hatvol import geometry as G
from hatvol import linalg
from hatvol import models as MD
from hatvol.errors import ValidationError
from helpers import pair_to_json


def a1_singularity():
    return MD.ToricSingularity(G.Cone([(0, 1), (2, -1)]))


def fano(vertices, r=1):
    return MD.FanoConeInput(G.convex_hull(vertices), r)


class TestMonomialPair:
    def test_klt_range_enforced(self):
        with pytest.raises(ValidationError):
            MD.MonomialPair(2, (1, 0))
        with pytest.raises(ValidationError):
            MD.MonomialPair(2, (F(-1, 2), 0))

    def test_json_round_trip(self):
        pair = MD.MonomialPair(3, (F(1, 2), 0, 0))
        assert MD.load_model(pair_to_json(pair)) == pair


class TestLogDiscrepancy:
    def test_order_at_origin(self):
        for n in (2, 3, 4):
            pair = MD.MonomialPair(n, (0,) * n)
            assert MD.log_discrepancy(pair, MD.WeightValuation((1,) * n)) == n

    def test_witness_valuation(self):
        # weights ((1-a)^{-1}, 1, ..., 1) on the pair with one coefficient a
        for n in (2, 3):
            for a in (F(1, 2), F(2, 3)):
                pair = MD.MonomialPair(n, (a,) + (0,) * (n - 1))
                v = MD.WeightValuation((1 / (1 - a),) + (1,) * (n - 1))
                assert MD.log_discrepancy(pair, v) == n

    def test_a1_cone(self):
        model = a1_singularity()
        assert model.m_covector == (F(1), F(1))
        assert MD.log_discrepancy(model, MD.WeightValuation((1, 0))) == 1

    def test_boundary_rejected(self):
        model = a1_singularity()
        with pytest.raises(ValidationError) as info:
            MD.log_discrepancy(model, MD.WeightValuation((0, 1)))
        assert info.value.code == "boundary-valuation"


class TestValuationVolume:
    def test_unit_weights(self):
        for n in (2, 3):
            pair = MD.MonomialPair(n, (0,) * n)
            assert MD.valuation_volume(pair, MD.WeightValuation((1,) * n)) == 1

    def test_witness_volume(self):
        pair = MD.MonomialPair(3, (F(1, 2), 0, 0))
        v = MD.WeightValuation((2, 1, 1))
        assert MD.valuation_volume(pair, v) == F(1, 2)

    def test_a1_interior_formula(self):
        # volume 2 / (a (a + 2 b)) on the interior of the cone
        model = a1_singularity()
        rng = random.Random(2)
        for _ in range(10):
            a = F(rng.randint(1, 9), rng.randint(1, 4))
            b = F(rng.randint(-3, 9), rng.randint(1, 4))
            xi = (a, b)
            if not model.is_interior(xi):
                continue
            v = MD.WeightValuation(xi)
            assert MD.valuation_volume(model, v) == 2 / (a * (a + 2 * b))

    def test_semigroup_colength_limit_a1(self):
        # l(points of the dual semigroup under level k) recovers the volume
        model = a1_singularity()
        xi = (1, 0)
        dual = model.dual_cone
        k = 48
        count = 0
        for u in itertools.product(range(2 * k + 1), repeat=2):
            if all(sum(a * b for a, b in zip(u, r)) >= 0 for r in [(0, 1), (2, -1)]):
                if u[0] < k:
                    count += 1
        assert F(2 * count, k * k) == MD.valuation_volume(model, MD.WeightValuation(xi)) == 2

    def test_semigroup_colength_limit_orthant(self):
        from hatvol import monomials as M

        orthant = MD.ToricSingularity(G.Cone([(1, 0), (0, 1)]))
        xi = MD.WeightValuation((F(3, 2), 1))
        vol = MD.valuation_volume(orthant, xi)
        k = 60
        colength = M.valuation_ideal(xi.weights, k).colength()
        assert abs(F(2 * colength, k * k) / vol - 1) < F(1, 10)


def _fraction_truncated_dual_body(model, xi):
    """The Fraction-coordinate truncated dual body the integer one
    replaced: the hull of the origin and the points d / <xi, d>."""
    points = [tuple(F(0) for _ in range(model.n))]
    for ray in model.dual_cone.rays:
        level = linalg.dot(xi, ray)
        points.append(tuple(F(x) / level for x in ray))
    return G.convex_hull(points)


def _seeded_cones_and_weights(seed, count):
    """Q-Gorenstein cones over random lattice polytopes of dimension 1-3,
    moved by a random unimodular map, each with a rational interior
    point: a combination of the rays with positive coefficients of
    unequal denominators."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        base = [tuple(rng.randint(-2, 2) for _ in range(n - 1)) for _ in range(rng.randint(n, n + 3))]
        if linalg.rank([[x - y for x, y in zip(p, base[0])] for p in base[1:]]) < n - 1:
            continue
        rays = [p + (1,) for p in base]
        # a signed permutation times a shear keeps the lattice
        perm = rng.sample(range(n), n)
        shear = [[int(i == j) for j in range(n)] for i in range(n)]
        shear[0][n - 1] = rng.randint(-3, 3)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        rays = [tuple(signs[i] * linalg.dot(shear[perm[i]], r) for i in range(n)) for r in rays]
        model = MD.ToricSingularity(G.Cone(rays))
        coeffs = [F(rng.randint(1, 9), rng.randint(1, 7)) for _ in model.cone.rays]
        xi = tuple(sum(c * r[i] for c, r in zip(coeffs, model.cone.rays)) for i in range(n))
        out.append((model, xi))
    return out


class TestIntegerTruncatedBody:
    def test_matches_the_fraction_reference(self):
        negative = unequal = 0
        for model, xi in _seeded_cones_and_weights(37, 120):
            assert model.is_interior(xi)
            body = MD.truncated_dual_body(model, xi)
            reference = _fraction_truncated_dual_body(model, xi)
            assert body.vertices == reference.vertices
            assert body.facets == reference.facets and body.equations == reference.equations
            assert body.volume() == reference.volume()
            assert MD.valuation_volume(model, MD.WeightValuation(xi)) == math.factorial(model.n) * reference.volume()
            negative += any(x < 0 for x in xi)
            unequal += len({x.denominator for x in xi}) > 1
        assert negative >= 60 and unequal >= 60


class TestConeConstruction:
    def test_line_gives_a1(self):
        toric = MD.cone_construction(fano([(0,), (2,)]))
        assert toric.cone.dual() == G.Cone([(0, 1), (2, 1)])
        assert toric.m_covector == (F(1), F(1))
        # same singularity as the standard quadric cone up to coordinates
        assert {abs(G.linalg.det([list(r) for r in toric.cone.rays]))} == {
            abs(G.linalg.det([[0, 1], [2, -1]]))
        }

    def test_plane_gives_quotient(self):
        toric = MD.cone_construction(fano([(0, 0), (3, 0), (0, 3)]))
        assert toric.cone.rays == ((-1, -1, 3), (0, 1, 0), (1, 0, 0))
        assert toric.m_covector == (F(1), F(1), F(1))

    def test_square_product(self):
        toric = MD.cone_construction(fano([(0, 0), (2, 0), (0, 2), (2, 2)]))
        assert len(toric.cone.rays) == 4
        assert all(G.linalg.dot(toric.m_covector, r) == 1 for r in toric.cone.rays)

    def test_dual_round_trip(self):
        for vertices in ([(0,), (2,)], [(0, 0), (3, 0), (0, 3)], [(-1, -1), (-1, 1), (3, -1)]):
            inp = fano(vertices)
            toric = MD.cone_construction(inp)
            expected = G.Cone([tuple(int(x) for x in v) + (1,) for v in inp.polytope.vertices])
            assert toric.cone.dual() == expected

    def test_one_double_description_per_cone(self, monkeypatch):
        # the dual and the dual's dual are read off the first kernel run
        calls = []
        true_kernel = G._extreme_rays

        def counted(normals, dim):
            calls.append(dim)
            return true_kernel(normals, dim)

        blowup = fano([(-1, -1), (-1, 1), (0, 1), (2, -1)])
        monkeypatch.setattr(G, "_extreme_rays", counted)
        model = MD.cone_construction(blowup)
        assert calls == [3]
        assert model.dual_cone.rays == ((-1, -1, 1), (-1, 1, 1), (0, 1, 1), (2, -1, 1))
        calls.clear()
        assert MD.load_model({"type": "toric", "rays": [[0, 1], [2, -1]]}).dual_cone.rays == ((1, 0), (1, 2))
        assert calls == [2]

    def test_non_gorenstein_cone_rejected(self):
        # cone over a non-coplanar quadrilateral: the ray-pairing system
        # is overdetermined and inconsistent
        with pytest.raises(ValidationError) as info:
            MD.ToricSingularity(G.Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2)]))
        assert info.value.code == "not-q-gorenstein"

    def test_every_two_dimensional_cone_is_gorenstein(self):
        model = MD.ToricSingularity(G.Cone([(1, 0), (1, 5)]))
        assert all(G.linalg.dot(model.m_covector, r) == 1 for r in model.cone.rays)


class TestDegreeBound:
    @pytest.mark.parametrize(
        "vertices,r,expected",
        [
            ([(0, 0), (3, 0), (0, 3)], 1, F(9)),
            ([(0,), (2,)], 1, F(2)),
            ([(0, 0), (2, 0), (0, 2), (2, 2)], 1, F(8)),
            ([(-1, -1), (-1, 1), (3, -1)], 1, F(8)),
            ([(0, 0), (6, 0), (0, 6)], 2, F(9, 2)),
        ],
    )
    def test_values(self, vertices, r, expected):
        assert MD.fano_degree_bound(fano(vertices, r)) == expected


class TestKssOracle:
    def test_plane(self):
        assert MD.toric_kss_oracle(MD.anticanonical_polytope(fano([(0, 0), (3, 0), (0, 3)])))

    def test_product(self):
        assert MD.toric_kss_oracle(MD.anticanonical_polytope(fano([(0, 0), (2, 0), (0, 2), (2, 2)])))

    def test_weighted_plane_unstable(self):
        assert not MD.toric_kss_oracle(MD.anticanonical_polytope(fano([(-1, -1), (-1, 1), (3, -1)])))

    def test_no_interior_point_rejected(self):
        thin = G.convex_hull([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValidationError) as info:
            MD.toric_kss_oracle(thin)
        assert info.value.code == "not-anticanonical-polytope"

    def test_scaled_polytope_with_index_two(self):
        # anticanonical polytope recovered from the degree-two polarization
        inp = fano([(0, 0), (6, 0), (0, 6)], 2)
        assert MD.toric_kss_oracle(MD.anticanonical_polytope(inp))


class TestScaleInvariance:
    def test_exact_on_random_data(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.choice([2, 3])
            coeffs = tuple(F(rng.randint(0, 2), rng.randint(3, 5)) for _ in range(n))
            pair = MD.MonomialPair(n, coeffs)
            w = MD.WeightValuation(tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)))
            lam = F(rng.randint(1, 9), rng.randint(1, 9))
            assert MD.log_discrepancy(pair, w.scaled(lam)) == lam * MD.log_discrepancy(pair, w)
            assert MD.valuation_volume(pair, w.scaled(lam)) == lam**-n * MD.valuation_volume(pair, w)
            assert MD.normalized_volume_of_valuation(pair, w.scaled(lam)) == MD.normalized_volume_of_valuation(pair, w)

    def test_toric_scale_invariance(self):
        model = a1_singularity()
        v = MD.WeightValuation((3, 1))
        for lam in (F(1, 2), F(7, 3)):
            assert MD.normalized_volume_of_valuation(model, v.scaled(lam)) == MD.normalized_volume_of_valuation(model, v)


class TestModelLoading:
    def test_three_shapes(self):
        pair = MD.load_model({"type": "monomial_pair", "n": 3, "coeffs": ["1/2", "0", "0"]})
        assert isinstance(pair, MD.MonomialPair) and pair.coeffs == (F(1, 2), F(0), F(0))
        toric = MD.load_model({"type": "toric", "rays": [[0, 1], [2, -1]]})
        assert isinstance(toric, MD.ToricSingularity)
        cone_input = MD.load_model({"type": "fano_cone", "polytope": [[0, 0], [3, 0], [0, 3]], "r": 1})
        assert isinstance(cone_input, MD.FanoConeInput)

    def test_unknown_type(self):
        with pytest.raises(ValidationError):
            MD.load_model({"type": "mystery"})
