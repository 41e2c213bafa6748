import itertools
import math
import random
from fractions import Fraction as F

import pytest

from hatvol import geometry as G
from hatvol import linalg
from hatvol import monomials as M
from hatvol.errors import BudgetExceededError, ValidationError
from helpers import ideal_le, ideal_to_json, integral_closure, maximal_ideal, polyhedron_contains


def brute_colength(ideal, box=30):
    """Independent staircase count by scanning a box."""
    degs = ideal.pure_degrees()
    assert all(d is not None for d in degs)
    count = 0
    for u in itertools.product(*[range(d) for d in degs]):
        if not any(all(u[i] >= g[i] for i in range(ideal.n)) for g in ideal.gens):
            count += 1
    return count


def count_order_ideals(k):
    """Independent count of nonempty staircases inside {x + y <= k - 1}."""

    def rec(x, prev):
        if x == k:
            return 1
        return sum(rec(x + 1, c) for c in range(0, min(prev, k - x) + 1))

    return sum(rec(1, c0) for c0 in range(1, k + 1))


def reference_enumeration(n, k, min_colength=1, contain_power=0):
    """(gens, colength) of every ideal m^k <= a <= m, by the column-height
    recursion over the cells |u| <= k - 1, with the generators found by
    scanning the whole (k + 1)^n box for minimal points outside the
    staircase."""
    cells = [u for u in itertools.product(range(k), repeat=n - 1) if sum(u) <= k - 1]
    heights = {}

    def gens_from_heights():
        pts = {u + (z,) for u, h in heights.items() for z in range(h)}
        gens = []
        for u in itertools.product(range(k + 1), repeat=n):
            if u in pts:
                continue
            if all(u[i] == 0 or tuple(u[j] - int(j == i) for j in range(n)) in pts for i in range(n)):
                gens.append(u)
        return tuple(sorted(gens, reverse=True)), len(pts)

    def rec(i):
        if i == len(cells):
            if sum(heights.values()) >= min_colength:
                yield gens_from_heights()
            return
        u = cells[i]
        top = k - sum(u)
        for j in range(n - 1):
            if u[j] > 0:
                top = min(top, heights[u[:j] + (u[j] - 1,) + u[j + 1 :]])
        lo = max(0 if any(u) else 1, contain_power - sum(u))
        for c in range(lo, top + 1):
            heights[u] = c
            yield from rec(i + 1)
        heights.pop(u, None)

    yield from rec(0)


def rehull_multiplicity(ideal):
    """Reference multiplicity: the generators on each Newton facet found by
    dot products, then charted, hulled again and triangulated on their
    own, with |det| summed over the simplices."""
    total = 0
    for normal, c in ideal.newton_facets():
        face = G.convex_hull([g for g in ideal.gens if linalg.dot(normal, g) == c])
        for simplex in face.triangulation():
            total += abs(linalg.det([face.vertices[i] for i in simplex]))
    return total


def facet_rich_ideals(n, count, seed):
    """Seeded m-primary ideals with generators that are not vertices of
    their Newton facets: lattice points on the edges between two pure
    powers and inside the facet through all of them, plus a few random
    points, which may cut that facet up."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degs = [rng.choice((2, 3, 4, 6)) for _ in range(n)]
        lcm = math.lcm(*degs)
        plane = [
            u for u in itertools.product(*[range(d + 1) for d in degs])
            if sum(x * (lcm // d) for x, d in zip(u, degs)) == lcm
        ]
        edges = [u for u in plane if sum(1 for x in u if x) == 2]
        inner = [u for u in plane if sum(1 for x in u if x) > 2]
        gens = [u for u in plane if sum(1 for x in u if x) == 1]
        gens += rng.sample(edges, min(len(edges), rng.randint(0, 3)))
        gens += rng.sample(inner, min(len(inner), rng.randint(0, 3)))
        gens += [tuple(rng.randint(0, d) for d in degs) for _ in range(rng.randint(0, 2))]
        out.append(M.MonomialIdeal(n, [g for g in gens if any(g)]))
    return out


class TestColength:
    def test_maximal_ideal(self):
        assert maximal_ideal(2).colength() == 1

    @pytest.mark.parametrize("k", list(range(1, 11)))
    def test_power_of_maximal(self, k):
        ideal = M.maximal_power(2, k)
        assert ideal.colength() == k * (k + 1) // 2
        assert ideal.colength() == brute_colength(ideal)

    def test_three_generator_example(self):
        ideal = M.MonomialIdeal(2, [(2, 0), (1, 2), (0, 4)])
        assert ideal.colength() == 6
        assert ideal.staircase() == (
            (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1),
        )

    def test_non_primary_rejected(self):
        ideal = M.MonomialIdeal(2, [(1, 1)])
        assert not ideal.is_primary
        with pytest.raises(ValidationError) as info:
            ideal.colength()
        assert info.value.code == "infinite-colength"

    def test_colength_3d(self):
        ideal = M.maximal_power(3, 3)
        assert ideal.colength() == brute_colength(ideal) == 10


class TestPower:
    def test_maximal_squared(self):
        assert maximal_ideal(2).power(2).gens == ((2, 0), (1, 1), (0, 2))

    def test_two_generator_square(self):
        ideal = M.MonomialIdeal(2, [(2, 0), (0, 3)])
        assert ideal.power(2).gens == ((4, 0), (2, 3), (0, 6))

    def test_first_power_is_identity(self):
        ideal = M.MonomialIdeal(2, [(2, 0), (1, 2), (0, 4)])
        assert ideal.power(1) == ideal

    def test_power_over_the_box_cap_refused(self):
        # m^100 in three variables spans 101^3 exponent cells, over the cap
        with pytest.raises(BudgetExceededError) as info:
            maximal_ideal(3).power(100)
        assert info.value.details == {"cells": 101**3, "budget": M.MAX_BOX_CELLS}
        assert info.value.exit_code == 3

    def test_antichain_reduction_on_input(self):
        # generators need not be minimal on input
        ideal = M.MonomialIdeal(2, [(1, 0), (0, 1), (2, 2), (1, 1)])
        assert ideal.gens == ((1, 0), (0, 1))


class TestMultiplicity:
    def test_maximal(self):
        assert maximal_ideal(2).multiplicity() == 1

    def test_plane_curve_pair(self):
        ideal = M.MonomialIdeal(2, [(2, 0), (0, 3)])
        assert ideal.multiplicity() == 6

    @pytest.mark.parametrize("n,k", [(2, 2), (2, 5), (3, 2), (3, 3)])
    def test_power_of_maximal(self, n, k):
        assert M.maximal_power(n, k).multiplicity() == k**n

    def test_middle_generator_matters(self):
        assert M.MonomialIdeal(2, [(5, 0), (1, 1), (0, 5)]).multiplicity() == 10

    @pytest.mark.parametrize(
        "gens,e",
        [
            ([(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1), (1, 1, 1, 0)], 12),
            # the facet x + y + z = 3 is a quadrilateral: two simplices
            ([(3, 0, 0), (0, 3, 0), (0, 0, 4), (1, 0, 2), (0, 1, 2)], 28),
            ([(5,)], 5),
        ],
    )
    def test_values(self, gens, e):
        assert M.MonomialIdeal(len(gens[0]), gens).multiplicity() == e

    @pytest.mark.parametrize("n", [2, 3])
    def test_power_and_closure_identities(self, n):
        # e(a^2) = 2^n e(a), and integral closure keeps e
        rng = random.Random(9 + n)
        for _ in range(8):
            degs = [rng.randint(2, 4) for _ in range(n)]
            gens = [tuple(d * int(i == j) for j in range(n)) for i, d in enumerate(degs)]
            for _ in range(rng.randint(0, 3)):
                gens.append(tuple(rng.randint(0, d - 1) for d in degs))
            ideal = M.MonomialIdeal(n, [g for g in gens if any(g)])
            e = ideal.multiplicity()
            assert ideal.power(2).multiplicity() == 2**n * e
            assert integral_closure(ideal).multiplicity() == e

    @pytest.mark.parametrize("n,m_exp", [(2, 40), (3, 20)])
    def test_limit_oracle(self, n, m_exp):
        # n! colength(a^m) / m^n approaches the covolume multiplicity
        import math

        ideal = M.maximal_power(n, 2).power(1)
        e = ideal.multiplicity()
        approx = F(math.factorial(n) * ideal.power(m_exp).colength(), m_exp**n)
        assert abs(approx / e - 1) <= F(1, 8)

    def test_limit_oracle_nontrivial_ideal(self):
        ideal = M.MonomialIdeal(2, [(2, 0), (0, 3)])
        values = [F(2 * ideal.power(m).colength(), m * m) for m in (10, 20, 40)]
        assert all(v >= 6 for v in values)
        assert abs(values[-1] - 6) <= F(6, 20)
        assert abs(values[-1] - 6) <= abs(values[0] - 6)

    def test_monotone_convergence_for_closed_ideals(self):
        # for integrally closed ideals the normalized colengths of powers
        # descend to the multiplicity from above
        rng = random.Random(4)
        for _ in range(12):
            px, py = rng.randint(2, 6), rng.randint(2, 6)
            gens = [(px, 0), (0, py)]
            for _ in range(rng.randint(0, 2)):
                gens.append((rng.randint(1, px - 1), rng.randint(1, py - 1)))
            ideal = integral_closure(M.MonomialIdeal(2, gens))
            e = ideal.multiplicity()
            seq = [F(2 * ideal.power(m).colength(), m * m) for m in (5, 10, 20, 40)]
            assert all(v >= e for v in seq)
            assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_matches_the_rehull_on_every_n3_k4_ideal(self):
        for ideal in M.enumerate_staircases(3, 4):
            assert ideal.multiplicity() == rehull_multiplicity(ideal)

    @pytest.mark.parametrize("n,k", [(n, k) for n in (3, 4) for k in range(1, 6)])
    def test_matches_the_rehull_on_maximal_powers(self, n, k):
        # every generator of degree k lies on the one compact facet
        ideal = M.maximal_power(n, k)
        assert ideal.multiplicity() == rehull_multiplicity(ideal) == k**n

    def test_matches_the_rehull_with_generators_inside_facets_and_on_edges(self):
        crowded = 0
        for ideal in facet_rich_ideals(4, 100, seed=41):
            assert ideal.multiplicity() == rehull_multiplicity(ideal)
            crowded += any(
                sum(linalg.dot(normal, g) == c for g in ideal.gens) > ideal.n
                for normal, c in ideal.newton_facets()
            )
        # the corpus exercises facets with more generators than a simplex
        assert crowded >= 50

    def test_covolume_of_a_unimodular_image(self):
        # a unimodular map U keeps lattice volumes: the polyhedron of U g
        # over the columns of U has the covolume of the Newton polyhedron
        rng = random.Random(53)
        for ideal in [M.maximal_power(3, 3)] + facet_rich_ideals(3, 20, seed=53):
            u = [[int(i == j) for j in range(3)] for i in range(3)]
            for _ in range(4):
                (i, j), m = rng.sample(range(3), 2), rng.choice((-2, -1, 1, 2))
                u[i] = [x + m * y for x, y in zip(u[i], u[j])]
            assert linalg.det(u) == 1
            image = G.Polyhedron([tuple(linalg.dot(row, g) for row in u) for g in ideal.gens], list(zip(*u)))
            assert image.covolume() == ideal.multiplicity()

    @pytest.mark.parametrize("n", [3, 4])
    def test_fans_only_over_vertices(self, monkeypatch, n):
        # `geometry._fan` takes vertex sets; a generator inside a facet or
        # an edge is no vertex: it lies in the Newton polyhedron of the
        # others
        true_fan = G._fan
        passed = []

        def recorded(points, facets, d):
            passed.append((points, facets))
            return true_fan(points, facets, d)

        monkeypatch.setattr(G, "_fan", recorded)
        for ideal in [M.maximal_power(n, 3)] + facet_rich_ideals(n, 6, seed=7 * n):
            passed.clear()
            ideal.multiplicity()
            used = {points[i] for points, facets in passed for mask in facets for i in G._members(mask)}
            for g in used:
                others = [h for h in ideal.gens if h != g]
                assert not (others and polyhedron_contains(M.MonomialIdeal(n, others).newton_polyhedron(), g))


class TestNewtonPolyhedron:
    def test_single_facet(self):
        poly = M.MonomialIdeal(2, [(2, 0), (0, 3)]).newton_polyhedron()
        non_coordinate = [(n, c) for n, c in poly.facets if c > 0]
        assert non_coordinate == [((3, 2), F(6))]

    def test_maximal_ideal_facet(self):
        poly = maximal_ideal(2).newton_polyhedron()
        assert ((1, 1), F(1)) in poly.facets

    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_power_facet(self, k):
        poly = M.maximal_power(2, k).newton_polyhedron()
        assert ((1, 1), F(k)) in poly.facets

    def test_membership(self):
        poly = M.MonomialIdeal(2, [(2, 0), (0, 3)]).newton_polyhedron()
        assert polyhedron_contains(poly, (F(1), F(3, 2)))
        assert not polyhedron_contains(poly, (F(1), F(1)))

    def test_nonnegative_normals(self):
        rng = random.Random(17)
        for _ in range(10):
            gens = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)]
            if any(all(x == 0 for x in g) for g in gens):
                continue
            poly = M.MonomialIdeal(2, gens).newton_polyhedron()
            for normal, _ in poly.facets:
                assert all(x >= 0 for x in normal)


    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_newton_facets_are_integers(self, n):
        rng = random.Random(n)
        for _ in range(25):
            gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 5))]
            gens = [g for g in gens if any(g)] or [(1,) * n]
            for normal, c in M.MonomialIdeal(n, gens).newton_facets():
                assert all(type(x) is int for x in normal) and type(c) is int


class TestIntegralClosure:
    def test_adds_mixed_monomial(self):
        closed = integral_closure(M.MonomialIdeal(2, [(2, 0), (0, 2)]))
        assert closed.gens == ((2, 0), (1, 1), (0, 2))

    def test_maximal_ideal_closed(self):
        ideal = maximal_ideal(2)
        assert integral_closure(ideal) == ideal

    def test_plane_curve_pair_closure(self):
        # lattice points of u1/2 + u2/3 >= 1 inside the 2 x 3 box
        ideal = M.MonomialIdeal(2, [(2, 0), (0, 3)])
        closed = integral_closure(ideal)
        box_points = [
            u
            for u in itertools.product(range(3), range(4))
            if F(u[0], 2) + F(u[1], 3) >= 1
        ]
        minimal = [
            u
            for u in box_points
            if (u[0] == 0 or (u[0] - 1, u[1]) not in box_points)
            and (u[1] == 0 or (u[0], u[1] - 1) not in box_points)
        ]
        assert closed.gens == tuple(sorted(minimal, reverse=True)) == ((2, 0), (1, 2), (0, 3))
        assert closed.multiplicity() == ideal.multiplicity() == 6
        assert closed.colength() == 5 <= ideal.colength()

    def test_closure_invariants_on_corpus(self):
        for ideal in M.enumerate_staircases(2, 5):
            closed = integral_closure(ideal)
            assert closed.colength() <= ideal.colength()
            assert closed.multiplicity() == ideal.multiplicity()


class TestValuationIdeal:
    def test_equal_weights_give_power(self):
        assert M.valuation_ideal([1, 1], 3) == M.maximal_power(2, 3)

    def test_weighted_example(self):
        ideal = M.valuation_ideal([2, 1], 4)
        assert ideal.gens == ((2, 0), (1, 2), (0, 4))

    def test_witness_weights(self):
        # weights (1/(1-a), 1, ..., 1) with a = 1/2
        ideal = M.valuation_ideal([F(2), 1], 2)
        assert ideal.gens == ((1, 0), (0, 2))

    def test_invalid_weight(self):
        with pytest.raises(ValidationError) as info:
            M.valuation_ideal([1, 0], 2)
        assert info.value.code == "invalid-weight"

    def test_bracketing_between_powers(self):
        # m^ceil(k / min w) <= a_k(v_w) <= m^ceil(k / max w), exactly
        import math

        rng = random.Random(31)
        for _ in range(25):
            n = rng.choice([2, 3])
            w = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
            k = F(rng.randint(2, 9))
            ideal = M.valuation_ideal(w, k)
            lower = M.maximal_power(n, math.ceil(k / min(w)))
            upper = M.maximal_power(n, math.ceil(k / max(w)))
            assert ideal_le(lower, ideal)
            assert ideal_le(ideal, upper)

    def test_rational_threshold(self):
        ideal = M.valuation_ideal([F(3, 2), 1], F(7, 2))
        for g in ideal.gens:
            assert F(3, 2) * g[0] + g[1] >= F(7, 2)


class TestEnumeration:
    def test_k2_staircases(self):
        ideals = list(M.enumerate_staircases(2, 2))
        staircases = sorted(i.staircase() for i in ideals)
        assert staircases == [
            ((0, 0),),
            ((0, 0), (0, 1)),
            ((0, 0), (0, 1), (1, 0)),
            ((0, 0), (1, 0)),
        ]

    @pytest.mark.parametrize("k", list(range(2, 7)))
    def test_count_matches_independent_recursion(self, k):
        assert sum(1 for _ in M.enumerate_staircases(2, k)) == count_order_ideals(k)

    def test_each_ideal_in_range(self):
        for ideal in M.enumerate_staircases(2, 4):
            assert ideal_le(M.maximal_power(2, 4), ideal)
            assert ideal_le(ideal, maximal_ideal(2))

    def test_no_duplicates(self):
        ideals = list(M.enumerate_staircases(2, 6))
        assert len(ideals) == len(set(ideals))

    def test_min_colength_filter(self):
        total = list(M.enumerate_staircases(2, 4))
        filtered = list(M.enumerate_staircases(2, 4, min_colength=5))
        assert all(i.colength() >= 5 for i in filtered)
        assert len(filtered) == sum(1 for i in total if i.colength() >= 5)

    def test_infeasible_filter_empty(self):
        assert list(M.enumerate_staircases(2, 3, min_colength=100)) == []

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            next(M.enumerate_staircases(2, 13))
        with pytest.raises(BudgetExceededError):
            next(M.enumerate_staircases(3, 6))

    def test_contain_power_floor(self):
        ideals = list(M.enumerate_staircases(2, 6, contain_power=3))
        assert len(ideals) == 365
        for ideal in ideals:
            assert all(sum(g) >= 3 for g in ideal.gens)

    @pytest.mark.parametrize("k,expected", [(2, 8), (3, 95), (4, 2497)])
    def test_3d_counts(self, k, expected):
        assert sum(1 for _ in M.enumerate_staircases(3, k)) == expected

    def test_3d_ideals_valid(self):
        for ideal in M.enumerate_staircases(3, 3):
            assert ideal.is_primary
            assert ideal_le(M.maximal_power(3, 3), ideal)

    @pytest.mark.parametrize(
        "n,k,options",
        [(2, 6, {}), (3, 3, {}), (2, 6, {"contain_power": 3}), (3, 3, {"min_colength": 5})],
    )
    def test_sequence_matches_box_scan_reference(self, n, k, options):
        # the enumeration order is part of the contract: lexicographic in
        # the column heights
        yielded = [(ideal.gens, ideal.colength()) for ideal in M.enumerate_staircases(n, k, **options)]
        assert yielded == list(reference_enumeration(n, k, **options))

    @pytest.mark.parametrize("n,k,min_colength", [(2, 5, 6), (3, 3, 5)])
    def test_pruned_subtree_holds_its_smallest_ideal(self, n, k, min_colength):
        # skipping the subtree of the j-th node drops one run of the full
        # sequence; every dropped ideal contains that node's a_min and has
        # colength at least its least_colength, and a_min is dropped too
        full = [ideal.gens for ideal in M.enumerate_staircases(n, k, min_colength=min_colength)]
        nodes = []
        kept = list(M.enumerate_staircases(n, k, min_colength=min_colength, prune=lambda *node: nodes.append(node)))
        assert [ideal.gens for ideal in kept] == full
        for j in range(len(nodes)):
            seen = []

            def prune(a_min, least_colength):
                seen.append((a_min, least_colength))
                return len(seen) == j + 1

            kept = [ideal.gens for ideal in M.enumerate_staircases(n, k, min_colength=min_colength, prune=prune)]
            a_min, least_colength = seen[j]
            assert (a_min.gens, least_colength) == (nodes[j][0].gens, nodes[j][1])
            start = next((i for i, (a, b) in enumerate(zip(full, kept)) if a != b), len(kept))
            dropped = full[start : start + len(full) - len(kept)]
            assert full[:start] + full[start + len(dropped) :] == kept
            for gens in dropped:
                ideal = M.MonomialIdeal(n, gens)
                assert ideal_le(a_min, ideal)
                assert ideal.colength() >= least_colength >= min_colength
            assert (a_min.colength() >= min_colength) == (a_min.gens in dropped)

    def test_cached_colength_correct(self):
        for ideal in M.enumerate_staircases(2, 5):
            cached = ideal.colength()
            fresh = M.MonomialIdeal(2, ideal.gens).colength()
            assert cached == fresh


class TestTrustedConstructor:
    """Ideals built from corner-read generators skip parsing and reduction;
    they must equal the ideals the validating constructor builds."""

    @pytest.mark.parametrize(
        "ideals",
        [
            lambda: M.enumerate_staircases(2, 6),
            lambda: M.enumerate_staircases(3, 3),
            lambda: [M.valuation_ideal(w, k) for w in [(1, 2), (F(2, 3), 1, F(5, 2))] for k in (1, F(7, 2), 6)],
            lambda: [M.maximal_power(3, 40)],
            lambda: [integral_closure(ideal) for ideal in M.enumerate_staircases(3, 3)],
        ],
    )
    def test_same_generators_as_validated_input(self, ideals):
        for ideal in ideals():
            assert ideal.gens == M.MonomialIdeal(ideal.n, list(ideal.gens)[::-1]).gens


class TestFacetCache:
    def test_newton_facets_computed_once(self, monkeypatch):
        from hatvol import invariants as I
        from hatvol import models as MD

        built = []
        true_polyhedron = G.Polyhedron

        def counted(points, rays):
            built.append(points)
            return true_polyhedron(points, rays)

        monkeypatch.setattr(G, "Polyhedron", counted)
        ideal = M.MonomialIdeal(3, [(3, 0, 0), (0, 2, 0), (0, 0, 4), (1, 1, 1)])
        facets = ideal.newton_facets()
        assert isinstance(facets, tuple) and ideal.newton_facets() is facets
        I.lct(MD.MonomialPair(3, (0, 0, 0)), ideal)
        ideal.multiplicity()
        integral_closure(ideal)
        assert ideal.newton_polyhedron() is ideal.newton_polyhedron()
        assert built == [ideal.gens]

    @pytest.mark.parametrize("n", [3, 4])
    def test_multiplicity_runs_one_double_description(self, monkeypatch, n):
        calls = []
        true_kernel = G._extreme_rays

        def counted(normals, dim):
            calls.append(dim)
            return true_kernel(normals, dim)

        monkeypatch.setattr(G, "_extreme_rays", counted)
        for ideal in [M.maximal_power(n, 3)] + facet_rich_ideals(n, 5, seed=n):
            calls.clear()
            ideal.multiplicity()
            ideal.newton_facets()
            ideal.multiplicity()
            assert calls == [n + 1]


class TestSerialization:
    def test_round_trip(self):
        ideal = M.MonomialIdeal(2, [(2, 0), (1, 2), (0, 4)])
        assert M.MonomialIdeal.from_json(ideal_to_json(ideal)) == ideal

    def test_non_minimal_input_reduced(self):
        ideal = M.MonomialIdeal.from_json({"n": 2, "gens": [[1, 0], [0, 1], [3, 3]]})
        assert ideal.gens == ((1, 0), (0, 1))

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            M.MonomialIdeal.from_json({"gens": [[1, 0]]})
