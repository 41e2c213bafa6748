import itertools
import random
from fractions import Fraction as F

import pytest

from hatvol import geometry as G
from hatvol import invariants as I
from hatvol import linalg
from hatvol import models as MD
from hatvol import monomials as M
from hatvol import simplex
from hatvol.errors import InvariantViolationError, NonConvergedError, ValidationError
from helpers import maximal_ideal, random_unimodular

AN2 = MD.MonomialPair(2, (0, 0))
AN3 = MD.MonomialPair(3, (0, 0, 0))


def fano(vertices, r=1):
    return MD.FanoConeInput(G.convex_hull(vertices), r)


def orthant(n):
    return MD.ToricSingularity(G.Cone([tuple(int(i == j) for j in range(n)) for i in range(n)]))


class TestLct:
    def test_maximal_ideal(self):
        result = I.lct(AN2, maximal_ideal(2))
        assert result.value == 2
        assert result.minimizing_weight == (F(1), F(1))

    def test_plane_curve(self):
        result = I.lct(AN2, M.MonomialIdeal(2, [(2, 0), (0, 3)]))
        assert result.value == F(5, 6)
        assert result.minimizing_weight == (F(1, 2), F(1, 3))

    def test_three_generators(self):
        result = I.lct(AN2, M.MonomialIdeal(2, [(2, 0), (1, 2), (0, 4)]))
        assert result.value == F(3, 4)
        assert result.minimizing_weight == (F(1, 2), F(1, 4))
        assert set(result.active_constraints) == {(2, 0), (1, 2), (0, 4)}

    def test_maximal_ideal_n3(self):
        assert I.lct(AN3, maximal_ideal(3)).value == 3

    def test_with_boundary(self):
        pair = MD.MonomialPair(2, (F(1, 2), 0))
        assert I.lct(pair, M.MonomialIdeal(2, [(2, 0), (0, 3)])).value == F(1, 4) + F(1, 3)

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValidationError) as info:
            I.lct(AN2, M.MonomialIdeal(2, [(0, 0)]))
        assert info.value.code == "lct-undefined"

    def test_membership_value_agrees_on_corpus(self):
        # the Newton-facet value (Howald) against the covering LP
        for ideal in M.enumerate_staircases(2, 5):
            assert I.lct(AN2, ideal).value == simplex.solve_covering([1, 1], ideal.gens).value

    def test_integer_pick_matches_fraction_reference_on_ties(self):
        def reference(model, ideal):
            # the least <1 - a, normal / c> over the Newton facets, in
            # Fraction arithmetic; ties go to the lexicographically
            # greatest weight normal / c
            costs = [1 - a for a in model.coeffs]
            best = None
            for normal, c in ideal.newton_facets():
                weight = tuple(F(x, c) for x in normal)
                value = linalg.dot(costs, weight)
                if best is None or value < best[0] or (value == best[0] and weight > best[1]):
                    best = (value, weight, normal, c)
            value, weight, normal, c = best
            active = tuple(g for g in ideal.gens if linalg.dot(normal, g) == c)
            return I.LctResult(value, weight, active), sum(
                linalg.dot(costs, normal) / c == value for normal, c in ideal.newton_facets()
            )

        ties = 0
        for model, ideals in [
            (AN2, [M.MonomialIdeal(2, [(3, 0), (1, 1), (0, 3)])]),
            (AN3, [M.MonomialIdeal(3, [(2, 0, 0), (1, 2, 0), (1, 0, 1), (0, 3, 0), (0, 1, 1), (0, 0, 2)])]),
            (AN2, M.enumerate_staircases(2, 5)),
            (MD.MonomialPair(2, (F(1, 2), F(1, 4))), M.enumerate_staircases(2, 5)),
            (AN3, M.enumerate_staircases(3, 3)),
            (MD.MonomialPair(3, (F(1, 3), 0, F(2, 3))), M.enumerate_staircases(3, 3)),
        ]:
            for ideal in ideals:
                expected, tied = reference(model, ideal)
                assert I.lct(model, ideal) == expected
                ties += tied > 1
        assert ties >= 50

    def test_membership_value_3d(self):
        assert I.lct(AN3, M.maximal_power(3, 2)).value == F(3, 2)

    def test_non_primary_ideals(self):
        # threshold is defined for any nonzero proper monomial ideal
        assert I.lct(AN2, M.MonomialIdeal(2, [(1, 1)])).value == 1
        assert I.lct(AN2, M.MonomialIdeal(2, [(1, 0)])).value == 1
        assert I.lct(AN2, M.MonomialIdeal(2, [(2, 3)])).value == F(1, 3)
        assert I.lct(AN2, M.MonomialIdeal(2, [(3, 0), (1, 2)])).value == F(2, 3)

    def test_non_primary_matches_generic_path(self):
        import random

        rng = random.Random(13)
        for _ in range(30):
            gens = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if g != (0, 0)] or [(1, 2)]
            ideal = M.MonomialIdeal(2, gens)
            generic = min(
                F(n[0] + n[1]) / c for n, c in ideal.newton_polyhedron().facets if c > 0
            )
            assert I.lct(AN2, ideal).value == generic

    def test_no_linear_program_on_any_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the simplex solver is an oracle, not an engine")

        monkeypatch.setattr(simplex, "solve_covering", refuse)
        pair = MD.MonomialPair(2, (F(1, 2), 0))
        assert I.lct(pair, M.MonomialIdeal(2, [(2, 0), (0, 3)])).value == F(1, 4) + F(1, 3)
        pair = MD.MonomialPair(3, (F(1, 2), 0, F(1, 3)))
        assert I.lct(pair, maximal_ideal(3)).value == F(1, 2) + 1 + F(2, 3)
        value, _ = I.normalized_colength(AN2, F(1, 8), 4)
        assert value == 5
        value, _ = I.normalized_colength(AN3, F(1, 24), 3)
        assert value == 60


class TestNormalizedMultiplicity:
    def test_maximal(self):
        assert I.normalized_multiplicity(AN2, maximal_ideal(2)) == 4

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_powers_attain_four(self, k):
        assert I.normalized_multiplicity(AN2, M.maximal_power(2, k)) == 4

    def test_plane_curve(self):
        assert I.normalized_multiplicity(AN2, M.MonomialIdeal(2, [(2, 0), (0, 3)])) == F(25, 6)


class TestClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_smooth(self, n):
        result = I.hvol_closed_form(MD.MonomialPair(n, (0,) * n))
        assert result.exact and result.value == F(n) ** n
        assert result.method == "closed_form"

    def test_single_boundary(self):
        result = I.hvol_closed_form(MD.MonomialPair(3, (F(1, 2), 0, 0)))
        assert result.value == F(27, 2)

    def test_balanced_boundary(self):
        result = I.hvol_closed_form(MD.MonomialPair(2, (F(1, 2), F(1, 2))))
        assert result.value == 1
        assert result.minimizer.weights == (F(1), F(1))

    def test_minimizer_normalized(self):
        result = I.hvol_closed_form(MD.MonomialPair(3, (F(1, 3), F(1, 2), 0)))
        model = MD.MonomialPair(3, (F(1, 3), F(1, 2), 0))
        assert MD.log_discrepancy(model, result.minimizer) == 1

    def test_closed_form_is_minimum_over_grid(self):
        # numeric sanity: no rational grid point beats the closed form
        model = MD.MonomialPair(2, (F(1, 2), F(1, 4)))
        best = I.hvol_closed_form(model).value
        for w1 in range(1, 30):
            for w2 in range(1, 30):
                v = MD.WeightValuation((F(w1, 8), F(w2, 8)))
                assert MD.normalized_volume_of_valuation(model, v) >= best


class TestHvolToric:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthant(self, n):
        result = I.hvol_toric(orthant(n))
        assert result.exact and result.value == F(n) ** n
        assert abs(result.numeric_value - float(n) ** n) <= 1e-9 * float(n) ** n
        assert result.minimizer.weights == tuple(F(1, n) for _ in range(n))
        assert result.warnings

    def test_a1_cone(self):
        result = I.hvol_toric(MD.ToricSingularity(G.Cone([(0, 1), (2, -1)])))
        assert result.exact and result.value == 2
        assert result.minimizer.weights == (F(1), F(0))

    def test_plane_cone(self):
        result = I.hvol(fano([(0, 0), (3, 0), (0, 3)]))
        assert result.exact and result.value == 9

    def test_weighted_plane_cone(self):
        result = I.hvol(fano([(-1, -1), (-1, 1), (3, -1)]))
        assert result.exact and result.value == F(27, 4)
        assert result.minimizer.weights == (F(0), F(-1, 3), F(1))

    def test_matches_closed_form_on_pairs(self):
        # the orthant viewed as a toric cone reproduces the smooth value
        for n in (2, 3):
            closed = I.hvol_closed_form(MD.MonomialPair(n, (0,) * n))
            numeric = I.hvol_toric(orthant(n))
            assert numeric.value == closed.value

    def test_deterministic(self):
        model = MD.ToricSingularity(G.Cone([(0, 1), (2, -1)]))
        payloads = {str(I.hvol_toric(model).to_payload()) for _ in range(3)}
        assert len(payloads) == 1

    def test_minimizer_normalized_to_unit_discrepancy(self):
        for model in (orthant(3), MD.ToricSingularity(G.Cone([(0, 1), (2, -1)]))):
            result = I.hvol_toric(model)
            assert MD.log_discrepancy(model, result.minimizer) == 1

    def test_irrational_minimizer_stays_numeric(self):
        # cone over the blown-up plane: on the slice the optimum sits at
        # weights (0, b, 1) with 3 b^2 + 8 b + 1 = 0, so the value is the
        # algebraic number (46 + 13 sqrt(13)) / 12 and no rational upgrade
        # can apply
        blowup = fano([(-1, -1), (-1, 1), (0, 1), (2, -1)])
        result = I.hvol(blowup)
        assert not result.exact
        reference = (46 + 13 * 13**0.5) / 12
        assert abs(result.value - reference) <= 1e-9 * reference
        # the reported value is reproduced by exact evaluation at the
        # reported rational minimizer
        toric = MD.cone_construction(blowup)
        at_minimizer = MD.normalized_volume_of_valuation(toric, result.minimizer)
        assert abs(float(at_minimizer) - result.value) <= 1e-9 * result.value

    def test_derivatives_float_and_exact(self):
        # the float Newton steps read `derivatives`; the exact upgrade
        # reads `certificate` in integers. Over Fractions, `derivatives`
        # is the reference those tests compare against: its value is the
        # hull volume, its floats agree with it, and its Hessian matches
        # central differences of its exact gradient along directions
        # tangent to the slice
        model = MD.cone_construction(fano([(-1, -1), (-1, 1), (0, 1), (2, -1)]))
        objective = I._ToricObjective(model)
        rays = model.cone.rays
        xi = tuple(F(sum(r[i] for r in rays), len(rays)) for i in range(model.n))
        value, gradient, hess = objective.derivatives(xi)
        assert value == MD.normalized_volume_of_valuation(model, MD.WeightValuation(xi))
        float_value, float_gradient, float_hess = objective.derivatives([float(x) for x in xi])
        assert float_value == pytest.approx(float(value), rel=1e-12)
        assert float_gradient == pytest.approx([float(g) for g in gradient], rel=1e-12, abs=1e-12)
        assert float_hess == [pytest.approx([float(x) for x in row], rel=1e-12) for row in hess]
        h = F(1, 10**6)
        for delta in linalg.nullspace([model.m_covector], model.n):
            up = objective.derivatives(tuple(x + h * d for x, d in zip(xi, delta)))[1]
            down = objective.derivatives(tuple(x - h * d for x, d in zip(xi, delta)))[1]
            second = linalg.dot(delta, [(u - w) / (2 * h) for u, w in zip(up, down)])
            quadratic = linalg.dot(delta, [linalg.dot(row, delta) for row in hess])
            assert float(second) == pytest.approx(float(quadratic), rel=1e-9)

    def test_blowup_cone_unstable(self):
        verdict = I.kss_via_cone(fano([(-1, -1), (-1, 1), (0, 1), (2, -1)]))
        assert verdict.verdict == "UNSTABLE" and verdict.oracle is False
        assert verdict.bound == 8

    @pytest.mark.parametrize("error,exact", [(1e-6, False), (1e-12, True)])
    def test_upgrade_needs_the_newton_value_to_agree(self, monkeypatch, error, exact):
        # the P(1,1,2) minimizer is rational and its exact gradient
        # vanishes, but the upgrade also asks the float Newton value to
        # agree with the exact value within TOLERANCE; a float value that
        # does not is not reported either, since the exact value at its
        # own minimizer is 27/4
        numeric = 27 / 4 * (1 + error)
        monkeypatch.setattr(I, "_newton_minimize", lambda model, objective: ([0.0, -1 / 3, 1.0], numeric, True))
        model = fano([(-1, -1), (-1, 1), (3, -1)])
        if not exact:
            with pytest.raises(NonConvergedError) as info:
                I.hvol(model)
            assert info.value.details == {"best": numeric}
            return
        result = I.hvol(model)
        assert result.exact and result.value == F(27, 4)
        assert result.numeric_value == numeric
        assert result.to_payload()["tolerance"] == I.TOLERANCE

    @pytest.mark.parametrize("N, exact", [(10**3, True), (10**6, True), (10**8, False), (10**15, False)])
    def test_float_value_held_to_the_exact_value_at_its_minimizer(self, N, exact):
        # a unimodular cone, so the value is 27; past N = 10^6 the float
        # iteration loses it (27.0000005 at 10^8, 21.33 at 10^15), and the
        # exact value at the reported minimizer refuses that float
        model = MD.ToricSingularity(G.Cone([(1, 0, 0), (0, 1, 0), (N, N + 1, 1)]))
        if exact:
            result = I.hvol_toric(model)
            assert result.exact and result.value == 27
            return
        with pytest.raises(NonConvergedError) as info:
            I.hvol_toric(model)
        assert info.value.details["best"] != 27

    def test_weighted_123_cone(self):
        result = I.hvol(fano([(-1, -1), (-1, 1), (2, -1)]))
        assert result.exact and result.value == F(9, 2)


POLYGONS = [
    [(-1, -1), (2, -1), (-1, 2)],
    [(-1, -1), (1, -1), (1, 1), (-1, 1)],
    [(-1, -1), (-1, 1), (0, 1), (2, -1)],
    [(-1, -1), (1, -1), (1, 0), (0, 1), (-1, 1)],
    [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)],
    [(-1, -1), (-1, 1), (3, -1)],
    [(-1, -1), (-1, 1), (2, -1)],
]
POLYTOPES_3D = [
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)],
    list(itertools.product((0, 1), repeat=3)),
    [tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (1, -1)],
]


def certificate_cones(seed=3):
    """Q-Gorenstein cones in dimensions 3 and 4: cones over Fano bases,
    cones over lattice polytopes at height one, simplicial cones with a
    fractional covector, and unimodular images of the first twelve."""
    rng = random.Random(seed)
    cones = [MD.cone_construction(fano(p)) for p in POLYGONS]
    cones += [MD.ToricSingularity(G.Cone([v + (1,) for v in p])) for p in POLYGONS[:3] + POLYTOPES_3D]
    while len(cones) < 20:
        d = rng.choice([3, 4])
        rays = [tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(1, 3),) for _ in range(d)]
        if linalg.rank(rays) == d:
            cones.append(MD.ToricSingularity(G.Cone(rays)))
    for model in cones[:12]:
        image = model.cone
        while image == model.cone:
            g = random_unimodular(model.n, rng)
            image = G.Cone([[linalg.dot(row, r) for row in g] for r in model.cone.rays])
        cones.append(MD.ToricSingularity(image))
    return cones


class TestToricCertificate:
    def test_matches_the_fraction_derivatives(self):
        # the integer certificate against `derivatives` over Fractions on
        # the slice: the same value and the same verdict on a zero
        # gradient, at random interior points and at every exact minimizer
        rng = random.Random(41)
        cones = certificate_cones()
        assert len(cones) >= 30 and {model.n for model in cones} == {3, 4}
        fractional = stationary_points = 0
        for model in cones:
            objective = I._ToricObjective(model)
            rays = model.cone.rays
            points = [
                tuple(sum(F(w) * r[i] for w, r in zip(weights, rays)) for i in range(model.n))
                for weights in ([F(rng.randint(1, 9), rng.randint(1, 7)) for _ in rays] for _ in range(4))
            ]
            result = I.hvol_toric(model)
            if result.exact:
                points.append(result.minimizer.weights)
            fractional += any(x.denominator > 1 for x in model.m_covector)
            for xi in points:
                level = linalg.dot(model.m_covector, xi)
                value, gradient, _ = objective.derivatives(tuple(x / level for x in xi))
                # f is homogeneous of degree zero: any scale of xi will do
                assert objective.certificate(xi) == (value, all(g == 0 for g in gradient))
                assert objective.certificate(tuple(3 * x for x in xi)) == (value, all(g == 0 for g in gradient))
                stationary_points += all(g == 0 for g in gradient)
        assert fractional >= 3 and stationary_points >= 10

    def test_plane_barycenter_is_stationary(self):
        model = MD.cone_construction(fano([(-1, -1), (2, -1), (-1, 2)]))
        objective = I._ToricObjective(model)
        assert objective.certificate((0, 0, 1)) == (9, True)
        assert objective.certificate((F(0), F(0), F(1, 5))) == (9, True)

    def test_blowup_candidate_is_not_stationary(self):
        # the minimizer is irrational, so its rounding has a nonzero gradient
        model = MD.cone_construction(fano([(-1, -1), (-1, 1), (0, 1), (2, -1)]))
        objective = I._ToricObjective(model)
        xi, _, converged = I._newton_minimize(model, objective)
        assert converged
        candidate = tuple(F(x).limit_denominator(64) for x in xi)
        assert model.is_interior(candidate)
        value, stationary = objective.certificate(candidate)
        assert not stationary
        level = linalg.dot(model.m_covector, candidate)
        exact_value, gradient, _ = objective.derivatives(tuple(x / level for x in candidate))
        assert value == exact_value and any(g != 0 for g in gradient)


class TestNormalizedColength:
    def test_exact_k4(self):
        value, argmin = I.normalized_colength(AN2, F(1, 8), 4)
        assert value == 5
        assert argmin == M.maximal_power(2, 4)

    def test_exact_small_k(self):
        assert I.normalized_colength(AN2, F(1, 8), 2)[0] == 6
        assert I.normalized_colength(AN2, F(1, 8), 3)[0] == F(16, 3)

    def test_upper_mode_bounds_exact(self):
        for k in (3, 4, 5):
            exact, _ = I.normalized_colength(AN2, F(1, 8), k, mode="exact")
            upper, _ = I.normalized_colength(AN2, F(1, 8), k, mode="upper")
            assert upper >= exact

    def test_upper_mode_beyond_budget(self):
        # valuation-ideal scan has no enumeration budget
        value, _ = I.normalized_colength(AN2, F(1, 8), 20, mode="upper")
        assert value >= 4

    @pytest.mark.parametrize(
        "coeffs, c, ks, mode, counts",
        [
            ((0, 0), F(1, 8), range(2, 9), "exact", (16, 9, 7, 1497, 1149)),
            ((F(1, 4), 0), F(1, 8), [60], "upper", (17, 14, 3, 0, 0)),
            ((0, F(5, 8)), F(1, 8), [60], "upper", (17, 10, 7, 0, 0)),
            ((0, 0, 0), F(1, 24), [3], "exact", (2, 1, 1, 45, 27)),
            ((0, 0, 0), F(1, 24), [4], "exact", (2, 1, 1, 254, 166)),
        ],
    )
    def test_scan_stats_pinned(self, coeffs, c, ks, mode, counts):
        # (seen, pruned, lct, nodes, subtrees): a skip lost or added changes
        # these counts while every value stays the same
        stats = I.ScanStats()
        I.colength_convergence_scan(MD.MonomialPair(len(coeffs), coeffs), c, ks, mode=mode, stats=stats)
        assert tuple(stats.to_payload().values()) == counts

    def test_monotone_in_c(self):
        k = 5
        values = [I.normalized_colength(AN2, c, k)[0] for c in (F(1, 16), F(1, 8), F(1, 4), F(2, 5))]
        assert values == sorted(values)

    def test_infeasible_c(self):
        with pytest.raises(ValidationError) as info:
            I.normalized_colength(AN2, F(9, 10), 4)
        assert info.value.code == "infeasible-c"

    def test_argmin_tie_goes_to_least_staircase(self):
        # staircases ((0,0),(0,1),(0,2),...) < ((0,0),(0,1),(1,0),...)
        tall = M.MonomialIdeal(2, [(2, 0), (0, 3)])
        wide = M.MonomialIdeal(2, [(3, 0), (0, 2)])
        assert tall.staircase() < wide.staircase()
        for order in ([tall, wide], [wide, tall]):
            assert I._argmin(order, lambda ideal: F(6)) == (F(6), tall, 2)
        assert I._argmin([tall, wide], lambda ideal: ideal.pure_degrees()[1]) == (2, wide, 2)
        assert I._argmin([], lambda ideal: 0) is None

    def test_default_constant(self):
        assert I.default_scan_constant(2) == F(1, 8)
        assert I.default_scan_constant(3) == F(1, 24)


class TestConvergenceScan:
    def test_rows_match_power_formula(self):
        scan = I.colength_convergence_scan(AN2, F(1, 8), range(2, 8))
        for k, value, argmin in scan.rows:
            assert value == F(4 * (k + 1), k)
            assert argmin == M.maximal_power(2, k)
        assert scan.reference_hvol == 4
        assert all(v >= scan.reference_hvol for _, v, _ in scan.rows)
        assert scan.liminf_estimate == F(32, 7)

    def test_all_rows_at_least_volume(self):
        scan = I.colength_convergence_scan(AN2, F(1, 8), range(2, 7))
        assert all(value >= 4 for _, value, _ in scan.rows)

    def test_n3_scan(self):
        scan = I.colength_convergence_scan(AN3, F(1, 24), range(2, 4))
        values = [value for _, value, _ in scan.rows]
        assert values == [81, 60]
        assert all(v >= 27 for v in values)

    def test_csv_shape(self):
        scan = I.colength_convergence_scan(AN2, F(1, 8), range(2, 5))
        rows = scan.csv_rows()
        assert rows[0] == ("k", "value_num", "value_den", "argmin_gens", "mode")
        assert rows[1][0] == 2 and rows[1][1] == 6 and rows[1][2] == 1

    def test_rows_recomputable_from_argmin(self):
        import math

        scan = I.colength_convergence_scan(AN2, F(1, 8), range(2, 6))
        for k, value, argmin in scan.rows:
            recomputed = math.factorial(2) * I.lct(AN2, argmin).value ** 2 * argmin.colength()
            assert recomputed == value


class TestLechProbe:
    def test_strip_ideal_ratio(self):
        for m in (2, 5, 9):
            ideal = M.MonomialIdeal(2, [(1, 0), (0, m)])
            assert ideal.colength() == m and ideal.multiplicity() == m
            assert F(2 * ideal.colength()) / ideal.multiplicity() == 2

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_power_ratio(self, k):
        ideal = M.maximal_power(2, k)
        assert F(2 * ideal.colength()) / ideal.multiplicity() == F(k + 1, k)

    def test_probe_exact(self):
        report = I.lech_gap_probe(2, 6, F(1, 2))
        assert report.min_ratio >= 1
        assert report.min_ratio == F(7, 6)
        assert report.witness == M.maximal_power(2, 6)

    def test_probe_3d(self):
        report = I.lech_gap_probe(3, 3, F(1, 2))
        assert report.min_ratio >= 1

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            I.lech_gap_probe(2, 4, F(3, 2))


class TestKssViaCone:
    def test_line(self):
        verdict = I.kss_via_cone(fano([(0,), (2,)]))
        assert verdict.verdict == "K-SEMISTABLE"
        assert verdict.hvol_result.exact and verdict.hvol_result.value == 2
        assert verdict.bound == 2 and verdict.oracle is True

    def test_plane(self):
        verdict = I.kss_via_cone(fano([(0, 0), (3, 0), (0, 3)]))
        assert verdict.verdict == "K-SEMISTABLE" and verdict.oracle is True

    def test_weighted_plane(self):
        verdict = I.kss_via_cone(fano([(-1, -1), (-1, 1), (3, -1)]))
        assert verdict.verdict == "UNSTABLE" and verdict.oracle is False
        assert verdict.margin == F(8) - F(27, 4)

    def test_oracle_disagreement_is_hard_error(self, monkeypatch):
        # force the barycenter criterion to lie; the verdict must not be softened
        monkeypatch.setattr(I, "toric_kss_oracle", lambda polytope: False)
        with pytest.raises(InvariantViolationError) as info:
            I.kss_via_cone(fano([(0,), (2,)]))
        assert info.value.code == "oracle-disagreement"


class TestQBound:
    def test_plane(self):
        report = I.q_bound_check(fano([(0, 0), (3, 0), (0, 3)]), 3)
        assert report.value == 27 and report.limit == 27 and report.holds and report.asserted

    def test_line(self):
        report = I.q_bound_check(fano([(0,), (2,)]), 2)
        assert report.value == 4 and report.limit == 4 and report.holds

    def test_product(self):
        report = I.q_bound_check(fano([(0, 0), (2, 0), (0, 2), (2, 2)]), 2)
        assert report.value == 16 and report.limit == 27 and report.holds


class TestWitnessCheck:
    def test_half(self):
        report = I.maxhvol_witness_check(MD.MonomialPair(2, (F(1, 2), 0)))
        assert report.log_discrepancy == 2
        assert report.volume == F(1, 2)
        assert report.value == report.closed_form == 2

    def test_three_dimensional(self):
        report = I.maxhvol_witness_check(MD.MonomialPair(3, (F(1, 2), 0, 0)))
        assert report.value == F(27, 2)

    def test_zero_coefficient(self):
        report = I.maxhvol_witness_check(MD.MonomialPair(3, (0, 0, 0)))
        assert report.weights == (F(1), F(1), F(1))
        assert report.value == 27

    def test_two_nonzero_rejected(self):
        with pytest.raises(ValidationError):
            I.maxhvol_witness_check(MD.MonomialPair(2, (F(1, 2), F(1, 3))))


class TestVolumeLowerBound:
    def test_normalized_multiplicity_dominates_volume(self):
        # every ideal in a small exhaustive corpus sits above the volume,
        # sharply at powers of the maximal ideal
        least = None
        for ideal in M.enumerate_staircases(2, 5):
            value = I.normalized_multiplicity(AN2, ideal)
            assert value >= 4
            least = value if least is None else min(least, value)
        assert least == 4

    def test_on_pair_model(self):
        pair = MD.MonomialPair(2, (F(1, 2), 0))
        reference = I.hvol_closed_form(pair).value
        for ideal in M.enumerate_staircases(2, 4):
            assert I.normalized_multiplicity(pair, ideal) >= reference
