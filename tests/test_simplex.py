import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatvol import linalg
from hatvol import simplex as S
from hatvol.errors import ValidationError


def fraction_reference(costs, rows):
    """The dual simplex with Bland's rule over Fraction, the reference for
    the integer tableau of `S.solve_covering`: the same pivot sequence,
    so the same value, weights and active rows."""
    costs = [F(c) for c in costs]
    mat = [tuple(F(x) for x in row) for row in rows]
    n = len(costs)
    m = len(mat)
    width = m + n + 1
    tableau = []
    for j in range(n):
        row = [mat[i][j] for i in range(m)] + [F(int(j == t)) for t in range(n)] + [costs[j]]
        tableau.append(row)
    basis = [m + j for j in range(n)]

    def objective(col):
        return F(1) if col < m else F(0)

    while True:
        zbar = []
        for col in range(width - 1):
            z = sum(objective(basis[r]) * tableau[r][col] for r in range(n)) - objective(col)
            zbar.append(z)
        entering = next((col for col in range(width - 1) if zbar[col] < 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for r in range(n):
            coef = tableau[r][entering]
            if coef > 0:
                ratio = tableau[r][width - 1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        pivot = tableau[leaving][entering]
        tableau[leaving] = [x / pivot for x in tableau[leaving]]
        for r in range(n):
            if r != leaving and tableau[r][entering] != 0:
                f = tableau[r][entering]
                tableau[r] = [x - f * y for x, y in zip(tableau[r], tableau[leaving])]
        basis[leaving] = entering

    weights = []
    for j in range(n):
        col = m + j
        z = sum(objective(basis[r]) * tableau[r][col] for r in range(n))
        weights.append(z)
    value = sum(c * w for c, w in zip(costs, weights))
    active = tuple(i for i, row in enumerate(mat) if linalg.dot(row, weights) == 1)
    return S.LinearProgramResult(value=value, weights=tuple(weights), active=active)


# ints with now and then a Fraction; small ranges make degenerate ties
# (equal ratios, repeated and proportional rows) common
EXACT = st.one_of(st.integers(0, 4), st.builds(F, st.integers(0, 6), st.integers(1, 4)))


@st.composite
def covering_programs(draw):
    n = draw(st.integers(1, 4))
    costs = draw(st.lists(st.one_of(st.integers(1, 3), st.builds(F, st.integers(1, 6), st.integers(1, 5))),
                          min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(EXACT, min_size=n, max_size=n).filter(any), min_size=1, max_size=9))
    if draw(st.booleans()):
        rows.append([2 * x for x in rows[0]])
        rows.append(list(rows[0]))
    return costs, rows


class TestKnownPrograms:
    def test_two_pure_powers(self):
        result = S.solve_covering([1, 1], [(2, 0), (0, 3)])
        assert result.value == F(5, 6)
        assert result.weights == (F(1, 2), F(1, 3))
        assert result.active == (0, 1)

    def test_three_constraints(self):
        result = S.solve_covering([1, 1], [(2, 0), (1, 2), (0, 4)])
        assert result.value == F(3, 4)
        assert result.weights == (F(1, 2), F(1, 4))

    def test_maximal_ideal_forces_ones(self):
        result = S.solve_covering([1, 1], [(1, 0), (0, 1)])
        assert result.value == 2
        assert result.weights == (F(1), F(1))

    def test_weighted_costs(self):
        result = S.solve_covering([F(1, 2), 1], [(2, 0), (0, 3)])
        assert result.value == F(1, 4) + F(1, 3)

    def test_degenerate_ties(self):
        # all generators lie on one line; many optimal bases
        rows = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
        result = S.solve_covering([1, 1], rows)
        assert result.value == F(1, 2)
        assert len(result.active) == 5


class TestValidation:
    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError):
            S.solve_covering([1, 1], [(0, 0)])

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValidationError):
            S.solve_covering([0, 1], [(1, 1)])

    @pytest.mark.parametrize("costs,rows,code", [
        ([1, 0], [(1, 1)], "invalid-cost"),
        ([1, F(-1, 2)], [(1, 1)], "invalid-cost"),
        ([1, 1], [(1, 1), (2, F(-1, 3))], "invalid-constraint"),
        ([F(1, 2), 1], [(1, 1), (0, F(0))], "invalid-constraint"),
        ([1, 1], [(1, 1), (1, 2, 3)], "dimension-mismatch"),
        ([1, 1], [], "empty-input"),
    ])
    def test_each_refusal(self, costs, rows, code):
        for solve in (S.solve_covering, S.solve_covering_by_vertices):
            with pytest.raises(ValidationError) as info:
                solve(costs, rows)
            assert info.value.code == code

    def test_vertex_limit(self):
        rows = [(1, i) for i in range(13)]
        with pytest.raises(ValidationError):
            S.solve_covering_by_vertices([1, 1], rows)


class TestCrossValidation:
    def test_agrees_with_vertex_enumeration(self):
        rng = random.Random(7)
        for _ in range(250):
            n = rng.choice([2, 3])
            rows = []
            for _ in range(rng.randint(1, 6)):
                row = tuple(rng.randint(0, 4) for _ in range(n))
                rows.append(row if any(row) else tuple(1 for _ in range(n)))
            costs = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
            by_simplex = S.solve_covering(costs, rows)
            by_vertices = S.solve_covering_by_vertices(costs, rows)
            assert by_simplex.value == by_vertices.value
            # minimizer is feasible and meets the claimed active rows
            for i, row in enumerate(rows):
                pairing = sum(a * w for a, w in zip(row, by_simplex.weights))
                assert pairing >= 1
                assert (pairing == 1) == (i in by_simplex.active)

    def test_deterministic(self):
        rows = [(3, 1), (1, 3), (2, 2)]
        runs = {S.solve_covering([1, 1], rows).weights for _ in range(5)}
        assert len(runs) == 1


class TestIntegerTableau:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(covering_programs())
    def test_matches_fraction_reference(self, program):
        costs, rows = program
        result = S.solve_covering(costs, rows)
        assert result == fraction_reference(costs, rows)
        assert type(result.value) is F and all(type(w) is F for w in result.weights)

    def test_degenerate_tie_matches_fraction_reference(self):
        rows = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4), (2, 2), (F(3, 2), F(5, 2))]
        for costs in ([1, 1], [F(1, 2), F(1, 2)], [F(2, 7), F(5, 9)]):
            assert S.solve_covering(costs, rows) == fraction_reference(costs, rows)
