"""Property tests of the lct engine on random ideals and boundaries, of
the pruned normalized-colength scan against the unpruned one, and of the
column-height staircase kernel against box-scan oracles.

Hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic.
"""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatvol import invariants as I
from hatvol import linalg
from hatvol import models as MD
from hatvol import monomials as M
from hatvol import simplex
from hatvol.errors import ValidationError
from helpers import contains_exponent, integral_closure, polyhedron_contains
from test_monomials import brute_colength

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def pairs_and_ideals(draw, extra=0):
    """A monomial pair with boundary coefficients in [0, 1), a proper
    nonzero monomial ideal on it, and `extra` further exponent vectors."""
    n = draw(st.integers(1, 4))
    exponent = st.tuples(*[st.integers(0, 4)] * n).filter(any)
    gens = draw(st.lists(exponent, min_size=1, max_size=6))
    coeffs = []
    for _ in range(n):
        q = draw(st.integers(1, 9))
        coeffs.append(F(draw(st.integers(0, q - 1)), q))
    more = [draw(exponent) for _ in range(extra)]
    return MD.MonomialPair(n, tuple(coeffs)), M.MonomialIdeal(n, gens), more


@PROPERTY_SETTINGS
@given(pairs_and_ideals())
def test_lct_solves_the_covering_program(case):
    model, ideal, _ = case
    result = I.lct(model, ideal)
    costs = [1 - a for a in model.coeffs]
    assert result.value == simplex.solve_covering(costs, ideal.gens).value
    weight = result.minimizing_weight
    assert all(w >= 0 for w in weight)
    assert all(linalg.dot(g, weight) >= 1 for g in ideal.gens)
    assert linalg.dot(costs, weight) == result.value
    assert result.active_constraints == tuple(g for g in ideal.gens if linalg.dot(g, weight) == 1)


@PROPERTY_SETTINGS
@given(pairs_and_ideals(extra=1))
def test_lct_monotone_under_inclusion(case):
    model, ideal, (extra,) = case
    larger = M.MonomialIdeal(model.n, list(ideal.gens) + [extra])
    assert I.lct(model, larger).value >= I.lct(model, ideal).value


@st.composite
def colength_scans(draw):
    """A monomial pair in two or three variables, a level k (at most 7 for
    n = 2 and 3 for n = 3), a feasible colength fraction c and a mode."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(2, 7 if n == 2 else 3))
    coeffs = []
    for _ in range(n):
        q = draw(st.integers(1, 9))
        coeffs.append(F(draw(st.integers(0, q - 1)), q))
    # c k^n ranges up to the colength of m^k
    c = F(draw(st.integers(1, 4 * math.comb(n + k - 1, n))), 4 * k**n)
    mode = draw(st.sampled_from(["exact", "upper"]))
    return MD.MonomialPair(n, tuple(coeffs)), c, k, mode


@settings(derandomize=True, max_examples=80, deadline=None)
@given(colength_scans())
def test_pruned_scan_matches_the_full_argmin(case):
    # the unpruned reference: plain _argmin over the public lct
    model, c, k, mode = case
    n = model.n
    min_colength = math.ceil(c * k**n)
    if mode == "exact":
        family = M.enumerate_staircases(n, k, min_colength=max(1, min_colength))
    else:
        family = I._valuation_ideals(n, k, min_colength, I.DEFAULT_WEIGHT_RATIOS)
    factor = math.factorial(n)
    expected = I._argmin(family, lambda ideal: factor * I.lct(model, ideal).value ** n * ideal.colength())
    stats = I.ScanStats()
    if expected is None:
        with pytest.raises(ValidationError):
            I.normalized_colength(model, c, k, mode=mode, stats=stats)
        return
    assert I.normalized_colength(model, c, k, mode=mode, stats=stats) == expected[:2]
    assert stats.ideals_seen <= expected[2]
    assert stats.lct_evaluations == stats.ideals_seen - stats.ideals_pruned
    assert stats.subtrees_pruned <= stats.nodes_visited


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    st.lists(st.integers(1, 9).flatmap(lambda q: st.fractions(0, F(q - 1, q), max_denominator=q)), min_size=3, max_size=3),
    st.integers(1, 20),
)
def test_subtree_pruned_scan_matches_the_full_argmin_in_three_variables(coeffs, c_steps):
    # at (3, 4) the unpruned reference evaluates the lct of some 2,100 to
    # 2,500 ideals, about half a second per example
    model, k = MD.MonomialPair(3, tuple(coeffs)), 4
    c = F(c_steps, 2 * k**3)  # c k^3 up to 10 of the 20 monomials of degree < 4
    family = M.enumerate_staircases(3, k, min_colength=math.ceil(c * k**3))
    expected = I._argmin(family, lambda ideal: 6 * I.lct(model, ideal).value ** 3 * ideal.colength())
    stats = I.ScanStats()
    assert I.normalized_colength(model, c, k, stats=stats) == expected[:2]
    assert stats.ideals_seen <= expected[2]
    assert stats.lct_evaluations == stats.ideals_seen - stats.ideals_pruned
    assert stats.subtrees_pruned <= stats.nodes_visited


@st.composite
def primary_ideals(draw):
    """An m-primary monomial ideal in 1 to 4 variables with small exponents."""
    n = draw(st.integers(1, 4))
    # lower pure degrees in four variables keep the Newton facets of
    # closures and powers quick to build
    degrees = draw(st.tuples(*[st.integers(1, 4 if n < 4 else 3)] * n))
    pure = [tuple(d * (i == j) for j in range(n)) for i, d in enumerate(degrees)]
    mixed = draw(st.lists(st.tuples(*[st.integers(0, d) for d in degrees]).filter(any), max_size=5))
    return M.MonomialIdeal(n, pure + mixed)


def minimal_points(n, members):
    """The minimal elements of an up-closed set of box points."""
    return tuple(
        sorted(
            (u for u in members if all(u[i] == 0 or u[:i] + (u[i] - 1,) + u[i + 1 :] not in members for i in range(n))),
            reverse=True,
        )
    )


@PROPERTY_SETTINGS
@given(primary_ideals())
def test_colength_and_staircase_match_the_box(ideal):
    box = itertools.product(*[range(d) for d in ideal.pure_degrees()])
    assert ideal.colength() == brute_colength(ideal)
    assert ideal.staircase() == tuple(u for u in box if not contains_exponent(ideal, u))


@PROPERTY_SETTINGS
@given(
    st.integers(1, 4).flatmap(lambda n: st.lists(st.fractions(F(1, 3), 4, max_denominator=3), min_size=n, max_size=n)),
    st.fractions(F(1, 2), 6, max_denominator=2),
)
def test_valuation_ideal_matches_the_box(weights, k):
    n = len(weights)
    box = list(itertools.product(*[range(int(k / w) + 2) for w in weights]))
    members = {u for u in box if linalg.dot(weights, u) >= k}
    ideal = M.valuation_ideal(weights, k)
    assert ideal.gens == minimal_points(n, members)
    # the column heights kept from the construction
    assert ideal.staircase() == tuple(u for u in box if u not in members)


@PROPERTY_SETTINGS
@given(primary_ideals())
def test_integral_closure_matches_the_box(ideal):
    poly = ideal.newton_polyhedron()
    box = list(itertools.product(*[range(d + 1) for d in ideal.pure_degrees()]))
    closed = integral_closure(ideal)
    assert closed.gens == minimal_points(ideal.n, {u for u in box if polyhedron_contains(poly, u)})
    # the column heights kept from the construction
    assert closed.staircase() == tuple(u for u in box if not polyhedron_contains(poly, u))
    assert closed.multiplicity() == ideal.multiplicity()
    assert closed.colength() <= ideal.colength()


@PROPERTY_SETTINGS
@given(primary_ideals(), st.sampled_from([2, 3]))
def test_multiplicity_of_powers(ideal, m):
    if ideal.n == 4:
        # the Newton facets of a cube in four variables take about half a
        # second per ideal
        m = 2
    assert ideal.power(m).multiplicity() == m**ideal.n * ideal.multiplicity()
