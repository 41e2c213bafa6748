"""Property tests of the lct engine on random ideals and boundaries.

Hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from hatvol import invariants as I
from hatvol import linalg
from hatvol import models as MD
from hatvol import monomials as M
from hatvol import simplex

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
