"""Exact rational linear programming for covering problems.

Solves  minimize <c, w>  subject to  <g_i, w> >= 1,  w >= 0
with c > 0 and nonzero g_i >= 0. With c = 1 - a and the g_i the
generators of a monomial ideal this is its log canonical threshold on
the pair with boundary a; `invariants.lct` reads the same optimum off
the Newton facets, and `verify` checks the two against each other.

The primal simplex method runs on the dual (which has a feasible slack
basis) with Bland's anti-cycling rule, on an all-integer tableau held
over the last pivot and advanced by the fraction-free step of `linalg`
(Edmonds 1967; Bareiss 1968); the optimal primal vertex is read off the
reduced costs of the slack columns. A direct vertex-enumeration solver
is provided as an independent cross-check for small systems.
"""

import itertools
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .errors import InvariantViolationError, ValidationError

VERTEX_ENUMERATION_LIMIT = 12


# active: the indices of the covering rows met with equality
LinearProgramResult = namedtuple("LinearProgramResult", "value weights active")


def _validate(costs, rows):
    """Refuse what is not a covering program. Returns the costs times the
    positive lcm of their denominators, as ints, that lcm, and the rows,
    int entries kept and any other taken as a Fraction."""
    costs, scale = linalg._scaled(costs)
    if any(c <= 0 for c in costs):
        raise ValidationError("invalid-cost", "cost coefficients must be strictly positive")
    mat = [tuple(x if type(x) is int else Fraction(x) for x in row) for row in rows]
    if not mat:
        raise ValidationError("empty-input", "no covering constraints")
    for row in mat:
        if len(row) != len(costs):
            raise ValidationError("dimension-mismatch", "constraint row of wrong length")
        if any(x < 0 for x in row):
            raise ValidationError("invalid-constraint", "covering rows must be nonnegative")
        if all(x == 0 for x in row):
            raise ValidationError("invalid-constraint", "zero covering row makes the program infeasible")
    return costs, scale, mat


def _result(costs, scale, mat, numerators, d):
    """The result at the weights numerators / d (d > 0), for the scaled
    costs of `_validate`."""
    value = Fraction(linalg.dot(costs, numerators), scale * d)
    active = tuple(i for i, row in enumerate(mat) if linalg.dot(row, numerators) == d)
    return LinearProgramResult(value=value, weights=tuple(Fraction(x, d) for x in numerators), active=active)


def solve_covering(costs, rows):
    """Exact optimum via simplex on the dual with Bland's rule.

    The tableau has one row per weight and the objective row last; it is
    held over the last pivot d and advanced by `linalg._pivot`. The costs
    come scaled to integers from `_validate`, which scales every ratio
    alike, and each row is scaled to integers once, which scales its
    slack column with it, so the reduced costs are unchanged. Every
    pivot is positive, so d is. Ratios are compared by cross-multiplying.
    """
    costs, scale, mat = _validate(costs, rows)
    n = len(costs)
    m = len(mat)
    rhs = m + n  # the column of the right-hand side
    tableau = [
        linalg._scaled([row[j] for row in mat] + [int(j == t) for t in range(n)] + [costs[j]])[0]
        for j in range(n)
    ]
    tableau.append([-1] * m + [0] * (n + 1))
    basis = [m + j for j in range(n)]
    d = 1
    while True:
        objective = tableau[n]
        entering = next((col for col in range(rhs) if objective[col] < 0), None)
        if entering is None:
            break
        leaving = None
        for r in range(n):
            coef = tableau[r][entering]
            if coef <= 0:
                continue
            if leaving is not None:
                ahead = tableau[r][rhs] * tableau[leaving][entering] - tableau[leaving][rhs] * coef
                if ahead > 0 or (ahead == 0 and basis[r] > basis[leaving]):
                    continue
            leaving = r
        if leaving is None:
            raise InvariantViolationError(
                "unbounded-dual", "dual unbounded although the covering program is feasible"
            )
        d = linalg._pivot(tableau, leaving, entering, d)
        basis[leaving] = entering
    return _result(costs, scale, mat, tableau[n][m:rhs], d)


def solve_covering_by_vertices(costs, rows):
    """Independent optimum by enumerating basic feasible points.

    Only for systems with at most VERTEX_ENUMERATION_LIMIT rows; the
    result is the same optimum with a deterministic (lexicographically
    least) minimizer among ties.
    """
    costs, scale, mat = _validate(costs, rows)
    if len(mat) > VERTEX_ENUMERATION_LIMIT:
        raise ValidationError(
            "too-many-constraints",
            f"vertex enumeration limited to {VERTEX_ENUMERATION_LIMIT} constraints",
        )
    n = len(costs)
    constraints = [(row, Fraction(1)) for row in mat]
    constraints += [
        (tuple(Fraction(int(j == t)) for t in range(n)), Fraction(0)) for j in range(n)
    ]
    best = None
    for subset in itertools.combinations(range(len(constraints)), n):
        rows_s = [constraints[i][0] for i in subset]
        rhs_s = [constraints[i][1] for i in subset]
        w = linalg.solve_affine(rows_s, rhs_s, n)
        if w is None:
            continue
        if any(x < 0 for x in w):
            continue
        if any(linalg.dot(row, w) < 1 for row in mat):
            continue
        value = linalg.dot(costs, w)
        if best is None or (value, w) < best:
            best = (value, w)
    if best is None:
        raise InvariantViolationError("no-vertex", "feasible covering program without a basic optimum")
    return _result(costs, scale, mat, *linalg._scaled(best[1]))
