"""Exact rational linear programming for covering problems.

Solves  minimize <c, w>  subject to  <g_i, w> >= 1,  w >= 0
with c > 0 and nonzero g_i >= 0. With c = 1 - a and the g_i the
generators of a monomial ideal this is its log canonical threshold on
the pair with boundary a; `invariants.lct` reads the same optimum off
the Newton facets, and `verify` checks the two against each other.

The primal simplex method runs on the dual (which has a feasible slack
basis), entirely over Fraction, with Bland's anti-cycling rule; the
optimal primal vertex is read off the reduced costs of the slack
columns. A direct vertex-enumeration solver is provided as an
independent cross-check for small systems.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InvariantViolationError, ValidationError

VERTEX_ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class LinearProgramResult:
    value: Fraction
    weights: tuple
    active: tuple  # indices of covering rows met with equality


def _validate(costs, rows):
    costs = [Fraction(c) for c in costs]
    if any(c <= 0 for c in costs):
        raise ValidationError("invalid-cost", "cost coefficients must be strictly positive")
    mat = [tuple(Fraction(x) for x in row) for row in rows]
    if not mat:
        raise ValidationError("empty-input", "no covering constraints")
    for row in mat:
        if len(row) != len(costs):
            raise ValidationError("dimension-mismatch", "constraint row of wrong length")
        if any(x < 0 for x in row):
            raise ValidationError("invalid-constraint", "covering rows must be nonnegative")
        if all(x == 0 for x in row):
            raise ValidationError("invalid-constraint", "zero covering row makes the program infeasible")
    return costs, mat


def _result(costs, mat, weights):
    value = sum(c * w for c, w in zip(costs, weights))
    active = tuple(i for i, row in enumerate(mat) if linalg.dot(row, weights) == 1)
    return LinearProgramResult(value=value, weights=tuple(weights), active=active)


def solve_covering(costs, rows):
    """Exact optimum via simplex on the dual with Bland's rule."""
    costs, mat = _validate(costs, rows)
    n = len(costs)
    m = len(mat)
    width = m + n + 1
    tableau = []
    for j in range(n):
        row = [mat[i][j] for i in range(m)] + [Fraction(int(j == t)) for t in range(n)] + [costs[j]]
        tableau.append(row)
    basis = [m + j for j in range(n)]

    def objective(col):
        return Fraction(1) if col < m else Fraction(0)

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
        if leaving is None:
            raise InvariantViolationError(
                "unbounded-dual", "dual unbounded although the covering program is feasible"
            )
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
    return _result(costs, mat, weights)


def solve_covering_by_vertices(costs, rows):
    """Independent optimum by enumerating basic feasible points.

    Only for systems with at most VERTEX_ENUMERATION_LIMIT rows; the
    result is the same optimum with a deterministic (lexicographically
    least) minimizer among ties.
    """
    costs, mat = _validate(costs, rows)
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
        value = sum(c * x for c, x in zip(costs, w))
        if best is None or (value, w) < best:
            best = (value, w)
    if best is None:
        raise InvariantViolationError("no-vertex", "feasible covering program without a basic optimum")
    return _result(costs, mat, best[1])
