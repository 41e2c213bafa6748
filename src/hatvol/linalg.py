"""Small dense exact linear algebra on integer and rational rows.

Row counts here never exceed a handful. Every elimination is one
fraction-free Gauss-Jordan reduction in plain ints (Edmonds, J. Res.
NBS 71B, 1967; Bareiss, Math. Comp. 22, 1968): each row is first scaled
by the lcm of its denominators, which changes neither the pivot columns
nor the solutions, and every update is divided exactly by the previous
pivot. After the reduction every pivot column holds the last pivot d in
its pivot row and zeros elsewhere, so solutions and nullspaces are read
off the integer rows over d. Rank, pivot columns and determinants stop
at the row echelon form, which gives the same pivots and d. The
simplex method of `simplex` pivots its tableau with the same step.
Integer vectors are normalized to primitive form (gcd one, direction
preserved).
"""

import math
from fractions import Fraction


def primitive(vec):
    """Scale an integer vector by 1/gcd, keeping its direction."""
    g = 0
    for x in vec:
        g = math.gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in vec)


def _scaled(vec):
    """A rational vector times the positive lcm of its denominators, as a
    list of ints, and that lcm."""
    if all(type(x) is int for x in vec):
        return list(vec), 1
    fracs = [Fraction(x) for x in vec]
    lcm = math.lcm(*(x.denominator for x in fracs))
    return [x.numerator * (lcm // x.denominator) for x in fracs], lcm


def clear_denominators(vec):
    """Scale a rational vector by the positive lcm of denominators to integers."""
    return tuple(_scaled(vec)[0])


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _integer_rows(rows):
    """Each row scaled to ints by the lcm of its denominators, and the
    product of those scales."""
    out, scale = [], 1
    for row in rows:
        ints, lcm = _scaled(row)
        out.append(ints)
        scale *= lcm
    return out, scale


def _pivot(rows, r, c, prev, start=0):
    """One fraction-free Gauss-Jordan step on integer rows, in place, at
    the nonzero entry p = rows[r][c]; returns p.

    Every row but r from index ``start`` on becomes
    (p * row - row[c] * rows[r]) / prev, where prev is the pivot of the
    step before (1 before the first). Each entry is then a minor of the
    rows first given, so the division is exact (Sylvester's identity).
    """
    top = rows[r]
    p = top[c]
    for i in range(start, len(rows)):
        if i != r:
            row = rows[i]
            x = row[c]
            rows[i] = [(p * u - x * v) // prev for u, v in zip(row, top)]
    return p


def _reduce(rows, echelon=False):
    """Fraction-free reduced row echelon form of integer rows, in place.

    Pivots go column by column to the first row at or below the next
    pivot row with a nonzero entry there. Returns (pivot columns, sign of
    the row swaps, last pivot d). Then row r holds d in the r-th pivot
    column and every other row a zero there; on a square matrix of full
    rank, sign * d is the determinant.

    With ``echelon`` each step updates only the rows below its pivot
    (Bareiss's elimination), for callers that need no more than the
    return value: the rows are left in row echelon form only, but every
    row from each pivot down is updated as in the full reduction, so the
    pivot columns, the sign and d are the same.
    """
    pivots, sign, prev = [], 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        prev = _pivot(rows, r, c, prev, r + 1 if echelon else 0)
        pivots.append(c)
    return pivots, sign, prev


def _pivot_columns(rows):
    """The pivot columns of the row echelon form of integer or rational rows."""
    return _reduce(_integer_rows(rows)[0], echelon=True)[0]


def rank(rows):
    return len(_pivot_columns(rows))


def det(matrix):
    """Exact determinant of a square integer or rational matrix, as a Fraction."""
    rows, scale = _integer_rows(matrix)
    pivots, sign, last = _reduce(rows, echelon=True)
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction(sign * last, scale)


def solve_affine(rows, rhs, dim):
    """Solve a (possibly overdetermined) linear system exactly.

    Entries may be ints, Fractions or floats, each taken at its exact
    value. Returns the unique solution as a Fraction tuple, or None when
    the system is inconsistent or underdetermined.
    """
    aug = _integer_rows([list(row) + [b] for row, b in zip(rows, rhs)])[0]
    pivots, _, d = _reduce(aug)
    if dim in pivots:
        return None  # pivot in the rhs column: inconsistent
    if len(pivots) < dim:
        return None  # underdetermined
    return tuple(Fraction(row[dim], d) for row in aug[:dim])


def nullspace(rows, dim):
    """Basis of the right nullspace of the given rows, as Fraction tuples."""
    reduced = _integer_rows(rows)[0]
    pivots, _, d = _reduce(reduced)
    basis = []
    for f in range(dim):
        if f in pivots:
            continue
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = Fraction(-row[f], d)
        basis.append(tuple(v))
    return basis
