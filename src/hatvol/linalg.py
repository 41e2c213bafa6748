"""Small dense exact linear algebra on integer and rational rows.

Row counts here never exceed a handful. Rank, pivot columns and
determinants come from fraction-free elimination in plain ints
(Bareiss, Math. Comp. 22, 1968): each row is first scaled by the lcm of
its denominators, which leaves the pivot columns unchanged, and every
update is divided exactly by the previous pivot. Only `solve_affine`
and `nullspace`, which need the reduced rows themselves, row-reduce over
`Fraction`. Integer vectors are normalized to primitive form (gcd one,
direction preserved).
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


def _eliminate(rows):
    """Row-reduce a list of Fraction rows in place; returns pivot column list."""
    rows = [list(map(Fraction, r)) for r in rows]
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


def _integer_rows(rows):
    """Each row scaled to ints by the lcm of its denominators, and the
    product of those scales."""
    out, scale = [], 1
    for row in rows:
        ints, lcm = _scaled(row)
        out.append(ints)
        scale *= lcm
    return out, scale


def _bareiss(rows):
    """Fraction-free row echelon form of integer rows, in place.

    Returns (pivot columns, sign of the row swaps, last pivot). After
    the k-th pivot every entry below it is a (k+1)-minor of the rows, so
    the division by the previous pivot is exact (Sylvester's identity);
    on a square matrix of full rank the last pivot is the signed
    determinant.
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
        top = rows[r]
        p = top[c]
        for i in range(r + 1, len(rows)):
            x = rows[i][c]
            rows[i] = [(p * u - x * v) // prev for u, v in zip(rows[i], top)]
        prev = p
        pivots.append(c)
    return pivots, sign, prev


def _pivot_columns(rows):
    """The pivot columns of the row echelon form of integer or rational rows."""
    return _bareiss(_integer_rows(rows)[0])[0]


def rank(rows):
    return len(_pivot_columns(rows))


def det(matrix):
    """Exact determinant of a square integer or rational matrix, as a Fraction."""
    rows, scale = _integer_rows(matrix)
    pivots, sign, last = _bareiss(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction(sign * last, scale)


def solve_affine(rows, rhs, dim):
    """Solve a (possibly overdetermined) linear system exactly.

    Returns the unique solution as a Fraction tuple, or None when the
    system is inconsistent or underdetermined.
    """
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    reduced, pivots = _eliminate(aug)
    if dim in pivots:
        return None  # pivot in the rhs column: inconsistent
    if len(pivots) < dim:
        return None  # underdetermined
    x = [Fraction(0)] * dim
    for r, c in enumerate(pivots):
        x[c] = reduced[r][dim]
    return tuple(x)


def nullspace(rows, dim):
    """Basis of the right nullspace of the given rows, as Fraction tuples."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    reduced, pivots = _eliminate([list(r) for r in rows])
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis
