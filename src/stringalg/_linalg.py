"""Exact sparse elimination by columns, in integers.

`Echelon` takes a system one column (unknown) at a time.  Each new column is
reduced against the pivot columns found so far, in the order they were
found, and kept as a new pivot when an entry is left.  A pivot carries the
combination of original columns that it is, so a dependent column comes
back as its relation to the columns before it.  A right-hand side is
reduced once against each new pivot, so it carries over as columns are
added.  Columns are dicts {row: value} of their nonzero entries.

The elimination is fraction-free.  A rational column is scaled to integers
by its common denominator.  A new pivot sits in the first row its reduced
column holds.  Every entry f at a pivot p is cleared by one rule: the column
becomes m * column - f' * pivot column, with g = gcd(p, f), m = p / g and
f' = f / g, and when some m was not 1 or -1 the column and its combination
are divided by their common content.  So no `Fraction` is built on integral
input: Fractions appear only in a returned value that is not an integer.

An unknown whose column depends on the ones before it keeps coefficient 0,
so with free unknowns the solution follows insertion order.  `_rref`, the
batch use that `nullspace` and `matrix_inverse` go through, adds columns in
column order; its reduced echelon form is unique, so results can be pinned
in goldens.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_TARGET = object()   # the right-hand side's key in a combination


class Echelon:
    """Column echelon form of a sparse system A * x = target whose columns
    arrive one at a time, each under the key of its unknown."""

    def __init__(self, target=None):
        self.pivots = []   # (pivot row, reduced column, its combination of unknowns)
        # s * target - A * x, with s and -x kept as its combination
        self.residual = _integral(_TARGET, target or {})

    def add(self, unknown, column):
        """Reduce the column of a new unknown against the pivots.  Returns
        None when it becomes a pivot, else its relation {unknown: t, earlier
        unknown: c, ...}, integers with t * column + sum c * earlier == 0."""
        vector, combination = _reduce(*_integral(unknown, column), self.pivots)
        if not vector:
            return combination
        self.pivots.append((next(iter(vector)), vector, combination))
        if self.residual[0]:
            _reduce(*self.residual, self.pivots[-1:])
        return None

    def solution(self):
        """{unknown: value} of a solution's nonzero coefficients, or None
        while the target is outside the span of the columns added so far."""
        vector, combination = self.residual
        if vector:
            return None
        s = combination[_TARGET]
        return {u: _ratio(-c, s) for u, c in combination.items() if u is not _TARGET}


def _integral(key, column):
    """(d * column, {key: d}) with d the common denominator of the column's
    entries, zeros dropped: the column in integers, and the combination of
    original columns that it is."""
    d = lcm(*(v.denominator for v in column.values()))
    return {r: v.numerator * (d // v.denominator) for r, v in column.items() if v}, {key: d}


def _reduce(vector, combination, pivots):
    """Clear the vector at each pivot's row, in pivot order, and apply the
    same steps to its combination, in integers.  Both are changed in place."""
    scaled = False
    for row, column, relation in pivots:
        f = vector.get(row)
        if not f:
            continue
        p = column[row]
        g = gcd(p, f)
        m, f = p // g, f // g
        scaled = scaled or m not in (1, -1)
        _combine(vector, m, f, column)
        _combine(combination, m, f, relation)
    if scaled:
        g = gcd(*vector.values(), *combination.values())
        if g != 1:
            for x in (vector, combination):
                for k in x:
                    x[k] //= g
    return vector, combination


def _combine(x, m, f, y):
    """x = m * x - f * y in place, dropping the entries that cancel."""
    if m != 1:
        for k in x:
            x[k] *= m
    for k, v in y.items():
        s = x.get(k, 0) - f * v
        if s:
            x[k] = s
        else:
            del x[k]


def _ratio(n, d):
    """n / d, an int when d divides n."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _rref(rows, ncols):
    """Reduced echelon form {pivot column: row scaled to 1 there} of sparse
    rows: the columns go into one `Echelon` in column order, and a dependent
    column's relation to the pivot columns before it gives its entries in
    their rows.  None when a column >= ncols is a pivot (a right-hand side
    kept there that cannot be met)."""
    columns = {}
    for i, row in enumerate(rows):
        for j, v in row.items():
            if v:
                columns.setdefault(j, {})[i] = v
    echelon = Echelon()
    pivots = {}
    for j in sorted(columns):
        relation = echelon.add(j, columns[j])
        if relation is None:
            if j >= ncols:
                return None
            pivots[j] = {j: 1}
            continue
        t = relation.pop(j)
        for c, v in relation.items():
            pivots[c][j] = _ratio(-v, t)
    return pivots


def nullspace(rows, ncols):
    """Basis of the solution space of rows * x = 0, for dense rows, as
    Fractions."""
    pivots = _rref([dict(enumerate(row)) for row in rows], ncols)
    return [[Fraction(-pivots[c].get(free, 0) if c in pivots else c == free)
             for c in range(ncols)] for free in range(ncols) if free not in pivots]


def matrix_inverse(rows):
    """Inverse of a square dense rational matrix as Fractions, or None when
    singular."""
    n = len(rows)
    pivots = _rref([{**dict(enumerate(row)), n + i: 1} for i, row in enumerate(rows)], n)
    if pivots is None:
        return None
    return [[Fraction(pivots[i].get(n + j, 0)) for j in range(n)] for i in range(n)]
