"""Exact sparse Gaussian elimination over the rationals: a row is a dict
{column: value} of its nonzero entries, and elimination touches only those.
The reduced echelon form is unique, so results can be pinned in goldens.
"""

from __future__ import annotations

from fractions import Fraction


def _rref(rows, ncols):
    """Reduced echelon form {pivot column: row scaled to 1 there} of sparse
    rows, consuming them: each row is reduced at its lowest nonzero column
    against the pivots found so far, then back-substitution clears the pivot
    columns.  None when a row reduces to entries at columns >= ncols only (a
    right-hand side kept there that cannot be met)."""
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            if c in pivots:
                _eliminate(row, c, pivots[c])
                continue
            if c >= ncols:
                return None
            inv = Fraction(1) / row[c]
            if inv.denominator == 1:  # a pivot of 1 or -1 keeps integral rows integral
                inv = inv.numerator
            pivots[c] = {j: v * inv for j, v in row.items()}
            break
    for c in sorted(pivots, reverse=True):
        for row in pivots.values():
            if c in row and row is not pivots[c]:
                _eliminate(row, c, pivots[c])
    return pivots


def _eliminate(row, c, pivot):
    """row -= row[c] * pivot, dropping the entries that cancel."""
    f = row[c]
    for j, v in pivot.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]


def nullspace(rows, ncols):
    """Basis of the solution space of rows * x = 0, for dense rows."""
    pivots = _rref([{j: v for j, v in enumerate(row) if v} for row in rows], ncols)
    return [[-pivots[c].get(free, Fraction(0)) if c in pivots else Fraction(c == free)
             for c in range(ncols)] for free in range(ncols) if free not in pivots]


def solve_affine(rows, ncols):
    """Particular solution, free variables set to 0, of the sparse system
    with its unknowns at columns < ncols and its right-hand side at column
    ncols; None when the system is inconsistent."""
    pivots = _rref([{j: v for j, v in row.items() if v} for row in rows], ncols)
    if pivots is None:
        return None
    return [pivots[c].get(ncols, Fraction(0)) if c in pivots else Fraction(0)
            for c in range(ncols)]


def matrix_inverse(rows):
    """Inverse of a square dense rational matrix, or None when singular."""
    n = len(rows)
    pivots = _rref([{**{j: v for j, v in enumerate(row) if v}, n + i: Fraction(1)}
                    for i, row in enumerate(rows)], n)
    if pivots is None:
        return None
    return [[pivots[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)]
