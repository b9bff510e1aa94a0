"""From-scratch references for the exact solvers.

`intertwiner_unit` builds the whole intertwiner system for one support and
solves it by a row-wise reduced echelon form over `Fraction`s, the way the
block solve worked before it grew one column echelon across degrees.
`least_degree_unit` runs it on each cumulative support, in sort order, until
one is consistent.  `intertwiner_column` builds one column of that system by
trying every image term against the support path.  `invert_unit` normalises
by the inverse of the degree-zero part even when that part is 1.
"""

from fractions import Fraction

from stringalg.algebra import Element
from stringalg.errors import NotAUnitError
from stringalg.morphisms import Unit, geometric_inverse
from stringalg.quiver import Path


def rref(rows, ncols):
    """Reduced echelon form {pivot column: row scaled to 1 there} of sparse
    rows, consuming them, over the rationals; None when a row reduces to
    entries at columns >= ncols only."""
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
            pivots[c] = {j: v * inv for j, v in row.items()}
            break
    for c in sorted(pivots, reverse=True):
        for row in pivots.values():
            if c in row and row is not pivots[c]:
                _eliminate(row, c, pivots[c])
    return pivots


def _eliminate(row, c, pivot):
    f = row[c]
    for j, v in pivot.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]


def solve_affine(rows, ncols):
    """Particular solution, free unknowns 0, with the right-hand side at
    column ncols; None when inconsistent."""
    pivots = rref([{j: v for j, v in row.items() if v} for row in rows], ncols)
    if pivots is None:
        return None
    return [pivots[c].get(ncols, Fraction(0)) if c in pivots else Fraction(0)
            for c in range(ncols)]


def intertwiner_column(images, w):
    """The column {(generator, path): value} of the unknown c_w: the nonzero
    entries of w * images[g] - g * w, every image term tried against w."""
    algebra = next(iter(images.values())).algebra
    column = {}
    for g, target in images.items():
        product = {algebra.concat(w, p): c for p, c in target.terms.items()}
        gw = algebra.concat(g, w)
        product[gw] = product.get(gw, 0) - 1
        product.pop(None, None)
        for p, c in Element._trusted(algebra, product).terms.items():
            column[(g, p)] = c
    return column


def intertwiner_unit(images, support):
    """u = 1 + sum of c_p * p over the support with u * images[g] = g * u
    for every generator g, from one system built and solved from scratch;
    None when it is inconsistent."""
    algebra = next(iter(images.values())).algebra
    n = len(support)
    rows = {}    # per (generator, path): {unknown, or n for the right side: coefficient}
    for g, target in images.items():
        for p, c in (target - algebra.path_element(g)).terms.items():
            rows.setdefault((g, p), {})[n] = -c
    for i, w in enumerate(support):
        for key, c in intertwiner_column(images, w).items():
            rows.setdefault(key, {})[i] = c
    sol = solve_affine(list(rows.values()), n)
    if sol is None:
        return None
    return algebra.one() + algebra.element(dict(zip(support, sol)))


def least_degree_unit(images, batches):
    """(u, d) for the least d at which the sorted union of batches[0..d]
    gives a unit, or (None, None)."""
    support = []
    for degree, batch in enumerate(batches):
        support = sorted(support + list(batch))
        u = intertwiner_unit(images, support)
        if u is not None:
            return u, degree
    return None, None


def invert_unit(u):
    """Two-sided inverse of an element as a `Unit`: u = low * (1 + y) with
    low the degree-zero part, always normalised by low^-1 built afresh, and
    (1 + y)^-1 summed level by level in the x-degree until d levels in a
    row vanish, or NotAUnitError past the bound n * d."""
    algebra = u.algebra
    low = u.degree_part(0)
    coeffs = {p.vertex: c for p, c in low.terms.items()}
    if any(not coeffs.get(v) for v in algebra.quiver.vertices):
        raise NotAUnitError("degree-0 part vanishes at a vertex")
    low_inv = algebra.element(
        {Path.stationary(v): Fraction(1) / coeffs[v] for v in algebra.quiver.vertices})
    parts = {}
    for p, c in (low_inv * (u - low)).terms.items():
        parts.setdefault(algebra.x_degree(p), {})[p] = c
    v0 = geometric_inverse(algebra.element(parts.pop(0, {})))
    levels = [v0]
    if parts:
        d = max(parts)
        n = max(len(c) for c in algebra.infinite_cycles())
        parts = {k: algebra.element(t) for k, t in parts.items()}
        while any(not v.is_zero for v in levels[-d:]):
            m = len(levels)
            if m > n * d:
                raise NotAUnitError("inverse series past the x-degree bound")
            acc = algebra.zero()
            for k, yk in parts.items():
                if k <= m:
                    acc = acc + yk * levels[m - k]
            levels.append(-(v0 * acc))
    return Unit(u, sum(levels[1:], v0) * low_inv)
