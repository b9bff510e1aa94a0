"""Exact sparse elimination: against the dense Gauss-Jordan elimination it
replaced, and against sympy where it is installed; in integers on integral
input."""

import random
from fractions import Fraction

import pytest

from stringalg._linalg import Echelon, _rref, matrix_inverse
from stringalg.errors import NotInvertibleError
from stringalg.polymat import Poly, PolyMatrix, modified_smith, poly_matrix_inverse


# -- the dense reference ---------------------------------------------------------


def dense_rref(rows, ncols):
    """Reduced row echelon form in place; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_nullspace(rows, ncols):
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    pivots = dense_rref(work, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -work[r][free]
        basis.append(vec)
    return basis


def dense_solve_affine(rows, rhs):
    ncols = len(rows[0]) if rows else 0
    work = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    work = [row for row in work if any(row)]
    pivots = dense_rref(work, ncols + 1)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = work[r][ncols]
    return sol


def solve_affine(rows, ncols):
    """Particular solution, free unknowns 0, of sparse rows with the
    right-hand side at column ncols, read off `_rref`; None when it is
    inconsistent."""
    pivots = _rref(list(rows), ncols)
    if pivots is None:
        return None
    return [Fraction(pivots[c].get(ncols, 0) if c in pivots else 0) for c in range(ncols)]


def dense_matrix_inverse(rows):
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    pivots = dense_rref(work, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in work[:n]]


# -- seeded sparse rational systems ------------------------------------------------


def random_entry(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def random_rows(rng, nrows, ncols, density, rank=None):
    """Dense rows with about `density` of their entries nonzero; with `rank`,
    every row past the first `rank` is a combination of those, or zero, or a
    copy of one."""
    free = nrows if rank is None else rank
    rows = [[random_entry(rng) if rng.random() < density else Fraction(0)
             for _ in range(ncols)] for _ in range(free)]
    while len(rows) < nrows:
        kind = rng.random()
        if kind < 0.15 or free == 0:
            rows.append([Fraction(0)] * ncols)
        elif kind < 0.3:
            rows.append(list(rng.choice(rows)))
        else:
            a, b = rng.choice(rows[:free]), rng.choice(rows[:free])
            s, t = random_entry(rng), random_entry(rng)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def times(rows, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


def augmented(rows, rhs, rng):
    """The system as sparse rows with the right side at column len(row),
    some rows keeping their explicit zeros."""
    keep = rng.random() < 0.5
    return [{j: v for j, v in enumerate([*row, b]) if keep or v}
            for row, b in zip(rows, rhs)]


def systems(seed, count):
    """(rows, ncols): tall, square and wide; full rank and rank deficient."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 9)
        rank = None if rng.random() < 0.4 else rng.randint(0, min(nrows, ncols))
        yield random_rows(rng, nrows, ncols, rng.choice([0.1, 0.25, 0.5]), rank), ncols


def assert_exact(got, expected):
    assert got == expected
    assert all(type(x) is Fraction for x in got)


# -- against the dense reference -----------------------------------------------------


def test_solve_affine_matches_dense_reference():
    rng = random.Random(1)
    outcomes = set()
    for rows, ncols in systems(2, 300):
        if rng.random() < 0.5:
            rhs = times(rows, [random_entry(rng) for _ in range(ncols)])
        else:
            rhs = [random_entry(rng) if rng.random() < 0.5 else 0 for _ in rows]
        expected = dense_solve_affine(rows, rhs)
        got = solve_affine(augmented(rows, rhs, rng), ncols)
        outcomes.add(expected is None)
        if expected is None:
            assert got is None
        else:
            assert_exact(got, expected)
            assert times(rows, got) == rhs
    assert outcomes == {True, False}


def test_solve_affine_edge_cases():
    rng = random.Random(0)
    assert solve_affine([], 0) == dense_solve_affine([], []) == []
    assert solve_affine([], 3) == [0, 0, 0]
    zero = [[Fraction(0)] * 3] * 2
    assert solve_affine(augmented(zero, [0, 0], rng), 3) == [0, 0, 0]
    assert solve_affine([{}, {3: 5}], 3) is None
    assert dense_solve_affine(zero, [0, 5]) is None
    rows = [[1, 2, 0], [1, 2, 0], [0, 0, 3]]
    for rhs in ([1, 1, 6], [1, 2, 6]):
        assert solve_affine(augmented(rows, rhs, rng), 3) == \
            dense_solve_affine(rows, rhs)


def nullspace(rows, ncols):
    """Basis of the solution space of rows * x = 0, for dense rows, as
    Fractions, read off `_rref`: one vector per free column."""
    pivots = _rref([dict(enumerate(row)) for row in rows], ncols)
    return [[Fraction(-pivots[c].get(free, 0) if c in pivots else c == free)
             for c in range(ncols)] for free in range(ncols) if free not in pivots]


def test_nullspace_matches_dense_reference():
    for rows, ncols in systems(4, 300):
        expected = dense_nullspace(rows, ncols)
        got = nullspace(rows, ncols)
        assert len(got) == len(expected)
        for vec, ref in zip(got, expected):
            assert_exact(vec, ref)
            assert times(rows, vec) == [0] * len(rows)
    assert nullspace([], 3) == dense_nullspace([], 3) == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([[0, 0]], 2) == dense_nullspace([[0, 0]], 2)


def test_matrix_inverse_matches_dense_reference():
    rng = random.Random(5)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 7)
        rank = n if rng.random() < 0.7 else rng.randint(0, n - 1)
        rows = random_rows(rng, n, n, rng.choice([0.3, 0.6, 0.9]), rank)
        expected = dense_matrix_inverse(rows)
        got = matrix_inverse(rows)
        if expected is None:
            singular += 1
            assert got is None
        else:
            for row, ref in zip(got, expected):
                assert_exact(row, ref)
    assert 0 < singular < 200
    assert matrix_inverse([]) == dense_matrix_inverse([]) == []
    assert matrix_inverse([[1, 2], [2, 4]]) is None
    assert matrix_inverse([[0, 0], [0, 1]]) is None
    assert matrix_inverse([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]


# -- in integers ---------------------------------------------------------------------


def counting_fractions(monkeypatch):
    """Record the arguments of every Fraction built from now on."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return built


# columns with no pivot of 1 or -1, and the integral solution x = (1, -2, 3)
INTEGRAL_COLUMNS = [{0: 2, 1: 4}, {1: -3, 2: 6}, {0: 4, 1: 2, 2: 3}]
INTEGRAL_TARGET = {0: 14, 1: 16, 2: -3}


def test_integral_elimination_builds_no_fraction(monkeypatch):
    built = counting_fractions(monkeypatch)
    echelon = Echelon(INTEGRAL_TARGET)
    solutions = []
    for j, column in enumerate(INTEGRAL_COLUMNS):
        assert echelon.add(j, column) is None
        solutions.append(echelon.solution())
    pivots = [column[row] for row, column, _ in echelon.pivots]
    rows = [{j: column[i] for j, column in enumerate(INTEGRAL_COLUMNS) if i in column}
            for i in range(3)]
    rref = _rref([{**row, 3: INTEGRAL_TARGET[i]} for i, row in enumerate(rows)], 3)
    monkeypatch.undo()
    assert built == []
    assert pivots[:2] == [2, -3]
    # the right-hand side is met only once the last column is in
    assert solutions == [None, None, {0: 1, 1: -2, 2: 3}]
    assert rref == {0: {0: 1, 3: 1}, 1: {1: 1, 3: -2}, 2: {2: 1, 3: 3}}
    assert all(type(v) is int for x in (solutions[-1], *rref.values()) for v in x.values())


def test_echelon_fractions_only_in_values_that_are_not_integers(monkeypatch):
    built = counting_fractions(monkeypatch)
    echelon = Echelon({0: 1, 1: 3})
    echelon.add("x", {0: 2})
    echelon.add("y", {0: 2, 1: 4})
    solution = echelon.solution()
    monkeypatch.undo()
    assert solution == {"x": Fraction(-1, 4), "y": Fraction(3, 4)}
    assert len(built) == 2


def test_dependent_column_keeps_coefficient_zero():
    # y = 2x: whichever of the two comes second is dependent and gets
    # coefficient 0, so with free unknowns the solution follows insertion order
    columns = {"x": {0: 1, 1: 1}, "y": {0: 2, 1: 2}, "z": {1: 1}}
    for order, relation, expected in (
            ("xyz", {"y": 1, "x": -2}, {"x": 3, "z": 2}),
            ("yxz", {"x": 2, "y": -1}, {"y": Fraction(3, 2), "z": 2})):
        echelon = Echelon({0: 3, 1: 5})
        relations = [echelon.add(u, columns[u]) for u in order]
        assert relations == [None, relation, None]
        assert echelon.solution() == expected


# -- against sympy ----------------------------------------------------------------------


def to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def test_matrix_inverse_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = random_rows(rng, n, n, 0.7, n if rng.random() < 0.8 else n - 1)
        m = to_sympy(sympy, rows)
        got = matrix_inverse(rows)
        if m.det() == 0:
            assert got is None
        else:
            assert to_sympy(sympy, got) == m.inv()


def test_nullspace_dimension_against_sympy():
    sympy = pytest.importorskip("sympy")
    for rows, ncols in systems(8, 60):
        assert len(nullspace(rows, ncols)) == ncols - to_sympy(sympy, rows).rank()


def poly_to_sympy(sympy, x, p):
    return sum((sympy.Rational(c.numerator, c.denominator) * x ** k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def poly_from_sympy(sympy, x, expr):
    coeffs = reversed(sympy.Poly(sympy.cancel(expr), x).all_coeffs())
    return Poly([Fraction(int(c.p), int(c.q)) for c in coeffs])


def random_poly(rng, degree):
    return Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(rng.randint(0, degree + 1))])


def unimodular(rng, n):
    """Lower times upper triangular, constant nonzero diagonals: det is a
    nonzero constant."""
    def triangular(lower):
        return PolyMatrix([[Poly.const(rng.randint(1, 3)) if i == j
                            else random_poly(rng, 2) if (i > j) == lower else Poly()
                            for j in range(n)] for i in range(n)])
    return triangular(True) * triangular(False)


def test_poly_matrix_determinant_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = PolyMatrix([[random_poly(rng, 2) for _ in range(n)] for _ in range(n)])
        sm = sympy.Matrix([[poly_to_sympy(sympy, x, e) for e in row] for row in m.rows])
        assert m.determinant() == poly_from_sympy(sympy, x, sm.det())


def test_poly_matrix_inverse_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(1, 3)
        m = unimodular(rng, n)
        sm = sympy.Matrix([[poly_to_sympy(sympy, x, e) for e in row] for row in m.rows])
        expected = sm.inv()
        got = poly_matrix_inverse(m)
        assert got.rows == tuple(tuple(poly_from_sympy(sympy, x, expected[i, j])
                                       for j in range(n)) for i in range(n))
    m = PolyMatrix([[Poly((0, 1)), Poly.const(0)], [Poly.const(0), Poly.const(1)]])
    with pytest.raises(NotInvertibleError):
        poly_matrix_inverse(m)


def test_smith_determinant_against_sympy():
    # criterion-3-style matrices: det D = +-det M, det M taken by sympy's
    # elimination over the polynomial domain
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = PolyMatrix([[Poly([Fraction(rng.randint(-9, 9))
                               for _ in range(rng.randint(0, 4) + 1)])
                         for _ in range(n)] for _ in range(n)])
        d = modified_smith(m).D
        det_d = Poly.const(1)
        for i in range(n):
            det_d = det_d * d.entry(i, i)
        sm = sympy.Matrix([[poly_to_sympy(sympy, x, e) for e in row] for row in m.rows])
        det_m = poly_from_sympy(sympy, x, sm.det(method="domain-ge"))
        assert det_d == det_m or det_d == -det_m
