"""Polynomial matrices and the triangular-at-zero Smith factorization."""

import random
from fractions import Fraction

import pytest

from stringalg.errors import CapExceededError, MatrixFormatError, NotInvertibleError
from stringalg.polymat import (MAX_PARSE_DEGREE, Poly, PolyMatrix, SmithFactorization,
                               format_poly, format_poly_matrix, modified_smith,
                               parse_poly, parse_poly_matrix,
                               poly_matrix_inverse,
                               smith_elimination_step, _pivot_position)
from stringalg._smith import (PRIME_BITS, PRIME_OFFSETS, eliminate, identity, pivot,
                              primes, reduced)


EXAMPLE_MATRIX = """
6*x^3 - 4*x^2, -3*x + 2, 9*x^2 - 4;
2*x^2 - 1, -1, 3*x + 2;
2*x^3, -x + 1, 3*x^2 + 2*x
"""


def test_poly_arithmetic():
    p = parse_poly("3*x^2 - 1")
    q = parse_poly("x + 2")
    assert format_poly(p * q) == "3*x^3 + 6*x^2 - 1*x - 2"
    quo, rem = divmod(p, q)
    assert p == quo * q + rem
    assert rem.degree < q.degree
    assert parse_poly("0").is_zero
    assert parse_poly("0").degree == -1


def _ref_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _ref_mul(a, b):
    """Schoolbook product of Fraction coefficient lists."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    """Long division of Fraction coefficient lists, b nonzero."""
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return _ref_trim(quo), _ref_trim(rem[:len(b) - 1])


def _random_poly(rng, length, bits):
    """A rational Poly of the given length with numerators of up to `bits`
    bits over small denominators (a zero coefficient now and then)."""
    coeffs = [Fraction(rng.randint(-2 ** bits, 2 ** bits) * rng.randint(0, 3),
                       rng.choice([1, 1, 2, 3, 7, 12]))
              for _ in range(length - 1)]
    top = 0
    while not top:
        top = rng.randint(-2 ** bits, 2 ** bits)
    return _ref_trim(coeffs + [Fraction(top, rng.choice([1, 5]))])


def test_poly_products_and_division_match_the_schoolbook_reference():
    """Products and divmod of rational Polys against Fraction lists.  The
    sizes lie on both sides of la * lb = 32 with integer numerators of 96
    bits together, where products once switched to Kronecker substitution."""
    rng = random.Random(31)
    sizes = [(1, 1, 4), (3, 4, 8), (5, 6, 20), (2, 15, 40),
             (6, 6, 60), (8, 11, 70), (12, 5, 200), (20, 20, 120)]
    sides = set()
    for la, lb, bits in sizes:
        for _ in range(6):
            a, b = _random_poly(rng, la, bits), _random_poly(rng, lb, bits)
            p, q = Poly(a), Poly(b)
            assert p.coeffs == tuple(a) and q.coeffs == tuple(b)
            sides.add(len(p.nums) * len(q.nums) >= 32 and max(map(abs, p.nums)).bit_length()
                      + max(map(abs, q.nums)).bit_length() >= 96)
            ab = _ref_mul(a, b)
            assert (p * q).coeffs == tuple(ab), (la, lb, bits)
            for x, y, xs, ys in ((p, q, a, b), (q, p, b, a), (p * q, q, ab, b)):
                quo, rem = divmod(x, y)
                ref_quo, ref_rem = _ref_divmod(xs, ys)
                assert quo.coeffs == tuple(ref_quo) and rem.coeffs == tuple(ref_rem)
                assert x == y * quo + rem
                assert rem.degree < y.degree
            assert (p * q).exact_div(q) == p
    assert sides == {False, True}


def test_exact_div_by_pseudo_division_in_integers(monkeypatch):
    """exact_div gives the Fraction reference's quotient where the remainder
    is zero and raises where it is not, building no Fraction; divisors
    include negative and non-unit leading coefficients."""
    rng = random.Random(37)
    cases = []
    for la, lb, bits in [(1, 1, 4), (3, 2, 8), (6, 4, 30), (9, 9, 60), (4, 7, 10)]:
        for _ in range(8):
            a, b = _random_poly(rng, la, bits), _random_poly(rng, lb, bits)
            ab = _ref_mul(a, b)
            cases.append((Poly(ab), Poly(b), tuple(a)))
            if len(b) > 1:   # one more constant term leaves a remainder
                cases.append((Poly([ab[0] + 1] + ab[1:]), Poly(b), None))
    cases += [(Poly(), Poly((3, -2)), ()), (Poly.const(5), Poly((0, 1)), None),
              (Poly((6, -4)), Poly.const(Fraction(-2, 3)), (-9, 6))]
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    results = []
    for x, y, _ in cases:
        try:
            results.append(x.exact_div(y))
        except ArithmeticError:
            results.append(None)
    monkeypatch.undo()
    assert built == []
    for (x, y, expected), got in zip(cases, results):
        assert (None if got is None else got.coeffs) == expected
        assert (got is None) == (not divmod(x, y)[1].is_zero)
    assert sum(got is None for got in results) >= 20
    with pytest.raises(ZeroDivisionError):
        Poly.const(1).exact_div(Poly())


def test_poly_parse_variants():
    assert parse_poly("6x^3") == Poly.x(3, 6)
    assert parse_poly("-x + 1") == Poly((1, -1))
    assert parse_poly("3/2*x") == Poly((0, Fraction(3, 2)))
    assert parse_poly(format_poly(Poly((Fraction(1, 3), 0, -2)))) == \
        Poly((Fraction(1, 3), 0, -2))


def test_poly_consecutive_signs_and_bad_monomials():
    assert parse_poly("x - -3") == parse_poly("x + 3")
    for bad in ["", "x +", "2*", "1/0", "x^", "1.5*x", "y"]:
        with pytest.raises(MatrixFormatError):
            parse_poly(bad)


def test_poly_exponent_cap():
    assert parse_poly(f"x^{MAX_PARSE_DEGREE}") == Poly.x(MAX_PARSE_DEGREE)
    assert parse_poly("x^007") == Poly.x(7)
    for bad in [f"x^{MAX_PARSE_DEGREE + 1}", "2*x^" + "9" * 4301]:
        with pytest.raises(CapExceededError):
            parse_poly(bad)


def test_poly_coefficients_past_the_int_str_limit():
    # Python refuses int <-> str conversions past 4,300 digits by default
    p = Poly((Fraction(-(10 ** 5000) - 1, 7), 0, 10 ** 5000 + 3))
    text = format_poly(p)
    assert len(text) > 10000
    assert parse_poly(text) == p
    m = PolyMatrix([[p, Poly.const(1)], [Poly(), Poly.x()]])
    assert parse_poly_matrix(format_poly_matrix(m)) == m


def test_matrix_errors_name_their_line():
    with pytest.raises(MatrixFormatError) as err:
        parse_poly_matrix("1, 0  # first row\n\n0, 1/0\n")
    assert err.value.line == 3


def test_first_elimination_matches_worked_example():
    m = parse_poly_matrix(EXAMPLE_MATRIX)
    assert _pivot_position(m) == (1, 1)
    u0, m1, v0 = smith_elimination_step(m, 1, 1)
    assert u0 == parse_poly_matrix("1, -3*x + 2, 0; 0, 1, 0; 0, -x, 1")
    assert v0 == parse_poly_matrix("1, 0, 0; 2*x^2, 1, 3*x + 2; 0, 0, 1")
    assert m1 == parse_poly_matrix("3*x - 2, 0, 0; -1, -1, 0; 2*x^2 + x, 1, 3*x + 2")


def test_second_elimination_matches_worked_example():
    m1 = parse_poly_matrix("3*x - 2, 0, 0; -1, -1, 0; 2*x^2 + x, 1, 3*x + 2")
    assert _pivot_position(m1) == (2, 1)
    u1, m2, v1 = smith_elimination_step(m1, 2, 1)
    assert u1 == parse_poly_matrix("1, 0, 0; 0, 1, 1; 0, 0, 1")
    assert v1 == parse_poly_matrix("1, 0, 0; -2*x^2 - x, 1, -3*x - 2; 0, 0, 1")
    assert m2 == parse_poly_matrix("3*x - 2, 0, 0; 2*x^2 + x - 1, 0, 3*x + 2; 0, 1, 0")


def test_worked_example_factorization_is_exact():
    m = parse_poly_matrix(EXAMPLE_MATRIX)
    fact = modified_smith(m)
    assert fact.verify(m)
    assert fact.U.is_unit_upper_at_zero()
    assert fact.V.is_unit_upper_at_zero()
    assert fact.product() == m


def test_already_diagonal_matrix():
    m = parse_poly_matrix("x, 0; 0, x^2 + 1")
    fact = modified_smith(m)
    assert fact.U == PolyMatrix.identity(2)
    assert fact.V == PolyMatrix.identity(2)
    assert fact.sigma == (0, 1)
    assert fact.D == m
    # with U = V = I the certificate is D * P_sigma, which a swap breaks
    swapped = SmithFactorization(fact.U, fact.D, (1, 0), fact.V)
    assert swapped.product() == parse_poly_matrix("0, x; x^2 + 1, 0")
    assert not swapped.verify(m)


def _falling(k):
    """t(t - 1)...(t - k), which vanishes at 0, 1, ..., k."""
    f = Poly.const(1)
    for c in range(k + 1):
        f = f * Poly([-c, 1])
    return f


def _plus_at(m, i, j, f):
    rows = [list(row) for row in m.rows]
    rows[i][j] = rows[i][j] + f
    return PolyMatrix(rows)


def test_certificate_compares_past_the_product_degree():
    # the product's entries have degree at most the factors' bound K, so a
    # matrix differing by t(t - 1)...(t - K) agrees with it at 0..K and the
    # certificate must look further, at M's degree
    m = parse_poly_matrix(EXAMPLE_MATRIX)
    fact = modified_smith(m)
    bound = sum(max(e.degree for row in f.rows for e in row) for f in (fact.U, fact.D, fact.V))
    for k in (bound, bound + 1, bound + 4):
        for i, j in ((0, 0), (1, 2), (2, 1)):
            assert not fact.verify(_plus_at(m, i, j, _falling(k)))
    assert fact.verify(m)


def test_certificate_compares_zero_product_entries():
    # an off-diagonal entry of U * D * V is identically zero here, yet
    # t(t - 1) there vanishes at 0 and 1 and is caught only at 2
    m = parse_poly_matrix("x, 0; 0, x^2 + 1")
    fact = modified_smith(m)
    assert fact.verify(m)
    for i, j in ((0, 1), (1, 0)):
        assert not fact.verify(_plus_at(m, i, j, _falling(1)))


def test_zero_matrix():
    m = PolyMatrix.zero(3)
    fact = modified_smith(m)
    assert fact.verify(m)
    assert fact.D == m


def _random_matrix(rng, n, max_degree=3, span=9):
    return PolyMatrix([
        [Poly([Fraction(rng.randint(-span, span))
               for _ in range(rng.randint(0, max_degree) + 1)])
         for _ in range(n)]
        for _ in range(n)])


def test_random_factorization_properties():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n)
        fact = modified_smith(m)
        assert fact.verify(m)
        det_m = m.determinant()
        det_d = fact.D.determinant()
        assert det_m == det_d or det_m == -det_d


def _image(poly, p):
    """The residues of a Poly mod p, as the elimination over Z/p holds them."""
    return reduced([c * pow(poly.den, -1, p) for c in poly.nums], p)


def _step_matrices():
    rng = random.Random(23)
    yield "worked", parse_poly_matrix(EXAMPLE_MATRIX)
    yield "rational", parse_poly_matrix(
        "1/2*x^2 + x, 2/3, x; x - 1, 3*x^2, 1/5; 2, x, x^2 - 1/3")
    for k in range(3):
        yield f"random{k}", _random_matrix(rng, 4, max_degree=2, span=3)


@pytest.mark.parametrize("m", [m for _, m in _step_matrices()],
                         ids=[name for name, _ in _step_matrices()])
def test_modular_elimination_follows_exact_steps(m):
    """modified_smith eliminates over Z/p with _smith.eliminate; stepped
    next to smith_elimination_step over all deflation levels, it takes the
    same pivots and gives the images of the same matrices, and of the
    inverse factors 2I - U0 and 2I - V0."""
    p = next(primes())
    cur = [[_image(e, p) for e in row] for row in m.rows]
    rows, cols = list(range(m.n)), list(range(m.n))
    steps = 0
    while rows:
        found = pivot(cur, rows, cols)
        pos = _pivot_position(m)
        if pos is None:
            assert found is None
            break
        a0, b0 = pos
        i0, j0 = rows[a0], cols[b0]
        assert found[1:] == (i0, j0)
        if (all(m.entry(a0, b).is_zero for b in range(m.n) if b != b0)
                and all(m.entry(a, b0).is_zero for a in range(m.n) if a != a0)):
            # the pivot is alone in its row and column: deflate
            rows.remove(i0)
            cols.remove(j0)
            if rows:
                m = m.delete_row_col(a0, b0)
            continue
        u0, m, v0 = smith_elimination_step(m, a0, b0)
        left, right = identity(len(rows)), identity(len(cols))
        eliminate(cur, rows, cols, i0, j0, left, right, p)
        assert [[cur[i][j] for j in cols] for i in rows] == \
            [[_image(e, p) for e in row] for row in m.rows]
        twice = PolyMatrix.identity(m.n).scale(2)
        assert left == [[_image(e, p) for e in row] for row in (twice - u0).rows]
        assert right == [[_image(e, p) for e in row] for row in (twice - v0).rows]
        steps += 1
    assert steps >= 2


def test_elimination_primes():
    # the table holds the primes 2**512 - c by increasing c, from the first
    # one on, and primes() draws exactly those
    sympy = pytest.importorskip("sympy")
    top = 1 << PRIME_BITS
    assert list(PRIME_OFFSETS) == sorted(set(PRIME_OFFSETS))
    assert all(sympy.isprime(top - c) for c in PRIME_OFFSETS)
    assert not any(sympy.isprime(top - c) for c in range(PRIME_OFFSETS[0] - 2, 0, -2))
    assert list(primes()) == [top - c for c in PRIME_OFFSETS]


def test_triangular_at_zero_closed_under_product_and_inverse():
    m = parse_poly_matrix(EXAMPLE_MATRIX)
    u0, m1, v0 = smith_elimination_step(m, 1, 1)
    u1, m2, v1 = smith_elimination_step(m1, 2, 1)
    prod = u1 * u0
    assert prod.is_unit_upper_at_zero()
    inv = poly_matrix_inverse(prod)
    assert inv.is_unit_upper_at_zero()
    assert inv * prod == PolyMatrix.identity(3)


def test_elimination_factor_inverse_is_reflection():
    # (U0 - I)^2 = 0, so the inverse is I - (U0 - I)
    m = parse_poly_matrix(EXAMPLE_MATRIX)
    u0, _, v0 = smith_elimination_step(m, 1, 1)
    eye = PolyMatrix.identity(3)
    assert poly_matrix_inverse(u0) == eye.scale(2) - u0
    assert poly_matrix_inverse(v0) == eye.scale(2) - v0


def test_poly_matrix_inverse_errors():
    with pytest.raises(NotInvertibleError) as err:
        poly_matrix_inverse(parse_poly_matrix("1, 0; 0, x"))
    assert err.value.determinant == Poly.x()
    assert poly_matrix_inverse(PolyMatrix.identity(3)) == PolyMatrix.identity(3)


def test_matrix_format_round_trip():
    m = parse_poly_matrix(EXAMPLE_MATRIX)
    assert parse_poly_matrix(format_poly_matrix(m)) == m
