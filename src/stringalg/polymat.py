"""Exact matrices over univariate rational polynomials.

Provides the pivot-driven Smith-style factorization M = U * D * P_sigma * V
in which U and V evaluate at zero to unit upper triangular matrices, and the
inverse of a matrix whose determinant is a nonzero constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (CapExceededError, InvariantError, MatrixFormatError,
                     NotInvertibleError)
from . import _smith
from .quiver import _format_sum, _lines, _parse_coeff, _signed_terms


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as an integer coefficient vector over one shared positive
    denominator, normalized so their collective content is 1.  The
    denominator of given coefficients is one `math.lcm` over theirs, and the
    content one `math.gcd` over the denominator and every numerator, so sums
    and products are integer work plus that one gcd call; `divmod` is plain
    long division over the rational coefficients, `exact_div`
    pseudo-division in integers.  Canonical form: no trailing zero
    coefficients; the zero polynomial has an empty vector and degree -1 (the
    distinguished marker).
    """

    __slots__ = ("den", "nums")

    def __init__(self, coeffs=()):
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        nums = [c.numerator * (den // c.denominator) for c in fracs]
        self.den, self.nums = _poly_normalize(den, nums)

    @classmethod
    def _raw(cls, den, nums):
        p = cls.__new__(cls)
        p.den, p.nums = _poly_normalize(den, nums)
        return p

    @staticmethod
    def const(c):
        return Poly((Fraction(c),))

    @staticmethod
    def x(power=1, coeff=1):
        return Poly((Fraction(0),) * power + (Fraction(coeff),))

    @property
    def coeffs(self):
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def is_zero(self):
        return not self.nums

    @property
    def degree(self):
        return len(self.nums) - 1

    def __add__(self, other):
        da, db = self.den, other.den
        g = gcd(da, db)
        sa, sb = db // g, da // g
        n = max(len(self.nums), len(other.nums))
        a = list(self.nums) + [0] * (n - len(self.nums))
        b = list(other.nums) + [0] * (n - len(other.nums))
        return Poly._raw(da * sa, [x * sa + y * sb for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # negation preserves canonical form, so skip normalization
        p = Poly.__new__(Poly)
        p.den = self.den
        p.nums = tuple(-v for v in self.nums)
        return p

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Poly._raw(self.den * c.denominator,
                             [v * c.numerator for v in self.nums])
        if self.is_zero or other.is_zero:
            return Poly()
        return Poly._raw(self.den * other.den, _convolve(self.nums, other.nums))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, b = list(self.coeffs), other.coeffs
        quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
        for i in range(len(quo) - 1, -1, -1):
            c = quo[i] = rem[i + len(b) - 1] / b[-1]
            if c:
                for j, y in enumerate(b):
                    rem[i + j] -= c * y
        return Poly(quo), Poly(rem[:len(b) - 1])

    def exact_div(self, other):
        """self / other, raising ArithmeticError on a nonzero remainder.

        Pseudo-division in integers: with A and B the numerators and l the
        leading coefficient of B, l^k * A = Q * B for k = deg A - deg B + 1,
        and every step of that long division divides exactly by l.  So
        self / other = Q * other.den / (self.den * l^k), and no Fraction is
        built."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.nums
        k = len(self.nums) - len(b) + 1
        if k <= 0:
            if self.nums:
                raise ArithmeticError("division is not exact")
            return Poly()
        lead = b[-1]
        scale = lead ** k
        rem = [v * scale for v in self.nums]
        quo = [0] * k
        for i in range(k - 1, -1, -1):
            c = quo[i] = rem[i + len(b) - 1] // lead
            if c:
                for j, y in enumerate(b):
                    rem[i + j] -= c * y
        if any(rem[:len(b) - 1]):
            raise ArithmeticError("division is not exact")
        return Poly._raw(self.den * scale, [q * other.den for q in quo])

    def drop_constant(self):
        """Zero the constant term (forces membership in x*Q[x])."""
        if not self.nums:
            return self
        return Poly._raw(self.den, [0] + list(self.nums[1:]))

    def at_zero(self):
        return Fraction(self.nums[0], self.den) if self.nums else Fraction(0)

    def monomial_coefficient(self, k):
        return Fraction(self.nums[k], self.den) if k < len(self.nums) else Fraction(0)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, self.nums))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _convolve(a, b):
    """Integer convolution of two coefficient vectors (schoolbook)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_normalize(den, nums):
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return 1, ()
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = [v // g for v in nums]
    return den, tuple(nums)


class PolyMatrix:
    """Square matrix over Q[x] with value semantics."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        self.rows = tuple(tuple(e if isinstance(e, Poly) else Poly.const(e) for e in row)
                          for row in rows)
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows) or self.n < 1:
            raise ValueError("matrix must be square of dimension >= 1")

    @staticmethod
    def identity(n):
        return PolyMatrix([[Poly.const(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n):
        return PolyMatrix([[Poly() for _ in range(n)] for _ in range(n)])

    def entry(self, i, j):
        return self.rows[i][j]

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return PolyMatrix([
            [_dot(self.rows[i], [other.rows[k][j] for k in range(self.n)])
             for j in range(self.n)]
            for i in range(self.n)])

    def __add__(self, other):
        return PolyMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return PolyMatrix([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def scale(self, c):
        return PolyMatrix([[e * c for e in row] for row in self.rows])

    def at_zero(self):
        return [[e.at_zero() for e in row] for row in self.rows]

    def is_unit_upper_at_zero(self):
        """Value at zero is upper triangular with unit diagonal."""
        for i, row in enumerate(self.rows):
            for j in range(i + 1):
                # the constant term is nums[0] / den with den > 0
                c = row[j].nums[0] if row[j].nums else 0
                if c != (row[j].den if i == j else 0):
                    return False
        return True

    def determinant(self):
        """Fraction-free (Bareiss) determinant; exact over Q[x]."""
        n = self.n
        m = [list(row) for row in self.rows]
        sign = 1
        prev = Poly.const(1)
        for k in range(n - 1):
            if m[k][k].is_zero:
                swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
                if swap is None:
                    return Poly()
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).exact_div(prev)
                m[i][k] = Poly()
            prev = m[k][k]
        det = m[n - 1][n - 1]
        return det if sign > 0 else -det

    def delete_row_col(self, i, j):
        rows = [[e for c, e in enumerate(row) if c != j]
                for r, row in enumerate(self.rows) if r != i]
        return PolyMatrix(rows)

    def __repr__(self):
        return f"PolyMatrix({format_poly_matrix(self)!r})"

    def __str__(self):
        return format_poly_matrix(self)


def _dot(row, col):
    acc = Poly()
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


def poly_matrix_inverse(m):
    """Inverse over Q[x]; exists iff the determinant is a nonzero constant."""
    det = m.determinant()
    if det.is_zero or det.degree != 0:
        raise NotInvertibleError(
            f"matrix is not invertible over the polynomial ring: det = {det}",
            determinant=det)
    n = m.n
    inv_det = Fraction(1) / det.at_zero()
    if n == 1:
        return PolyMatrix([[Poly.const(inv_det)]])
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = m.delete_row_col(i, j).determinant()
            cof[i][j] = minor if (i + j) % 2 == 0 else -minor
    inv = PolyMatrix([[cof[j][i] * inv_det for j in range(n)] for i in range(n)])
    if inv * m != PolyMatrix.identity(n):
        raise InvariantError("matrix inverse", "inverse * matrix is not the identity")
    return inv


# -- modified Smith form -------------------------------------------------------


@dataclass(frozen=True)
class SmithFactorization:
    """M = U * D * P_sigma * V with U(0), V(0) unit upper triangular, D
    diagonal, and P_sigma the permutation matrix (P_sigma)[i][sigma(i)] = 1."""

    U: PolyMatrix
    D: PolyMatrix
    sigma: tuple
    V: PolyMatrix

    def product(self):
        """U * D * P_sigma * V: the matrix verify accepted, or else the plain
        product in PolyMatrix arithmetic, the reference the certificate
        stands in for."""
        product = self.__dict__.get("_product")
        if product is None:
            n = self.D.n
            perm = PolyMatrix([[int(self.sigma[i] == j) for j in range(n)] for i in range(n)])
            product = self.U * self.D * perm * self.V
        return product

    def verify(self, m):
        """Whether this factors m, decided exactly: the structural checks,
        then the values of U * D * P_sigma * V against those of m at as many
        integer points as fix both (_smith.product_equals).  On success m is
        kept as the product."""
        n = self.D.n
        diag = [self.D.entry(k, k) for k in range(n)]
        if not (m.n == n
                and sorted(self.sigma) == list(range(n))
                and all(self.D.entry(i, j).is_zero
                        for i in range(n) for j in range(n) if i != j)
                and self.U.is_unit_upper_at_zero()
                and self.V.is_unit_upper_at_zero()
                and _smith.product_equals(_pairs(self.U.rows), [(e.den, e.nums) for e in diag],
                                          self.sigma, _pairs(self.V.rows), _pairs(m.rows))):
            return False
        object.__setattr__(self, "_product", m)
        return True


def _pivot_position(m):
    """Nonzero entry minimizing (degree, n - row, col); None for zero matrix."""
    everything = range(m.n)
    best = _smith.pivot([[e.nums for e in row] for row in m.rows], everything, everything)
    return None if best is None else best[1:]


def smith_elimination_step(m, i0, j0):
    """One elimination round at the given pivot.

    Builds U0 (row operations into column j0) and V0 (column operations into
    row i0) from polynomial quotients by the pivot.  Quotients aimed below
    the pivot row or left of the pivot column have their constant term
    dropped, which keeps both factors unit upper triangular at zero while
    still never increasing the pivot measure.

    modified_smith runs this step over Z/p (_smith.eliminate); this exact
    form is its reference.
    """
    n = m.n
    pivot = m.entry(i0, j0)
    u_rows = [[Poly.const(int(i == j)) for j in range(n)] for i in range(n)]
    v_rows = [[Poly.const(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if k == i0:
            continue
        q = divmod(m.entry(k, j0), pivot)[0]
        if k > i0:
            q = q.drop_constant()
        u_rows[k][i0] = -q
    for l in range(n):
        if l == j0:
            continue
        q = divmod(m.entry(i0, l), pivot)[0]
        if l < j0:
            q = q.drop_constant()
        v_rows[j0][l] = -q
    u0 = PolyMatrix(u_rows)
    v0 = PolyMatrix(v_rows)
    # u0 and v0 differ from the identity only in one column resp. row, so
    # apply them as row and column operations
    work = [list(row) for row in m.rows]
    for k in range(n):
        q = u_rows[k][i0]
        if k != i0 and not q.is_zero:
            work[k] = [a + q * b for a, b in zip(work[k], work[i0])]
    for l in range(n):
        q = v_rows[j0][l]
        if l != j0 and not q.is_zero:
            for r in range(n):
                work[r][l] = work[r][l] + q * work[r][j0]
    return u0, PolyMatrix(work), v0


def modified_smith(m):
    """Factor M = U * D * P_sigma * V with U, V unit upper triangular at zero.

    Repeatedly eliminates at the entry minimizing (degree, n - row, col)
    (_smith.pivot, as in _pivot_position) until some pivot is alone in its
    row and column, then deflates to the remaining rows and columns and
    goes on.  The pivot
    measure never increases, and a repeat forces the clearing that triggers
    deflation, so the loop terminates.

    Over Q the entries swell far beyond the size of the factors before they
    cancel, so the elimination runs over Z/p for the 512-bit primes p of a
    fixed table (_smith.eliminate: the step of smith_elimination_step mod p),
    and the exact factors are rebuilt from the images (see
    _smith.factorizations).  smith_elimination_step is the exact reference
    of that step and is not called here.  The result is returned only after
    verify certifies it exactly.
    """
    n = m.n
    previous = None
    for levels in _smith.factorizations(_pairs(m.rows)):
        zero = Poly()
        sigma = [None] * n
        diag = [zero] * n
        for i, j, (den, nums) in (level[4] for level in levels):
            sigma[i], diag[i] = j, Poly._raw(den, nums)
        free = sorted(set(range(n)) - set(sigma))
        sigma = tuple(j if j is not None else free.pop(0) for j in sigma)
        fact = SmithFactorization(
            _from_numerators(*_smith.compose(levels, n, 2), zero),
            PolyMatrix([[diag[i] if i == j else zero for j in range(n)] for i in range(n)]),
            sigma,
            _from_numerators(*_smith.compose(levels, n, 3), zero))
        del levels
        if fact.verify(m):
            return fact
        if fact == previous:
            break
        previous = fact
    raise InvariantError("smith factorization", "no candidate passed its certificate")


def _from_numerators(den, rows, zero):
    """The PolyMatrix of the integer numerators over den, which it empties
    row by row so that the integers go as the Polys come.  Equal integers
    (mostly the denominators of a column) are kept once."""
    out = []
    seen = {}
    while rows:
        row = []
        for f in rows.pop(0):
            p = Poly._raw(den, f) if f else zero
            p.den = seen.setdefault(p.den, p.den)
            p.nums = tuple(seen.setdefault(c, c) for c in p.nums)
            row.append(p)
        out.append(row)
    return PolyMatrix(out)


def _pairs(rows):
    return [[(e.den, e.nums) for e in row] for row in rows]


# -- text format ----------------------------------------------------------------

_MONO = re.compile(r"(?P<coeff>[0-9]+(?:/[0-9]+)?)?\s*(?:\*?\s*(?P<x>x)(?:\^(?P<pow>[0-9]+))?)?")
# largest exponent parse_poly reads: a Poly stores every coefficient up to its
# degree, so a larger one stops before the list is built
MAX_PARSE_DEGREE = 10_000


def parse_poly(text):
    """A polynomial in x such as `6*x^3 - 4*x^2 + 1/2`, in the shared sum
    and coefficient grammar of quiver.py.  An exponent above
    MAX_PARSE_DEGREE raises CapExceededError."""
    out = {}
    for sign, term in _signed_terms(text, MatrixFormatError):
        m = _MONO.fullmatch(term)
        coeff = _parse_coeff(m["coeff"] or "1") if m else None
        if coeff is None:
            raise MatrixFormatError(f"bad monomial {term!r}")
        power = _exponent(m["pow"] or "1") if m["x"] else 0
        out[power] = out.get(power, 0) + sign * coeff
    return Poly([out.get(k, 0) for k in range(max(out) + 1)])


def _exponent(digits):
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_PARSE_DEGREE)) or int(digits) > MAX_PARSE_DEGREE:
        raise CapExceededError(f"exponent above the degree cap {MAX_PARSE_DEGREE}")
    return int(digits)


def format_poly(p):
    return _format_sum((c, "" if k == 0 else "*x" if k == 1 else f"*x^{k}")
                       for k in range(p.degree, -1, -1)
                       if (c := p.monomial_coefficient(k)))


def parse_poly_matrix(text):
    """Rows separated by ';' or newlines, entries by ','."""
    rows = []
    for lineno, line in _lines(text):
        for row_text in line.split(";"):
            if row_text.strip():
                try:
                    rows.append([parse_poly(e) for e in row_text.split(",")])
                except MatrixFormatError as exc:
                    raise MatrixFormatError(str(exc), lineno) from exc
                except CapExceededError as exc:
                    raise CapExceededError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise MatrixFormatError("empty matrix")
    if any(len(r) != len(rows) for r in rows):
        raise MatrixFormatError("matrix must be square")
    return PolyMatrix(rows)


def format_poly_matrix(m):
    return "; ".join(", ".join(format_poly(e) for e in row) for row in m.rows)
