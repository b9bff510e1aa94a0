"""Pinned outputs of modified_smith.

The digests cover the exact integers of every factor (each entry's
denominator and numerators in hex) and sigma.  They were taken from the
exact elimination before it moved to modular images, so any change in U, D,
sigma or V shows here.  The criterion-3 items are the largest outputs of
that stream outside the benchmark's items 0-99: item 124 has coefficients of
about 4,000 decimal digits."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from stringalg import _smith, cli
from stringalg.polymat import (Poly, PolyMatrix, SmithFactorization, modified_smith,
                               parse_poly_matrix)

WORKED_MATRIX = ("6*x^3 - 4*x^2, -3*x + 2, 9*x^2 - 4;"
                 "2*x^2 - 1, -1, 3*x + 2;"
                 "2*x^3, -x + 1, 3*x^2 + 2*x")

CRITERION_3_GOLDENS = {
    122: "d58d43cc2baf284c245f181801bf7425256e1bd730dd1692b6f959d8e3f94f1a",
    124: "d50e8543098b2c7739734200dedcdca6250564540377f667ea5926ea1263b1b1",
    182: "67a1c915215708dd9539c03983c3d404fa6967d532ece680ebe7227e68d1fa60",
}


def _digest(fact):
    h = hashlib.sha256()
    for mat in (fact.U, fact.D, fact.V):
        for row in mat.rows:
            for e in row:
                h.update(f"{e.den:x}:{','.join(f'{v:x}' for v in e.nums)};".encode())
            h.update(b"/")
    h.update(",".join(map(str, fact.sigma)).encode())
    return h.hexdigest()


def _criterion_3_matrices():
    """The matrix stream of test_criterion_3_factorization_property_suite."""
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 5)
        yield PolyMatrix([[Poly([Fraction(rng.randint(-9, 9))
                                 for _ in range(rng.randint(0, 4) + 1)])
                           for _ in range(n)] for _ in range(n)])


@pytest.fixture(scope="module")
def large_items():
    matrices = list(_criterion_3_matrices())
    return {i: (matrices[i], modified_smith(matrices[i])) for i in CRITERION_3_GOLDENS}


# a 3 x 3 matrix with coefficients of up to 843 bits whose factors reach 6,324
# bits: its primes settle the first level before the others, so the
# elimination resumes from a partly rebuilt factorization; the digest is of
# `stringalg smith`'s stdout
A, B = 3 ** 400, 7 ** 300
RESUMED_MATRIX = (f"{A}*x^2 + x + 1, 2*x - {B}, x^3 + 5; x - 1, {B}*x^2 + 3, {A}*x; "
                  f"4, x^2 + {A}, {B}\n")
RESUMED_STDOUT_SHA256 = "01a496edaf780dcc9b19d90984d5b6f004afc4c599b9655af4eaec4d3bfe312e"


def test_resumed_reconstruction_golden(tmp_path, capsys, monkeypatch):
    rounds = []     # (levels imaged, levels rebuilt) of each reconstruct call
    reconstruct = _smith.reconstruct

    def recording(group):
        levels = reconstruct(group)
        rounds.append((len(group[0][1]), len(levels)))
        return levels

    monkeypatch.setattr(_smith, "reconstruct", recording)
    path = tmp_path / "resumed.mat"
    path.write_text(RESUMED_MATRIX, encoding="utf-8")
    assert cli.run(["smith", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\nverified: true\n")
    assert hashlib.sha256(out.encode()).hexdigest() == RESUMED_STDOUT_SHA256
    # some round rebuilt part of its levels, and a later one resumed after it
    partial = next(i for i, (imaged, rebuilt) in enumerate(rounds) if 0 < rebuilt < imaged)
    assert rounds[-1][0] < rounds[partial][0] and rounds[-1][0] == rounds[-1][1]


def test_worked_matrix_golden():
    fact = modified_smith(parse_poly_matrix(WORKED_MATRIX))
    assert _digest(fact) == \
        "29e51e5ab45cfb0e79ea4bce4d945594be81fc47257c78ddaaa4ad863bf37f4c"


@pytest.mark.parametrize("index", sorted(CRITERION_3_GOLDENS))
def test_criterion_3_large_output_goldens(large_items, index):
    _, fact = large_items[index]
    assert _digest(fact) == CRITERION_3_GOLDENS[index]


def _perturb_top(poly):
    """Add 1 to the numerator of the highest-degree coefficient."""
    nums = list(poly.nums)
    nums[-1] += 1
    return Poly._raw(poly.den, nums)


@pytest.mark.parametrize("factor", ["U", "V"])
def test_certificate_rejects_perturbed_factor(large_items, factor):
    m, fact = large_items[124]
    assert fact.verify(m)
    mat = getattr(fact, factor)
    # the entry of highest degree, first in row-major order
    i, j = max(((i, j) for i in range(mat.n) for j in range(mat.n)),
               key=lambda ij: (mat.entry(*ij).degree, -ij[0], -ij[1]))
    assert mat.entry(i, j).degree > 20
    rows = [list(r) for r in mat.rows]
    rows[i][j] = _perturb_top(rows[i][j])
    bad = dataclasses.replace(fact, **{factor: PolyMatrix(rows)})
    assert not bad.verify(m)
    # a witness that the product differs: the values at t = 1, where
    # multiplying out the factors would take seconds
    n = m.n
    perm = [[int(bad.sigma[i] == j) for j in range(n)] for i in range(n)]
    value = _times(_times(_times(_at_one(bad.U), _at_one(bad.D)), perm), _at_one(bad.V))
    assert value != _at_one(m)


def _at_one(mat):
    return [[Fraction(sum(e.nums), e.den) for e in row] for row in mat.rows]


def _times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# Rank-deficient matrices: their elimination ends at a zero block, where
# _smith.pivot finds no entry and the levels stop.
SINGULAR_GOLDENS = {
    "x, x; x, x": "eaae0430c07cb9a5de8920a98b55354e03317db5d2a97b701a6b08e2ca6e019e",
    "1, x; x, x^2": "9d7c6b56f2c4b62162f3230562fb8c8d45c47161a28bae1d4b9fabe30f3931e2",
    "1, 2, 3; 2, 4, 6; x, 2*x, 3*x":
        "31c8b95d1093bcd202b036d6fd0a288ec1394fa2f377d219344bdd932e391dec",
}

# products A * B of an n x r and an r x n matrix, r < n <= 4, by seed
LOW_RANK_PRODUCT_GOLDENS = {
    0: "811461333e459f14afb3e84e1ef3e7e2fcef4d3faef7110fafc9e75a50bb89af",
    1: "fa33c71f671592bd8376d9d301ac9705781b65e74488b1c3567ae5eb293a22c0",
    2: "c8e550498af7b335fc9cb8ad4a6f1fa14e480ed9cf9938895bcae0f6c9f9ba4e",
    3: "660143aa00cce285496eb84c6792d5f973a50dc10c23b83f7a1b5309d47a2713",
    4: "409a7c1d35b551c38988e48dbb8c9d5caaa9b942eb3a4a93e6d24cad6c658450",
    5: "94bb6cc44caaff3d5ea2af2f6074e74360f1e126bdda19f9f0faf0c5a9a7d02a",
    6: "8a205bd854d72e840213f2cd9bf8ff3cbe0bcae1e9a12dbd2559083fd2e85d82",
    7: "4b473327645456bde6a93f70be9db79fb52a93a6d38701042e0d98bbf4118153",
}


def _low_rank_product(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    r = rng.randint(1, n - 1)

    def poly():
        return Poly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])

    a = [[poly() for _ in range(r)] for _ in range(n)]
    b = [[poly() for _ in range(n)] for _ in range(r)]
    rows = [[sum((a[i][k] * b[k][j] for k in range(1, r)), a[i][0] * b[0][j])
             for j in range(n)] for i in range(n)]
    return PolyMatrix(rows)


def _singular_cases():
    for text, digest in SINGULAR_GOLDENS.items():
        yield pytest.param(parse_poly_matrix(text), digest, id=text)
    for seed, digest in LOW_RANK_PRODUCT_GOLDENS.items():
        yield pytest.param(_low_rank_product(seed), digest, id=f"product-{seed}")


def _sympy_rank(m):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Matrix([[sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                              for k, c in enumerate(e.coeffs)) for e in row]
                         for row in m.rows]).rank()


@pytest.mark.parametrize("m, digest", _singular_cases())
def test_rank_deficient_factorization(m, digest):
    fact = modified_smith(m)
    assert fact.verify(m)
    assert fact.U.is_unit_upper_at_zero() and fact.V.is_unit_upper_at_zero()
    rank = sum(1 for i in range(m.n) if not fact.D.entry(i, i).is_zero)
    assert 0 < rank < m.n
    assert rank == _sympy_rank(m)
    assert _digest(fact) == digest


# Matrices with at most one nonzero entry in each row and column: every pivot
# is alone in its row and column, so no level eliminates anything
C, E = 3 ** 1300, 7 ** 200
NO_ELIMINATION_GOLDENS = {
    "7": "19b274673465380ea2c28fe528c0ed712a36e0220e28026f51446dbc50d9f18f",
    "1/3*x^2 - 5/7": "c1e91557e3737168b6d5ac90b6fae6a4b2c9340357b4a1d3ba34b2a6fdbaa7c0",
    f"{C}*x + 1/{E}": "471a46ffe6fb755a082fb8130b76ddcaa300cb62997f275fb009ce1a6f98ee48",
    "0, 1/2*x; 3, 0": "76ee70dda5c48e626c0710c6ad96af57ab4bcae0a7b5dff5dd0111207bfebb1f",
    "0": "15e18f4a500439b5922425434b65bcd597a4dc3a973a465b4f5a2dc32ad4f11e",
    "0, 0; 0, 0": "5b3d99f7f866d1dd824e3a1e35a3fb127dcd8713dcc27be0a433ed9334e5ede1",
    f"x, 0, 0; 0, 0, {C}; 0, 2/3*x^4, 0":
        "9eee00c5c66e51ae0a8fd0d5eb950c69dc4ed56688bbc959f5274ccb7de3e0b4",
    f"0, 0, 1/{C}; 0, x, 0; 5, 0, 0":
        "7dab21a12315fa16b8c2de9ce40c4aa03bb2a760cef798061e02ab717b342ee0",
}


@pytest.mark.parametrize("text", NO_ELIMINATION_GOLDENS,
                         ids=[f"no-elimination-{k}" for k in range(len(NO_ELIMINATION_GOLDENS))])
def test_no_elimination_factorization(text):
    m = parse_poly_matrix(text)
    fact = modified_smith(m)
    assert fact.verify(m)
    assert _digest(fact) == NO_ELIMINATION_GOLDENS[text]


def test_failed_certificate_restarts_elimination(monkeypatch):
    """A candidate that fails its certificate sends _smith.factorizations
    back to the start with further primes; the next candidate passes."""
    calls = {"compose": 0, "verify": 0}
    compose, verify = _smith.compose, SmithFactorization.verify

    def corrupting_compose(levels, n, side):
        calls["compose"] += 1
        den, rows = compose(levels, n, side)
        if calls["compose"] == 1:
            # the first U built: a new top coefficient in its corner entry
            rows[0][0] = rows[0][0] + [den]
        return den, rows

    def counting_verify(self, m):
        calls["verify"] += 1
        return verify(self, m)

    monkeypatch.setattr(_smith, "compose", corrupting_compose)
    monkeypatch.setattr(SmithFactorization, "verify", counting_verify)
    fact = modified_smith(parse_poly_matrix(WORKED_MATRIX))
    assert calls == {"compose": 4, "verify": 2}
    assert _digest(fact) == \
        "29e51e5ab45cfb0e79ea4bce4d945594be81fc47257c78ddaaa4ad863bf37f4c"
