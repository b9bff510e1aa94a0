"""Property tests of the text formats: format then parse gives back the
value, and a parser fails only with its format error."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stringalg import PathAlgebra, format_element, parse_element, parse_quiver  # noqa: E402
from stringalg.errors import ElementFormatError, QuiverFormatError  # noqa: E402
from stringalg.polymat import (Poly, PolyMatrix, format_poly,  # noqa: E402
                               format_poly_matrix, parse_poly, parse_poly_matrix)

from conftest import SOURCES, make_algebra  # noqa: E402

ALGEBRAS = {name: make_algebra(SOURCES[name])
            for name in ("two_cycle_rel", "kronecker", "cycle_pendant", "double_diamond")}
BASES = {name: algebra.enumerate_basis(5) for name, algebra in ALGEBRAS.items()}

# small values, and some past the 4,300 digits Python converts by default
integers = st.integers(-10 ** 6, 10 ** 6) | st.integers(-10 ** 4400, 10 ** 4400)
coefficients = st.builds(Fraction, integers, st.integers(1, 10 ** 6))


@st.composite
def elements(draw):
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    paths = draw(st.lists(st.sampled_from(BASES[name]), max_size=6, unique=True))
    return ALGEBRAS[name].element({p: draw(coefficients) for p in paths})


@settings(max_examples=60, deadline=None)
@given(elements())
def test_element_round_trip(x):
    assert parse_element(x.algebra, format_element(x)) == x


@settings(max_examples=60, deadline=None)
@given(st.lists(coefficients, max_size=6))
def test_poly_round_trip(coeffs):
    p = Poly(coeffs)
    assert parse_poly(format_poly(p)) == p


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.lists(coefficients, max_size=3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_matrix_round_trip(rows):
    m = PolyMatrix([[Poly(c) for c in row] for row in rows])
    assert parse_poly_matrix(format_poly_matrix(m)) == m


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab12e_ */+-.·0", max_size=16))
def test_element_parser_fails_only_with_its_error(text):
    try:
        parse_element(ALGEBRAS["two_cycle_rel"], text)
    except ElementFormatError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["vertex 1", "vertex 2", "vertex 1+", "vertexes 3",
                                 "arrow a : 1 -> 2", "arrow b : 2 -> 1", "arrow e_1 : 1 -> 1",
                                 "arrow a-b : 1 -> 1", "arrow c.d : 2 -> 2", "relation a b",
                                 "relation a", "# comment", "", "arrow c : 1 ->"]), max_size=8))
def test_accepted_quiver_names_read_back(lines):
    try:
        presentation = parse_quiver("\n".join(lines))
    except QuiverFormatError:
        return
    if presentation.is_valid:
        algebra = PathAlgebra(presentation)
        for g in algebra.generators():
            x = algebra.path_element(g)
            assert parse_element(algebra, format_element(x)) == x
