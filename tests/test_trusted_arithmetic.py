"""The ring operations build their results without validating the terms
again; on random elements they must give what validated construction gives
from the same terms, and leave their operands and the shared generator
elements as they were."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stringalg import Element, Path  # noqa: E402

from conftest import SOURCES, make_algebra  # noqa: E402

# relations that kill products (two_cycle_rel, cycle_pendant), a surviving
# cycle (two_loops), parallel arrows (kronecker) and a one-loop free algebra
ALGEBRAS = {name: make_algebra(SOURCES[name])
            for name in ("two_cycle_rel", "kronecker", "two_loops", "cycle_pendant",
                         "double_diamond", "one_loop")}
BASES = {name: algebra.enumerate_basis(5) for name, algebra in ALGEBRAS.items()}

coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def element_pairs(draw):
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    algebra = ALGEBRAS[name]

    def element():
        paths = draw(st.lists(st.sampled_from(BASES[name]), max_size=6, unique=True))
        return Element(algebra, {p: draw(coefficients) for p in paths})

    return element(), element()


def _join(algebra, p, q):
    """p followed by q in the path algebra before the ideal, or None when
    they do not meet; the ideal is left to validated construction."""
    quiver = algebra.quiver
    if quiver.path_target(p) != quiver.path_source(q):
        return None
    if p.is_stationary or q.is_stationary:
        return q if p.is_stationary else p
    return Path.of(p.arrows + q.arrows)


def _canonical(a):
    """The one form of a coefficient: a nonzero int, or a Fraction that is
    not integral."""
    return (type(a) is int and a != 0) or (type(a) is Fraction and a.denominator != 1)


def _validated(x):
    """The same terms through the validating constructor."""
    return Element(x.algebra, x.terms)


def _product(algebra, x, y):
    terms = {}
    for p, a in x.terms.items():
        for q, b in y.terms.items():
            r = _join(algebra, p, q)
            if r is not None:
                terms[r] = terms.get(r, 0) + a * b
    return Element(algebra, terms)


def _sum(algebra, x, y, sign):
    terms = dict(x.terms)
    for p, b in y.terms.items():
        terms[p] = terms.get(p, 0) + sign * b
    return Element(algebra, terms)


@settings(max_examples=150, deadline=None)
@given(element_pairs(), coefficients | st.integers(-3, 3))
def test_trusted_operations_match_validated_construction(pair, c):
    x, y = pair
    algebra = x.algebra
    arrow = algebra.arrow(min(algebra.quiver.arrow_by_name))
    shared = [algebra.zero(), algebra.one(), arrow]
    before = [dict(e.terms) for e in (x, y, *shared)]
    cases = [
        (x + y, _sum(algebra, x, y, 1)),
        (x - y, _sum(algebra, x, y, -1)),
        (-x, Element(algebra, {p: -a for p, a in x.terms.items()})),
        (x * y, _product(algebra, x, y)),
        (x * arrow, _product(algebra, x, arrow)),
        (arrow * x, _product(algebra, arrow, x)),
        (algebra.one() * x, x),
        (x.scale(c), Element(algebra, {p: c * a for p, a in x.terms.items()})),
        (x - x, algebra.zero()),
        (x + (-x), algebra.zero()),
        (x.scale(0), algebra.zero()),
    ] + [(x.degree_part(n), Element(algebra, {p: a for p, a in x.terms.items()
                                              if p.length == n}))
         for n in range(4)]
    for i, (got, expected) in enumerate(cases):
        assert got == expected, i
        assert got.terms == _validated(got).terms, i
        assert all(_canonical(a) for a in got.terms.values()), i
    assert [dict(e.terms) for e in (x, y, *shared)] == before
    assert algebra.one() is shared[1]
    assert algebra.arrow(min(algebra.quiver.arrow_by_name)) is arrow


def test_products_into_the_ideal_cancel_to_zero():
    algebra = ALGEBRAS["two_cycle_rel"]
    ab = algebra.path_element(("a", "b"))
    assert (ab * ab).is_zero and (ab * ab).terms == {}
    # a.b.a survives; a.b.a * b is a relation and vanishes
    x = algebra.path_element(("a", "b", "a")) + algebra.arrow("a")
    assert x * algebra.arrow("b") == ab
    assert algebra.arrow("a").terms == {Path.of(("a",)): 1}


def test_integral_coefficients_are_stored_as_int():
    algebra = ALGEBRAS["two_cycle_rel"]
    p = Path.of(("a", "b"))
    half = Element(algebra, {p: Fraction(1, 2)})
    for x in (Element(algebra, {p: Fraction(4, 2)}), half + half,
              half.scale(Fraction(4)), half * algebra.one().scale(2)):
        assert all(type(a) is int for a in x.terms.values()), x
    assert (half + half).terms == {p: 1} and type(half.terms[p]) is Fraction
    assert Element(algebra, {p: Fraction(4, 2)}).terms == {p: 2}
    assert type(half.coefficient(Path.of(("b",)))) is int
