"""Element arithmetic, basis enumeration, and the element text format."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from stringalg import Path, algebra as algebra_module, format_element, parse_element
from stringalg.errors import CapExceededError, ElementFormatError

from conftest import FREE_LOOP, SOURCES, TWO_CYCLE_REL, make_algebra


def test_ideal_membership(ex_string):
    assert ex_string.in_ideal(Path.of(("a", "b", "a", "b")))
    assert not ex_string.in_ideal(Path.of(("a", "b", "a")))
    assert not ex_string.in_ideal(Path.stationary("1"))


def test_non_composable_path_is_zero(ex_string):
    # the path algebra has no such path: a.a would pass through 1 -> 2 then 1
    assert ex_string.in_ideal(Path.of(("a", "a")))
    assert ex_string.element({Path.of(("a", "a")): 1}).is_zero


def test_multiply_concatenates(ex_string):
    a, b = ex_string.arrow("a"), ex_string.arrow("b")
    assert a * b == ex_string.path_element(("a", "b"))
    assert b * a == ex_string.path_element(("b", "a"))
    assert ((a * b) * (a * b)).is_zero


def test_multiply_with_stationary_parts(ex_string):
    # (e_1 + a)(e_2 + b) = a + ab: e_1 e_2 = 0 and e_1 b = 0
    lhs = (ex_string.stationary("1") + ex_string.arrow("a")) * \
          (ex_string.stationary("2") + ex_string.arrow("b"))
    assert lhs == ex_string.arrow("a") + ex_string.path_element(("a", "b"))


def test_enumerate_basis_examples(ex_string, poly_ring, kronecker):
    assert [str(p) for p in ex_string.enumerate_basis(4)] == [
        "e_1", "e_2", "a", "b", "a.b", "b.a", "a.b.a", "b.a.b"]
    assert [str(p) for p in poly_ring.enumerate_basis(3)] == [
        "e_v", "x", "x.x", "x.x.x"]
    assert [str(p) for p in kronecker.enumerate_basis(2)] == [
        "e_1", "e_2", "a", "b"]


def test_dimension_examples(ex_string, poly_ring, cycle_free, kronecker):
    assert ex_string.is_finite_dimensional() == (True, 8)
    assert poly_ring.is_finite_dimensional() == (False, None)
    assert cycle_free.is_finite_dimensional() == (False, None)
    assert kronecker.is_finite_dimensional() == (True, 4)


def _structure_constant_table(algebra, basis):
    table = {}
    for p in basis:
        for q in basis:
            table[(p, q)] = algebra.concat(p, q)
    return table


def _random_element(rng, algebra, basis, size=3):
    terms = {}
    for p in rng.sample(basis, min(size, len(basis))):
        terms[p] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return algebra.element(terms)


def test_multiplication_agrees_with_brute_force_table():
    # oracle: a full structure-constant table built by direct concatenation
    rng = random.Random(7)
    for name in ("two_cycle_rel", "kronecker", "two_loops", "cycle_pendant"):
        algebra = make_algebra(SOURCES[name])
        basis = algebra.enumerate_basis(8)
        assert len(basis) <= 64
        table = _structure_constant_table(algebra, basis)
        for _ in range(25):
            x = _random_element(rng, algebra, basis)
            y = _random_element(rng, algebra, basis)
            expected = {}
            for p, c in x.terms.items():
                for q, d in y.terms.items():
                    r = table[(p, q)]
                    if r is not None:
                        expected[r] = expected.get(r, Fraction(0)) + c * d
            assert x * y == algebra.element(expected)


def test_associativity_on_random_elements():
    rng = random.Random(11)
    for name, source in SOURCES.items():
        algebra = make_algebra(source)
        basis = algebra.enumerate_basis(5)
        for _ in range(10):
            x = _random_element(rng, algebra, basis)
            y = _random_element(rng, algebra, basis)
            z = _random_element(rng, algebra, basis)
            assert (x * y) * z == x * (y * z), name


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_elements_keyed_by_an_equal_path_multiply_alike(name):
    """An element keyed by a pickled, copied or rebuilt path has the same
    products as one keyed by the algebra's own basis path."""
    algebra = make_algebra(SOURCES[name])
    routes = (lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy,
              lambda p: Path.of(p.arrows) if p.arrows else Path.stationary(p.vertex))
    basis = algebra.enumerate_basis(3)
    for p in basis:
        for q in basis:
            expected = (algebra.element({p: 1}) * algebra.element({q: 2})).terms
            for route in routes:
                x = algebra.element({route(p): 1}) * algebra.element({route(q): 2})
                assert x.terms == expected, (name, str(p), str(q))


def test_element_terms_are_the_shared_basis_paths(ex_string):
    x = ex_string.element({Path.of(("a", "b")): 1, Path.stationary("1"): 2,
                           Path.of(("a", "a")): 3})
    shared = (ex_string.stationary("1").sorted_terms()[0][0], ex_string.walk_path("a", 2))
    assert [id(p) for p, _ in x.sorted_terms()] == [id(p) for p in shared]


def test_unit_element():
    for source in SOURCES.values():
        algebra = make_algebra(source)
        one = algebra.one()
        for p in algebra.enumerate_basis(4):
            x = algebra.path_element(p)
            assert one * x == x
            assert x * one == x


def test_products_with_the_shared_one_return_the_other_factor(monkeypatch):
    # the shared one() is 1 by construction: a product with it is the other
    # factor itself; an element that merely equals 1 is multiplied out, into
    # a new element.  Products follow the walks inline, so neither calls concat
    calls = []
    concat = algebra_module.PathAlgebra.concat
    monkeypatch.setattr(algebra_module.PathAlgebra, "concat",
                        lambda algebra, p, q: calls.append((p, q)) or concat(algebra, p, q))
    rng = random.Random(29)
    for name, source in SOURCES.items():
        algebra = make_algebra(source)
        one, basis = algebra.one(), algebra.enumerate_basis(4)
        equal_one = algebra.element(dict(one.terms))
        assert equal_one == one and equal_one is not one
        assert one * one is one
        for x in [algebra.zero()] + [_random_element(rng, algebra, basis)
                                     for _ in range(3)]:
            calls.clear()
            assert x * one is x and one * x is x, name
            assert calls == [], name
            right, left = x * equal_one, equal_one * x
            assert right == x and left == x, name
            assert right is not x and left is not x, name
            assert calls == [], name
    # the shared one of another algebra is still refused
    other = make_algebra(TWO_CYCLE_REL)
    with pytest.raises(ValueError):
        make_algebra(FREE_LOOP).one() * other.one()


def test_grading():
    rng = random.Random(13)
    for name in ("two_cycle_rel", "cycle_with_diamond", "two_loops"):
        algebra = make_algebra(SOURCES[name])
        basis = algebra.enumerate_basis(5)
        for _ in range(10):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            x = _random_element(rng, algebra, basis).degree_part(m)
            y = _random_element(rng, algebra, basis).degree_part(n)
            prod = x * y
            assert prod.is_zero or (prod.min_degree() == prod.max_degree() == m + n)


def test_element_format_round_trip(ex_string):
    cases = [
        "3/2*a.b + 1*e_1",
        "1 - 1*a.b + 1*b.a",
        "0",
        "-2*a + 1/3*b.a.b",
        "1*e_2",
    ]
    for text in cases:
        x = parse_element(ex_string, text)
        assert parse_element(ex_string, format_element(x)) == x


def test_element_format_canonical_unit(ex_string):
    x = parse_element(ex_string, "1*e_1 + 1*e_2 - 1*a.b + 1*b.a")
    assert format_element(x) == "1 - 1*a.b + 1*b.a"


def test_element_parse_juxtaposed_and_middot(ex_string):
    assert parse_element(ex_string, "ab") == ex_string.path_element(("a", "b"))
    assert parse_element(ex_string, "a·b") == ex_string.path_element(("a", "b"))


def test_element_parse_errors(ex_string):
    for bad in ["", "1*q", "2*a.a", "e_9", "1/0*a", "2*", "1*a +", "1*a - -", "1.5*a"]:
        with pytest.raises(ElementFormatError):
            parse_element(ex_string, bad)


def test_consecutive_signs_multiply(ex_string):
    a, b = ex_string.arrow("a"), ex_string.arrow("b")
    assert parse_element(ex_string, "1*a - -3*b") == a + b.scale(3)
    assert parse_element(ex_string, "-1*a + -3*b") == -a - b.scale(3)
    assert parse_element(ex_string, "- - 1*a") == a


def test_element_coefficients_past_the_int_str_limit(ex_string):
    # Python refuses int <-> str conversions past 4,300 digits by default
    num, den = "1" + "0" * 4999 + "7", "3" + "0" * 4998 + "1"
    big = Fraction(10 ** 5000 + 7, 3 * 10 ** 4999 + 1)
    x = ex_string.arrow("a").scale(big) - ex_string.one().scale(big)
    text = format_element(x)
    assert text == f"-{num}/{den} + {num}/{den}*a"
    assert parse_element(ex_string, text) == x


def test_ideal_paths_collapse_to_zero(ex_string):
    assert parse_element(ex_string, "1*a.b.a.b").is_zero


def test_parsing_sums_terms_in_one_pass(monkeypatch):
    # the line quiver a1 ... a4000 with every length-2 path zero
    n = 4000
    source = "\n".join([f"vertex {i}" for i in range(n + 1)]
                       + [f"arrow a{i} : {i - 1} -> {i}" for i in range(1, n + 1)]
                       + [f"relation a{i} a{i + 1}" for i in range(1, n)])
    algebra = make_algebra(source)
    text = " + ".join(f"{i}*a{i}" for i in range(1, n + 1))
    added = []
    add = type(algebra.zero()).__add__
    monkeypatch.setattr(type(algebra.zero()), "__add__",
                        lambda x, y: added.append(1) or add(x, y))
    x = parse_element(algebra, text)
    assert not added
    assert x == algebra.element({Path.of((f"a{i}",)): i for i in range(1, n + 1)})
    # a term that cancels leaves the sum, and comes back at its end, as with +
    a, b = algebra.arrow("a1"), algebra.arrow("a2")
    y = parse_element(algebra, "1*a1 + 2*a2 - 1*a1 + 1/2*a1 + 1/2*a1")
    assert list(y.terms.items()) == list((a + b.scale(2) - a + a.scale(Fraction(1, 2))
                                          + a.scale(Fraction(1, 2))).terms.items())
    assert list(y.terms.items()) == [(Path.of(("a2",)), 2), (Path.of(("a1",)), 1)]
    assert type(y.terms[Path.of(("a1",))]) is int


def test_integral_arithmetic_builds_no_fraction(monkeypatch):
    """Sums and products of elements with integral coefficients stay in ints:
    no Fraction is built on any fixture."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    rng = random.Random(3)
    for name, source in SOURCES.items():
        algebra = make_algebra(source)
        basis = algebra.enumerate_basis(4)
        monkeypatch.setattr(Fraction, "__new__", counting)
        x, y = (algebra.element({p: rng.randint(-5, 5)
                                 for p in rng.sample(basis, min(5, len(basis)))})
                for _ in range(2))
        arrow = algebra.arrow(min(algebra.quiver.arrow_by_name))
        results = [x * y, y * x, x + y, x - y, -x, x.scale(3), 2 * x, x * arrow,
                   (x + algebra.one()) * (y - arrow), algebra.one() * x * algebra.one()]
        monkeypatch.undo()
        assert built == [], name
        assert all(type(c) is int for r in results for c in r.terms.values()), name


@pytest.mark.parametrize("source, listing, size", [
    (FREE_LOOP, lambda algebra: algebra.enumerate_basis(10), 55 + 1),   # x^1..x^10, a
    (TWO_CYCLE_REL, lambda algebra: algebra.radical_paths(), 2 * (1 + 2 + 3)),
])
def test_listing_cap_boundary(monkeypatch, source, listing, size):
    # a listing of exactly the cap's arrows is built; one arrow more is refused
    monkeypatch.setattr(algebra_module, "BASIS_ARROW_CAP", size)
    assert sum(p.length for p in listing(make_algebra(source))) == size
    monkeypatch.setattr(algebra_module, "BASIS_ARROW_CAP", size - 1)
    with pytest.raises(CapExceededError, match=f"hold {size} arrows, past the cap of {size - 1}"):
        listing(make_algebra(source))
