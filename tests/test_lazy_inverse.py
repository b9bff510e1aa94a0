"""A recomposition makes one compose call per factor boundary and builds no
inverse: a composite carries none, and a composite with a map built as the
identity *is* the other map and carries that map's `inverse`.  Composing
with such a map makes no product.  The decomposition inverts a unit only
where it has no inverse at hand."""

import collections
import sys

import pytest

from stringalg import decompose
from stringalg.algebra import Element
from stringalg.decompose import GRADED, Decomposition, decompose_general
from stringalg.morphisms import Endomorphism, parse_endomorphism, verify_endomorphism

from conftest import SOURCES, make_algebra
from test_compose import _criterion_5_items


@pytest.fixture
def raw_calls(monkeypatch):
    """The (self, other) pairs of every Endomorphism.compose call."""
    calls = []
    raw = Endomorphism.compose
    monkeypatch.setattr(Endomorphism, "compose",
                        lambda self, other: calls.append((self, other)) or raw(self, other))
    return calls


def test_recomposition_makes_one_product_per_factor_boundary(raw_calls):
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    graded = verify_endomorphism(
        parse_endomorphism(algebra, "map a = 2*a + 1*a.b.a\nmap b = 1/2*b"))
    kinds = set()
    for f in [graded, *_criterion_5_items(12)]:
        dec = decompose_general(f)
        raw_calls.clear()
        g = dec.compose()
        assert g == f and g.inverse is None
        assert len(raw_calls) == len(dec.factors) - 1
        kinds.add(len(dec.factors))
        single = Decomposition(dec.factors[-1:])
        assert single.compose() is dec.factors[-1].endomorphism
        assert len(raw_calls) == len(dec.factors) - 1
    assert kinds == {3, 4}    # with and without a leading graded factor


def test_composing_with_a_marked_identity_makes_no_product(monkeypatch):
    products = []
    mul = Element.__mul__
    monkeypatch.setattr(Element, "__mul__",
                        lambda self, other: products.append(1) or mul(self, other))
    marked = []     # products made by each compose call with a marked side
    raw = Endomorphism.compose

    def compose(self, other):
        before = len(products)
        out = raw(self, other)
        if self.built_identity or other.built_identity:
            marked.append(len(products) - before)
        return out

    monkeypatch.setattr(Endomorphism, "compose", compose)
    for f in _criterion_5_items(12):
        dec = decompose_general(f)
        assert dec.compose() == f
    assert marked and not any(marked)


def test_graded_only_input_recomposes_to_its_graded_factor():
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    f = verify_endomorphism(parse_endomorphism(algebra, "map a = 2*a"))
    dec = decompose_general(f)
    assert dec.factors[0].kind == GRADED
    assert all(factor.is_trivial for factor in dec.factors[1:])
    g = dec.compose()
    assert g is dec.factors[0].endomorphism and g == f
    # the graded factor carries its inverse, and so does the recomposition
    assert g.inverse is not None and g.compose(g.inverse).is_identity()


def test_units_are_inverted_only_where_no_inverse_is_carried(monkeypatch):
    # one invert_unit per infinite-cycle block, one for the vertex
    # correction and one for an inner match the solve finds; the tower's
    # unit is built with its inverse
    callers = collections.Counter()
    invert_unit, solve = decompose.invert_unit, decompose._solve_intertwiner
    matches = []

    def counting(u):
        callers[sys._getframe(1).f_code.co_name] += 1
        return invert_unit(u)

    def solving(images, supports):
        out = solve(images, supports)
        if sys._getframe(1).f_code.co_name == "_solve_inner_match":
            matches.append(out is not None)
        return out

    monkeypatch.setattr(decompose, "invert_unit", counting)
    monkeypatch.setattr(decompose, "_solve_intertwiner", solving)
    matched = 0
    for f in _criterion_5_items(12):
        callers.clear()
        matches.clear()
        decompose_general(f)
        expected = {"_block_unit": len(f.algebra.infinite_cycles()),
                    "decompose_general": 1, "_solve_inner_match": sum(matches)}
        assert callers == collections.Counter(expected)
        assert "_tower_factors" not in callers
        matched += sum(matches)
    assert matched == 1
