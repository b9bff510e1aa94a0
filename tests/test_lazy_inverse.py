"""A recomposition makes one product per factor boundary and builds no
inverse: a composite carries none."""

import pytest

from stringalg.decompose import Decomposition, decompose_general
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
