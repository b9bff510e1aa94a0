"""A composite of invertible maps builds its inverse composite when
`inverse` is first read, and a recomposition builds none."""

import random
import sys

import pytest

from stringalg.decompose import Decomposition, decompose_general
from stringalg.morphisms import Endomorphism, parse_endomorphism, verify_endomorphism

from conftest import SOURCES, make_algebra
from factories import random_exponential, random_inner
from test_compose import _criterion_5_items


@pytest.fixture
def raw_calls(monkeypatch):
    """The (self, other) pairs of every Endomorphism._compose_raw call."""
    calls = []
    raw = Endomorphism._compose_raw
    monkeypatch.setattr(Endomorphism, "_compose_raw",
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
        assert dec.compose() == f
        assert len(raw_calls) == len(dec.factors) - 1
        kinds.add(len(dec.factors))
        single = Decomposition(dec.factors[-1:])
        assert single.compose() is dec.factors[-1].endomorphism
        assert len(raw_calls) == len(dec.factors) - 1
    assert kinds == {3, 4}    # with and without a leading graded factor


def test_composite_inverse_is_built_on_first_read(raw_calls):
    rng = random.Random(5)
    for name in ("two_cycle_rel", "cycle_pendant", "cycle_with_diamond", "two_loops"):
        algebra = make_algebra(SOURCES[name])
        a, b = random_exponential(rng, algebra), random_inner(rng, algebra)
        c = random_exponential(rng, algebra)
        raw_calls.clear()
        inner = a.compose(b)
        f = inner.compose(c)      # inner is invertible: its inverse is not built
        assert len(raw_calls) == 2
        eager = c.inverse._compose_raw(inner.inverse)   # builds inner's inverse
        assert len(raw_calls) == 4
        g = f.inverse             # c^-1 after b^-1 after a^-1
        assert len(raw_calls) == 6
        assert f.inverse is g and g.inverse is f and len(raw_calls) == 6
        assert g == eager and g.certified
        verify_endomorphism(Endomorphism(algebra, g.vertex_images, g.arrow_images))
        assert f.compose(g).is_identity() and g.compose(f).is_identity(), name


def test_inverse_of_a_composite_longer_than_the_recursion_limit():
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    e = random_exponential(random.Random(3), algebra)
    assert not e.is_identity()
    f = e
    for _ in range(sys.getrecursionlimit()):
        f = f.compose(e)
    assert f.compose(f.inverse).is_identity()


def test_a_part_without_inverse_gives_a_composite_without_one(raw_calls):
    rng = random.Random(9)
    algebra = make_algebra(SOURCES["cycle_pendant"])
    a = random_exponential(rng, algebra)
    plain = Endomorphism(algebra, a.vertex_images, a.arrow_images, certified=True)
    raw_calls.clear()
    assert a.compose(plain).inverse is None
    assert plain.compose(a).inverse is None
    assert len(raw_calls) == 2
