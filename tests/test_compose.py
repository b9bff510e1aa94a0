"""Composition along the walk, the conjugation fast path, and the
certificates the decomposition pipeline no longer re-checks.

A path's image is built from the image of its prefix one arrow shorter,
reusing the prefixes of the current call; the reference here is the plain
product of the arrow images.  Maps composed from certified pieces are not
re-certified inside the pipeline, so every returned factor is certified
again here, and a wrong factor must still be caught by the exact
recomposition check.
"""

import random

import pytest

from stringalg import decompose
from stringalg.decompose import decompose_general
from stringalg.errors import DecompositionError, NotAUnitError
from stringalg.morphisms import (Endomorphism, Unit, inner_automorphism,
                                 invert_unit, parse_endomorphism,
                                 verify_endomorphism)

from conftest import SOURCES, make_algebra
from factories import (derivation_targets, elementary_unit_paths,
                       random_graded_identity_automorphism, random_inner)
from test_acceptance import MIXED_SOURCES, TWO_CYCLES_BRIDGE
from test_walk_table import _algebras


def _arrow_by_arrow(f, path):
    if path.is_stationary:
        return f.vertex_images[path.vertex]
    out = f.arrow_images[path.arrows[0]]
    for a in path.arrows[1:]:
        out = out * f.arrow_images[a]
    return out


def _plain(f):
    """The same generator images, with no unit to take the fast path."""
    return Endomorphism(f.algebra, f.vertex_images, f.arrow_images,
                        certified=f.certified)


def test_path_images_follow_the_walk():
    rng = random.Random(307)
    for name, algebra in _algebras():
        f = random_graded_identity_automorphism(rng, algebra, pieces=2)
        basis = algebra.enumerate_basis(8)
        memo = {}
        for p in basis:
            expected = _arrow_by_arrow(f, p)
            assert f.image_of_path(p) == expected, (name, str(p))
            assert f.image_of_path(p, memo) == expected, (name, str(p))
        # the shared memo serves the longest paths again, now from the memo
        for p in reversed(basis):
            assert f.image_of_path(p, memo) == _arrow_by_arrow(f, p), (name, str(p))


def test_conjugation_fast_path_matches_generic_composite():
    rng = random.Random(311)
    for name in ("two_cycle_rel", "cycle_pendant", "cycle_with_diamond", "two_loops"):
        algebra = make_algebra(SOURCES[name])
        paths = elementary_unit_paths(algebra)
        for _ in range(4):
            f = random_graded_identity_automorphism(rng, algebra, pieces=2)
            conj = random_inner(rng, algebra, paths)
            assert conj.unit is not None and conj.inverse is None
            conj_inverse = inner_automorphism(conj.unit.swapped())
            plain, plain_inverse = _plain(conj), _plain(conj_inverse)
            fast, generic = conj.compose(f), plain.compose(f)
            assert fast == generic, name
            assert conj_inverse.compose(f) == plain_inverse.compose(f), name
            assert conj.compose(conj_inverse).is_identity(), name
            assert conj_inverse.compose(conj).is_identity(), name


def test_inner_automorphism_does_not_check_its_unit_again(monkeypatch):
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    unit = invert_unit(algebra.one() + algebra.parse_element("2*a.b"))
    checked = []
    post_init = Unit.__post_init__
    monkeypatch.setattr(Unit, "__post_init__",
                        lambda self: checked.append(self) or post_init(self))
    f, f_inverse = inner_automorphism(unit), inner_automorphism(unit.swapped())
    assert checked == []
    assert f.unit is unit and f.inverse is None
    assert (f_inverse.unit.value, f_inverse.unit.inverse) == (unit.inverse, unit.value)
    assert f.compose(f_inverse).is_identity()
    assert f_inverse.compose(f).is_identity()


def _criterion_5_items(count):
    """The first `count` automorphisms of the criterion-5 stream (seed 11)."""
    rng = random.Random(11)
    pool = []
    for source in [SOURCES[name] for name in MIXED_SOURCES] + [TWO_CYCLES_BRIDGE]:
        algebra = make_algebra(source)
        pool.append((algebra, derivation_targets(algebra),
                     elementary_unit_paths(algebra)))
    for i in range(count):
        algebra, targets, paths = pool[i % len(pool)]
        yield random_graded_identity_automorphism(
            rng, algebra, pieces=3, targets=targets, paths=paths)


def test_returned_factors_pass_certification():
    for i, f in enumerate(_criterion_5_items(30)):
        dec = decompose_general(f)
        for factor in dec.factors:
            g = factor.endomorphism
            verify_endomorphism(g)
            if g.inverse is not None:
                verify_endomorphism(g.inverse)
                assert g.compose(g.inverse).is_identity(), (i, factor.kind)


def _twist(algebra):
    """A unit 1 + p, p an elementary radical path, whose conjugation moves
    something."""
    return next(unit for unit in (invert_unit(algebra.one() + algebra.path_element(p))
                                  for p in elementary_unit_paths(algebra))
                if not inner_automorphism(unit).is_identity())


def wrong_unit_tower(monkeypatch):
    """Make the tower's inner factor conjugate by a unit off by one radical
    path, so that the factors no longer recompose the input."""
    tower_factors = decompose._tower_factors

    def wrong(d, rho, word, unit):
        twist = _twist(unit.value.algebra)
        return tower_factors(d, rho, word, Unit(unit.value * twist.value,
                                                twist.inverse * unit.inverse))

    monkeypatch.setattr(decompose, "_tower_factors", wrong)


def wrong_block_unit(monkeypatch, arrow):
    """Make every intertwiner solve return its unit times 1 + arrow, for an
    arrow whose square is zero: still a unit, but not central, so the
    product does not conjugate as the solved unit does."""
    solve = decompose._solve_intertwiner

    def wrong(images, supports):
        u = solve(images, supports)
        return u * (u.algebra.one() + u.algebra.arrow(arrow))

    monkeypatch.setattr(decompose, "_solve_intertwiner", wrong)


def test_wrong_inner_factor_fails_recomposition(monkeypatch):
    f = next(iter(_criterion_5_items(1)))
    wrong_unit_tower(monkeypatch)
    with pytest.raises(DecompositionError, match="recomposition"):
        decompose_general(f)


def test_wrong_carried_inverse_fails_unit_verification(monkeypatch):
    # the tower's unit carries its inverse, built next to it rather than by
    # invert_unit; an inverse off by one radical path fails the Unit check
    f = next(iter(_criterion_5_items(1)))
    radical_tower = decompose._radical_tower

    def wrong(g):
        d, rho, word, u, u_inverse = radical_tower(g)
        p = g.algebra.radical_paths()[0]
        return d, rho, word, u, u_inverse + g.algebra.path_element(p)

    monkeypatch.setattr(decompose, "_radical_tower", wrong)
    with pytest.raises(NotAUnitError, match="^inverse verification failed$"):
        decompose_general(f)


def _identities(algebra):
    """The identity as built, and an equal map that carries no mark."""
    identity = Endomorphism.identity(algebra)
    return [identity, _plain(identity)]


@pytest.mark.parametrize("name", ["two_cycle_rel", "kronecker", "cycle_pendant",
                                  "cycle_with_diamond", "double_diamond"])
def test_wrong_inner_factor_fails_recomposition_of_the_identity(monkeypatch, name):
    # every factor of the identity's decomposition is built as the identity,
    # so composing them skips every product: recomposition is the one wrong
    # factor, still compared with the input
    algebra = make_algebra(SOURCES[name])
    for f in _identities(algebra):
        assert all(factor.endomorphism.built_identity
                   for factor in decompose_general(f).factors), name
    wrong_unit_tower(monkeypatch)
    for f in _identities(algebra):
        with pytest.raises(DecompositionError,
                           match="^recomposition does not reproduce the input$"):
            decompose_general(f)


def test_no_factor_is_the_input():
    # so that the recomposition check never compares the input with itself
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    graded = verify_endomorphism(parse_endomorphism(algebra, "map a = 2*a"))
    inputs = [graded, *_criterion_5_items(30)]
    for name in MIXED_SOURCES:
        inputs += _identities(make_algebra(SOURCES[name]))
    for f in inputs:
        assert all(factor.endomorphism is not f for factor in decompose_general(f).factors)
