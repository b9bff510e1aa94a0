"""Maximal-path classification, the arrow partition, radical, and the
central cycle-sum elements."""

import random
from fractions import Fraction

from stringalg import Path, PathAlgebra
from stringalg.maximal import (arrow_partition, classify_maximal, cycle_sum,
                               degree_zero_center_dimension, parallel_maximal,
                               repeat_free_path, rotation_sum)
from stringalg.morphisms import geometric_inverse

from conftest import FREE_LOOP, SOURCES, THREE_CYCLE_FREE, make_algebra
from test_random_presentations import random_presentation
from test_walk_table import LONG_RELATION_SOURCES


def test_repeat_free_path_examples(ex_string, kronecker, poly_ring):
    assert str(repeat_free_path(ex_string, "a")) == "a.b"
    assert str(repeat_free_path(kronecker, "a")) == "a"
    run = repeat_free_path(poly_ring, "x")
    assert str(run) == "x"
    q = poly_ring.quiver
    assert q.path_source(run) == q.path_target(run)


def test_repeat_free_path_is_cycle_when_returning():
    # whenever the arrow supports a returning path, the run is a cycle whose
    # continuation by the arrow survives
    for name, source in SOURCES.items():
        algebra = make_algebra(source)
        for a in algebra.quiver.arrow_by_name:
            z = rotation_sum(algebra, a)
            if z is None:
                continue
            run = repeat_free_path(algebra, a)
            q = algebra.quiver
            assert q.path_source(run) == q.path_target(run), name
            assert not algebra.in_ideal(Path.of(run.arrows + (a,))), name


def test_repeat_free_path_and_rotation_sum_match_the_scan_reference():
    """The run is the walk cut at its first repeated arrow, found by
    scanning the arrows before each; the rotation sum exists exactly when
    the run closes up and goes on by its own arrow outside the ideal."""
    sources = dict(SOURCES, free_loop=FREE_LOOP, **LONG_RELATION_SOURCES)
    algebras = [(name, make_algebra(source)) for name, source in sources.items()]
    rng = random.Random(503)
    algebras += [(f"random {k}", PathAlgebra(random_presentation(rng))) for k in range(300)]
    for name, algebra in algebras:
        q = algebra.quiver
        for a in q.arrow_by_name:
            walk, _ = algebra.presentation.walks[a]
            cut = next((k for k, b in enumerate(walk) if b in walk[:k]), len(walk))
            run = walk[:cut]
            assert repeat_free_path(algebra, a) == Path.of(run), (name, a)
            returns = (q.target(run[-1]) == q.source(a)
                       and not algebra.in_ideal(Path.of(run + (a,))))
            rotations = algebra.element({Path.of(run[i:] + run[:i]): 1
                                         for i in range(len(run))})
            assert rotation_sum(algebra, a) == (rotations if returns else None), (name, a)


def test_classify_maximal_examples(kronecker, poly_ring, cycle_free):
    rep = classify_maximal(kronecker)
    assert [str(p) for p in rep.finite_maximal] == ["a", "b"]
    assert rep.infinite_maximal == ()

    rep = classify_maximal(poly_ring)
    assert rep.finite_maximal == ()
    assert [str(i) for i in rep.infinite_maximal] == ["(x)^inf"]

    rep = classify_maximal(cycle_free)
    assert rep.finite_maximal == ()
    assert len(rep.infinite_maximal) == 1
    assert rep.infinite_maximal[0].arrows == frozenset({"a", "b"})


def test_finite_maximal_is_intersection():
    for source in SOURCES.values():
        rep = classify_maximal(make_algebra(source))
        assert set(rep.finite_maximal) == set(rep.left_maximal) & set(rep.right_maximal)


def test_every_arrow_in_some_maximal_path():
    for name, source in SOURCES.items():
        algebra = make_algebra(source)
        rep = classify_maximal(algebra)
        covered = set()
        for p in rep.finite_maximal:
            covered.update(p.arrows)
        for imp in rep.infinite_maximal:
            covered.update(imp.arrows)
        assert covered == set(algebra.quiver.arrow_by_name), name


def test_partition_examples(ex_string, poly_ring, cycle_pendant):
    part = arrow_partition(ex_string)
    assert part.radical_arrows == ("a", "b")
    assert part.component_arrows == ()

    part = arrow_partition(poly_ring)
    assert part.radical_arrows == ()
    assert part.component_arrows == (("x",),)

    part = arrow_partition(cycle_pendant)
    assert part.radical_arrows == ("c",)
    assert part.component_arrows == (("a", "b"),)
    assert part.component_vertices == (("1", "2"),)


def test_partition_blocks_are_ideals():
    # for a basis path w in one block and basis u, v: u*w*v is zero or in
    # the same block
    for name in ("cycle_pendant", "cycle_with_diamond", "two_loops", "two_cycle_rel"):
        algebra = make_algebra(SOURCES[name])
        basis = [p for p in algebra.enumerate_basis(8)]
        cycles = algebra.infinite_cycles()

        def block(path):
            if path.is_stationary:
                return None
            for i, cyc in enumerate(cycles):
                if path.first_arrow in cyc:
                    return i
            return -1  # radical block

        for w in basis:
            if w.is_stationary:
                continue
            for u in basis:
                for v in basis:
                    prod = algebra.path_element(u) * algebra.path_element(w) \
                        * algebra.path_element(v)
                    for p in prod.terms:
                        assert block(p) == block(w), name


def test_radical_basis_examples(ex_string, poly_ring, cycle_free):
    assert [str(p) for p in ex_string.radical_paths()] == [
        "a", "b", "a.b", "b.a", "a.b.a", "b.a.b"]
    assert poly_ring.radical_paths() == ()
    assert cycle_free.radical_paths() == ()


def test_radical_elements_are_invertible_perturbations():
    # 1 + w*y has a two-sided inverse by a terminating geometric series
    rng = random.Random(3)
    for name in ("two_cycle_rel", "cycle_pendant", "cycle_with_diamond"):
        algebra = make_algebra(SOURCES[name])
        basis = algebra.enumerate_basis(6)
        for w in algebra.radical_paths():
            y = algebra.element({
                p: Fraction(rng.randint(-3, 3))
                for p in rng.sample(basis, min(3, len(basis)))})
            perturbation = algebra.path_element(w) * y
            inv = geometric_inverse(perturbation)
            u = algebra.one() + perturbation
            assert u * inv == algebra.one()
            assert inv * u == algebra.one()


def test_cycle_sum_examples(cycle_free, poly_ring):
    rep = classify_maximal(cycle_free)
    m = cycle_sum(cycle_free, rep.infinite_maximal[0])
    assert m == cycle_free.path_element(("a", "b")) + cycle_free.path_element(("b", "a"))

    rep = classify_maximal(poly_ring)
    assert cycle_sum(poly_ring, rep.infinite_maximal[0]) == poly_ring.arrow("x")

    three = make_algebra(THREE_CYCLE_FREE)
    rep = classify_maximal(three)
    m = cycle_sum(three, rep.infinite_maximal[0])
    assert m == (three.path_element(("a", "b", "c"))
                 + three.path_element(("b", "c", "a"))
                 + three.path_element(("c", "a", "b")))


def test_rotation_sum_examples(ex_string, kronecker, poly_ring):
    z = rotation_sum(ex_string, "a")
    assert z == ex_string.path_element(("a", "b")) + ex_string.path_element(("b", "a"))
    a = ex_string.arrow("a")
    assert a * z == ex_string.path_element(("a", "b", "a"))
    assert (a * z * z).is_zero

    assert rotation_sum(kronecker, "a") is None
    assert rotation_sum(poly_ring, "x") == poly_ring.arrow("x")


def test_rotation_sum_spans_returning_paths():
    # the returning paths through an arrow are spanned by arrow * z^k
    for name in ("two_cycle_rel", "two_loops", "cycle_pendant"):
        algebra = make_algebra(SOURCES[name])
        for a in algebra.quiver.arrow_by_name:
            z = rotation_sum(algebra, a)
            src = algebra.quiver.source(a)
            tgt = algebra.quiver.target(a)
            returning = [p for p in algebra.enumerate_basis(8)
                         if p.length >= 2 and p.first_arrow == a and p.last_arrow == a]
            if z is None:
                assert returning == [], name
                continue
            spanned = []
            power = algebra.arrow(a) * z
            while not power.is_zero and power.min_degree() <= 8:
                spanned.append(power)
                power = power * z
            for p in returning:
                assert any(list(s.terms) == [p] for s in spanned), (name, str(p))


def test_central_elements_commute_with_generators():
    for name, source in SOURCES.items():
        algebra = make_algebra(source)
        rep = classify_maximal(algebra)
        for imp in rep.infinite_maximal:
            m = cycle_sum(algebra, imp)
            for g in algebra.generators():
                ge = algebra.path_element(g)
                assert ge * m == m * ge, name


def test_degree_zero_center_is_one_dimensional():
    for name, source in SOURCES.items():
        assert degree_zero_center_dimension(make_algebra(source)) == 1, name


def test_parallel_maximal_examples(kronecker, double_diamond, ex_string):
    assert str(parallel_maximal(kronecker, "a")) == "b"
    assert str(parallel_maximal(kronecker, "b")) == "a"
    assert str(parallel_maximal(double_diamond, "s")) == "p.q"
    assert str(parallel_maximal(double_diamond, "s2")) == "p2.q2"
    for arrow in ("p", "q", "p2", "q2"):
        assert parallel_maximal(double_diamond, arrow) is None
    for arrow in ("a", "b"):
        assert parallel_maximal(ex_string, arrow) is None


def test_infinite_path_stored_in_canonical_rotation():
    three = make_algebra(THREE_CYCLE_FREE)
    rep = classify_maximal(three)
    cyc = rep.infinite_maximal[0].cycle.arrows
    rotations = [tuple(cyc[i:] + cyc[:i]) for i in range(len(cyc))]
    assert cyc == min(rotations)
