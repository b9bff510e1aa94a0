"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they pass."""

import random
import time
from fractions import Fraction

from stringalg.decompose import (ENDPOINT_PRESERVING, EXP_MAXIMAL, INNER,
                                 decompose_general, decompose_string,
                                 outer_class)
from stringalg.maximal import degree_zero_center_dimension
from stringalg.morphisms import (CYCLE, MAXIMAL, exponentiate,
                                 inner_automorphism, invert_unit,
                                 make_derivation, parse_endomorphism,
                                 verify_endomorphism)
from stringalg.polymat import (Poly, PolyMatrix, modified_smith,
                               parse_poly_matrix, smith_elimination_step,
                               _pivot_position)

from conftest import SOURCES, make_algebra
from factories import (derivation_targets, elementary_unit_paths,
                       random_graded_identity_automorphism, random_inner)

# infinite cycle bridged to a second infinite cycle through one radical arrow
TWO_CYCLES_BRIDGE = """
vertex 1
vertex 2
vertex 3
vertex 4
arrow a : 1 -> 2
arrow b : 2 -> 1
arrow c : 3 -> 4
arrow d : 4 -> 3
arrow e : 1 -> 3
relation b e
relation e c
"""

MIXED_SOURCES = ["two_cycle_rel", "cycle_pendant", "cycle_with_diamond"]


def _finish(number, label, start, budget):
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE CRITERION {number}: PASS ({label}; {elapsed:.2f}s)")


def test_criterion_1_worked_matrix_example():
    start = time.monotonic()
    m = parse_poly_matrix(
        "6*x^3 - 4*x^2, -3*x + 2, 9*x^2 - 4;"
        "2*x^2 - 1, -1, 3*x + 2;"
        "2*x^3, -x + 1, 3*x^2 + 2*x")
    i0, j0 = _pivot_position(m)
    assert (i0, j0) == (1, 1)
    _, m1, _ = smith_elimination_step(m, i0, j0)
    assert m1 == parse_poly_matrix(
        "3*x - 2, 0, 0; -1, -1, 0; 2*x^2 + x, 1, 3*x + 2")
    fact = modified_smith(m)
    assert fact.product() == m
    assert fact.U.is_unit_upper_at_zero()
    assert fact.V.is_unit_upper_at_zero()
    _finish(1, "worked 3x3 factorization", start, 1.0)


def test_criterion_2_two_cycle_golden_maps():
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    # (a) conjugation by 1 - ab + ba
    start = time.monotonic()
    u = invert_unit(algebra.parse_element("1 - 1*a.b + 1*b.a"))
    f = inner_automorphism(u)
    assert f.arrow_images["a"] == algebra.parse_element("1*a + 2*a.b.a")
    assert f.arrow_images["b"] == algebra.parse_element("1*b - 2*b.a.b")
    _finish("2a", "conjugation images", start, 1.0)
    # (b) decomposing it gives only a verified inner factor
    start = time.monotonic()
    dec = decompose_string(f)
    assert dec.factor(EXP_MAXIMAL).is_trivial
    assert dec.factor(ENDPOINT_PRESERVING).is_trivial
    inner = dec.factor(INNER)
    assert inner_automorphism(inner.unit) == f
    assert dec.compose() == f
    _finish("2b", "inner map decomposition", start, 1.0)
    # (c) the outer map keeps a nontrivial endpoint-preserving factor
    start = time.monotonic()
    g = verify_endomorphism(parse_endomorphism(algebra, "map a = 1*a + 1*a.b.a"))
    dec = decompose_string(g)
    assert not dec.factor(ENDPOINT_PRESERVING).is_trivial
    assert dec.compose() == g
    _finish("2c", "outer map decomposition", start, 1.0)


def test_criterion_3_factorization_property_suite():
    start = time.monotonic()
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = PolyMatrix([[Poly([Fraction(rng.randint(-9, 9))
                               for _ in range(rng.randint(0, 4) + 1)])
                         for _ in range(n)] for _ in range(n)])
        fact = modified_smith(m)
        assert fact.U.is_unit_upper_at_zero()
        assert fact.V.is_unit_upper_at_zero()
        assert fact.product() == m
        det_m = m.determinant()
        det_d = fact.D.determinant()
        assert det_m == det_d or det_m == -det_d
    _finish(3, "200 random factorizations", start, 30.0)


def test_criterion_4_derivation_exponential_suite():
    start = time.monotonic()
    rng = random.Random(7)
    presentations = list(SOURCES.values()) + [TWO_CYCLES_BRIDGE]
    assert len(presentations) >= 10
    total = 0
    for source in presentations:
        algebra = make_algebra(source)
        targets = derivation_targets(algebra)
        basis = algebra.enumerate_basis(6)
        for _ in range(10):
            if targets:
                picks = rng.sample(targets, min(len(targets), rng.randint(1, 3)))
                d = make_derivation(
                    algebra,
                    [(a, algebra.path_element(p).scale(rng.randint(-3, 3)))
                     for a, p in picks])
            else:
                d = make_derivation(algebra, [])
            total += 1
            # Leibniz on random products of basis paths
            for _ in range(5):
                u = algebra.path_element(rng.choice(basis))
                w = algebra.path_element(rng.choice(basis))
                assert d.apply(u * w) == u * d.apply(w) + d.apply(u) * w
            # maximal-type derivations square to zero
            if MAXIMAL in d.type_tags:
                for p in basis:
                    assert d.apply(d.apply_path(p)).is_zero
            # exponential round trip: exp(d)^-1 = exp(-d)
            f, f_inverse = exponentiate(d), exponentiate(d.negated())
            assert f.compose(f_inverse).is_identity()
            assert f_inverse.compose(f).is_identity()
            # commutation: maximal-type kills and is killed by cycle/maximal
            if MAXIMAL in d.type_tags:
                other = make_derivation(
                    algebra,
                    [(a, algebra.path_element(p)) for a, p in
                     rng.sample(targets, min(len(targets), 2))]) if targets \
                    else make_derivation(algebra, [])
                if other.type_tags & {MAXIMAL, CYCLE}:
                    for p in basis:
                        assert d.apply(other.apply_path(p)).is_zero
                        assert other.apply(d.apply_path(p)).is_zero
    assert total >= 100
    _finish(4, f"{total} derivations on {len(presentations)} presentations",
            start, 60.0)


def test_criterion_5_decomposition_round_trip_suite():
    start = time.monotonic()
    rng = random.Random(11)
    pool = []
    for name in MIXED_SOURCES:
        algebra = make_algebra(SOURCES[name])
        pool.append((algebra, derivation_targets(algebra),
                     elementary_unit_paths(algebra)))
    bridge = make_algebra(TWO_CYCLES_BRIDGE)
    assert len(bridge.infinite_cycles()) == 2
    pool.append((bridge, derivation_targets(bridge),
                 elementary_unit_paths(bridge)))
    for i in range(100):
        algebra, targets, paths = pool[i % len(pool)]
        f = random_graded_identity_automorphism(
            rng, algebra, pieces=3, targets=targets, paths=paths)
        dec = decompose_general(f)
        assert dec.compose() == f
    # pure one-cycle presentations: everything lands in the inner factor
    for name in ("two_cycle_free", "three_cycle_free", "two_loops"):
        algebra = make_algebra(SOURCES[name])
        paths = elementary_unit_paths(algebra)
        for _ in range(5):
            f = random_inner(rng, algebra, paths)
            dec = decompose_general(f)
            assert dec.compose() == f
            assert dec.factor(EXP_MAXIMAL).is_trivial
            assert dec.factor(ENDPOINT_PRESERVING).is_trivial
    _finish(5, "100 mixed + 15 one-cycle round trips", start, 300.0)


def test_criterion_6_structural_assertions():
    start = time.monotonic()
    sources = dict(SOURCES)
    sources["two_cycles_bridge"] = TWO_CYCLES_BRIDGE
    for name, source in sources.items():
        algebra = make_algebra(source)
        # degree-0 center is one-dimensional on every connected presentation
        assert degree_zero_center_dimension(algebra) == 1, name
        # the radical basis generates a nilpotent ideal: products of radical
        # paths die within the dimension bound
        rad = [algebra.path_element(p) for p in algebra.radical_paths()]
        bound = algebra.radical_degree_bound()
        layer = list(rad)
        depth = 1
        while layer:
            depth += 1
            assert depth <= bound + 1, name
            layer = [x * y for x in layer for y in rad if not (x * y).is_zero]
        # partition blocks are two-sided ideals on basis paths up to degree 8
        basis = algebra.enumerate_basis(8)
        cycles = algebra.infinite_cycles()

        def block(path):
            if path.is_stationary:
                return None
            for idx, cyc in enumerate(cycles):
                if path.first_arrow in cyc:
                    return idx
            return -1

        for w in basis:
            if w.is_stationary:
                continue
            wb = block(w)
            we = algebra.path_element(w)
            for u in basis:
                left = algebra.path_element(u) * we
                for p in left.terms:
                    assert block(p) == wb, name
                right = we * algebra.path_element(u)
                for p in right.terms:
                    assert block(p) == wb, name
    _finish(6, f"center, radical, partition on {len(sources)} presentations",
            start, 60.0)


def test_criterion_7_outer_class_goldens():
    start = time.monotonic()
    report = outer_class(make_algebra(SOURCES["kronecker"]))
    assert report.group_description == "GL_2(k)"
    report = outer_class(make_algebra(SOURCES["doubled_three_cycle"]))
    assert report.group_description == "Z/2Z ⋉ (k^x)^6"
    report = outer_class(make_algebra(SOURCES["double_diamond"]))
    assert report.n_parallel_maximal == 2
    assert report.group_description == "(k^x)^6 ⋉ k^2"
    _finish(7, "outer class reports", start, 1.0)
