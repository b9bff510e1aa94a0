"""Endomorphism certification, derivations, exponentials, units, and
conjugation."""

import random
import sys
from fractions import Fraction

import pytest

from stringalg import Path, decompose
from stringalg.algebra import Element
from stringalg.errors import (CapExceededError, CertificationError,
                              DerivationError, ElementFormatError, NotAUnitError)
from stringalg.maximal import classify_maximal, rotation_sum
from stringalg.morphisms import (CYCLE, MAXIMAL, OTHER, PARALLEL, Endomorphism,
                                 Unit, exponentiate, format_endomorphism,
                                 geometric_inverse, graded_part,
                                 inner_automorphism, invert_unit,
                                 make_derivation, membership,
                                 parse_derivation, parse_endomorphism,
                                 verify_endomorphism)

from conftest import LOOP_X70, SOURCES, make_algebra
from factories import (derivation_targets, elementary_unit_paths,
                       random_exponential, random_graded_identity_automorphism,
                       random_inner, random_unit_factors, unit_product)
from test_acceptance import TWO_CYCLES_BRIDGE
from test_compose import _criterion_5_items
import reference


def ex46_inner_map(algebra):
    return parse_endomorphism(
        algebra, "map a = 1*a + 2*a.b.a\nmap b = 1*b - 2*b.a.b")


def ex46_outer_map(algebra):
    return parse_endomorphism(algebra, "map a = 1*a + 1*a.b.a")


# -- certification ---------------------------------------------------------


def test_identity_certifies(ex_string):
    assert verify_endomorphism(Endomorphism.identity(ex_string)).certified


def test_ex46_inner_map_certifies(ex_string):
    f = verify_endomorphism(ex46_inner_map(ex_string))
    assert f.certified


def test_wrong_endpoints_rejected(ex_string):
    f = parse_endomorphism(ex_string, "map a = 1*a + 1*a.b")
    with pytest.raises(CertificationError) as err:
        verify_endomorphism(f)
    assert "e_1*f(a)*e_2" in str(err.value)


def test_relation_violation_rejected(ex_string):
    f = parse_endomorphism(ex_string, "map a = 1*a + 1*b.a")
    with pytest.raises(CertificationError):
        verify_endomorphism(f)


def test_vertex_image_violations(ex_string):
    f = parse_endomorphism(ex_string, "map e_1 = 1*e_1 + 1*e_2")
    with pytest.raises(CertificationError):
        verify_endomorphism(f)


@pytest.mark.parametrize("text, message", [
    # moves e_1, so the vertex images are checked by products
    ("map e_1 = 1*e_1 + 1*a", "images of e_1 and e_2 are not orthogonal"),
    # fixes the vertices, so f(a) is checked by the endpoints of its terms
    ("map a = 1*a + 1*b", "e_1*f(a)*e_2 differs from f(a)"),
])
def test_certification_failures_name_the_identity(cycle_free, text, message):
    with pytest.raises(CertificationError) as err:
        verify_endomorphism(parse_endomorphism(cycle_free, text))
    assert str(err.value) == message


@pytest.fixture
def product_callers(monkeypatch):
    """The name of the function making each Element product."""
    callers = []
    mul = Element.__mul__

    def counting(self, other):
        callers.append(sys._getframe(1).f_code.co_name)
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counting)
    return callers


def test_exponential_certification_makes_no_vertex_products(ex_string, product_callers):
    d = make_derivation(ex_string, [("a", ex_string.path_element(("a", "b", "a")))])
    f = exponentiate(d)
    assert f.certified
    # the derivation's own products, then one per arrow after the first of
    # each relation's image, and none for the stationary paths
    relation_products = sum(g.length - 1 for g in ex_string.relations)
    assert relation_products == 6
    assert set(product_callers) == {"apply_path", "image_of_path"}
    assert product_callers.count("image_of_path") == relation_products


# -- graded part and membership ----------------------------------------------


def test_membership_of_identity(ex_string):
    flags = membership(Endomorphism.identity(ex_string))
    assert flags.fixes_vertices and flags.permutes_vertices and flags.graded_identity


def test_graded_part_of_inner_map_is_identity(ex_string):
    f = verify_endomorphism(ex46_inner_map(ex_string))
    assert graded_part(f).is_identity()
    flags = membership(f)
    assert flags.fixes_vertices and flags.graded_identity and flags.permutes_vertices


def test_membership_of_outer_map(ex_string):
    flags = membership(verify_endomorphism(ex46_outer_map(ex_string)))
    assert flags.fixes_vertices and flags.graded_identity


def test_graded_part_of_scaling_map_is_itself(ex_string):
    f = verify_endomorphism(parse_endomorphism(ex_string, "map a = 2*a\nmap b = 3*b"))
    assert graded_part(f) == f
    assert not membership(f).graded_identity


def test_graded_part_of_outer_map_is_identity(ex_string):
    f = verify_endomorphism(ex46_outer_map(ex_string))
    assert graded_part(f).is_identity()


def test_kronecker_swap_permutes_vertices():
    # the arrow algebra has no symmetric story, so use the doubled line
    # swap on the Kronecker-like doubled arrows instead
    algebra = make_algebra(SOURCES["kronecker"])
    f = verify_endomorphism(parse_endomorphism(algebra, "map a = 1*b\nmap b = 1*a"))
    flags = membership(f)
    assert flags.fixes_vertices and flags.permutes_vertices
    assert not flags.graded_identity


def test_vertex_swap_on_symmetric_cycle():
    # the relation-free two-vertex cycle has a vertex-swapping symmetry
    algebra = make_algebra(SOURCES["two_cycle_free"])
    f = verify_endomorphism(parse_endomorphism(
        algebra, "map e_1 = 1*e_2\nmap e_2 = 1*e_1\nmap a = 1*b\nmap b = 1*a"))
    flags = membership(f)
    assert flags.permutes_vertices and not flags.fixes_vertices
    assert not flags.graded_identity


# -- derivations ---------------------------------------------------------------


def test_make_derivation_cycle_type(ex_string):
    d = make_derivation(ex_string, [("a", ex_string.path_element(("a", "b", "a")))])
    assert CYCLE in d.type_tags
    # a.b.a happens to be left maximal here too, so the tags coexist
    assert MAXIMAL in d.type_tags


def test_make_derivation_parallel_type(kronecker):
    d = make_derivation(kronecker, [("a", kronecker.arrow("b"))])
    assert PARALLEL in d.type_tags
    assert CYCLE not in d.type_tags and MAXIMAL not in d.type_tags


def test_make_derivation_maximal_type(double_diamond):
    d = make_derivation(double_diamond, [("s", double_diamond.path_element(("p", "q")))])
    assert MAXIMAL in d.type_tags
    assert PARALLEL in d.type_tags  # p.q is the parallel maximal path of s


def test_make_derivation_rejects_non_parallel(ex_string):
    with pytest.raises(DerivationError) as err:
        make_derivation(ex_string, [("a", ex_string.path_element(("a", "b")))])
    assert "not parallel" in str(err.value)


def test_make_derivation_rejects_condition_violation():
    # b is parallel to a but a is neither right maximal nor ends with b
    algebra = make_algebra("""
vertex 1
vertex 2
vertex 3
arrow a : 1 -> 2
arrow b : 1 -> 2
arrow d : 2 -> 3
relation b d
""")
    assert algebra.presentation.classification == "gentle"
    with pytest.raises(DerivationError) as err:
        make_derivation(algebra, [("b", algebra.arrow("a"))])
    assert "neither right maximal nor ends with b" in str(err.value)


def test_derivation_leibniz_on_relations():
    # targets violating the relation identity are rejected
    algebra = make_algebra(SOURCES["cycle_with_diamond"])
    # c -> c.e is not parallel to c; pick e -> f.g which is valid,
    # then check Leibniz holds on all relations for the built derivation
    d = make_derivation(algebra, [("e", algebra.path_element(("f", "g")))])
    for g in algebra.relations:
        assert d.apply_path(g).is_zero


def test_zero_derivation_carries_all_tags(ex_string):
    d = make_derivation(ex_string, [])
    assert d.type_tags == frozenset({CYCLE, MAXIMAL, PARALLEL})


def test_derivation_self_target_not_nilpotent(ex_string):
    d = make_derivation(ex_string, [("a", ex_string.arrow("a"))])
    assert d.type_tags == frozenset({OTHER})
    with pytest.raises(CapExceededError) as raised:
        exponentiate(d)
    assert str(raised.value) == "derivation is not nilpotent on a within 4 iterations"


# -- exponentials -----------------------------------------------------------------


def test_exponential_of_maximal_type_adds_target(kronecker):
    d = make_derivation(kronecker, [("a", 2 * kronecker.arrow("b"))])
    f = exponentiate(d)
    assert f.arrow_images["a"] == kronecker.arrow("a") + 2 * kronecker.arrow("b")
    assert f.arrow_images["b"] == kronecker.arrow("b")
    # squares to zero, so exp is 1 + d on every basis path
    for p in kronecker.enumerate_basis(3):
        assert d.apply(d.apply_path(p)).is_zero


def test_exponential_of_cycle_type(ex_string):
    d = make_derivation(ex_string, [("a", ex_string.path_element(("a", "b", "a")))])
    f = exponentiate(d)
    assert f.arrow_images["a"] == ex_string.arrow("a") + ex_string.path_element(("a", "b", "a"))
    assert f.inverse is None
    f_inverse = exponentiate(d.negated())
    assert f.compose(f_inverse).is_identity()
    assert f_inverse.compose(f).is_identity()


def test_exponential_of_zero_is_identity(ex_string):
    assert exponentiate(make_derivation(ex_string, [])).is_identity()


def test_exp_inverse_round_trip_randomized():
    rng = random.Random(23)
    for name in ("two_cycle_rel", "double_diamond", "cycle_with_diamond"):
        algebra = make_algebra(SOURCES[name])
        for d in _random_derivations(rng, algebra, 10) + [make_derivation(algebra, [])]:
            # the trusted negation matches a certified -d and undoes itself
            minus = d.negated()
            checked = make_derivation(
                algebra, [(a, -img) for a, img in d.arrow_images.items()])
            assert minus.arrow_images == checked.arrow_images, name
            assert minus.type_tags == checked.type_tags, name
            twice = minus.negated()
            assert twice.arrow_images == d.arrow_images, name
            assert twice.type_tags == d.type_tags, name
            f, f_inverse = exponentiate(d), exponentiate(minus)
            assert f.compose(f_inverse).is_identity(), name
            assert f_inverse.compose(f).is_identity(), name


def _valid_targets(algebra):
    """(arrow, path) pairs usable as single-path derivation targets."""
    report = classify_maximal(algebra)
    q = algebra.quiver
    out = []
    cycle_arrows = algebra.cycle_arrows()
    for a in sorted(q.arrow_by_name):
        z = rotation_sum(algebra, a) if a not in cycle_arrows else None
        if z is not None:
            power = algebra.arrow(a) * z
            while not power.is_zero and power.min_degree() <= 8:
                out.append((a, next(iter(power.terms))))
                power = power * z
        for p in report.finite_maximal:
            if (p.length > 1 and q.path_source(p) == q.source(a)
                    and q.path_target(p) == q.target(a)
                    and p.first_arrow != a and p.last_arrow != a):
                out.append((a, p))
        for p in report.left_maximal:
            if (p.length > 1 and p.last_arrow == a
                    and q.path_source(p) == q.source(a)
                    and q.path_target(p) == q.target(a)):
                out.append((a, p))
    return out


def _random_derivations(rng, algebra, count):
    targets = _valid_targets(algebra)
    out = []
    for _ in range(count):
        if not targets:
            out.append(make_derivation(algebra, []))
            continue
        picks = rng.sample(targets, min(len(targets), rng.randint(1, 3)))
        assignments = [(a, algebra.path_element(p).scale(rng.randint(-3, 3)))
                       for a, p in picks]
        out.append(make_derivation(algebra, assignments))
    return out


def test_maximal_type_compositions_vanish():
    # maximal-type derivations kill the image of any cycle-or-maximal-type
    # derivation, in both orders, on all basis paths of bounded degree
    for name in ("two_cycle_rel", "double_diamond", "cycle_with_diamond"):
        algebra = make_algebra(SOURCES[name])
        rng = random.Random(31)
        ds = _random_derivations(rng, algebra, 8)
        maximal_type = [d for d in ds if MAXIMAL in d.type_tags]
        others = [d for d in ds if CYCLE in d.type_tags or MAXIMAL in d.type_tags]
        for dm in maximal_type:
            for other in others:
                for p in algebra.enumerate_basis(6):
                    assert dm.apply(other.apply_path(p)).is_zero, name
                    assert other.apply(dm.apply_path(p)).is_zero, name


def test_cycle_type_exponentials_fix_vertices_and_shape():
    # compositions of cycle-type exponentials fix vertices and move each
    # arrow inside its own returning paths
    rng = random.Random(37)
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    cycle_ds = [d for d in _random_derivations(rng, algebra, 12)
                if CYCLE in d.type_tags and not d.is_zero]
    assert cycle_ds
    f = Endomorphism.identity(algebra)
    for d in cycle_ds[:3]:
        f = exponentiate(d).compose(f)
    for v in algebra.quiver.vertices:
        assert f.vertex_images[v] == algebra.stationary(v)
    for a in algebra.quiver.arrow_by_name:
        moved = f.arrow_images[a] - algebra.arrow(a)
        for p in moved.terms:
            assert p.first_arrow == a and p.last_arrow == a and p.length >= 2


def test_certified_graded_identity_images_have_shape():
    # vertex images stay inside paths through the vertex, and moved arrow
    # parts are maximal paths parallel to the arrow: built from library
    # constructors this holds by the structure theory
    rng = random.Random(41)
    for name in ("double_diamond", "cycle_with_diamond"):
        algebra = make_algebra(SOURCES[name])
        q = algebra.quiver
        f = Endomorphism.identity(algebra)
        for d in _random_derivations(rng, algebra, 3):
            f = exponentiate(d).compose(f)
        basis6 = algebra.enumerate_basis(8)
        for v in q.vertices:
            for p in f.vertex_images[v].terms:
                passes = p.is_stationary and p.vertex == v
                passes = passes or any(
                    q.source(arrow) == v or q.target(arrow) == v for arrow in p.arrows)
                assert passes, name
        report = classify_maximal(algebra)
        for a in q.arrow_by_name:
            for p in f.arrow_images[a].terms:
                if a in p.arrows:
                    continue
                assert p in report.finite_maximal, name
                assert q.path_source(p) == q.source(a), name
                assert q.path_target(p) == q.target(a), name


def test_degree_floor_on_generators():
    # certified automorphisms never lower the degree of a generator
    rng = random.Random(43)
    for name in ("two_cycle_rel", "cycle_with_diamond"):
        algebra = make_algebra(SOURCES[name])
        f = Endomorphism.identity(algebra)
        for d in _random_derivations(rng, algebra, 3):
            f = exponentiate(d).compose(f)
        for v in algebra.quiver.vertices:
            assert f.vertex_images[v].min_degree() >= 0
        for a in algebra.quiver.arrow_by_name:
            assert f.arrow_images[a].min_degree() >= 1


# -- units and conjugation ---------------------------------------------------------


def test_invert_unit_examples(cycle_free, ex_string):
    one = cycle_free.one()
    # a has x-degree 0: the inverse is the geometric series alone
    assert cycle_free.x_degree(Path.of(("a",))) == 0
    u = invert_unit(one + cycle_free.arrow("a"))
    assert u.inverse == one - cycle_free.arrow("a")

    with pytest.raises(NotAUnitError) as err:
        invert_unit(one + cycle_free.path_element(("a", "b")))
    assert "not invertible" in str(err.value)

    v = invert_unit(ex_string.one()
                    - ex_string.path_element(("a", "b"))
                    + ex_string.path_element(("b", "a")))
    assert v.inverse == (ex_string.one()
                         + ex_string.path_element(("a", "b"))
                         - ex_string.path_element(("b", "a")))


def chained_factors(algebra, lengths):
    """(c, p) pairs, p_j the path of length lengths[j] along the first cycle
    that starts where p_(j-1) stops, so the product of the units 1 + c*p
    reaches the x-degree of all of them together."""
    cyc = algebra.infinite_cycles()[0]
    out, start = [], 0
    for j, length in enumerate(lengths):
        path = Path.of(tuple(cyc[(start + k) % len(cyc)] for k in range(length)))
        out.append((Fraction((-1) ** j * (j + 2)), path))
        start += length
    return out


def reversed_inverse(algebra, factors):
    return unit_product(algebra, [(-c, p) for c, p in reversed(factors)])


@pytest.mark.parametrize("name, lengths", [
    ("two_cycle_free", (5, 7, 5, 7)),
    ("three_cycle_free", (7, 8, 7, 8)),
    ("two_loops", (5, 7, 5, 7)),
    ("cycle_pendant", (5, 7, 5, 7)),
    ("cycle_with_diamond", (5, 7, 5, 7)),
])
def test_inverse_of_elementary_unit_products(name, lengths):
    algebra = make_algebra(SOURCES[name])
    factors = chained_factors(algebra, lengths)
    elementary = elementary_unit_paths(algebra, max_degree=max(lengths))
    assert all(p in elementary for _, p in factors)
    value = unit_product(algebra, factors)
    assert max(algebra.x_degree(p) for p in value.terms) >= 8
    assert invert_unit(value).inverse == reversed_inverse(algebra, factors)
    rng = random.Random(31)
    paths = elementary_unit_paths(algebra, max_degree=12)
    for _ in range(6):
        factors = random_unit_factors(rng, paths, most=5)
        value = unit_product(algebra, factors)
        assert invert_unit(value).inverse == reversed_inverse(algebra, factors), name


def test_inverse_of_radical_and_block_parts_together(cycle_pendant):
    # c is radical, a.b.a lies on the cycle block: the two multiply to zero
    c = cycle_pendant.arrow("c")
    aba = cycle_pendant.path_element(("a", "b", "a"))
    one = cycle_pendant.one()
    assert invert_unit(one + 2 * c + 3 * aba).inverse == one - 2 * c - 3 * aba
    low, low_inverse = (cycle_pendant.element(
        {Path.stationary(v): Fraction(k) ** sign for v, k in zip("123", (2, 5, 7))})
        for sign in (1, -1))
    u = invert_unit(low * (one + 2 * c + 3 * aba))
    assert u.inverse == (one - 2 * c - 3 * aba) * low_inverse


@pytest.mark.parametrize("source, text, block, bound", [
    (SOURCES["two_cycle_free"], "1 + 1*a.b", 0, 1),
    (SOURCES["one_loop"], "1 + 1*x", 0, 0),
    (SOURCES["cycle_pendant"], "1 + 1*c + 2*b.a", 0, 1),
    (TWO_CYCLES_BRIDGE, "1 + 1*c.d + 1*a.b.a", 1, 1),
])
def test_non_unit_names_its_stage_block_and_bound(source, text, block, bound):
    algebra = make_algebra(source)
    with pytest.raises(NotAUnitError) as err:
        invert_unit(algebra.parse_element(text))
    assert str(err.value) == (
        f"invert_unit: block of infinite maximal path {block} is not invertible: "
        f"its inverse series has terms past the x-degree bound {bound}")


def test_invert_unit_requires_nonzero_vertex_coefficients(ex_string):
    with pytest.raises(NotAUnitError) as err:
        invert_unit(ex_string.stationary("1"))
    assert "vanishes at vertex" in str(err.value)


def test_invert_unit_general_degree_zero_part(ex_string):
    x = (2 * ex_string.stationary("1") + 3 * ex_string.stationary("2")
         + ex_string.arrow("a"))
    u = invert_unit(x)
    assert u.value * u.inverse == ex_string.one()


def test_invert_unit_matches_the_normalising_reference(monkeypatch):
    # the units the decomposition inverts on the first 12 criterion-5 items
    # have degree-zero part 1, so invert_unit takes the shared one() as
    # low^-1 and builds no Fraction; the reference always multiplies by a
    # low^-1 built afresh.  Scaled by a vertex torus element they take the
    # general branch
    units = []
    monkeypatch.setattr(decompose, "invert_unit",
                        lambda u: units.append(u) or invert_unit(u))
    for f in _criterion_5_items(12):
        decompose.decompose_general(f)
    monkeypatch.undo()
    assert len(units) > 12 and any(u != u.algebra.one() for u in units)
    built = []
    new = Fraction.__new__
    for u in units:
        algebra = u.algebra
        assert u.degree_part(0) == algebra.one()
        expected = reference.invert_unit(u)
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *args, **kwargs: built.append(args)
                            or new(cls, *args, **kwargs))
        got = invert_unit(u)
        monkeypatch.undo()
        assert (got.value, got.inverse) == (expected.value, expected.inverse)
        torus = algebra.element({Path.stationary(v): k + 2 for k, v in
                                 enumerate(sorted(algebra.quiver.vertices))})
        got, expected = invert_unit(torus * u), reference.invert_unit(torus * u)
        assert (got.value, got.inverse) == (expected.value, expected.inverse)
    assert built == []


def test_inner_automorphism_examples(ex_string, cycle_free):
    u = invert_unit(ex_string.parse_element("1 - 1*a.b + 1*b.a"))
    f = inner_automorphism(u)
    assert f.arrow_images["a"] == ex_string.parse_element("1*a + 2*a.b.a")
    assert f.arrow_images["b"] == ex_string.parse_element("1*b - 2*b.a.b")

    assert inner_automorphism(invert_unit(ex_string.one())).is_identity()

    g = inner_automorphism(invert_unit(cycle_free.one() + cycle_free.arrow("a")))
    assert g.arrow_images["a"] == cycle_free.arrow("a")
    assert g.arrow_images["b"] == cycle_free.parse_element(
        "1*b + 1*b.a - 1*a.b - 1*a.b.a")


def test_conjugation_images_are_built_on_first_read(ex_string, product_callers):
    u = invert_unit(ex_string.parse_element("1 - 1*a.b + 1*b.a"))
    product_callers.clear()
    f = inner_automorphism(u)
    assert product_callers == []
    g = exponentiate(make_derivation(
        ex_string, [("a", ex_string.path_element(("a", "b", "a")))]))
    product_callers.clear()
    f.compose(g)
    assert product_callers and set(product_callers) == {"apply"}
    assert "vertex_images" not in vars(f) and "arrow_images" not in vars(f)
    assert not hasattr(f, "_path_cache")
    product_callers.clear()
    eager_vertices = {v: u.inverse * ex_string.stationary(v) * u.value
                      for v in ex_string.quiver.vertices}
    eager_arrows = {a: u.inverse * ex_string.arrow(a) * u.value
                    for a in ex_string.quiver.arrow_by_name}
    made = len(product_callers)
    assert f.vertex_images == eager_vertices
    assert f.arrow_images == eager_arrows
    assert len(product_callers) == 2 * made
    # read once, then kept
    assert f.arrow_images is f.arrow_images
    assert len(product_callers) == 2 * made


def test_inner_automorphism_requires_unipotent_part(ex_string):
    u = invert_unit(2 * ex_string.one())
    with pytest.raises(NotAUnitError):
        inner_automorphism(u)


def test_geometric_inverse_terminates_on_radical(ex_string):
    y = ex_string.path_element(("a", "b")) - 2 * ex_string.arrow("a")
    inv = geometric_inverse(y)
    assert (ex_string.one() + y) * inv == ex_string.one()


def test_geometric_inverse_cap_on_free_cycle():
    # the longest path of x-degree 0 is one arrow, so the cap is two terms
    algebra = make_algebra(SOURCES["two_cycle_free"])
    assert geometric_inverse(algebra.arrow("a")) == algebra.parse_element("1 - 1*a")
    for text in ("1*a.b", "1*a + 1*b"):    # x-degree 1: the powers never vanish
        with pytest.raises(NotAUnitError, match="geometric series did not terminate"):
            geometric_inverse(algebra.parse_element(text))


def test_geometric_inverse_runs_the_longest_walk():
    # x^70 = 0: the series for 1 + x has 70 terms
    algebra = make_algebra(LOOP_X70)
    x = algebra.arrow("x")
    assert (algebra.one() + x) * geometric_inverse(x) == algebra.one()


def test_format_endomorphism_round_trip(ex_string):
    f = verify_endomorphism(ex46_inner_map(ex_string))
    text = format_endomorphism(f)
    again = parse_endomorphism(ex_string, text)
    assert again == f


def test_parse_derivation(ex_string):
    d = parse_derivation(ex_string, "map a = 1*a.b.a")
    assert d.arrow_images["a"] == ex_string.path_element(("a", "b", "a"))


@pytest.mark.parametrize("parse", [parse_endomorphism, parse_derivation])
def test_duplicate_map_line_is_rejected(ex_string, parse):
    with pytest.raises(ElementFormatError) as err:
        parse(ex_string, "map a = 1*a.b.a\n# again\nmap a = 1*a.b.a\n")
    assert err.value.line == 3
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("parse", [parse_endomorphism, parse_derivation])
def test_map_line_errors_name_their_line(ex_string, parse):
    for text in ["map a = 1*a\nmap b = 2*", "map a = 1*a\nmap b = 1*b +",
                 "map a = 1*a\nmaps b = 1*b", "map a = 1*a\nmap q = 1*b"]:
        with pytest.raises(ElementFormatError) as err:
            parse(ex_string, text)
        assert err.value.line == 2, text


def test_unit_boundary_on_one_loop(poly_ring):
    # no positive-degree perturbation of the identity is invertible when the
    # single loop survives every power
    with pytest.raises(NotAUnitError):
        invert_unit(poly_ring.one() + poly_ring.arrow("x"))


# -- the identity mark -------------------------------------------------------------

MARK_SOURCES = ("two_cycle_rel", "kronecker", "two_loops", "cycle_pendant",
                "cycle_with_diamond", "double_diamond", "doubled_line")


def _built_identities(algebra):
    """The maps built as the identity: by name, as the exponential of the
    zero derivation and as conjugation by the unit 1."""
    one = algebra.one()
    return [Endomorphism.identity(algebra),
            exponentiate(make_derivation(algebra, [])),
            inner_automorphism(one),
            inner_automorphism(Unit(one, one))]


def _seeded_maps(rng, algebra):
    paths = elementary_unit_paths(algebra)
    return [random_exponential(rng, algebra), random_inner(rng, algebra, paths),
            random_graded_identity_automorphism(rng, algebra, pieces=2, paths=paths)]


def test_marked_maps_are_the_identity():
    rng = random.Random(401)
    marked = unmarked = 0
    for name in MARK_SOURCES:
        algebra = make_algebra(SOURCES[name])
        identity = Endomorphism.identity(algebra)
        maps = _seeded_maps(rng, algebra) + _seeded_maps(rng, algebra)
        for f in _built_identities(algebra) + maps:
            if f.built_identity:
                marked += 1
                assert f == identity and f.certified, name
                assert f.vertex_images == identity.vertex_images, name
                assert f.arrow_images == identity.arrow_images, name
            else:
                unmarked += 1
    assert marked and unmarked


def test_nonzero_exponentials_are_never_marked():
    rng = random.Random(409)
    for name in MARK_SOURCES:
        algebra = make_algebra(SOURCES[name])
        targets = derivation_targets(algebra)
        for a, p in rng.sample(targets, min(len(targets), 6)):
            d = make_derivation(algebra, [(a, algebra.path_element(p))])
            assert not exponentiate(d).built_identity, (name, a, str(p))
            assert not exponentiate(d.negated()).built_identity, (name, a, str(p))


def test_conjugation_by_a_unit_other_than_one_is_never_marked(ex_string):
    rng = random.Random(419)
    for name in MARK_SOURCES:
        algebra = make_algebra(SOURCES[name])
        for p in elementary_unit_paths(algebra):
            c = rng.choice((-2, 1, 3))
            unit = invert_unit(algebra.one() + algebra.path_element(p).scale(c))
            assert not inner_automorphism(unit).built_identity, (name, str(p))
    # a central unit conjugates trivially, and is still not marked: the mark
    # comes from how a map is built, never from comparing its images
    cube_zero = make_algebra("vertex v\narrow x : v -> v\nrelation x x x\n")
    for algebra, text in [(ex_string, "1*a.b + 1*b.a"), (cube_zero, "1*x")]:
        z = algebra.parse_element(text)
        assert all(z * algebra.path_element(g) == algebra.path_element(g) * z
                   for g in algebra.generators())
        f = inner_automorphism(invert_unit(algebra.one() + z))
        assert f.is_identity() and not f.built_identity


def test_composing_with_a_marked_map_returns_the_other(product_callers):
    rng = random.Random(421)
    for name in MARK_SOURCES:
        algebra = make_algebra(SOURCES[name])
        maps = _seeded_maps(rng, algebra)
        elements = [algebra.one() + algebra.path_element(p)
                    for p in algebra.enumerate_basis(4)]
        marks = _built_identities(algebra)
        for m in marks:
            product_callers.clear()
            assert m.is_identity()
            for f in maps + marks:
                # a marked map on the left returns the right one
                assert m.compose(f) is f, name
                assert f.compose(m) is (m if f.built_identity else f), name
            for x in elements:
                assert m.apply(x) is x
            for p in algebra.enumerate_basis(4) + list(algebra.relations):
                assert m.apply(p) == algebra.path_element(p)
            assert product_callers == [], name


def test_marked_maps_of_different_algebras_do_not_compose(ex_string):
    rng = random.Random(431)
    other = make_algebra(SOURCES["two_cycle_rel"])
    for m in _built_identities(ex_string):
        for f in _seeded_maps(rng, other) + _built_identities(other):
            with pytest.raises(ValueError, match="different algebras"):
                m.compose(f)
            with pytest.raises(ValueError, match="different algebras"):
                f.compose(m)
