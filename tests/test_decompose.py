"""The decomposition pipeline and the outer-class report."""

import random

import pytest

from stringalg import decompose
from stringalg.decompose import (ENDPOINT_PRESERVING, EXP_MAXIMAL, GRADED,
                                 INNER, decompose_general, decompose_string,
                                 outer_class, peel_maximal,
                                 solve_conjugation_unique_max, _solve_inner_match)
from stringalg import Path, PathAlgebra
from stringalg._linalg import Echelon
from stringalg.errors import CertificationError, DecompositionError, ShapeError
from stringalg.maximal import parallel_maximal
from stringalg.morphisms import (CYCLE, MAXIMAL, Endomorphism, exponentiate,
                                 inner_automorphism, invert_unit, make_derivation,
                                 parse_endomorphism, verify_endomorphism)

from conftest import FREE_LOOP, SOURCES, make_algebra
from factories import (derivation_targets, elementary_unit_paths,
                       random_graded_identity_automorphism, random_graded_symmetric,
                       random_inner, random_unit_factors, unit_product)
from test_compose import _criterion_5_items, wrong_block_unit
from test_random_presentations import random_presentation
import reference


def certified(algebra, text):
    return verify_endomorphism(parse_endomorphism(algebra, text))


# -- peeling ---------------------------------------------------------------


def test_peel_round_trips_maximal_exponential(double_diamond):
    d0 = make_derivation(
        double_diamond, [("s", 2 * double_diamond.path_element(("p", "q")))])
    f = exponentiate(d0)
    d, g = peel_maximal(f)
    assert d.arrow_images["s"] == -2 * double_diamond.path_element(("p", "q"))
    assert g.is_identity()


def test_peel_outer_map_is_untouched(ex_string):
    f = certified(ex_string, "map a = 1*a + 1*a.b.a")
    d, g = peel_maximal(f)
    assert d.is_zero
    assert g == f


def test_peel_leaves_arrow_multiples(double_diamond):
    f = certified(double_diamond, "map s = 1*s + 3*p.q")
    d, g = peel_maximal(f)
    assert not d.is_zero
    for a in double_diamond.quiver.arrow_by_name:
        moved = g.arrow_images[a] - double_diamond.arrow(a)
        assert all(a in p.arrows for p in moved.terms)


def test_peel_rejects_non_graded_identity(kronecker):
    f = certified(kronecker, "map a = 1*a + 1*b")
    with pytest.raises(CertificationError):
        peel_maximal(f)


# -- the finite-dimensional tower ----------------------------------------------


def test_decompose_inner_map_gives_pure_inner(ex_string):
    f = certified(ex_string, "map a = 1*a + 2*a.b.a\nmap b = 1*b - 2*b.a.b")
    dec = decompose_string(f)
    assert dec.factor(EXP_MAXIMAL).is_trivial
    assert dec.factor(ENDPOINT_PRESERVING).is_trivial
    inner = dec.factor(INNER)
    assert not inner.is_trivial
    assert inner_automorphism(inner.unit) == f
    assert dec.compose() == f
    # the recovered unit conjugates identically to the textbook one
    reference = invert_unit(ex_string.parse_element("1 - 1*a.b + 1*b.a"))
    assert inner_automorphism(reference) == f


def test_decompose_outer_map_keeps_endpoint_factor(ex_string):
    f = certified(ex_string, "map a = 1*a + 1*a.b.a")
    dec = decompose_string(f)
    assert not dec.factor(ENDPOINT_PRESERVING).is_trivial
    assert dec.compose() == f


def test_decompose_identity_is_trivial(ex_string):
    dec = decompose_string(Endomorphism.identity(ex_string))
    assert all(f.is_trivial for f in dec.factors)


def test_decompose_string_requires_finite_dimensional(cycle_free):
    with pytest.raises(ShapeError):
        decompose_string(Endomorphism.identity(cycle_free))


def test_decompose_string_requires_vertex_fixing(ex_string):
    f = certified(ex_string, "map a = 2*a\nmap b = 1/2*b")
    with pytest.raises(CertificationError):
        decompose_string(f)


def test_string_factors_are_at_most_one_each(ex_string):
    rng = random.Random(3)
    cycle_paths = elementary_unit_paths(ex_string, cycles_only=True)
    for _ in range(10):
        f = random_graded_identity_automorphism(rng, ex_string, paths=cycle_paths)
        dec = decompose_string(f)
        kinds = [fac.kind for fac in dec.factors]
        assert kinds == [EXP_MAXIMAL, ENDPOINT_PRESERVING, INNER]
        assert dec.compose() == f


def test_non_automorphism_fails_at_the_block_bound(cycle_free, monkeypatch):
    # certified and graded-identity, but not surjective: moving one arrow of
    # the free cycle by a returning path is conjugation by no unit.  A unit
    # would have x-degree at most E = 1, read off a.b.a, so the block's
    # solve draws the batches of x-degree 0 and 1 only
    calls = recorded_solves(monkeypatch)
    f = certified(cycle_free, "map a = 1*a + 1*a.b.a")
    with pytest.raises(DecompositionError, match=(
            r"^intertwiner: no unit conjugates block 0 \(a unit would have "
            r"x-degree at most 1, the x-degree of a\.b\.a in the image of a\)$")):
        decompose_general(f)
    [(_, drawn, u, added, _)] = calls
    assert u is None and len(drawn) == 2
    assert {cycle_free.x_degree(w) for w, _ in added} == {0, 1}


def test_moved_free_loop_block_is_rejected():
    # the block of the loop x is k[x], where conjugation moves nothing:
    # x -> x + x.x is certified but not onto, and no unit conjugates it
    algebra = make_algebra(FREE_LOOP)
    assert algebra.infinite_cycles() == (("x",),)
    for f in (Endomorphism.identity(algebra), certified(algebra, "map a = 1*a")):
        assert all(factor.is_trivial for factor in decompose_general(f).factors)
    f = certified(algebra, "map x = 1*x + 1*x.x")
    with pytest.raises(DecompositionError, match=(
            r"^intertwiner: no unit conjugates block 0 \(a unit would have "
            r"x-degree at most 2, the x-degree of x\.x in the image of x\)$")):
        decompose_general(f)


# -- the one-cycle conjugation solver ----------------------------------------------


def test_solver_round_trips_inner(cycle_free):
    u = invert_unit(cycle_free.one() + cycle_free.arrow("a"))
    f = inner_automorphism(u)
    got = solve_conjugation_unique_max(f)
    assert got.value == u.value
    assert inner_automorphism(got) == f


def test_solver_identity(cycle_free):
    got = solve_conjugation_unique_max(Endomorphism.identity(cycle_free))
    assert got.value == cycle_free.one()


def test_solver_on_random_inners():
    rng = random.Random(9)
    for name in ("two_cycle_free", "three_cycle_free", "two_loops"):
        algebra = make_algebra(SOURCES[name])
        paths = elementary_unit_paths(algebra)
        for _ in range(8):
            f = random_inner(rng, algebra, paths)
            unit = solve_conjugation_unique_max(f)
            assert inner_automorphism(unit) == f, name


def cycle_source(n, doubled):
    """The free n-cycle a_1 ... a_n, or the doubled one with b_i beside a_i
    and the relations a_i b_(i+1) and b_i a_(i+1): two blocks."""
    lines = [f"vertex {i}" for i in range(1, n + 1)]
    for i in range(1, n + 1):
        lines += [f"arrow {x}{i} : {i} -> {i % n + 1}" for x in "ab"[:1 + doubled]]
    if doubled:
        lines += [f"relation {x}{i} {y}{i % n + 1}" for i in range(1, n + 1)
                  for x, y in ("ab", "ba")]
    return "\n".join(lines) + "\n"


def test_block_unit_degree_is_at_most_the_image_bound(monkeypatch):
    # D <= E: the unit of a block has x-degree D at most the top x-degree E
    # of a moved term in the block's cut images, and the solve adds no column
    # past E.  two_loops has one vertex, whose image never moves: E must be
    # read off the arrow images there
    calls = recorded_solves(monkeypatch)
    rng = random.Random(26)
    sources = [cycle_source(n, doubled) for n in range(1, 6) for doubled in (False, True)]
    reached = {}   # per source: the largest D seen
    for source in sources + [SOURCES["two_loops"]]:
        algebra = make_algebra(source)
        paths = elementary_unit_paths(algebra)
        for _ in range(6):
            # a product of up to four units 1 + c*p with p*p = 0
            value = unit_product(algebra, random_unit_factors(rng, paths, most=4))
            f = inner_automorphism(invert_unit(value))
            for index in range(len(algebra.infinite_cycles())):
                calls.clear()
                unit = decompose._block_unit(f, index)
                [(images, drawn, u, added, _)] = calls
                bound = max((algebra.x_degree(p) for g, image in images.items()
                             for p in (image - algebra.path_element(g)).terms),
                            default=0)
                degree = max(algebra.x_degree(p) for p in unit.value.terms)
                assert degree <= bound, (source, index)
                assert len(drawn) <= bound + 1
                assert all(algebra.x_degree(w) <= bound for w, _ in added)
                reached[source] = max(reached.get(source, 0), degree)
    assert reached[SOURCES["two_loops"]] >= 4


def recorded_columns(monkeypatch):
    """Record every column added to an echelon as (unknown, its relation to
    the columns before it, None when it became a pivot)."""
    added = []
    add = Echelon.add

    def recording(self, unknown, column):
        relation = add(self, unknown, column)
        added.append((unknown, relation))
        return relation

    monkeypatch.setattr(Echelon, "add", recording)
    return added


def recorded_solves(monkeypatch):
    """Record every intertwiner solve as (images, the support batches it
    drew, its unit or None, the columns it added, whether a block made it:
    a block passes its degrees lazily, the radical-path solve one list)."""
    calls = []
    added = recorded_columns(monkeypatch)
    solve = decompose._solve_intertwiner

    def recording(images, supports):
        drawn, start = [], len(added)

        def drawing():
            for batch in supports:
                drawn.append(list(batch))
                yield batch

        u = solve(images, drawing())
        calls.append((images, drawn, u, added[start:], not isinstance(supports, list)))
        return u

    monkeypatch.setattr(decompose, "_solve_intertwiner", recording)
    return calls


def maps_on_cycles():
    """Graded-identity automorphisms with blocks to solve: three on each of
    the fixtures and then seeded random presentations with an infinite
    maximal path, 30 algebras in all, and the first 30 criterion-5 mixed
    items."""
    rng = random.Random(17)
    algebras = [make_algebra(source) for source in SOURCES.values()]
    algebras += [PathAlgebra(random_presentation(rng)) for _ in range(100)]
    algebras = [a for a in algebras if a.infinite_cycles() and not a.is_polynomial_ring]
    for algebra in algebras[:30]:
        targets, paths = derivation_targets(algebra), elementary_unit_paths(algebra)
        for _ in range(3):
            yield random_graded_identity_automorphism(rng, algebra, targets=targets,
                                                      paths=paths)
    yield from _criterion_5_items(30)


def test_growing_solve_matches_the_reference(monkeypatch):
    # one growing echelon gives the from-scratch solve's unit at the same least
    # degree, reducing each support column once; a block's columns are
    # never dependent
    calls = recorded_solves(monkeypatch)
    for f in maps_on_cycles():
        before = len(calls)
        assert decompose_general(f).compose() == f
        for images, drawn, u, columns, block in calls[before:]:
            algebra = next(iter(images.values())).algebra
            for degree, batch in enumerate(drawn):
                assert batch == sorted(batch)
                assert {algebra.x_degree(p) for p in batch} <= {degree}
            assert reference.least_degree_unit(images, drawn) == \
                ((None, None) if u is None else (u, len(drawn) - 1))
            assert [w for w, _ in columns] == [w for batch in drawn for w in batch]
            assert not block or all(relation is None for _, relation in columns)
    blocks = [len(drawn) for _, drawn, _, _, block in calls if block]
    assert len(blocks) > 100 and max(blocks) >= 5 and len(calls) > len(blocks)


def test_largest_criterion_5_block_matches_the_reference(monkeypatch):
    # item 81 of the criterion-5 stream holds its largest block system: the
    # one growing echelon, whatever row it pivots on, gives the from-scratch
    # solve's unit at the same least degree
    f = list(_criterion_5_items(82))[81]
    calls = recorded_solves(monkeypatch)
    assert decompose_general(f).compose() == f
    assert [len(drawn) for _, drawn, _, _, block in calls if block] == [9]
    for images, drawn, u, _, _ in calls:
        assert reference.least_degree_unit(images, drawn) == \
            ((None, None) if u is None else (u, len(drawn) - 1))


def test_dependent_column_keeps_coefficient_zero(monkeypatch):
    # conjugation by a unit of a finite-dimensional algebra, solved on its
    # radical paths: central radical paths have dependent columns
    added = recorded_columns(monkeypatch)
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    unit = invert_unit(algebra.one() + 2 * algebra.arrow("a") - algebra.arrow("b"))
    images = {g: inner_automorphism(unit).image_of_path(g) for g in algebra.generators()}
    support = algebra.radical_paths()
    u = decompose._solve_intertwiner(images, [support])
    assert inner_automorphism(invert_unit(u)) == inner_automorphism(unit)
    dependent = [w for w, relation in added if relation is not None]
    assert dependent and len(added) == len(support)
    assert all(w not in u.terms for w in dependent)
    # the same support in reverse order solves with other free unknowns
    added.clear()
    v = decompose._solve_intertwiner(images, [support[::-1]])
    assert inner_automorphism(invert_unit(v)) == inner_automorphism(unit)
    assert all(w not in v.terms for w, relation in added if relation is not None)


def test_bucketed_columns_match_the_all_pairs_build(monkeypatch):
    # on every block system of the first 12 criterion-5 items, reading each
    # support path's two buckets gives the columns of trying every image
    # term against it, and the same unit as the from-scratch solve
    calls = recorded_solves(monkeypatch)
    for f in _criterion_5_items(12):
        decompose_general(f)
    blocks = [(images, drawn, u) for images, drawn, u, _, block in calls if block]
    assert len(blocks) >= 12
    for images, drawn, u in blocks:
        generators = list(images)
        column = decompose._intertwiner_columns(images)
        for w in (w for batch in drawn for w in batch):
            assert {(generators[k], p): c for (k, p), c in column(w).items()} == \
                reference.intertwiner_column(images, w)
        assert reference.least_degree_unit(images, drawn)[0] == u


def _after(algebra, p):
    """The arrows that extend the nonstationary basis path p to a basis
    path, read off the ideal: at most one in a string algebra."""
    return {b.name for b in algebra.quiver.arrows
            if not algebra.in_ideal(Path.of(p.arrows + (b.name,)))}


def test_solve_offers_concat_only_pairs_that_can_meet(monkeypatch):
    # inside the intertwiner solve, concat(w, p) is called only for p
    # stationary at w's target or starting with the arrow after w
    offered, solving = [], []
    concat, solve = PathAlgebra.concat, decompose._solve_intertwiner

    def counted(algebra, p, q):
        if solving:
            offered.append((algebra, p, q))
        return concat(algebra, p, q)

    def flagged(images, supports):
        solving.append(True)
        try:
            return solve(images, supports)
        finally:
            solving.pop()

    monkeypatch.setattr(PathAlgebra, "concat", counted)
    monkeypatch.setattr(decompose, "_solve_intertwiner", flagged)
    for f in _criterion_5_items(12):
        decompose_general(f)
    assert len(offered) > 500
    for algebra, p, q in offered:
        if q.is_stationary:
            assert q.vertex == algebra.quiver.path_target(p)
        else:
            assert not p.is_stationary and q.first_arrow in _after(algebra, p)
            assert algebra.next_arrow(p) == q.first_arrow
    assert sum(concat(a, p, q) is None for a, p, q in offered) < len(offered) / 5


def test_wrong_block_unit_is_caught(monkeypatch, cycle_free):
    # _block_unit does not check its conjugation: decompose_general finds a
    # cycle arrow moved after the block correction, and
    # solve_conjugation_unique_max compares the conjugation with its input
    f = certified(cycle_free, "map e_1 = 1*e_1 - 2*b.a.b\nmap e_2 = 1*e_2 + 2*b.a.b\n"
                  "map a = 1*a + 2*a.b.a.b - 2*b.a.b.a - 4*b.a.b.a.b.a.b")
    assert decompose_general(f).compose() == f
    assert inner_automorphism(solve_conjugation_unique_max(f)) == f
    wrong_block_unit(monkeypatch, "a")
    with pytest.raises(DecompositionError, match="^block correction left arrow a moved$"):
        decompose_general(f)
    with pytest.raises(DecompositionError, match="^conjugation verification failed$"):
        solve_conjugation_unique_max(f)


def test_solver_rejects_polynomial_ring(poly_ring):
    with pytest.raises(ShapeError):
        solve_conjugation_unique_max(Endomorphism.identity(poly_ring))


# -- the general pipeline -----------------------------------------------------------


def test_general_matches_string_on_string_algebras(ex_string):
    rng = random.Random(11)
    cycle_paths = elementary_unit_paths(ex_string, cycles_only=True)
    for _ in range(5):
        f = random_graded_identity_automorphism(rng, ex_string, paths=cycle_paths)
        dec_s = decompose_string(f)
        dec_g = decompose_general(f)
        assert dec_g.compose() == f
        assert [fac.kind for fac in dec_g.factors] == \
            [fac.kind for fac in dec_s.factors]


def test_general_pure_cycle_returns_single_inner():
    rng = random.Random(13)
    for name in ("two_cycle_free", "three_cycle_free", "two_loops"):
        algebra = make_algebra(SOURCES[name])
        paths = elementary_unit_paths(algebra)
        for _ in range(6):
            f = random_inner(rng, algebra, paths)
            dec = decompose_general(f)
            assert dec.compose() == f
            assert dec.factor(EXP_MAXIMAL).is_trivial, name
            assert dec.factor(ENDPOINT_PRESERVING).is_trivial, name


def test_general_mixed_round_trip(cycle_diamond):
    rng = random.Random(17)
    targets = derivation_targets(cycle_diamond)
    paths = elementary_unit_paths(cycle_diamond)
    for _ in range(10):
        f = random_graded_identity_automorphism(
            rng, cycle_diamond, targets=targets, paths=paths)
        dec = decompose_general(f)
        assert dec.compose() == f
        for factor in dec.factors:
            assert factor.endomorphism.certified


def test_general_known_mixed_composition(cycle_diamond):
    # inner from the cycle block composed with a maximal-type exponential
    u = invert_unit(cycle_diamond.one() + 2 * cycle_diamond.arrow("a"))
    d = make_derivation(cycle_diamond,
                        [("e", 3 * cycle_diamond.path_element(("f", "g")))])
    f = inner_automorphism(u).compose(exponentiate(d))
    dec = decompose_general(f)
    assert dec.compose() == f
    assert not dec.factor(EXP_MAXIMAL).is_trivial
    assert not dec.factor(INNER).is_trivial


def test_general_identity(cycle_diamond):
    dec = decompose_general(Endomorphism.identity(cycle_diamond))
    assert all(f.is_trivial for f in dec.factors)


def test_graded_factor_extraction(ex_string):
    f = certified(ex_string, "map a = 2*a + 1*a.b.a\nmap b = 1/2*b")
    dec = decompose_general(f)
    assert dec.factors[0].kind == GRADED
    assert not dec.factors[0].is_trivial
    assert dec.compose() == f


def test_graded_factor_rejects_singular_graded_part(kronecker):
    f = certified(kronecker, "map a = 1*b\nmap b = 1*b")
    with pytest.raises(CertificationError):
        decompose_general(f)


def test_parallel_exponential_never_absorbed_into_inner(double_diamond):
    # gentle, beyond the two-parallel-arrows case: the parallel-path
    # exponentials meet the inner factors trivially
    algebra = double_diamond
    for arrow in ("s", "s2"):
        bar = parallel_maximal(algebra, arrow)
        d = make_derivation(algebra, [(arrow, algebra.path_element(bar))])
        f = exponentiate(d)
        assert _solve_inner_match(f) is None
        dec = decompose_general(f)
        assert dec.compose() == f
        assert not dec.factor(EXP_MAXIMAL).is_trivial
        assert dec.factor(INNER).is_trivial
        assert dec.factor(ENDPOINT_PRESERVING).is_trivial


def test_inner_match_compares_the_conjugation_images(monkeypatch):
    # conjugations build their images on first read; the match reads them
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    conj = inner_automorphism(
        invert_unit(algebra.one() + 2 * algebra.arrow("a") - algebra.arrow("b")))
    rho = Endomorphism(algebra, conj.vertex_images, conj.arrow_images, certified=True)
    match = _solve_inner_match(rho)
    assert match is not None and inner_automorphism(match) == rho
    # a unit that conjugates otherwise is refused by the comparison
    wrong = algebra.one() + algebra.arrow("a")
    assert inner_automorphism(invert_unit(wrong)) != rho
    monkeypatch.setattr(decompose, "_solve_intertwiner", lambda images, supports: wrong)
    assert _solve_inner_match(rho) is None


def test_gentle_decompositions_have_no_endpoint_factor():
    rng = random.Random(19)
    for name in ("double_diamond", "doubled_line", "kronecker"):
        algebra = make_algebra(SOURCES[name])
        targets = derivation_targets(algebra)
        paths = elementary_unit_paths(algebra)
        for _ in range(5):
            f = random_graded_identity_automorphism(
                rng, algebra, targets=targets, paths=paths)
            dec = decompose_general(f)
            assert dec.compose() == f
            assert dec.factor(ENDPOINT_PRESERVING).is_trivial, name


# -- outer class ----------------------------------------------------------------------


def test_outer_class_kronecker(kronecker):
    report = outer_class(kronecker)
    assert report.shape == "kronecker"
    assert report.group_description == "GL_2(k)"


def test_outer_class_doubled_three_cycle():
    algebra = make_algebra(SOURCES["doubled_three_cycle"])
    report = outer_class(algebra)
    assert report.shape == "doubled-cycle"
    assert report.group_description == "Z/2Z ⋉ (k^x)^6"


def test_outer_class_doubled_line():
    algebra = make_algebra(SOURCES["doubled_line"])
    report = outer_class(algebra)
    assert report.shape == "doubled-line"
    assert report.group_description == "Z/2Z ⋉ (k^x)^4"


def test_outer_class_double_diamond(double_diamond):
    report = outer_class(double_diamond)
    assert report.shape == "general-gentle"
    assert report.n_parallel_maximal == 2
    assert report.group_description == "(k^x)^6 ⋉ k^2"


def test_outer_class_torus_when_no_parallel_maximal():
    algebra = make_algebra(SOURCES["doubled_line"])
    # doubled shapes are detected before the generic branch; a plain
    # two-vertex cycle with relations has no parallel maximal paths at all
    plain = make_algebra(SOURCES["two_loops"])
    report = outer_class(plain)
    assert report.shape == "general-gentle"
    assert report.n_parallel_maximal == 0
    assert report.group_description == "(k^x)^2 ⋉ k^0"


def test_outer_class_rejects_non_gentle(ex_string):
    with pytest.raises(ShapeError):
        outer_class(ex_string)


def test_outer_class_rejects_polynomial_ring(poly_ring):
    with pytest.raises(ShapeError):
        outer_class(poly_ring)


def test_graded_symmetries_lead_with_a_graded_factor():
    rng = random.Random(37)
    cycle_swap = ({"1": "2", "2": "1"}, {"a": "b", "b": "a"})
    cases = [("two_cycle_free", cycle_swap), ("two_cycle_rel", cycle_swap),
             ("kronecker", ({}, {"a": "b", "b": "a"}))]
    for name, (vertex_swap, arrow_swap) in cases:
        algebra = make_algebra(SOURCES[name])
        for _ in range(12):
            f = random_graded_symmetric(rng, algebra, vertex_swap, arrow_swap)
            dec = decompose_general(f)
            assert dec.factors[0].kind == GRADED, name
            assert dec.compose() == f, name


# -- the paper's word ---------------------------------------------------------------


def _decomposed_items():
    """Decompositions of the first 30 criterion-5 items and of seeded
    vertex-fixing automorphisms of the finite-dimensional string fixtures."""
    for f in _criterion_5_items(30):
        yield decompose_general(f)
    rng = random.Random(41)
    for name in ("two_cycle_rel", "kronecker", "double_diamond", "doubled_line"):
        algebra = make_algebra(SOURCES[name])
        paths = elementary_unit_paths(algebra, cycles_only=True)
        for _ in range(5):
            yield decompose_string(
                random_graded_identity_automorphism(rng, algebra, paths=paths))


def test_factor_words_compose_to_their_factors():
    # exp-maximal = exp(d) with d of maximal type; endpoint-preserving =
    # exp(w_1) o ... o exp(w_k) with every w_i of cycle type
    tags = {EXP_MAXIMAL: MAXIMAL, ENDPOINT_PRESERVING: CYCLE}
    words = 0
    for dec in _decomposed_items():
        for factor in dec.factors:
            if factor.kind not in tags:
                assert factor.derivations == ()
                continue
            assert all(tags[factor.kind] in w.type_tags for w in factor.derivations)
            g = Endomorphism.identity(factor.endomorphism.algebra)
            for w in factor.derivations:
                g = g.compose(exponentiate(w))
            assert g == factor.endomorphism, factor.kind
            words += factor.kind == ENDPOINT_PRESERVING and len(factor.derivations) > 0
    assert words > 0


def test_returning_residues_must_be_cycle_type(monkeypatch):
    f = next(f for f in _criterion_5_items(30)
             if decompose_general(f).factor(ENDPOINT_PRESERVING).derivations)
    build = decompose.make_derivation

    def without_cycle_tag(algebra, assignments):
        d = build(algebra, assignments)
        d.type_tags = d.type_tags - {CYCLE}
        return d

    monkeypatch.setattr(decompose, "make_derivation", without_cycle_tag)
    with pytest.raises(DecompositionError, match="returning residues are not cycle type"):
        decompose_general(f)
