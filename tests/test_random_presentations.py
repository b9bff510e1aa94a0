"""Randomized presentations: generated quivers with completed relation sets
exercise validation, structure maps, and decomposition beyond the fixtures."""

import itertools
import random

from stringalg import PathAlgebra
from stringalg.quiver import AlgebraPresentation, Path, Quiver, RelationSet
from stringalg.decompose import decompose_general
from stringalg.maximal import classify_maximal, degree_zero_center_dimension
from stringalg.morphisms import geometric_inverse

from conftest import FREE_LOOP, SOURCES, make_algebra
from factories import (derivation_targets, elementary_unit_paths,
                       random_graded_identity_automorphism)


def random_presentation(rng, max_vertices=5, max_arrows=8, tries=60):
    """A random valid (locally) string presentation.

    Builds a quiver under the degree bounds, then resolves every overlap
    conflict by killing at least one of the two composites; occasionally
    adds a longer relation along a surviving path.  Retries until the
    classification is valid.
    """
    for _ in range(tries):
        n_vertices = rng.randint(1, max_vertices)
        vertices = [f"v{i}" for i in range(n_vertices)]
        n_arrows = rng.randint(1, max_arrows)
        arrows = []
        outdeg = {v: 0 for v in vertices}
        indeg = {v: 0 for v in vertices}
        for k in range(n_arrows):
            candidates = [(s, t) for s in vertices for t in vertices
                          if outdeg[s] < 2 and indeg[t] < 2]
            if not candidates:
                break
            s, t = rng.choice(candidates)
            arrows.append((f"a{k}", s, t))
            outdeg[s] += 1
            indeg[t] += 1
        if not arrows:
            continue
        quiver = Quiver(vertices, arrows)
        if not quiver.is_connected():
            continue
        relations = set()
        for v in vertices:
            ins = quiver.arrows_into[v]
            outs = quiver.arrows_from[v]
            for b, b2 in itertools.combinations(ins, 2):
                for a in outs:
                    pair = rng.choice([(b, a), (b2, a)])
                    relations.add((pair[0].name, pair[1].name))
            for b, b2 in itertools.combinations(outs, 2):
                for a in ins:
                    pair = rng.choice([(a, b), (a, b2)])
                    relations.add((pair[0].name, pair[1].name))
        # sprinkle extra length-2 or length-3 relations along surviving paths
        for _ in range(rng.randint(0, 2)):
            length = rng.choice([2, 3])
            walk = [rng.choice(arrows)[0]]
            rel_set = RelationSet(quiver, [Path.of(r) for r in relations])
            while len(walk) < length:
                last = walk[-1]
                nxt = [a.name for a in quiver.arrows_from[quiver.target(last)]
                       if not rel_set.contains(Path.of((last, a.name)))]
                if not nxt:
                    break
                walk.append(rng.choice(nxt))
            if len(walk) == length:
                relations.add(tuple(walk))
        presentation = AlgebraPresentation.build(
            quiver, [Path.of(r) for r in relations])
        if presentation.is_valid:
            return presentation
    raise AssertionError("random presentation generation failed to converge")


def test_random_presentations_validate_and_classify():
    rng = random.Random(101)
    seen = set()
    for _ in range(30):
        presentation = random_presentation(rng)
        seen.add(presentation.classification)
        algebra = PathAlgebra(presentation)
        assert degree_zero_center_dimension(algebra) == 1
        finite, dim = algebra.is_finite_dimensional()
        assert finite == (presentation.classification in ("string", "gentle"))
        if finite:
            assert dim == len(algebra.enumerate_basis(algebra.radical_degree_bound()))
    assert len(seen) >= 2  # the generator reaches several classes


def test_random_presentations_structure_maps():
    rng = random.Random(103)
    for _ in range(15):
        algebra = PathAlgebra(random_presentation(rng))
        report = classify_maximal(algebra)
        covered = set()
        for p in report.finite_maximal:
            covered.update(p.arrows)
        for imp in report.infinite_maximal:
            covered.update(imp.arrows)
        assert covered == set(algebra.quiver.arrow_by_name)
        assert set(report.finite_maximal) == \
            set(report.left_maximal) & set(report.right_maximal)


def test_radical_degree_bound_is_the_longest_finite_maximal_path():
    # a longest radical path extends on neither side, so it is maximal;
    # exponentiate's iteration cap rests on this
    rng = random.Random(3)
    algebras = [(name, make_algebra(source))
                for name, source in {**SOURCES, "free_loop": FREE_LOOP}.items()]
    algebras += [(f"random {k}", PathAlgebra(random_presentation(rng))) for k in range(400)]
    for name, algebra in algebras:
        longest = max((p.length for p in classify_maximal(algebra).finite_maximal), default=0)
        assert algebra.radical_degree_bound() == longest, name


def test_geometric_inverse_ends_within_its_walk_cap():
    # an element of x-degree 0 with no stationary term is nilpotent, and its
    # series ends before the cap that geometric_inverse reads off the walks
    rng = random.Random(11)
    for _ in range(100):
        algebra = PathAlgebra(random_presentation(rng))
        paths = [algebra.walk_path(a, k) for a, (walk, _) in algebra.presentation.walks.items()
                 for k in range(1, len(walk) + 1)]
        paths = [p for p in paths if algebra.x_degree(p) == 0]
        assert algebra.x_degree_zero_bound() == max((p.length for p in paths), default=0)
        assert algebra.radical_degree_bound() == max(
            (p.length for p in algebra.radical_paths()), default=0)
        for _ in range(5):
            y = algebra.element({p: rng.randint(1, 3) * rng.choice((-1, 1))
                                 for p in rng.sample(paths, min(len(paths), 4))})
            assert (algebra.one() + y) * geometric_inverse(y) == algebra.one()


def test_random_presentations_decompose_round_trip():
    rng = random.Random(107)
    done = 0
    while done < 12:
        presentation = random_presentation(rng)
        if presentation.is_polynomial_ring:
            continue
        algebra = PathAlgebra(presentation)
        targets = derivation_targets(algebra)
        paths = elementary_unit_paths(algebra)
        f = random_graded_identity_automorphism(
            rng, algebra, pieces=2, targets=targets, paths=paths)
        dec = decompose_general(f)
        assert dec.compose() == f
        done += 1
