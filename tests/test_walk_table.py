"""The walk table against the relation scan it replaces.

Products, ideal membership and the basis are read off the unique walk from
each arrow; RelationSet.contains (every generator over every subpath) stays
the reference they are checked against here.  `concat` hands out one shared
(interned) path per basis path, and element products follow the walks
inline, without it, to the same shared paths.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from stringalg import Element, Path, PathAlgebra
from stringalg import quiver as quiver_module
from stringalg.cli import run
from stringalg.maximal import component_of_path

from conftest import SOURCES, make_algebra
from test_random_presentations import random_presentation


def _algebras():
    out = [(name, make_algebra(source)) for name, source in SOURCES.items()]
    rng = random.Random(211)
    out += [(f"random {k}", PathAlgebra(random_presentation(rng))) for k in range(20)]
    return out


def _composable_paths(quiver, max_len):
    """Every path of the quiver up to max_len: stationary ones, then the
    arrow sequences extended one matching arrow at a time."""
    out = [Path.stationary(v) for v in quiver.vertices]
    level = [(a.name,) for a in quiver.arrows]
    while level and len(level[0]) <= max_len:
        out += [Path.of(arrows) for arrows in level]
        level = [arrows + (b.name,) for arrows in level
                 for b in quiver.arrows_from[quiver.target(arrows[-1])]]
    return out


def _reference_concat(algebra, p, q):
    quiver = algebra.quiver
    if quiver.path_target(p) != quiver.path_source(q):
        return None
    if p.is_stationary:
        return q
    if q.is_stationary:
        return p
    joined = Path.of(p.arrows + q.arrows)
    return None if algebra.relations.contains(joined) else joined


def test_walk_table_matches_relation_scan():
    for name, algebra in _algebras():
        paths = _composable_paths(algebra.quiver, 8)
        for p in paths:
            assert algebra.in_ideal(p) == algebra.relations.contains(p), (name, str(p))
        basis = algebra.enumerate_basis(8)
        assert basis == sorted(p for p in paths if not algebra.relations.contains(p)), name
        for p in basis:
            for q in basis:
                expected = _reference_concat(algebra, p, q)
                assert algebra.concat(p, q) == expected, (name, str(p), str(q))
                product = algebra.path_element(p) * algebra.path_element(q)
                if expected is None:
                    assert product.is_zero, (name, str(p), str(q))
                else:
                    [(r, c)] = product.terms.items()
                    assert r == expected and c == 1, (name, str(p), str(q))
                    assert r is algebra.basis_path(expected), (name, str(p), str(q))


def test_concat_results_are_interned():
    for name, algebra in _algebras():
        basis = algebra.enumerate_basis(6)
        seen = {}
        for p in basis:
            for q in basis:
                r = algebra.concat(p, q)
                if r is None:
                    continue
                joined = p.arrows + q.arrows
                expected = Path.of(joined) if joined else p
                assert r == expected and hash(r) == hash(expected), (name, str(p), str(q))
                assert seen.setdefault(r, r) is r, (name, str(r))
        assert all(algebra.walk_path(p.first_arrow, p.length) is p
                   for p in basis if p.arrows), name


def test_walk_path_rejects_a_length_the_walk_does_not_have():
    """A length past the end of a finite walk, or below 1, names no basis
    path: it raises instead of handing out a shorter one under that key."""
    algebra = make_algebra(LONG_RELATION_SOURCES["loop_x9"])
    longest = algebra.walk_path("x", 8)
    assert longest.arrows == ("x",) * 8
    for length in (9, 20, 0, -1):
        with pytest.raises(ValueError, match=f"length {length} from arrow x"):
            algebra.walk_path("x", length)
    assert algebra.walk_path("x", 8) is longest
    cyclic = make_algebra(SOURCES["one_loop"])
    assert cyclic.walk_path("x", 20).arrows == ("x",) * 20


def _random_element(rng, algebra, basis):
    terms = {p: rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
             for p in rng.sample(basis, min(len(basis), rng.randint(0, 8)))}
    return Element(algebra, terms)


def _reference_product(x, y):
    terms = {}
    for p, c in x.terms.items():
        for q, d in y.terms.items():
            r = _reference_concat(x.algebra, p, q)
            if r is not None:
                terms[r] = terms.get(r, 0) + c * d
    return Element(x.algebra, terms)


def test_products_match_the_all_pairs_reference():
    rng = random.Random(17)
    for name, algebra in _algebras():
        basis = algebra.enumerate_basis(6)
        for _ in range(15):
            x = _random_element(rng, algebra, basis)
            y = _random_element(rng, algebra, basis)
            assert x * y == _reference_product(x, y), (name, str(x), str(y))


def test_products_offer_concat_only_composable_pairs(monkeypatch):
    # products follow the walks inline: they offer concat no pair at all
    calls = []
    concat = PathAlgebra.concat

    def counted(algebra, p, q):
        calls.append((p, q))
        return concat(algebra, p, q)

    monkeypatch.setattr(PathAlgebra, "concat", counted)
    rng = random.Random(23)
    for name, algebra in _algebras():
        basis = algebra.enumerate_basis(6)
        for _ in range(10):
            x = _random_element(rng, algebra, basis)
            y = _random_element(rng, algebra, basis)
            calls.clear()
            assert x * y == _reference_product(x, y), name
            assert calls == [], name


def test_cycle_positions_match_the_counting_reference():
    """x_degree counts the passes through each surviving cycle's closing
    arrow, and component_of_path is the cycle holding the first arrow."""
    for name, algebra in _algebras():
        cycles = algebra.infinite_cycles()
        for p in algebra.enumerate_basis(8):
            degree = sum(p.arrows.count(cyc[-1]) for cyc in cycles)
            index = next((i for i, cyc in enumerate(cycles)
                          if p.arrows and p.first_arrow in cyc), None)
            assert algebra.x_degree(p) == degree, (name, str(p))
            assert component_of_path(algebra, p) == index, (name, str(p))
        assert algebra.cycle_arrows() == {a for cyc in cycles for a in cyc}, name


# SHA-256 of the stdout of `basis --max-len 8`, `--json maximal` and
# `radical`, concatenated, for each fixture; pinned before the walk table
# replaced the relation scans
STRUCTURE_DIGESTS = {
    "two_cycle_rel": "67a22bc0f34a8d510ba7f156a5f2445568b3dba03a3fe93c0caff69876799c1f",
    "one_loop": "047fbf7fefd41e253f8efc4eaaf45a2a5a9d5d0d60a7d7c1f0a524275b8d6a6a",
    "kronecker": "67a286e32043731485ddcb2f4357189a25971a0274709769bd00f2d7f9b2e3d1",
    "two_cycle_free": "c21c9c16aecdf6e98938b5d5d693fc8d5389c37fe19a8c8be217728e69ee38f1",
    "three_cycle_free": "61cdd800083c5350c79373d3dd2739813d1be1666e573ba06969d47a2e78ce0e",
    "two_loops": "042aeca9a18ab3a2e026d31e0570868bcf5e016b31d65f808ab2307224f946e8",
    "cycle_pendant": "c7c2d3b585ca1bc7cfd93fa495946a6a30acd578b8708081968c4b679c29b227",
    "cycle_with_diamond": "fb796958046199f8bcd3d1f15ddea23b847f94098b1b9cb0501787d3e4f2030f",
    "double_diamond": "85fd8cb3ff308cedf4b09a540856196b932c9dce0d8c6a3177b62499fd95c7a4",
    "doubled_three_cycle": "47e0d1b127e584acc797ea14976fed57b56d724b261094999dc39858fc1e71b8",
    "doubled_line": "6aa1f235349dc8b299150bf29b81b2a16126a3d00f93a6cd04fa253a6c2a3a73",
}


def test_structure_reports_are_pinned(tmp_path, capsys):
    digests = {}
    for name, source in SOURCES.items():
        path = tmp_path / f"{name}.quiver"
        path.write_text(source, encoding="utf-8")
        h = hashlib.sha256()
        for argv in (["--max-len", "8", "basis"], ["--json", "maximal"], ["radical"]):
            assert run(argv + [str(path)]) == 0, (name, argv)
            h.update(capsys.readouterr().out.encode("utf-8"))
        digests[name] = h.hexdigest()
    assert digests == STRUCTURE_DIGESTS


# SHA-256 of the stdout of `basis --max-len 64` (the default) for each
# fixture, pinned before the basis listing was capped
BASIS_64_DIGESTS = {
    "two_cycle_rel": "c8eceb8dc13c022fa6cfa64ea27b586ecbf2f5765c32af13a596e1005a04506d",
    "one_loop": "cba938b094c117d974afffe1fee2cd22083fce4b175b0df0545c7b5a8bb6087e",
    "kronecker": "3cafac0f371d5e7142155e177b1dc83b9c60cd680bb7eb809f5dc28e0fd1b899",
    "two_cycle_free": "3b41a50ace95ccb383a7d15835c2d9377c064653a987d9f91b491d1298dc11e8",
    "three_cycle_free": "7033ac86ce78beff11b98d9563a27aba09adbe09bdc91d81c90fda59b8931261",
    "two_loops": "e8fc1352ad3fecc9c9cbaf86c57ebaaf936086bbc9957cee1af7157fedba12a8",
    "cycle_pendant": "2e8f57bf7d618714fdd5de7d2de880e023bcbb8bcd2edbc2fbc9cef7b77735ae",
    "cycle_with_diamond": "0a89b8dc269110a4d87a5094bbe83941e7006441927e2dd28edd008772846505",
    "double_diamond": "9367be5123f3782b41adcff3e6635bf4a2bb5112539f68e337db504fa7815c8e",
    "doubled_three_cycle": "5a53c16a1b60b270cd19f84f4a88c8fe27e4ed1f985d052576fc3540e07532b8",
    "doubled_line": "ceb9e15b28642806de1fff7d8c555b40d5d852acf725bb0365505fdfda35f7a0",
}


def test_default_length_basis_is_pinned(tmp_path, capsys):
    digests = {}
    for name, source in SOURCES.items():
        path = tmp_path / f"{name}.quiver"
        path.write_text(source, encoding="utf-8")
        assert run(["--max-len", "64", "basis", str(path)]) == 0, name
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == BASIS_64_DIGESTS


# cycles that only a relation longer than the probes above (8 arrows) kills:
# a loop, a three-cycle whose relation starts at its first arrow and one
# whose relation starts mid-cycle, a four-cycle with a pendant arrow, and a
# killed loop beside a surviving one
LONG_RELATION_SOURCES = {
    "loop_x9": "vertex v\narrow x : v -> v\nrelation " + " ".join(["x"] * 9),
    "three_cycle_10": """
vertex 1
vertex 2
vertex 3
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 3 -> 1
relation a b c a b c a b c a
""",
    "three_cycle_mid_9": """
vertex 1
vertex 2
vertex 3
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 3 -> 1
relation b c a b c a b c a
""",
    "four_cycle_pendant_9": """
vertex 1
vertex 2
vertex 3
vertex 4
vertex 5
arrow p : 1 -> 2
arrow q : 2 -> 3
arrow r : 3 -> 4
arrow s : 4 -> 1
arrow t : 4 -> 5
relation r t
relation q r s p q r s p q
""",
    "killed_loop_beside_free_loop": """
vertex 1
vertex 2
arrow x : 1 -> 1
arrow y : 1 -> 2
arrow z : 2 -> 2
relation x y
relation y z
relation z z z z z z z z z z
""",
}


def _reference_cycles(presentation):
    """Canonical rotations (least arrow first) of the cycles with distinct
    arrows that no power meets the ideal, by RelationSet.contains on a power
    longer than the cycle plus the longest relation."""
    quiver, relations = presentation.quiver, presentation.relations
    longest = max((g.length for g in relations), default=0)
    out = []

    def extend(cycle):
        last = quiver.target(cycle[-1])
        if last == quiver.source(cycle[0]):
            power = Path.of(cycle * (longest + 2))
            if not relations.contains(power):
                out.append(cycle)
        for b in quiver.arrows_from[last]:
            if b.name > cycle[0] and b.name not in cycle:
                extend(cycle + (b.name,))

    for a in sorted(quiver.arrow_by_name):
        extend((a,))
    return tuple(sorted(out))


def _reference_walk(presentation, arrow, bound):
    """From the arrow, the one continuation RelationSet.contains leaves,
    arrow by arrow, up to `bound` arrows."""
    quiver, relations = presentation.quiver, presentation.relations
    walk = (arrow,)
    while len(walk) < bound:
        nexts = [b.name for b in quiver.arrows_from[quiver.target(walk[-1])]
                 if not relations.contains(Path.of(walk + (b.name,)))]
        assert len(nexts) <= 1, (arrow, walk, nexts)
        if not nexts:
            break
        walk += (nexts[0],)
    return walk


def _reference_algebras():
    out = [(name, make_algebra(source)) for name, source in SOURCES.items()]
    out += [(name, make_algebra(source)) for name, source in LONG_RELATION_SOURCES.items()]
    rng = random.Random(307)
    out += [(f"random {k}", PathAlgebra(random_presentation(rng))) for k in range(20)]
    return out


def test_walks_and_cycles_match_the_brute_force_reference():
    """Each arrow's walk, the surviving cycles and the finite/infinite half
    of the classification, against scans of RelationSet.contains alone.  A
    walk longer than every arrow plus the longest relation goes on forever,
    round a surviving cycle."""
    for name, algebra in _reference_algebras():
        presentation = algebra.presentation
        cycles = _reference_cycles(presentation)
        assert algebra.infinite_cycles() == cycles, name
        expected = ("" if not cycles else "locally-") + \
            ("gentle" if presentation.is_gentle else "string")
        assert presentation.classification == expected, name
        longest = max((g.length for g in algebra.relations), default=0)
        bound = len(algebra.quiver.arrows) + longest + 1
        on_cycle = {a: cyc for cyc in cycles for a in cyc}
        for a in sorted(algebra.quiver.arrow_by_name):
            walk = _reference_walk(presentation, a, bound)
            assert algebra.walk_path(a, len(walk)).arrows == walk, (name, a)
            if len(walk) == bound:
                cyc = on_cycle[a]
                i = cyc.index(a)
                assert walk == ((cyc[i:] + cyc[:i]) * bound)[:bound], (name, a)
                assert presentation.walks[a] == (cyc[i:] + cyc[:i], True), (name, a)
                continue
            assert a not in on_cycle, (name, a)
            assert presentation.walks[a] == (walk, False), (name, a)
            quiver = algebra.quiver
            for b in quiver.arrows_from[quiver.target(walk[-1])]:
                assert algebra.in_ideal(Path.of(walk + (b.name,))), (name, a, b.name)


def test_walk_table_is_built_once_per_presentation(monkeypatch):
    """Validation builds the table; the presentation keeps it and the
    algebra's products, basis and cycles read it without walking again."""
    built = []
    walk_table = quiver_module.walk_table

    def counted(quiver, relations):
        built.append(quiver)
        return walk_table(quiver, relations)

    monkeypatch.setattr(quiver_module, "walk_table", counted)
    for name, source in SOURCES.items():
        built.clear()
        algebra = make_algebra(source)
        basis = algebra.enumerate_basis(6)
        algebra.infinite_cycles()
        algebra.radical_arrows()
        for p in basis:
            for q in basis:
                algebra.concat(p, q)
        assert len(built) == 1, name
