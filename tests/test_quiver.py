"""Parsing, relation minimization, and presentation classification."""

import copy
import os
import pickle
import random
import subprocess
import sys
import time

import pytest

from stringalg import Path, PathAlgebra, parse_element, parse_quiver
from stringalg.errors import QuiverFormatError
from stringalg.quiver import AlgebraPresentation, Quiver, RelationSet

from conftest import KRONECKER, ONE_LOOP, SOURCES, TWO_CYCLE_REL
from test_validate_reference import random_relation_presentation


def test_parse_example_string_algebra():
    p = parse_quiver(TWO_CYCLE_REL)
    assert p.classification == "string"
    assert p.is_valid
    assert [str(g) for g in p.relations] == ["a.b.a.b", "b.a.b.a"]


def test_parse_one_loop_is_locally_gentle():
    p = parse_quiver(ONE_LOOP)
    assert p.classification == "locally-gentle"
    assert p.is_polynomial_ring


def test_parse_kronecker_is_gentle():
    p = parse_quiver(KRONECKER)
    assert p.classification == "gentle"
    assert not p.violations


def test_comments_and_blank_lines():
    p = parse_quiver("# comment\nvertex 1\n\narrow a : 1 -> 1  # loop\n")
    assert p.classification == "locally-gentle"


# directives that are not whole words, and names whose elements would not
# read back: (text, line of the fault, message fragment)
BAD_LINES = [
    ("vertex 1\nvertexes 2\narrow a : 1 -> 1", 2, "unrecognised directive: vertexes"),
    ("vertex 1\narrow a : 1 -> 1\nrelations a a", 3, "unrecognised directive: relations"),
    ("vertex 1\narrow a-b : 1 -> 1", 2, "bad arrow name 'a-b'"),
    ("vertex 1\narrow a.b : 1 -> 1", 2, "bad arrow name 'a.b'"),
    ("vertex 1\narrow a*b : 1 -> 1", 2, "bad arrow name 'a*b'"),
    ("vertex 1\n# e_1 would read as the stationary path\narrow e_1 : 1 -> 1", 3,
     "bad arrow name 'e_1'"),
    ("vertex 1\nvertex 1+\narrow a : 1 -> 1", 2, "bad vertex name '1+'"),
]


@pytest.mark.parametrize("text,fragment", [
    ("vertex 1\nvertex 1\narrow a : 1 -> 1", "duplicate vertex"),
    ("vertex 1\narrow a : 1 -> 1\narrow a : 1 -> 1", "duplicate arrow"),
    ("vertex 1\narrow a : 1 -> 2", "unknown target"),
    ("vertex 1\narrow a : 1 -> 1\nrelation a", "at least two"),
    ("vertex 1\nvertex 2\narrow a : 1 -> 2\nrelation a a", "not composable"),
    ("vertex 1\nfrobnicate 1", "unrecognised"),
    ("vertex 1", "at least one arrow"),
] + [(text, fragment) for text, _, fragment in BAD_LINES])
def test_parse_errors(text, fragment):
    with pytest.raises(QuiverFormatError) as err:
        parse_quiver(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,line,fragment", BAD_LINES)
def test_rejected_line_is_named(text, line, fragment):
    with pytest.raises(QuiverFormatError) as err:
        parse_quiver(text)
    assert err.value.line == line


@pytest.mark.parametrize("build", [
    lambda q: RelationSet(q, [("a", "zz")]),
    lambda q: AlgebraPresentation.build(q, [("zz", "a")]),
])
def test_relation_with_unknown_arrow_is_a_format_error(build):
    quiver = Quiver(["1"], [("a", "1", "1")])
    with pytest.raises(QuiverFormatError) as err:
        build(quiver)
    assert "not a composable path" in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(QuiverFormatError) as err:
        parse_quiver("vertex 1\nvertex 1\n")
    assert err.value.line == 2


def test_indegree_violation_reports_witness():
    text = """
vertex 1
vertex 2
arrow a : 1 -> 2
arrow b : 1 -> 2
arrow c : 1 -> 2
"""
    p = parse_quiver(text)
    assert p.classification == "invalid"
    assert any("indegree 3" in v and "2" in v for v in p.violations)


def test_overlap_violation_two_surviving_products():
    # both b.a-style composites survive into the same arrow: not string
    text = """
vertex 1
vertex 2
vertex 3
arrow b : 1 -> 2
arrow c : 3 -> 2
arrow a : 2 -> 1
"""
    p = parse_quiver(text)
    assert p.classification == "invalid"
    assert any("both b.a and c.a survive" in v for v in p.violations)


def test_gentle_violation_both_products_vanish():
    # both composites killed: string but not gentle even with length-2 relations
    text = """
vertex 1
vertex 2
vertex 3
arrow b : 1 -> 2
arrow c : 3 -> 2
arrow a : 2 -> 1
relation b a
relation c a
"""
    p = parse_quiver(text)
    assert p.classification == "string"
    assert any(v.startswith("gentle:") and "vanish" in v for v in p.violations)


def test_relation_minimization():
    p = parse_quiver("""
vertex 1
arrow x : 1 -> 1
relation x x
relation x x x
""")
    assert [str(g) for g in p.relations] == ["x.x"]


def _reference_minimal(paths):
    """The paths that hold no other one as a subpath, in path order."""
    paths = set(paths)
    return tuple(sorted(p for p in paths
                        if not any(q != p and p.contains(q) for q in paths)))


def test_relation_minimization_matches_the_subpath_scan():
    """Random presentations, most of them invalid, with each relation also
    given one arrow more before it, after it and on both sides, so that many
    generators contain another."""
    rng = random.Random(2024)
    dropped = 0
    for k in range(2000):
        presentation = random_relation_presentation(rng)
        quiver = presentation.quiver
        paths = []
        for g in presentation.relations:
            before = [b.name for b in quiver.arrows_into[quiver.path_source(g)]]
            after = [c.name for c in quiver.arrows_from[quiver.path_target(g)]]
            paths.append(g.arrows)
            paths += [(b,) + g.arrows for b in before]
            paths += [g.arrows + (c,) for c in after]
            paths += [(b,) + g.arrows + (c,) for b in before for c in after]
        expected = _reference_minimal(Path.of(arrows) for arrows in paths)
        assert RelationSet(quiver, paths).generators == expected, f"draw {k}"
        dropped += len(set(paths)) - len(expected)
    assert dropped > 10000


# long relations: a relation is compared with a shorter one only where it
# passes that one's first arrow and the shorter one fits before its end, and
# with the shorter ones first, so the zero pair late in a long relation that
# is not minimal is found before the long relation along its prefix
LONG_MINIMAL_RELATIONS = {
    # loops x at 1 and y at 2 joined by a
    "two_loops": ("vertex 1\nvertex 2\narrow x : 1 -> 1\narrow y : 2 -> 2\n"
                  "arrow a : 1 -> 2\nrelation x a\nrelation a y\n"
                  f"relation{' x' * 80000}\nrelation{' y' * 40000}\n",
                  "string", [2, 2, 40000, 80000]),
    "two_cycle": ("vertex 1\nvertex 2\narrow a : 1 -> 2\narrow b : 2 -> 1\n"
                  f"relation{' a b' * 25000}\nrelation{' b a' * 25000}\n",
                  "string", [50000, 50000]),
    # loops x at 1 and z at 2 joined by y
    "late_zero_pair": ("vertex 1\nvertex 2\narrow x : 1 -> 1\narrow y : 1 -> 2\n"
                       "arrow z : 2 -> 2\nrelation x y\nrelation y z\n"
                       f"relation{' x' * 20000}\nrelation{' x' * 19999} y{' z' * 20000}\n",
                       "locally-string", [2, 2, 20000]),
}


@pytest.mark.parametrize("name", sorted(LONG_MINIMAL_RELATIONS))
def test_long_minimal_relations_parse_within_budget(name):
    text, classification, lengths = LONG_MINIMAL_RELATIONS[name]
    start = time.perf_counter()
    p = parse_quiver(text)
    elapsed = time.perf_counter() - start
    assert p.classification == classification
    assert [g.length for g in p.relations] == lengths
    assert elapsed < 1.0, f"parse_quiver took {elapsed:.2f}s, over the 1s budget"


def test_relation_set_subpath_invariant():
    for source in SOURCES.values():
        rels = parse_quiver(source).relations
        for g in rels:
            assert not any(g != h and g.contains(h) for h in rels)


def test_validation_deterministic_and_idempotent():
    for source in SOURCES.values():
        first = parse_quiver(source)
        second = parse_quiver(source)
        assert first.classification == second.classification
        assert first.violations == second.violations


def test_every_fixture_is_valid():
    expected = {
        "two_cycle_rel": "string",
        "one_loop": "locally-gentle",
        "kronecker": "gentle",
        "two_cycle_free": "locally-gentle",
        "three_cycle_free": "locally-gentle",
        "two_loops": "locally-gentle",
        "cycle_pendant": "locally-gentle",
        "cycle_with_diamond": "locally-gentle",
        "double_diamond": "gentle",
        "doubled_three_cycle": "locally-gentle",
        "doubled_line": "gentle",
    }
    for name, source in SOURCES.items():
        assert parse_quiver(source).classification == expected[name], name


def test_gentle_passes_string_checks():
    # every gentle fixture classifies with no non-gentle violations at all
    for name, source in SOURCES.items():
        p = parse_quiver(source)
        if p.is_gentle:
            assert p.violations == ()


def test_path_ordering_and_subpath():
    e = Path.stationary("1")
    a = Path.of(("a",))
    ab = Path.of(("a", "b"))
    assert sorted([ab, a, e]) == [e, a, ab]
    assert ab.contains(a)
    assert not a.contains(ab)
    assert Path.of(("a", "b", "a", "b")).contains(ab)


def test_path_routes_agree_on_equality_and_hash():
    """Path.of, concat and the text parsers build equal paths with equal
    hashes, so a dict keyed by one route finds the others; so do pickled and
    copied paths."""
    presentation = parse_quiver(TWO_CYCLE_REL)
    algebra = PathAlgebra(presentation)
    a, b = Path.of(("a",)), Path.of(("b",))
    ab = algebra.concat(a, b)
    groups = [
        [Path.stationary("1"), min(algebra.one().terms),
         next(iter(parse_element(algebra, "3*e_1").terms))],
        [Path.of(("a", "b", "a")), algebra.concat(ab, a),
         algebra.concat(a, algebra.concat(b, a)),
         next(iter(parse_element(algebra, "a.b.a").terms))],
        [Path.of(("a", "b", "a", "b")), Path.of(["a", "b"] * 2),
         next(g for g in presentation.relations if g.arrows[0] == "a")],
    ]
    for group in groups:
        group += [pickle.loads(pickle.dumps(p)) for p in group]
        group += [copy.copy(p) for p in group] + [copy.deepcopy(group[0])]
        table = {group[0]: "found"}
        for p in group:
            assert p == group[0] and hash(p) == hash(group[0]) and table[p] == "found", p
    assert len({p for group in groups for p in group}) == len(groups)


def test_path_pickled_in_another_process_is_found():
    """A pickle carries no hash, so a path pickled under another string hash
    seed still finds its twin in a dict."""
    code = ("import pickle, sys; from stringalg import Path; sys.stdout.write("
            "pickle.dumps([Path.of(('a', 'b')), Path.stationary('1')]).hex())")
    env = dict(os.environ, PYTHONHASHSEED="7", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    paths = pickle.loads(bytes.fromhex(out))
    table = {Path.of(("a", "b")): 1, Path.stationary("1"): 2}
    assert [table[p] for p in paths] == [1, 2]
    assert [hash(p) for p in paths] == [hash(p) for p in table]
