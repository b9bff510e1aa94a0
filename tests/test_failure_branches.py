"""Failure branches that the rest of the suite does not reach: each raise
is driven by the smallest input that gets there, and its exception class
and full message are pinned.  Where a subcommand reaches the raise, the
CLI's exit code and its one stderr line are pinned too."""

import pytest

from stringalg import Path
from stringalg.cli import run
from stringalg.decompose import decompose_general, peel_maximal
from stringalg.errors import (CertificationError, DerivationError, MatrixFormatError,
                              QuiverFormatError, ShapeError)
from stringalg.morphisms import (Endomorphism, graded_part, invert_graded,
                                 make_derivation, membership, parse_endomorphism,
                                 verify_endomorphism)
from stringalg.polymat import Poly, PolyMatrix, parse_poly_matrix
from stringalg.quiver import Quiver, RelationSet, parse_quiver

from conftest import DOUBLED_LINE, ONE_LOOP, TWO_CYCLE_FREE, make_algebra
from test_cli import files  # noqa: F401  (the fixture)


def _raises(call, cls, message):
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


def _cli_fails(capsys, argv, code, line):
    """run(argv) exits with code, writes nothing to stdout and exactly the
    one line to stderr."""
    capsys.readouterr()
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


# -- certification of an endomorphism and decompose on it ------------------------

# (presentation, map text, message): maps that move the vertices and fail
# the identity checked by products, and a map that kills no relation
UNCERTIFIABLE = [
    (TWO_CYCLE_FREE, "map e_1 = 2*e_1\n", "image of e_1 is not idempotent"),
    (TWO_CYCLE_FREE, "map e_2 = 0\nmap a = 0\nmap b = 0\n",
     "vertex images do not sum to the identity"),
    (DOUBLED_LINE, "map a1 = 1*b1\n", "image of relation a1.b2 is nonzero"),
]


@pytest.mark.parametrize("source, text, message", UNCERTIFIABLE,
                         ids=["idempotent", "sum", "relation"])
def test_verify_endomorphism_names_the_failed_identity(source, text, message):
    f = parse_endomorphism(make_algebra(source), text)
    _raises(lambda: verify_endomorphism(f), CertificationError, message)


@pytest.mark.parametrize("source, text, message", UNCERTIFIABLE,
                         ids=["idempotent", "sum", "relation"])
def test_decompose_of_an_uncertifiable_map_exits_3(files, capsys, source, text, message):
    argv = ["decompose", files("q.quiver", source), files("f.map", text)]
    _cli_fails(capsys, argv, 3, f"error: {message}")


# e_1 -> 1 and everything else -> 0 on the free two-cycle: an endomorphism,
# but not onto, and its graded part sends e_1 to a sum of two vertices
NOT_ONTO = "map e_1 = 1\nmap e_2 = 0\nmap a = 0\nmap b = 0\n"


def test_certified_map_that_is_not_onto_fails_in_decompose(files, capsys):
    f = verify_endomorphism(parse_endomorphism(make_algebra(TWO_CYCLE_FREE), NOT_ONTO))
    assert f.certified
    _raises(lambda: decompose_general(f), CertificationError,
            "graded map does not permute vertices")
    argv = ["decompose", files("q.quiver", TWO_CYCLE_FREE), files("f.map", NOT_ONTO)]
    _cli_fails(capsys, argv, 3, "error: graded map does not permute vertices")


def test_invert_graded_rejects_a_map_that_is_not_homogeneous():
    f = verify_endomorphism(
        parse_endomorphism(make_algebra(TWO_CYCLE_FREE), "map a = 1*a + 1*a.b.a\n"))
    _raises(lambda: invert_graded(f), CertificationError,
            "image of a is not homogeneous of degree 1")


# -- guards of the pipeline stages ------------------------------------------------


@pytest.mark.parametrize("stage, message", [
    (decompose_general, "input endomorphism is not certified"),
    (peel_maximal, "peel requires a certified graded-identity input"),
    (graded_part, "graded part requires a certified endomorphism"),
    (membership, "membership requires a certified endomorphism"),
])
def test_stage_rejects_an_uncertified_input(stage, message):
    f = parse_endomorphism(make_algebra(TWO_CYCLE_FREE), "map a = 1*a\n")
    assert not f.certified
    _raises(lambda: stage(f), CertificationError, message)


@pytest.mark.parametrize("stage, message", [
    (decompose_general, "decompose requires an algebra beyond the one-loop free algebra"),
    (peel_maximal, "peel requires an algebra beyond the one-loop free algebra"),
    (graded_part, "graded part is not defined for the one-loop free algebra"),
])
def test_stage_rejects_the_one_loop_free_algebra(stage, message):
    f = Endomorphism.identity(make_algebra(ONE_LOOP))
    _raises(lambda: stage(f), ShapeError, message)


# -- constructors and arithmetic -----------------------------------------------------


def test_make_derivation_rejects_an_unknown_arrow():
    algebra = make_algebra(TWO_CYCLE_FREE)
    _raises(lambda: make_derivation(algebra, [("z", algebra.arrow("a"))]),
            DerivationError, "unknown arrow z")


def test_endomorphism_needs_every_generator_image():
    algebra = make_algebra(TWO_CYCLE_FREE)
    _raises(lambda: Endomorphism(algebra, {"1": algebra.stationary("1")}, {}),
            ValueError, "missing generator images: ['2', 'a', 'b']")


def test_unknown_generator_names():
    algebra = make_algebra(TWO_CYCLE_FREE)
    _raises(lambda: algebra.stationary("9"), ValueError, "unknown vertex 9")
    _raises(lambda: algebra.arrow("z"), ValueError, "unknown arrow z")


def test_element_rejects_an_unknown_vertex_or_arrow():
    algebra = make_algebra(TWO_CYCLE_FREE)
    _raises(lambda: algebra.element({Path.stationary("zz"): 1}), ValueError,
            "unknown vertex zz")
    _raises(lambda: algebra.element({Path.of(("a", "q")): 1}), ValueError,
            "unknown arrow q")
    _raises(lambda: algebra.path_element(("q",)), ValueError, "unknown arrow q")
    # a plain tuple equals the path it keys, but is not one
    _raises(lambda: algebra.element({(1, "a"): 1}), ValueError,
            "not a path: (1, 'a')")


def test_element_times_an_int_from_either_side():
    algebra = make_algebra(TWO_CYCLE_FREE)
    x = algebra.arrow("a") - algebra.path_element(("a", "b"))
    assert str(x * 3) == str(3 * x) == "3*a - 3*a.b"
    assert x * 3 == 3 * x == x.scale(3)
    assert (x * 0).is_zero


def test_poly_division_by_zero():
    _raises(lambda: divmod(Poly([1, 2]), Poly()), ZeroDivisionError,
            "polynomial division by zero")
    _raises(lambda: Poly([1, 2]).exact_div(Poly()), ZeroDivisionError,
            "polynomial division by zero")


def test_poly_matrix_shapes():
    message = "matrix must be square of dimension >= 1"
    _raises(lambda: PolyMatrix([[1, 2]]), ValueError, message)
    _raises(lambda: PolyMatrix([]), ValueError, message)
    _raises(lambda: PolyMatrix([[1]]) * PolyMatrix.identity(2), ValueError,
            "dimension mismatch")


def test_matrix_file_of_only_comments(files, capsys):
    text = "# only\n# comments\n"
    _raises(lambda: parse_poly_matrix(text), MatrixFormatError, "empty matrix")
    _cli_fails(capsys, ["smith", files("m.mat", text)], 2, "error: empty matrix")


@pytest.mark.parametrize("vertices, arrows, message", [
    (["1", "1"], [("a", "1", "1")], "duplicate vertex identifier"),
    (["1"], [("a", "1", "1"), ("a", "1", "1")], "duplicate arrow identifier"),
    (["1"], [], "quiver must have at least one arrow"),
    (["1"], [("a", "1", "2")], "arrow a references unknown vertex"),
])
def test_quiver_constructor_errors(vertices, arrows, message):
    _raises(lambda: Quiver(vertices, arrows), QuiverFormatError, message)


@pytest.mark.parametrize("arrows, message", [
    (["a"], "relation a has length < 2"),
    (["a", "a"], "relation a.a is not a composable path"),
])
def test_relation_set_constructor_errors(arrows, message):
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    _raises(lambda: RelationSet(quiver, [Path.of(arrows)]), QuiverFormatError, message)


def test_path_constructor_errors():
    _raises(lambda: Path(arrows=("a",), vertex="1"), ValueError,
            "composite path cannot carry a vertex")
    _raises(lambda: Path(), ValueError, "stationary path needs a vertex")


def test_vertex_line_with_two_names(files, capsys):
    text = "vertex a b\narrow x : a -> a\n"
    _raises(lambda: parse_quiver(text), QuiverFormatError, "line 1: expected `vertex <id>`")
    _cli_fails(capsys, ["validate", files("q.quiver", text)], 2,
               "error: line 1: expected `vertex <id>`")


def test_max_len_that_is_not_a_number(files, capsys):
    _cli_fails(capsys, ["--max-len", "abc", "validate", files("q.quiver", TWO_CYCLE_FREE)], 64,
               "stringalg: error: argument --max-len: expected a positive integer, got 'abc'")

