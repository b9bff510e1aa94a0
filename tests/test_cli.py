"""Command-line surface: deterministic reports and exit codes."""

import json
import pathlib
import random
import time

import pytest

from stringalg import _smith, cli, decompose
from stringalg._linalg import Echelon
from stringalg.cli import run
from stringalg.polymat import MAX_PARSE_DEGREE, Poly, PolyMatrix, _pairs, format_poly_matrix

from conftest import (CYCLE_PENDANT, DOUBLED_THREE_CYCLE, FREE_LOOP, KRONECKER,
                      LOOP_X70, ONE_LOOP, TWO_CYCLE_FREE, TWO_CYCLE_REL, make_algebra)
from test_compose import wrong_block_unit, wrong_unit_tower

EXAMPLE_MATRIX = """6*x^3 - 4*x^2, -3*x + 2, 9*x^2 - 4
2*x^2 - 1, -1, 3*x + 2
2*x^3, -x + 1, 3*x^2 + 2*x
"""

# `stringalg --help` and each subcommand's `-h` at 80 columns
HELP_GOLDEN = pathlib.Path(__file__).with_name("cli_help.golden")
HELP_COMMANDS = ("validate", "basis", "maximal", "radical", "center0", "derivation",
                 "exp", "inner", "decompose", "smith", "outer-class")


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def test_validate_kronecker(files, capsys):
    code = run(["validate", files("k.quiver", KRONECKER)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "gentle; finite-dimensional; dim 4"


def test_validate_reports_invalid(files, capsys):
    bad = "vertex 1\nvertex 2\narrow a : 1 -> 2\narrow b : 1 -> 2\narrow c : 1 -> 2\n"
    code = run(["validate", files("bad.quiver", bad)])
    assert code == 2
    out = capsys.readouterr().out
    assert "invalid" in out and "indegree 3" in out


def test_validate_locally_string(files, capsys):
    code = run(["validate", files("p.quiver", CYCLE_PENDANT)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "locally-gentle; infinite-dimensional"


def test_validate_syntax_error_exit(files, capsys):
    assert run(["validate", files("s.quiver", "vertex 1\narrow a : 1 ->")]) == 2


def test_basis(files, capsys):
    code = run(["--max-len", "4", "basis", files("q.quiver", TWO_CYCLE_REL)])
    assert code == 0
    assert capsys.readouterr().out.split() == [
        "e_1", "e_2", "a", "b", "a.b", "b.a", "a.b.a", "b.a.b"]


def test_basis_listing_cap(files, capsys):
    # 100000 * 100001 / 2 arrows: refused before any path is built
    code = run(["--max-len", "100000", "basis", files("q.quiver", ONE_LOOP)])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: basis: the paths up to length 100000 hold "
                            "5000050000 arrows, past the cap of 2000000; "
                            "a smaller --max-len lists fewer\n")


def test_long_linear_quiver(files, capsys):
    # 1000 arrows in a line, no relations: the walk table gives the dimension
    # without listing the n^3/6 arrows of the radical basis, which is refused
    n = 1000
    text = "".join(f"vertex {i}\n" for i in range(n + 1))
    text += "".join(f"arrow a{i} : {i} -> {i + 1}\n" for i in range(n))
    q = files("line.quiver", text)
    assert run(["validate", q]) == 0
    assert capsys.readouterr().out == f"gentle; finite-dimensional; dim {n + 1 + n * (n + 1) // 2}\n"
    for command in ("radical", "maximal"):
        assert run([command, q]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: radical basis: its paths hold "
                                f"{n * (n + 1) * (n + 2) // 6} arrows, past the cap of 2000000\n")


def test_long_finite_walk(files, capsys):
    q = files("q.quiver", LOOP_X70)
    assert run(["validate", q]) == 0
    assert capsys.readouterr().out == "string; finite-dimensional; dim 70\n"
    assert run(["maximal", q]) == 0
    longest = ".".join(["x"] * 69)
    assert capsys.readouterr().out == f"finite maximal:\n  {longest}\ninfinite maximal:\n"
    assert run(["radical", q]) == 0
    assert capsys.readouterr().out.split() == [".".join(["x"] * k) for k in range(1, 70)]


def test_validate_long_relation_within_budget(files, capsys):
    # one loop whose 100000th power vanishes: the walk from x is built one
    # arrow at a time, so its length costs no more than its arrows
    q = files("q.quiver", "vertex v\narrow x : v -> v\nrelation" + " x" * 100000 + "\n")
    start = time.perf_counter()
    assert run(["validate", q]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == "string; finite-dimensional; dim 100000\n"
    assert elapsed < 2.0, f"validate took {elapsed:.1f}s, over the 2s budget"


@pytest.mark.parametrize("command, max_len, extra", [
    ("maximal", "2", ()), ("radical", "2", ()), ("inner", "1", ("1 + 1*a + 1*b\n",))])
def test_max_len_only_bounds_basis(files, capsys, command, max_len, extra):
    args = [command, files("q.quiver", TWO_CYCLE_REL)]
    args += [files(f"in{i}", text) for i, text in enumerate(extra)]
    assert run(args) == 0
    default = capsys.readouterr()
    assert run(["--max-len", max_len] + args) == 0
    assert capsys.readouterr() == default


def test_maximal_report(files, capsys):
    code = run(["maximal", files("q.quiver", CYCLE_PENDANT)])
    assert code == 0
    assert capsys.readouterr().out == (
        "finite maximal:\n  c\ninfinite maximal:\n  (a.b)^inf\n")


def test_radical(files, capsys):
    code = run(["radical", files("q.quiver", CYCLE_PENDANT)])
    assert code == 0
    assert capsys.readouterr().out.split() == ["c"]


def test_center0(files, capsys):
    code = run(["center0", files("q.quiver", TWO_CYCLE_REL)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "degree-0 center dimension: 1"


def test_derivation_and_exp(files, capsys):
    q = files("q.quiver", TWO_CYCLE_REL)
    d = files("d.map", "map a = 1*a.b.a\n")
    assert run(["derivation", q, d]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "valid derivation; types: cycle, maximal"
    assert run(["exp", q, d]) == 0
    out = capsys.readouterr().out
    assert "map a = 1*a + 1*a.b.a" in out
    assert "map b = 1*b" in out


def test_derivation_error_exit(files, capsys):
    q = files("q.quiver", TWO_CYCLE_REL)
    bad = files("d.map", "map a = 1*a.b\n")
    assert run(["derivation", q, bad]) == 3


def test_exp_cap_exit(files, capsys):
    q = files("q.quiver", TWO_CYCLE_REL)
    bad = files("d.map", "map a = 1*a\n")
    assert run(["exp", q, bad]) == 4


def test_inner(files, capsys):
    q = files("q.quiver", TWO_CYCLE_REL)
    u = files("u.element", "1 - 1*a.b + 1*b.a\n")
    assert run(["inner", q, u]) == 0
    out = capsys.readouterr().out
    assert "unit: 1 - 1*a.b + 1*b.a" in out
    assert "map a = 1*a + 2*a.b.a" in out
    assert "map b = 1*b - 2*b.a.b" in out


def test_inner_element_file_has_comments(files, capsys):
    q = files("q.quiver", TWO_CYCLE_REL)
    u = files("u.element", "# unit\n1 - 1*a.b  # the constant and a.b\n+ 1*b.a\n")
    assert run(["inner", q, u]) == 0
    out = capsys.readouterr().out
    assert "unit: 1 - 1*a.b + 1*b.a" in out
    assert "map a = 1*a + 2*a.b.a" in out


def test_inner_not_a_unit_exit(files, capsys):
    q = files("q.quiver", "vertex 1\nvertex 2\narrow a : 1 -> 2\narrow b : 2 -> 1\n")
    u = files("u.element", "1 + 1*a.b\n")
    assert run(["inner", q, u]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invert_unit: block of infinite maximal path 0 is not invertible: "
        "its inverse series has terms past the x-degree bound 1\n")


def test_decompose_inner_map(files, capsys):
    q = files("q.quiver", TWO_CYCLE_REL)
    m = files("f.map", "map a = 1*a + 2*a.b.a\nmap b = 1*b - 2*b.a.b\n")
    assert run(["decompose", q, m]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "factor 1: exp-maximal (trivial)"
    assert lines[1] == "factor 2: endpoint-preserving (trivial)"
    assert lines[2] == "factor 3: inner"
    assert lines[3] == "  unit 1 + 2*b.a"
    assert lines[4] == "verified: true"


def test_decompose_rejects_uncertifiable(files, capsys):
    q = files("q.quiver", TWO_CYCLE_REL)
    m = files("f.map", "map a = 1*a + 1*a.b\n")
    assert run(["decompose", q, m]) == 3


@pytest.mark.parametrize("text, message", [
    # moves e_1: the vertex images are checked by products
    ("map e_1 = 1*e_1 + 1*a\n", "images of e_1 and e_2 are not orthogonal"),
    # fixes the vertices: f(a) is checked by the endpoints of its terms
    ("map a = 1*a + 1*b\n", "e_1*f(a)*e_2 differs from f(a)"),
])
def test_decompose_uncertifiable_names_the_identity(files, capsys, text, message):
    q = files("q.quiver", TWO_CYCLE_FREE)
    assert run(["decompose", q, files("f.map", text)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_decompose_moved_free_loop_exit(files, capsys):
    q = files("q.quiver", FREE_LOOP)
    assert run(["decompose", q, files("f.map", "map x = 1*x + 1*x.x\n")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: intertwiner: no unit conjugates block 0 (a unit "
                            "would have x-degree at most 2, the x-degree of x.x in "
                            "the image of x)\n")


def test_decompose_wrong_inner_factor_is_certification_failure(files, capsys, monkeypatch):
    wrong_unit_tower(monkeypatch)
    q = files("q.quiver", TWO_CYCLE_REL)
    m = files("f.map", "map a = 1*a + 2*a.b.a\nmap b = 1*b - 2*b.a.b\n")
    assert run(["decompose", q, m]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: recomposition does not reproduce the input\n"


def test_decompose_intertwiner_above_the_size_cap(files, capsys, monkeypatch):
    monkeypatch.setattr(decompose, "MAX_INTERTWINER_SIZE", 3)
    q = files("q.quiver", TWO_CYCLE_FREE)
    assert run(["decompose", q, files("f.map", "map a = 1*a\n")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: intertwiner: the system for support paths up to "
                            "x-degree 0 has 4 entries (rows x unknowns), above the "
                            "cap of 3\n")


# conjugation by 1 + 2*b.a.b on the free two-cycle: it needs support paths
# of x-degree 2
CONJUGATION_BAB = ("map e_1 = 1*e_1 - 2*b.a.b\nmap e_2 = 1*e_2 + 2*b.a.b\n"
                   "map a = 1*a + 2*a.b.a.b - 2*b.a.b.a - 4*b.a.b.a.b.a.b\n")


def test_decompose_intertwiner_above_the_size_cap_at_a_grown_degree(
        files, capsys, monkeypatch):
    # the system has 13 entries at x-degree 0, 165 at 1 and 414 at 2: the cap
    # is checked on the grown system before any column of degree 2 is reduced
    monkeypatch.setattr(decompose, "MAX_INTERTWINER_SIZE", 300)
    reduced = []
    add = Echelon.add

    def recording(self, unknown, column):
        reduced.append(unknown)
        return add(self, unknown, column)

    monkeypatch.setattr(Echelon, "add", recording)
    q = files("q.quiver", TWO_CYCLE_FREE)
    assert run(["decompose", q, files("f.map", CONJUGATION_BAB)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: intertwiner: the system for support paths up to "
                            "x-degree 2 has 414 entries (rows x unknowns), above the "
                            "cap of 300\n")
    algebra = make_algebra(TWO_CYCLE_FREE)
    assert sorted(algebra.x_degree(p) for p in reduced) == [0, 1, 1, 1, 1]


def test_decompose_wrong_block_unit_exits_3(files, capsys, monkeypatch):
    # the block solve returns a unit that does not conjugate the block: the
    # check after the block correction names the arrow left moved
    wrong_block_unit(monkeypatch, "a")
    q = files("q.quiver", TWO_CYCLE_FREE)
    assert run(["decompose", q, files("bab.map", CONJUGATION_BAB)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: block correction left arrow a moved\n"


def test_decompose_block_without_a_unit_up_to_its_bound(files, capsys):
    # a -> a + a.b.a is certified but not onto (compare x -> x + x.x on k[x]):
    # a unit would have x-degree at most 1, read off a.b.a, and none has
    q = files("q.quiver", TWO_CYCLE_FREE)
    assert run(["decompose", q, files("f.map", "map a = 1*a + 1*a.b.a\n")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: intertwiner: no unit conjugates block 0 (a unit "
                            "would have x-degree at most 1, the x-degree of a.b.a in "
                            "the image of a)\n")
    # the top moved term b.a.b.a.b.a.b bounds this unit by 4; it has x-degree 2
    assert run(["decompose", q, files("bab.map", CONJUGATION_BAB)]) == 0


def test_smith(files, capsys):
    m = files("m.mat", EXAMPLE_MATRIX)
    assert run(["smith", m]) == 0
    out = capsys.readouterr().out
    assert "verified: true" in out
    assert out.startswith("U = ")
    assert "sigma = " in out


@pytest.mark.parametrize("exponent", ["9" * 4301, "100000000"])
def test_smith_exponent_above_the_parse_limit(files, capsys, exponent):
    m = files("m.mat", f"1, x\nx^{exponent}, 1\n")
    assert run(["smith", m]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: ") and captured.err.count("\n") == 1
    assert str(MAX_PARSE_DEGREE) in captured.err


def test_smith_failed_invariant_is_certification_failure(files, capsys, monkeypatch):
    # every candidate factors the identity, so none passes the certificate
    identity = _pairs(PolyMatrix.identity(3).rows)
    factorizations = _smith.factorizations
    monkeypatch.setattr(_smith, "factorizations", lambda start: factorizations(identity))
    assert run(["smith", files("m.mat", EXAMPLE_MATRIX)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: smith factorization: no candidate passed its certificate\n"


def test_smith_above_the_prime_bit_cap(files, capsys, monkeypatch):
    # a dense 6x6 matrix of degree-4 entries whose factors swell for minutes
    rng = random.Random(5)
    m = PolyMatrix([[Poly([rng.randint(-9, 9) for _ in range(5)]) for _ in range(6)]
                    for _ in range(6)])
    monkeypatch.setattr(_smith, "PRIME_OFFSETS", _smith.PRIME_OFFSETS[:4])
    assert run(["smith", files("m.mat", format_poly_matrix(m) + "\n")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: smith: the primes in use reached 2048 bits; one more "
                            "would pass the cap of 2048 bits\n")


def test_smith_past_the_full_prime_table(files, capsys, monkeypatch):
    # no image is usable, so every prime of the table is drawn
    monkeypatch.setattr(_smith, "smith_image", lambda start, rows, cols, p: None)
    assert run(["smith", files("m.mat", EXAMPLE_MATRIX)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: smith: the primes in use reached 65536 bits; one more "
                            "would pass the cap of 65536 bits\n")


def test_smith_prints_coefficients_past_the_int_str_limit(files, capsys):
    # Python refuses int <-> str conversions past 4,300 digits by default
    big = "1" * 4401
    assert run(["smith", files("m.mat", f"{big}*x + 1, 1; 1, x\n")]) == 0
    out = capsys.readouterr().out
    assert big in out
    assert out.endswith("verified: true\n")


@pytest.mark.parametrize("command,text", [
    ("smith", "1/0, 0; 0, 1\n"),
    ("smith", "1, 0\n0, x +\n"),
    ("smith", b"1, 0; 0, \xff\n"),
    ("derivation", "map a = 2*\n"),
    ("derivation", "map a = 1*a.b.a\nmap a = 1*a.b.a\n"),
    ("decompose", "map a = 1*a + 2*a.b.a\nmap a = 1*a\n"),
    ("decompose", "map a = 1*a +\n"),
])
def test_malformed_file_is_invalid_input(files, capsys, tmp_path, command, text):
    path = tmp_path / "input"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    argv = [command, str(path)] if command == "smith" else \
        [command, files("q.quiver", TWO_CYCLE_REL), str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_outer_class(files, capsys):
    assert run(["outer-class", files("k.quiver", KRONECKER)]) == 0
    assert "group: GL_2(k)" in capsys.readouterr().out
    assert run(["outer-class", files("d.quiver", DOUBLED_THREE_CYCLE)]) == 0
    assert "group: Z/2Z ⋉ (k^x)^6" in capsys.readouterr().out


def test_outer_class_not_gentle_exit(files, capsys):
    assert run(["outer-class", files("q.quiver", TWO_CYCLE_REL)]) == 2


def test_json_mode(files, capsys):
    code = run(["--json", "validate", files("k.quiver", KRONECKER)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "gentle"
    assert data["dimension"] == 4


def test_usage_error_exit(capsys):
    assert run(["no-such-command"]) == 64
    assert run([]) == 64


def test_missing_file_exit(capsys):
    assert run(["validate", "/nonexistent/q.quiver"]) == 2


def test_byte_stable_output(files, capsys):
    q = files("q.quiver", CYCLE_PENDANT)
    run(["maximal", q])
    first = capsys.readouterr().out
    run(["maximal", q])
    assert capsys.readouterr().out == first


def test_nonpositive_cap_is_usage_error(files, capsys):
    q = files("q.quiver", KRONECKER)
    assert run(["--max-len", "0", "validate", q]) == 64


def _help_transcript(capsys):
    parts = []
    for argv in [["--help"]] + [[name, "-h"] for name in HELP_COMMANDS]:
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        parts.append(f"$ stringalg {' '.join(argv)}\n{captured.out}")
    return "".join(parts)


def test_help_text_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _help_transcript(capsys) == HELP_GOLDEN.read_text(encoding="utf-8")


def test_parser_reuse_leaks_no_state(files, capsys, monkeypatch):
    """Many calls in one process build the parser at most once, and no
    option, usage error or help request carries over to the next call."""
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "stringalg":
            built.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    k = files("k.quiver", KRONECKER)
    loop = files("loop.quiver", ONE_LOOP)
    q = files("q.quiver", TWO_CYCLE_FREE)
    m = files("f.map", CONJUGATION_BAB)

    def call(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    validate = call("validate", k)
    basis = call("basis", loop)
    decomposed = call("decompose", q, m)
    assert validate == (0, "gentle; finite-dimensional; dim 4\n", "")
    assert basis[0] == 0 and len(basis[1].split()) == 65
    assert decomposed[0] == 0 and decomposed[1].endswith("verified: true\n")
    helps = []
    for _ in range(3):
        assert json.loads(call("--json", "validate", k)[1])["dimension"] == 4
        assert call("validate", k) == validate
        assert call("--max-len", "4", "basis", loop)[1].split() == [
            "e_v", "x", "x.x", "x.x.x", "x.x.x.x"]
        assert call("basis", loop) == basis
        assert call("--max-len", "100000", "basis", loop)[0] == 4
        assert call("decompose", q, m) == decomposed
        assert call("no-such-command")[0] == 64
        assert call()[0] == 64
        assert call("validate", k) == validate
        helps.append(call("--help"))
    assert helps[0][0] == 0 and helps[0][1].startswith("usage: stringalg")
    assert helps[2] == helps[1] == helps[0]
    assert len(built) <= 1
