"""Mutated input files through every subcommand keep the CLI's exit-code
contract: an exit in {0, 2, 3, 4, 64}, one line on stderr when a command
fails, and no exception out of `cli.run`."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from stringalg.cli import run  # noqa: E402

from conftest import SOURCES  # noqa: E402
from test_cli import EXAMPLE_MATRIX  # noqa: E402

# presentations with arrows a and b, which the maps and elements name
QUIVERS = [SOURCES[name] for name in
           ("two_cycle_rel", "kronecker", "two_cycle_free", "cycle_pendant")]
MAPS = ["map a = 1*a + 2*a.b.a\nmap b = 1*b - 2*b.a.b\n", "map a = 1*a.b.a\n",
        "map a = 1*a + 1*b\n", "map e_1 = 1*e_1\nmap a = 2*a\n"]
ELEMENTS = ["1 - 1*a.b + 1*b.a\n", "# unit\n2 + 1*a.b  # and a.b\n"]
MATRICES = [EXAMPLE_MATRIX, "x, 1\n0, x^2 - 1\n"]
# the files each subcommand reads, in argument order
COMMANDS = {
    "validate": ("quiver",), "basis": ("quiver",), "maximal": ("quiver",),
    "radical": ("quiver",), "center0": ("quiver",), "outer-class": ("quiver",),
    "derivation": ("quiver", "map"), "exp": ("quiver", "map"),
    "inner": ("quiver", "element"), "decompose": ("quiver", "map"),
    "smith": ("matrix",),
}
# replacements for a slice of a file: the grammar's tokens, numbers past the
# caps, and a byte that is not UTF-8
TOKENS = [b"", b" ", b"\n", b"-", b"+", b"*", b".", b"^", b",", b":", b"->", b"=",
          b"#", b"/", b"0", b"1", b"-1", b"99", b"10000000", b"x", b"a", b"b", b"c",
          b"e_1", b"e_9", b"vertex", b"arrow", b"relation", b"map", b"\xff"]


@st.composite
def mutated(draw, texts):
    """A fixture file with up to three slices of up to 8 bytes replaced; two
    draws in five leave it intact, so the later stages run too."""
    data = draw(st.sampled_from(texts)).encode()
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data = data[:i] + draw(st.sampled_from(TOKENS)) + data[j:]
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@seed(20251)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(quiver=mutated(QUIVERS), map_=mutated(MAPS), element=mutated(ELEMENTS),
       matrix=mutated(MATRICES), as_json=st.booleans())
def test_mutated_files_keep_the_exit_code_contract(workdir, quiver, map_, element,
                                                    matrix, as_json):
    paths = {}
    for kind, data in (("quiver", quiver), ("map", map_), ("element", element),
                       ("matrix", matrix)):
        paths[kind] = workdir / kind
        paths[kind].write_bytes(data)
    options = ["--max-len", "12"] + ["--json"] * as_json
    for command, kinds in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(options + [command] + [str(paths[kind]) for kind in kinds])
        assert code in (0, 2, 3, 4, 64), command
        if code == 0:
            assert err.getvalue() == "", command
        elif command == "validate" and code == 2 and err.getvalue() == "":
            # an invalid presentation is validate's report, written to stdout
            assert out.getvalue(), command
        else:
            assert err.getvalue().count("\n") == 1, command
            assert err.getvalue().endswith("\n"), command
