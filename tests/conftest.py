"""Shared presentations used across the suite."""

import pytest

from stringalg import PathAlgebra, parse_quiver

# the two-vertex cycle with both fourth-power-style relations; string, dim 8
TWO_CYCLE_REL = """
vertex 1
vertex 2
arrow a : 1 -> 2
arrow b : 2 -> 1
relation a b a b
relation b a b a
"""

# one loop, no relations: the polynomial ring in one variable
ONE_LOOP = """
vertex v
arrow x : v -> v
"""

# two parallel arrows: the four-dimensional gentle algebra
KRONECKER = """
vertex 1
vertex 2
arrow a : 1 -> 2
arrow b : 1 -> 2
"""

# relation-free two-vertex cycle: locally gentle, one infinite maximal path
TWO_CYCLE_FREE = """
vertex 1
vertex 2
arrow a : 1 -> 2
arrow b : 2 -> 1
"""

# relation-free three-vertex cycle
THREE_CYCLE_FREE = """
vertex 1
vertex 2
vertex 3
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 3 -> 1
"""

# one vertex, two loops, squares vanish: locally gentle, cycle x.y
TWO_LOOPS = """
vertex v
arrow x : v -> v
arrow y : v -> v
relation x x
relation y y
"""

# infinite cycle plus a pendant finite-maximal arrow
CYCLE_PENDANT = """
vertex 1
vertex 2
vertex 3
arrow a : 1 -> 2
arrow b : 2 -> 1
arrow c : 1 -> 3
relation b c
"""

# infinite cycle feeding a branching tail whose long branch is maximal and
# parallel to the short one; the only presentation here with every kind of
# structure at once
CYCLE_WITH_DIAMOND = """
vertex 1
vertex 2
vertex 3
vertex 4
vertex 5
arrow a : 1 -> 2
arrow b : 2 -> 1
arrow c : 2 -> 3
arrow e : 3 -> 5
arrow f : 3 -> 4
arrow g : 4 -> 5
relation a c
relation c f
"""

# two glued diamonds: gentle, exactly two arrows admit a parallel maximal path
DOUBLE_DIAMOND = """
vertex u
vertex m
vertex v
vertex u2
vertex v2
arrow s : u -> v
arrow p : u -> m
arrow q : m -> v
arrow s2 : u2 -> v2
arrow p2 : u2 -> m
arrow q2 : m -> v2
relation p q2
relation p2 q
"""

# doubled three-cycle with alternating relations: locally gentle
DOUBLED_THREE_CYCLE = """
vertex 1
vertex 2
vertex 3
arrow a1 : 1 -> 2
arrow b1 : 1 -> 2
arrow a2 : 2 -> 3
arrow b2 : 2 -> 3
arrow a3 : 3 -> 1
arrow b3 : 3 -> 1
relation a1 b2
relation b1 a2
relation a2 b3
relation b2 a3
relation a3 b1
relation b3 a1
"""

# doubled line on three vertices: gentle, finite-dimensional
DOUBLED_LINE = """
vertex 1
vertex 2
vertex 3
arrow a1 : 1 -> 2
arrow b1 : 1 -> 2
arrow a2 : 2 -> 3
arrow b2 : 2 -> 3
relation a1 b2
relation b1 a2
"""

# one free loop beside an arrow it cannot continue into: its infinite-cycle
# block is the polynomial ring k[x]; kept out of SOURCES and the suites
# that run over it
FREE_LOOP = """
vertex 1
vertex 2
arrow x : 1 -> 1
arrow a : 1 -> 2
relation x a
"""

# one loop whose 70th power vanishes: string, dim 70, with basis paths
# longer than the CLI's default --max-len; kept out of SOURCES, whose
# reports are pinned
LOOP_X70 = "vertex v\narrow x : v -> v\nrelation " + " ".join(["x"] * 70) + "\n"

SOURCES = {
    "two_cycle_rel": TWO_CYCLE_REL,
    "one_loop": ONE_LOOP,
    "kronecker": KRONECKER,
    "two_cycle_free": TWO_CYCLE_FREE,
    "three_cycle_free": THREE_CYCLE_FREE,
    "two_loops": TWO_LOOPS,
    "cycle_pendant": CYCLE_PENDANT,
    "cycle_with_diamond": CYCLE_WITH_DIAMOND,
    "double_diamond": DOUBLE_DIAMOND,
    "doubled_three_cycle": DOUBLED_THREE_CYCLE,
    "doubled_line": DOUBLED_LINE,
}


def make_algebra(source):
    return PathAlgebra(parse_quiver(source))


@pytest.fixture
def ex_string():
    return make_algebra(TWO_CYCLE_REL)


@pytest.fixture
def poly_ring():
    return make_algebra(ONE_LOOP)


@pytest.fixture
def kronecker():
    return make_algebra(KRONECKER)


@pytest.fixture
def cycle_free():
    return make_algebra(TWO_CYCLE_FREE)


@pytest.fixture
def cycle_pendant():
    return make_algebra(CYCLE_PENDANT)


@pytest.fixture
def cycle_diamond():
    return make_algebra(CYCLE_WITH_DIAMOND)


@pytest.fixture
def double_diamond():
    return make_algebra(DOUBLE_DIAMOND)
