"""The benchmark's workloads: seeded inputs, one call per op, and the text
each op's output is pinned by.

Every workload draws its inputs from a stream seed.  The reference seeds
reproduce the acceptance streams (criterion 3 for `smith`, criterion 5 for
`decompose`); the holdout seeds are for re-checking a claim on inputs that
were not used while the change was written.  Goldens are pinned for both.

Ops call the program through module attributes at call time, so the traced
run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from stringalg import algebra as s_algebra
from stringalg import cli as s_cli
from stringalg import decompose as s_decompose
from stringalg import maximal as s_maximal
from stringalg import morphisms as s_morphisms
from stringalg import polymat as s_polymat
from stringalg import quiver as s_quiver


@dataclass
class Op:
    index: int
    group: str      # warm-up runs the first op of each group
    payload: object


@dataclass(frozen=True)
class Workload:
    name: str
    ref_seed: int
    holdout_seed: int
    build: object     # (stream_seed, workdir) -> list of Op
    prepare: object   # payload -> call argument, outside the timed region
    call: object      # call argument -> result, the timed op
    render: object    # result -> text pinned by the goldens


# -- presentations ---------------------------------------------------------------
# The fixtures of the test suite, copied so that later changes to the tests do
# not move the benchmark's inputs.

SOURCES = {
    "two_cycle_rel": """vertex 1
vertex 2
arrow a : 1 -> 2
arrow b : 2 -> 1
relation a b a b
relation b a b a
""",
    "one_loop": """vertex v
arrow x : v -> v
""",
    "kronecker": """vertex 1
vertex 2
arrow a : 1 -> 2
arrow b : 1 -> 2
""",
    "two_cycle_free": """vertex 1
vertex 2
arrow a : 1 -> 2
arrow b : 2 -> 1
""",
    "three_cycle_free": """vertex 1
vertex 2
vertex 3
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 3 -> 1
""",
    "two_loops": """vertex v
arrow x : v -> v
arrow y : v -> v
relation x x
relation y y
""",
    "cycle_pendant": """vertex 1
vertex 2
vertex 3
arrow a : 1 -> 2
arrow b : 2 -> 1
arrow c : 1 -> 3
relation b c
""",
    "cycle_with_diamond": """vertex 1
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
""",
    "double_diamond": """vertex u
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
""",
    "doubled_three_cycle": """vertex 1
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
""",
    "doubled_line": """vertex 1
vertex 2
vertex 3
arrow a1 : 1 -> 2
arrow b1 : 1 -> 2
arrow a2 : 2 -> 3
arrow b2 : 2 -> 3
relation a1 b2
relation b1 a2
""",
    # infinite cycle bridged to a second infinite cycle through one radical arrow
    "two_cycles_bridge": """vertex 1
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
""",
}

MIXED_SOURCES = ("two_cycle_rel", "cycle_pendant", "cycle_with_diamond",
                 "two_cycles_bridge")
ONE_CYCLE_SOURCES = ("two_cycle_free", "three_cycle_free", "two_loops")


def make_algebra(source):
    return s_algebra.PathAlgebra(s_quiver.parse_quiver(source))


def doubled_cycle(n):
    """Doubled n-cycle with alternating relations: locally gentle."""
    lines = [f"vertex {i}" for i in range(1, n + 1)]
    for i in range(1, n + 1):
        j = i % n + 1
        lines += [f"arrow a{i} : {i} -> {j}", f"arrow b{i} : {i} -> {j}"]
    for i in range(1, n + 1):
        j = i % n + 1
        lines += [f"relation a{i} b{j}", f"relation b{i} a{j}"]
    return "\n".join(lines) + "\n"


def doubled_line(n):
    """Doubled line on n vertices: gentle, finite-dimensional."""
    lines = [f"vertex {i}" for i in range(1, n + 1)]
    for i in range(1, n):
        lines += [f"arrow a{i} : {i} -> {i + 1}", f"arrow b{i} : {i} -> {i + 1}"]
    for i in range(1, n - 1):
        lines += [f"relation a{i} b{i + 1}", f"relation b{i} a{i + 1}"]
    return "\n".join(lines) + "\n"


def cycle_with_relations(n, k):
    """Oriented n-cycle in which every path of length k vanishes."""
    lines = [f"vertex {i}" for i in range(1, n + 1)]
    lines += [f"arrow c{i} : {i} -> {i % n + 1}" for i in range(1, n + 1)]
    for i in range(n):
        lines.append("relation " + " ".join(f"c{(i + t) % n + 1}" for t in range(k)))
    return "\n".join(lines) + "\n"


def presentation_text(presentation):
    q = presentation.quiver
    lines = [f"vertex {v}" for v in q.vertices]
    lines += [f"arrow {a.name} : {a.source} -> {a.target}" for a in q.arrows]
    lines += [f"relation {' '.join(g.arrows)}" for g in presentation.relations]
    return "\n".join(lines) + "\n"


# -- random generators ------------------------------------------------------------
# Same random streams as the generators of the test suite.


def derivation_targets(algebra, max_degree=8):
    """(arrow, path) pairs valid as single-path derivation targets that
    exponentiate to automorphisms."""
    report = s_maximal.classify_maximal(algebra)
    q = algebra.quiver
    cycle_arrows = algebra.cycle_arrows()
    out = []
    for a in sorted(q.arrow_by_name):
        if a not in cycle_arrows:
            z = s_maximal.rotation_sum(algebra, a)
            if z is not None:
                power = algebra.arrow(a) * z
                while not power.is_zero and power.min_degree() <= max_degree:
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


def elementary_unit_paths(algebra, max_degree=6):
    """Basis paths p with p*p = 0, so that 1 + c*p is always invertible."""
    out = []
    for p in algebra.enumerate_basis(max_degree):
        if p.is_stationary:
            continue
        pe = algebra.path_element(p)
        if (pe * pe).is_zero:
            out.append(p)
    return out


def random_exponential(rng, algebra, targets):
    if not targets:
        return s_morphisms.Endomorphism.identity(algebra)
    picks = rng.sample(targets, min(len(targets), rng.randint(1, 3)))
    assignments = [(a, algebra.path_element(p).scale(rng.randint(-3, 3)))
                   for a, p in picks]
    return s_morphisms.exponentiate(s_morphisms.make_derivation(algebra, assignments))


def random_inner(rng, algebra, paths):
    if not paths:
        return s_morphisms.inner_automorphism(s_morphisms.invert_unit(algebra.one()))
    value = algebra.one()
    for p in rng.sample(paths, min(len(paths), rng.randint(1, 3))):
        c = Fraction(rng.randint(-3, 3))
        value = value * (algebra.one() + algebra.path_element(p).scale(c))
    return s_morphisms.inner_automorphism(s_morphisms.invert_unit(value))


def random_graded_identity_automorphism(rng, algebra, pieces, targets, paths):
    f = s_morphisms.Endomorphism.identity(algebra)
    for _ in range(pieces):
        if rng.random() < 0.5:
            f = random_exponential(rng, algebra, targets).compose(f)
        else:
            f = random_inner(rng, algebra, paths).compose(f)
    return f


def random_presentation(rng, max_vertices=5, max_arrows=8, tries=60):
    """A random valid (locally) string presentation."""
    Path, Quiver = s_quiver.Path, s_quiver.Quiver
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
        for _ in range(rng.randint(0, 2)):
            length = rng.choice([2, 3])
            walk = [rng.choice(arrows)[0]]
            rel_set = s_quiver.RelationSet(quiver, [Path.of(r) for r in relations])
            while len(walk) < length:
                last = walk[-1]
                nxt = [a.name for a in quiver.arrows_from[quiver.target(last)]
                       if not rel_set.contains(Path.of((last, a.name)))]
                if not nxt:
                    break
                walk.append(rng.choice(nxt))
            if len(walk) == length:
                relations.add(tuple(walk))
        presentation = s_quiver.AlgebraPresentation.build(
            quiver, [Path.of(r) for r in relations])
        if presentation.is_valid:
            return presentation
    raise RuntimeError("random presentation generation failed to converge")


def random_poly_matrix(rng, n_max, degree_max, coeff_max):
    n = rng.randint(1, n_max)
    return s_polymat.PolyMatrix([
        [s_polymat.Poly([Fraction(rng.randint(-coeff_max, coeff_max))
                         for _ in range(rng.randint(0, degree_max) + 1)])
         for _ in range(n)] for _ in range(n)])


# -- smith: criterion-3 matrices ---------------------------------------------------

SMITH_ITEMS = 100


def build_smith(seed, workdir):
    """The first SMITH_ITEMS matrices of the criterion-3 stream, as drawn:
    n in 1..5, degree <= 4, |c| <= 9."""
    rng = random.Random(seed)
    ops = []
    for i in range(SMITH_ITEMS):
        # one group: nothing is cached between factorizations
        ops.append(Op(i, "smith", random_poly_matrix(rng, 5, 4, 9)))
    return ops


def call_smith(m):
    return s_polymat.modified_smith(m)


def render_smith(fact):
    fmt = s_polymat.format_poly_matrix
    return "\n".join([f"U = {fmt(fact.U)}", f"D = {fmt(fact.D)}",
                      "sigma = " + " ".join(str(s + 1) for s in fact.sigma),
                      f"V = {fmt(fact.V)}"])


# -- decompose: criterion-5 automorphisms -----------------------------------------

# item 81 of the reference stream alone takes about a minute, so the mixed
# prefix stops before it
DECOMPOSE_MIXED = 81
DECOMPOSE_ONE_CYCLE = 7


def build_decompose(seed, workdir):
    """Criterion-5 automorphisms: the first DECOMPOSE_MIXED items drawn
    round-robin over MIXED_SOURCES (3 pieces each), then
    DECOMPOSE_ONE_CYCLE inner maps on each one-cycle presentation, all from
    one stream."""
    rng = random.Random(seed)
    pool = []
    for name in MIXED_SOURCES:
        algebra = make_algebra(SOURCES[name])
        pool.append((name, algebra, derivation_targets(algebra),
                     elementary_unit_paths(algebra)))
    ops = []
    for i in range(DECOMPOSE_MIXED):
        name, algebra, targets, paths = pool[i % len(pool)]
        f = random_graded_identity_automorphism(rng, algebra, 3, targets, paths)
        ops.append(Op(i, name, f))
    for name in ONE_CYCLE_SOURCES:
        algebra = make_algebra(SOURCES[name])
        paths = elementary_unit_paths(algebra)
        for _ in range(DECOMPOSE_ONE_CYCLE):
            ops.append(Op(len(ops), name, random_inner(rng, algebra, paths)))
    return ops


def fresh_copy(f):
    """An equal endomorphism (and inverse) with empty image caches, so that
    repeated passes decompose a map as a new caller would see it."""
    Endomorphism = s_morphisms.Endomorphism
    g = Endomorphism(f.algebra, f.vertex_images, f.arrow_images, certified=f.certified)
    if f.inverse is not None:
        h = Endomorphism(f.algebra, f.inverse.vertex_images, f.inverse.arrow_images,
                         certified=f.inverse.certified)
        g.inverse, h.inverse = h, g
    return g


def call_decompose(f):
    return s_decompose.decompose_general(f)


def render_decompose(decomposition):
    fmt_elt, fmt_end = s_algebra.format_element, s_morphisms.format_endomorphism
    lines = []
    for factor in decomposition.factors:
        lines.append(f"factor {factor.kind} trivial={factor.is_trivial}")
        if factor.unit is not None:
            lines.append(f"unit {fmt_elt(factor.unit.value)}")
        elif not factor.is_trivial:
            lines.append(fmt_end(factor.endomorphism))
    return "\n".join(lines)


# -- cli: every subcommand on growing presentations ---------------------------------

EXAMPLE_MATRIX = """6*x^3 - 4*x^2, -3*x + 2, 9*x^2 - 4
2*x^2 - 1, -1, 3*x + 2
2*x^3, -x + 1, 3*x^2 + 2*x
"""

CLI_COMMANDS = ("validate", "basis", "maximal", "radical", "center0",
                "derivation", "exp", "inner", "decompose", "smith", "outer-class")
CLI_RANDOM_PRESENTATIONS = 6
CLI_RANDOM_MATRICES = 6


def cli_presentations(rng):
    """(label, text) of every presentation the cli workload runs on."""
    out = list(SOURCES.items())
    out += [(f"doubled_cycle_{n}", doubled_cycle(n)) for n in (4, 6, 8)]
    out += [(f"doubled_line_{n}", doubled_line(n)) for n in (4, 8, 12)]
    out += [(f"cycle_{n}_rel_{k}", cycle_with_relations(n, k))
            for n, k in ((3, 3), (5, 4), (8, 6))]
    out += [(f"random_{i}", presentation_text(random_presentation(rng)))
            for i in range(CLI_RANDOM_PRESENTATIONS)]
    return out


def build_cli(seed, workdir):
    """argv lists for stringalg.cli.run; input files go under workdir."""
    rng = random.Random(seed)
    counter = itertools.count()

    def write(text, suffix):
        path = os.path.join(workdir, f"{next(counter)}.{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    calls = []
    for label, text in cli_presentations(rng):
        q = write(text, "quiver")
        calls += [["validate", q], ["--json", "validate", q],
                  ["--max-len", "8", "basis", q], ["maximal", q],
                  ["--json", "maximal", q], ["radical", q], ["center0", q],
                  ["outer-class", q]]
        presentation = s_quiver.parse_quiver(text)
        if not presentation.is_valid:
            continue
        algebra = s_algebra.PathAlgebra(presentation)
        targets = derivation_targets(algebra)
        paths = elementary_unit_paths(algebra)
        if targets:
            a, p = rng.choice(targets)
            d = write(f"map {a} = {rng.choice((1, -2, 3))}*{p}\n", "map")
            calls += [["derivation", q, d], ["exp", q, d]]
        if paths:
            u = write(f"1 + {rng.randint(1, 3)}*{rng.choice(paths)}\n", "element")
            calls += [["inner", q, u]]
        # decompositions only on the fixtures: they are the heavy call
        if label in SOURCES and not presentation.is_polynomial_ring:
            f = random_graded_identity_automorphism(rng, algebra, 2, targets, paths)
            m = write(s_morphisms.format_endomorphism(f) + "\n", "map")
            calls += [["decompose", q, m], ["--json", "decompose", q, m]]
    matrices = [EXAMPLE_MATRIX] + [
        s_polymat.format_poly_matrix(random_poly_matrix(rng, 3, 2, 5))
        for _ in range(CLI_RANDOM_MATRICES)]
    for text in matrices:
        m = write(text, "mat")
        calls += [["smith", m], ["--json", "smith", m]]
    # the failure paths of the exit-code contract
    two_cycle_rel = write(SOURCES["two_cycle_rel"], "quiver")
    calls += [
        ["validate", write("vertex 1\nvertex 2\narrow a : 1 -> 2\narrow b : 1 -> 2\n"
                           "arrow c : 1 -> 2\n", "quiver")],
        ["validate", write("vertex 1\narrow a : 1 ->", "quiver")],
        ["derivation", two_cycle_rel, write("map a = 1*a.b\n", "map")],
        ["exp", two_cycle_rel, write("map a = 1*a\n", "map")],
        ["inner", write(SOURCES["two_cycle_free"], "quiver"),
         write("1 + 1*a.b\n", "element")],
        ["decompose", two_cycle_rel, write("map a = 1*a + 1*a.b\n", "map")],
        ["validate", os.path.join(workdir, "missing.quiver")],
        ["--max-len", "0", "validate", two_cycle_rel],
        ["no-such-command"],
    ]
    return [Op(i, next((a for a in argv if a in CLI_COMMANDS), "usage"), argv)
            for i, argv in enumerate(calls)]


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = s_cli.run(argv)
    return code, out.getvalue()


def render_cli(result):
    code, out = result
    return f"exit {code}\n{out}"


def _identity(x):
    return x


WORKLOADS = {
    "smith": Workload("smith", 42, 43, build_smith, _identity, call_smith,
                      render_smith),
    "decompose": Workload("decompose", 11, 12, build_decompose, fresh_copy,
                          call_decompose, render_decompose),
    "cli": Workload("cli", 7, 8, build_cli, _identity, call_cli, render_cli),
}
