"""validate_presentation against a reference that decides each composite of
two arrows with RelationSet.contains.

The reference lists the same conditions in the same order, so the
violation texts and their order are pinned as well as the classification:
connectivity, then the degree bounds of each vertex, then the overlap
conditions at each vertex (two arrows in before one out, then one in before
two out), then the gentle notes.  Finite or infinite comes from the
brute-force cycle scan of the walk-table tests, and each valid
presentation's walk table from the brute-force walks.
"""

import itertools
import random

from stringalg import parse_quiver
from stringalg.quiver import AlgebraPresentation, Path, Quiver, VALID_CLASSIFICATIONS

from conftest import FREE_LOOP, SOURCES
from test_bench_workloads import _workloads
from test_walk_table import LONG_RELATION_SOURCES, _reference_cycles, _reference_walk


def _reference_validation(presentation):
    quiver, relations = presentation.quiver, presentation.relations

    def dead(x, y):
        return relations.contains(Path.of((x.name, y.name)))

    violations, notes = [], []
    if not quiver.is_connected():
        violations.append("underlying graph is not connected")
    for v in quiver.vertices:
        for word, arrows in (("indegree", quiver.arrows_into[v]),
                             ("outdegree", quiver.arrows_from[v])):
            if len(arrows) > 2:
                violations.append(f"vertex {v} has {word} {len(arrows)} > 2")
    for v in quiver.vertices:
        ins, outs = quiver.arrows_into[v], quiver.arrows_from[v]
        pairs = [((b, a), (b2, a)) for b, b2 in itertools.combinations(ins, 2)
                 for a in outs]
        pairs += [((a, b), (a, b2)) for b, b2 in itertools.combinations(outs, 2)
                  for a in ins]
        for (x, y), (x2, y2) in pairs:
            both = f"both {x.name}.{y.name} and {x2.name}.{y2.name}"
            if not dead(x, y) and not dead(x2, y2):
                violations.append(f"{both} survive at vertex {v}")
            elif dead(x, y) and dead(x2, y2):
                notes.append(f"gentle: {both} vanish at vertex {v}")
    notes += [f"gentle: relation {g} has length {g.length} != 2"
              for g in relations if g.length != 2]
    if violations:
        return "invalid", violations + notes
    kind = "string" if notes else "gentle"
    return (f"locally-{kind}" if _reference_cycles(presentation) else kind), notes


def _reference_walks(presentation):
    """{arrow: (walk, periodic)} from the brute-force walks: a walk longer
    than every arrow plus the longest relation goes round its surviving
    cycle, and the entry is that cycle read from the arrow."""
    quiver, relations = presentation.quiver, presentation.relations
    bound = len(quiver.arrows) + max((g.length for g in relations), default=0) + 1
    table = {}
    for a in quiver.arrow_by_name:
        walk = _reference_walk(presentation, a, bound)
        if len(walk) == bound:
            period = next(k for k in range(1, bound) if walk[k] == a
                          and walk[k:] == walk[:bound - k])
            table[a] = (walk[:period], True)
        else:
            table[a] = (walk, False)
    return table


def _check(name, presentation):
    expected = _reference_validation(presentation)
    assert (presentation.classification, list(presentation.violations)) == expected, name
    if presentation.is_valid:
        assert presentation.walks == _reference_walks(presentation), name
    else:
        assert presentation.walks is None, name


def random_relation_presentation(rng):
    """A random quiver on up to 4 vertices, its arrows mostly kept under the
    degree bounds, with up to 6 random composable relations of 2 to 4
    arrows; most such presentations are invalid."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 4))]
    arrows = []
    for k in range(rng.randint(1, 7)):
        s, t = rng.choice(vertices), rng.choice(vertices)
        crowded = (sum(a[1] == s for a in arrows) >= 2
                   or sum(a[2] == t for a in arrows) >= 2)
        if not crowded or rng.random() < 0.2:
            arrows.append((f"a{k}", s, t))
    if not arrows:
        arrows.append(("a0", vertices[0], vertices[-1]))
    quiver = Quiver(vertices, arrows)
    relations = []
    for _ in range(rng.randint(0, 6)):
        walk = [rng.choice(quiver.arrows)]
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            nexts = quiver.arrows_from[walk[-1].target]
            if not nexts:
                break
            walk.append(rng.choice(nexts))
        if len(walk) >= 2:
            relations.append(Path.of(a.name for a in walk))
    return AlgebraPresentation.build(quiver, relations)


def test_fixtures_match_the_pair_scan_reference():
    sources = dict(SOURCES, free_loop=FREE_LOOP, **LONG_RELATION_SOURCES)
    for name, source in sources.items():
        _check(name, parse_quiver(source))


def test_cli_workload_shapes_match_the_pair_scan_reference():
    """The cli benchmark's presentations: the fixtures, doubled cycles and
    lines, cycles with relations, and its random presentations."""
    workloads = _workloads()
    for seed in (1, 2, 3):
        for name, text in workloads.cli_presentations(random.Random(seed)):
            _check(name, parse_quiver(text))
    for n in range(2, 10):
        _check(f"doubled_cycle_{n}", parse_quiver(workloads.doubled_cycle(n)))
        _check(f"doubled_line_{n}", parse_quiver(workloads.doubled_line(n)))
        for k in range(2, n + 2):
            _check(f"cycle_{n}_rel_{k}",
                   parse_quiver(workloads.cycle_with_relations(n, k)))


def test_random_relations_match_the_pair_scan_reference():
    rng = random.Random(401)
    seen = []
    for k in range(1200):
        presentation = random_relation_presentation(rng)
        _check(f"random {k}", presentation)
        seen.append(presentation.classification)
    assert seen.count("invalid") > len(seen) // 2
    assert set(seen) == {"invalid", *VALID_CLASSIFICATIONS}


def _cycle_relation(n, start, length):
    """The path of `length` arrows round the n-cycle from arrow c<start>."""
    return Path.of(f"c{(start + t) % n}" for t in range(length))


def test_long_relations_on_cycles_match_the_brute_force_walks():
    """n-cycles with one or two relations longer than the cycle, starting at
    every arrow: a walk winds round the cycle until the relation that starts
    nearest ends it, or goes round forever when none does."""
    for n in range(1, 6):
        quiver = Quiver([f"v{i}" for i in range(n)],
                        [(f"c{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])
        singles = [_cycle_relation(n, start, length)
                   for start in range(n) for length in range(n + 1, 3 * n + 2)]
        for relations in itertools.chain(([g] for g in singles),
                                         itertools.combinations(singles, 2)):
            name = f"{n}-cycle with {' and '.join(map(str, relations))}"
            _check(name, AlgebraPresentation.build(quiver, relations))
