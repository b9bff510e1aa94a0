"""Quivers, paths, monomial relation sets, and presentation validation.

A presentation is a finite quiver together with a finite list of relation
paths of length >= 2 generating a monomial ideal.  Validation classifies the
quotient algebra as string / locally-string / gentle / locally-gentle (or
invalid), reporting a witness for every violated condition.

A composite of two arrows is zero exactly when it is a relation: the string
and gentle conditions and the walk table read `RelationSet.zero_pairs`, and
`RelationSet.contains`, the generic ideal scan, is their reference.  Once the
overlap conditions hold, each arrow has at most one surviving continuation,
so the basis paths from an arrow are the prefixes of one walk.  A minimal
relation of 3 or more arrows holds no zero pair, so it is the walk from its
first arrow cut to its length, and a walk stops one arrow short of the end
of any relation that starts on it.  `walk_table` builds those walks in one
pass over their arrows, once per valid presentation: validation reads
finite or infinite off it, `AlgebraPresentation` keeps it, and the path
algebra reads its products, ideal membership, basis and surviving cycles
from it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ElementFormatError, InvalidPresentationError, QuiverFormatError

VALID_CLASSIFICATIONS = ("string", "locally-string", "gentle", "locally-gentle")


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True, order=True)
class Path:
    """A stationary path at a vertex or a nonempty sequence of arrow names.

    Ordering is (length, arrow sequence), with stationary paths ordered by
    vertex name; this is the canonical basis order used everywhere.  The
    sort key also decides equality, so it is hashed once, when the path is
    built, and a pickled path is built again rather than carrying that hash.
    """

    sort_key: tuple = field(init=False, repr=False)
    arrows: tuple = ()
    vertex: Optional[str] = None

    def __post_init__(self):
        if self.arrows:
            if self.vertex is not None:
                raise ValueError("composite path cannot carry a vertex")
            object.__setattr__(self, "arrows", tuple(self.arrows))
            object.__setattr__(self, "sort_key", (len(self.arrows),) + self.arrows)
        else:
            if self.vertex is None:
                raise ValueError("stationary path needs a vertex")
            object.__setattr__(self, "sort_key", (0, self.vertex))
        object.__setattr__(self, "_hash", hash(self.sort_key))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Path.of, (self.arrows,)) if self.arrows else (Path.stationary, (self.vertex,))

    @staticmethod
    def stationary(vertex):
        return Path(vertex=vertex)

    @staticmethod
    def of(arrows):
        return Path(arrows=tuple(arrows))

    @property
    def is_stationary(self):
        return not self.arrows

    @property
    def length(self):
        return len(self.arrows)

    @property
    def first_arrow(self):
        return self.arrows[0] if self.arrows else None

    @property
    def last_arrow(self):
        return self.arrows[-1] if self.arrows else None

    def contains(self, other):
        """True when `other` occurs as a contiguous subpath."""
        if other.is_stationary:
            return self == other if self.is_stationary else False
        n, m = len(self.arrows), len(other.arrows)
        if m > n:
            return False
        return any(self.arrows[i:i + m] == other.arrows for i in range(n - m + 1))

    def __str__(self):
        if self.is_stationary:
            return f"e_{self.vertex}"
        return ".".join(self.arrows)


class Quiver:
    """Finite directed multigraph with named vertices and arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverFormatError("duplicate vertex identifier")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverFormatError("duplicate arrow identifier")
        if not self.arrows:
            raise QuiverFormatError("quiver must have at least one arrow")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise QuiverFormatError(f"arrow {a.name} references unknown vertex")
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self.arrows_from = {v: [] for v in self.vertices}
        self.arrows_into = {v: [] for v in self.vertices}
        for a in sorted(self.arrows, key=lambda a: a.name):
            self.arrows_from[a.source].append(a)
            self.arrows_into[a.target].append(a)

    def source(self, arrow_name):
        return self.arrow_by_name[arrow_name].source

    def target(self, arrow_name):
        return self.arrow_by_name[arrow_name].target

    def path_source(self, p):
        return self.arrow_by_name[p.arrows[0]].source if p.arrows else p.vertex

    def path_target(self, p):
        return self.arrow_by_name[p.arrows[-1]].target if p.arrows else p.vertex

    def is_composable(self, arrows):
        """True when every name is an arrow and consecutive arrows match
        target-to-source."""
        return (all(a in self.arrow_by_name for a in arrows)
                and all(self.target(x) == self.source(y) for x, y in zip(arrows, arrows[1:])))

    def is_connected(self):
        """Connectivity of the underlying undirected graph over all vertices
        (never empty: a quiver has an arrow, and its endpoints are vertices)."""
        adj = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


class RelationSet:
    """Minimal generating paths of a monomial ideal of the path algebra.

    Generators of length < 2 are rejected; any generator properly containing
    another is dropped on construction, so the stored list is minimal.  A
    generator holds a shorter one only where it passes that one's first
    arrow, so it is compared with the kept generators that start with one
    of its arrows, shortest first, at those offsets only and only where the
    kept one fits before its end.  Under the overlap conditions at most two
    kept generators start with an arrow (its zero pairs, or one zero pair
    and the relation along its walk).  A generator holding a zero pair is
    dropped before any longer one is compared, and one holding none runs
    along its walk, so its first comparison with a longer one matches: the
    scan is linear in the generators' total length.
    `zero_pairs` holds the arrow pairs of the length-2 generators.
    """

    def __init__(self, quiver, generators):
        paths = []
        for g in generators:
            p = Path.of(g) if not isinstance(g, Path) else g
            if p.length < 2:
                raise QuiverFormatError(f"relation {p} has length < 2")
            if not quiver.is_composable(p.arrows):
                raise QuiverFormatError(f"relation {p} is not a composable path")
            paths.append(p)
        # sorted by length, so any generator containing another sees it
        # first; `starting` holds the kept ones by their first arrow
        minimal, starting = [], {}
        for p in sorted(set(paths)):
            arrows, n = p.arrows, p.length
            offsets = {}
            for i, a in enumerate(arrows):
                offsets.setdefault(a, []).append(i)
            shorter = sorted(q for a in offsets for q in starting.get(a, ()))
            if not any(arrows[i:i + q.length] == q.arrows
                       for q in shorter for i in offsets[q.arrows[0]] if i + q.length <= n):
                minimal.append(p)
                starting.setdefault(arrows[0], []).append(p)
        self.generators = tuple(minimal)
        self.zero_pairs = frozenset(p.arrows for p in self.generators if p.length == 2)

    def contains(self, path):
        """Ideal membership: some generator occurs as a subpath."""
        return any(path.contains(g) for g in self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


@dataclass(frozen=True)
class AlgebraPresentation:
    """A classified presentation; `walks` is its walk table, or None when
    it is invalid."""

    quiver: Quiver
    relations: RelationSet
    classification: str
    violations: tuple
    walks: Optional[dict] = field(compare=False, repr=False)

    @staticmethod
    def build(quiver, relations):
        if not isinstance(relations, RelationSet):
            relations = RelationSet(quiver, relations)
        classification, violations, walks = validate_presentation(quiver, relations)
        return AlgebraPresentation(quiver, relations, classification, tuple(violations), walks)

    @property
    def is_valid(self):
        return self.classification in VALID_CLASSIFICATIONS

    @property
    def is_gentle(self):
        return self.classification in ("gentle", "locally-gentle")

    @property
    def is_finite_dimensional(self):
        return self.classification in ("string", "gentle")

    @property
    def is_polynomial_ring(self):
        """One vertex, one loop, no relations."""
        return (len(self.quiver.vertices) == 1 and len(self.quiver.arrows) == 1
                and len(self.relations) == 0)

    def require_valid(self):
        if not self.is_valid:
            raise InvalidPresentationError(
                "presentation is not (locally) string: " + "; ".join(self.violations))


def walk_table(quiver, relations):
    """{arrow name: (walk, periodic)} of a presentation satisfying the
    overlap conditions, under which each arrow has at most one surviving
    continuation and at most one surviving predecessor.

    The successor of an arrow is the arrow after it that no length-2
    relation kills.  A minimal relation of 3 or more arrows holds no such
    pair, so it runs along successors from its first arrow: a walk that
    reaches that arrow after i arrows keeps at most i + length - 1.  The
    walk from an arrow follows successors and carries the nearest such end.
    By the unique predecessor its first repeated arrow is its own first
    one; a walk that comes back to it with no end pending goes round
    forever: its entry is the cycle read from the arrow, periodic.  Any
    other entry is the longest basis path from the arrow.
    """
    # the arrows a walk keeps from the first arrow of a longer relation on;
    # two such relations from one arrow would be one the other's prefix
    keep = {g.arrows[0]: g.length - 1 for g in relations if g.length > 2}
    succ = {a.name: next((b.name for b in quiver.arrows_from[a.target]
                          if (a.name, b.name) not in relations.zero_pairs), None)
            for a in quiver.arrows}
    table = {}
    for a in quiver.arrow_by_name:
        walk, end = [a], keep.get(a, math.inf)
        while (nxt := succ[walk[-1]]) is not None and len(walk) < end:
            if nxt == a and end == math.inf:
                table[a] = (tuple(walk), True)
                break
            end = min(end, len(walk) + keep.get(nxt, math.inf))
            walk.append(nxt)
        else:
            table[a] = (tuple(walk), False)
    return table


def validate_presentation(quiver, relations):
    """(classification, violations, walk table) of a presentation, reporting
    every violated condition; the table is None when it is invalid.

    At each overlap (two arrows into a vertex before one out, or one in
    before two out) both composites surviving, outside
    `relations.zero_pairs`, breaks the string conditions, and both
    vanishing the gentle ones.

    Never raises: structurally sound input always yields a classification,
    possibly "invalid" with the list of witnessed violations.
    """
    violations = []
    if not quiver.is_connected():
        violations.append("underlying graph is not connected")
    for v in quiver.vertices:
        if len(quiver.arrows_into[v]) > 2:
            violations.append(f"vertex {v} has indegree {len(quiver.arrows_into[v])} > 2")
        if len(quiver.arrows_from[v]) > 2:
            violations.append(f"vertex {v} has outdegree {len(quiver.arrows_from[v])} > 2")
    gentle_violations = []
    for v in quiver.vertices:
        ins = [a.name for a in quiver.arrows_into[v]]
        outs = [a.name for a in quiver.arrows_from[v]]
        overlaps = [((b, a), (b2, a)) for b, b2 in itertools.combinations(ins, 2)
                    for a in outs]
        overlaps += [((a, b), (a, b2)) for b, b2 in itertools.combinations(outs, 2)
                     for a in ins]
        for p, p2 in overlaps:
            both = f"both {'.'.join(p)} and {'.'.join(p2)}"
            dead = (p in relations.zero_pairs, p2 in relations.zero_pairs)
            if not any(dead):
                violations.append(f"{both} survive at vertex {v}")
            elif all(dead):
                gentle_violations.append(f"{both} vanish at vertex {v}")
    for g in relations:
        if g.length != 2:
            gentle_violations.append(f"relation {g} has length {g.length} != 2")
    gentle_violations = [f"gentle: {v}" for v in gentle_violations]
    if violations:
        return "invalid", violations + gentle_violations, None
    walks = walk_table(quiver, relations)
    finite = not any(periodic for _, periodic in walks.values())
    if gentle_violations:
        return ("string" if finite else "locally-string"), gentle_violations, walks
    return ("gentle" if finite else "locally-gentle"), [], walks


# -- the text grammar -----------------------------------------------------------
#
# Every text format (quiver, element, map and matrix files) is read through
# the helpers below: one identifier rule, `#` comments to the end of a line,
# directives as whole first words, sums of signed terms in which a run of
# signs multiplies out, and exact rational coefficients `p` or `p/q`.

_IDENT = re.compile(r"[A-Za-z0-9_]+")
_COEFF = re.compile(r"([0-9]+)(?:/([0-9]+))?")
_SIGN = re.compile(r"([+-])")
_ARROW = re.compile(r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)")
_MAP = re.compile(r"([^\s=]+)\s*=(.*)")


def _lines(text):
    """(line number from 1, content) of each line that is not blank once its
    `#` comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _directive(line):
    """The first word of a line and the rest, stripped."""
    parts = line.split(None, 1)
    return parts[0], parts[1] if len(parts) > 1 else ""


def _name(text, kind, lineno):
    """A vertex or arrow name: letters, digits and `_`, and an arrow name
    does not start with `e_` (the prefix of stationary paths), so that every
    element written over the names parses back to itself."""
    if not _IDENT.fullmatch(text) or (kind == "arrow" and text.startswith("e_")):
        rule = " and does not start with e_" if kind == "arrow" else ""
        raise QuiverFormatError(
            f"bad {kind} name {text!r}: a {kind} name uses letters, digits "
            f"and _{rule}", lineno)
    return text


def _signed_terms(text, error):
    """(sign, term) of each term of a sum such as `2*a - 1/3*b`.  The signs
    before a term multiply (`x - -3` is x + 3); an empty sum or a sign with
    no term after it raises `error`."""
    pieces = _SIGN.split(text)
    terms, sign = [], 1
    for k, piece in enumerate(pieces):
        if k % 2:
            sign = -sign if piece == "-" else sign
        elif piece.strip():
            terms.append((sign, piece.strip()))
            sign = 1
    if not terms:
        raise error(f"no terms in {text!r}")
    if len(pieces) > 1 and not pieces[-1].strip():
        raise error(f"sign without a term in {text!r}")
    return terms


def _format_sum(terms):
    """Text of a sum of (nonzero coefficient, suffix) terms, such as
    `-2*a + 1/3*b.a`, or `0` for none; read back by _signed_terms."""
    pieces = []
    for c, suffix in terms:
        body = _format_coeff(abs(c)) + suffix
        if pieces:
            pieces.append(("+ " if c > 0 else "- ") + body)
        else:
            pieces.append(body if c > 0 else "-" + body)
    return " ".join(pieces) or "0"


def _parse_coeff(text):
    """The Fraction written `p` or `p/q` in decimal digits, or None when text
    is not of that form or q is 0."""
    m = _COEFF.fullmatch(text)
    if m is None:
        return None
    den = _digits_int(m[2]) if m[2] else 1
    return Fraction(_digits_int(m[1]), den) if den else None


def _format_coeff(c):
    """Text of a nonnegative Fraction as `p` or `p/q`; see _parse_coeff."""
    if c.denominator == 1:
        return _int_digits(c.numerator)
    return f"{_int_digits(c.numerator)}/{_int_digits(c.denominator)}"


# Python converts an int to or from decimal text only up to a process-wide
# number of digits (4,300 by default, never below 640).  Longer values are
# split in halves until each half converts, and the limit is left alone.

def _int_digits(n):
    """Decimal text of a nonnegative int of any size."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digits (log10 2 > 3/10)
        high, low = divmod(n, 10 ** k)
        return _int_digits(high) + _int_digits(low).zfill(k)


def _digits_int(text):
    """The int written as a string of decimal digits of any length."""
    try:
        return int(text)
    except ValueError:
        k = len(text) // 2
        return _digits_int(text[:-k]) * 10 ** k + _digits_int(text[-k:])


def _read_map(text, generators, parse):
    """{generator: parse(expression)} of the `map <generator> = <expression>`
    lines of a map file, in line order.  A malformed line, a generator not
    in `generators` or given twice, and an expression that does not parse
    raise ElementFormatError naming the line."""
    images, first = {}, {}
    for lineno, line in _lines(text):
        word, rest = _directive(line)
        m = _MAP.fullmatch(rest) if word == "map" else None
        if m is None:
            raise ElementFormatError("expected `map <generator> = <element>`", lineno)
        name, expression = m[1], m[2].strip()
        if name not in generators:
            raise ElementFormatError(f"unknown generator {name}", lineno)
        if name in first:
            raise ElementFormatError(
                f"second map line for {name} (the first is line {first[name]})", lineno)
        first[name] = lineno
        try:
            images[name] = parse(expression)
        except ElementFormatError as exc:
            raise ElementFormatError(str(exc), lineno) from exc
    return images


def parse_quiver(text):
    """Parse the line-oriented quiver file format into a presentation.

    Format: `vertex <id>`, `arrow <id> : <src> -> <tgt>`,
    `relation <arrowid> <arrowid> ...` (left-to-right composition),
    with '#' starting a comment; see _name for the identifiers.
    """
    vertices, arrows, relations = [], {}, []
    for lineno, line in _lines(text):
        word, rest = _directive(line)
        if word == "vertex":
            if len(rest.split()) != 1:
                raise QuiverFormatError("expected `vertex <id>`", lineno)
            name = _name(rest, "vertex", lineno)
            if name in vertices:
                raise QuiverFormatError(f"duplicate vertex {name}", lineno)
            vertices.append(name)
        elif word == "arrow":
            m = _ARROW.fullmatch(rest)
            if not m:
                raise QuiverFormatError("expected `arrow <id> : <src> -> <tgt>`", lineno)
            name, src, tgt = m.groups()
            if _name(name, "arrow", lineno) in arrows:
                raise QuiverFormatError(f"duplicate arrow {name}", lineno)
            if src not in vertices:
                raise QuiverFormatError(f"unknown source vertex {src}", lineno)
            if tgt not in vertices:
                raise QuiverFormatError(f"unknown target vertex {tgt}", lineno)
            arrows[name] = (name, src, tgt)
        elif word == "relation":
            parts = rest.split()
            if len(parts) < 2:
                raise QuiverFormatError("relation needs at least two arrows", lineno)
            for p in parts:
                if p not in arrows:
                    raise QuiverFormatError(f"unknown arrow {p} in relation", lineno)
            relations.append((tuple(parts), lineno))
        else:
            raise QuiverFormatError(f"unrecognised directive: {word}", lineno)
    if not arrows:
        raise QuiverFormatError("quiver must declare at least one arrow")
    quiver = Quiver(vertices, arrows.values())
    for arrs, lineno in relations:
        if not quiver.is_composable(arrs):
            raise QuiverFormatError(f"relation {'.'.join(arrs)} is not composable", lineno)
    return AlgebraPresentation.build(quiver, [Path.of(arrs) for arrs, _ in relations])
