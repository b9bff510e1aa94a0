"""Exact arithmetic in the quotient of a path algebra by a monomial ideal.

Elements are finite rational combinations of basis paths (paths avoiding the
ideal).  All arithmetic is exact over the rationals, with each coefficient
an int when it is integral and a Fraction otherwise, so products of integral
elements build no Fraction.  In a (locally) string algebra each arrow has at
most one surviving continuation, so the basis paths starting with an arrow
are the prefixes of one walk from it, finite or going round a surviving
cycle forever.  A path is zero exactly when it is not such a prefix, and a
product of basis paths is a basis path exactly when the joined arrows are;
both are read off a table of those walks, and each basis path is built once
per algebra and shared.

`Element(algebra, terms)` validates its terms.  Ring operations do not
validate their results again: their terms are basis paths, as `concat`
returns only those, so only zeros are dropped and integral Fractions made
ints.  No code changes an element's terms in place, so each algebra builds
`zero`, `one` and the generator elements once and shares them.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BoundExceededError, ElementFormatError
from .quiver import (Path, _format_sum, _parse_coeff, _signed_terms, surviving_cycles,
                     unique_continuation)


def _canonical(c):
    """The coefficient c as an int when it is integral, else as a Fraction."""
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return c if type(c) is int or c.denominator != 1 else c.numerator


class Element:
    """Finite map from basis paths to nonzero rational coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        clean = ((p, _canonical(c)) for p, c in terms.items())
        self.terms = {p: c for p, c in clean if c and not algebra.in_ideal(p)}

    @classmethod
    def _trusted(cls, algebra, terms):
        """Element of terms a ring operation built: zeros dropped, integral
        Fractions made ints, no other check."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.terms = {p: c if type(c) is int else _canonical(c)
                     for p, c in terms.items() if c}
        return out

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms[p] + c if p in terms else c
        return Element._trusted(self.algebra, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element._trusted(self.algebra, {p: -c for p, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not Element and isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        quiver = self.algebra.quiver
        right = {}    # the right factor's terms by source vertex
        for q, d in other.terms.items():
            right.setdefault(quiver.path_source(q), []).append((q, d))
        concat, target = self.algebra.concat, quiver.path_target
        terms = {}
        for p, c in self.terms.items():
            for q, d in right.get(target(p), ()):
                r = concat(p, q)
                if r is not None:
                    terms[r] = terms[r] + c * d if r in terms else c * d
        return Element._trusted(self.algebra, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = _canonical(c)
        return Element._trusted(self.algebra, {p: c * v for p, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Element) and self.algebra is other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _check(self, other):
        if not isinstance(other, Element) or other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    # -- graded structure ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def degree_part(self, n):
        return Element._trusted(self.algebra,
                                {p: c for p, c in self.terms.items() if p.length == n})

    def min_degree(self):
        """Lowest degree with a nonzero term; None for the zero element."""
        return min((p.length for p in self.terms), default=None)

    def max_degree(self):
        return max((p.length for p in self.terms), default=None)

    def coefficient(self, path):
        return self.terms.get(path, 0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"Element({format_element(self)!r})"

    def __str__(self):
        return format_element(self)


class PathAlgebra:
    """Arithmetic context for a valid (locally) string presentation."""

    def __init__(self, presentation, max_path_length=64):
        presentation.require_valid()
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.relations = presentation.relations
        self.max_path_length = max_path_length
        self._cache = {}
        self._walks = {}
        # interned basis paths, by vertex or by (first arrow, length)
        self._paths = {v: Path.stationary(v) for v in self.quiver.vertices}

    # -- construction helpers ------------------------------------------------

    def _shared(self, key, paths):
        """The sum of the basis paths `paths()`, built once per key."""
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = Element(self, dict.fromkeys(paths(), 1))
        return out

    def zero(self):
        return self._shared("zero", tuple)

    def one(self):
        return self._shared("one", lambda: map(self._paths.get, self.quiver.vertices))

    def stationary(self, vertex):
        if vertex not in self.quiver.arrows_from:
            raise ValueError(f"unknown vertex {vertex}")
        return self._shared(("e", vertex), lambda: [self._paths[vertex]])

    def arrow(self, name):
        if name not in self.quiver.arrow_by_name:
            raise ValueError(f"unknown arrow {name}")
        return self._shared(("arrow", name), lambda: [self.walk_path(name, 1)])

    def path_element(self, path, coeff=1):
        if not isinstance(path, Path):
            path = Path.of(path)
        return Element(self, {path: coeff})

    def element(self, terms):
        return Element(self, terms)

    # -- ideal and multiplication ---------------------------------------------

    def in_ideal(self, path):
        """A nonstationary path is zero unless it is the walk from its first
        arrow, so a path whose arrows do not compose is zero as well."""
        arrows = path.arrows
        return bool(arrows) and arrows != self._walk(arrows[0], len(arrows))

    def concat(self, p, q):
        """Concatenation of basis paths, or None when the product is zero:
        the walk from p's first arrow goes on along the walk from its next
        arrow, so p·q is nonzero when q starts with that arrow and fits."""
        if not p.arrows:
            return q if p.vertex == self.quiver.path_source(q) else None
        if not q.arrows:
            return p if self.quiver.path_target(p) == q.vertex else None
        first, n, length = p.arrows[0], len(p.arrows), len(p.arrows) + len(q.arrows)
        walk, periodic = self._walks.get(first) or self._full_walk(first)
        if not periodic and length > len(walk) or walk[n % len(walk)] != q.arrows[0]:
            return None
        return self._paths.get((first, length)) or self.walk_path(first, length)

    def walk_path(self, arrow_name, length):
        """The basis path of the first `length` arrows of the walk from
        `arrow_name`, built on first use and shared after."""
        key = (arrow_name, length)
        if key not in self._paths:
            self._paths[key] = Path.of(self._walk(arrow_name, length))
        return self._paths[key]

    # -- structural maps (require the string overlap conditions) ---------------

    def infinite_cycles(self):
        """Canonical rotations of the cycles generating infinite maximal paths."""
        if "cycles" not in self._cache:
            self._cache["cycles"] = surviving_cycles(self.quiver, self.relations)
        return self._cache["cycles"]

    def x_degree(self, path):
        """How many times a basis path passes the closing arrow of a
        surviving cycle.  Additive under nonzero products: a path with a
        cycle arrow stays on that cycle, whose powers it counts."""
        return sum(path.arrows.count(cyc[-1]) for cyc in self.infinite_cycles())

    def cycle_arrows(self):
        if "cycle_arrows" not in self._cache:
            self._cache["cycle_arrows"] = frozenset(
                a for cyc in self.infinite_cycles() for a in cyc)
        return self._cache["cycle_arrows"]

    def radical_arrows(self):
        """Arrows contained in no infinite maximal path."""
        cyc = self.cycle_arrows()
        return tuple(a.name for a in sorted(self.quiver.arrows, key=lambda a: a.name)
                     if a.name not in cyc)

    def _walk(self, arrow_name, max_len):
        """The first max_len arrows of the walk from `arrow_name`, as a tuple:
        the longest basis path starting there, or its surviving cycle read
        from the arrow and repeated."""
        walk, periodic = self._walks.get(arrow_name) or self._full_walk(arrow_name)
        if periodic and len(walk) < max_len:
            walk *= -(-max_len // len(walk))
        return walk[:max_len]

    def _full_walk(self, arrow_name):
        """(its surviving cycle read from the arrow, True), or (the longest
        basis path from it, False): the unique continuations until the ideal
        is met, within the longest relation past one round of a cycle that
        does not survive, and within the number of arrows otherwise; kept in
        the walk table."""
        for cyc in self.infinite_cycles():
            if arrow_name in cyc:
                i = cyc.index(arrow_name)
                return self._walks.setdefault(arrow_name, (cyc[i:] + cyc[:i], True))
        walk = [arrow_name]
        while (nxt := unique_continuation(self.quiver, self.relations, walk[-1])) is not None:
            if self.relations.contains(Path.of(walk + [nxt])):
                break
            walk.append(nxt)
        return self._walks.setdefault(arrow_name, (tuple(walk), False))

    def radical_paths(self, max_len=None):
        """All nonstationary basis paths avoiding every infinite maximal path,
        a basis of the Jacobson radical: the prefixes of the finite walks.
        Raises BoundExceededError when one is longer than max_len (default
        max_path_length)."""
        max_len = max_len if max_len is not None else self.max_path_length
        key = ("radical_paths", max_len)
        if key not in self._cache:
            paths = []
            for a in self.radical_arrows():
                run = self._walk(a, max_len + 1)
                if len(run) > max_len:
                    raise BoundExceededError(
                        f"basis path from arrow {a} exceeds length bound {max_len}")
                paths.extend(self.walk_path(a, k) for k in range(1, len(run) + 1))
            self._cache[key] = tuple(sorted(paths))
        return self._cache[key]

    def radical_degree_bound(self):
        """Largest length of a radical basis path (0 when none exist)."""
        return max((p.length for p in self.radical_paths()), default=0)

    # -- basis ------------------------------------------------------------------

    def enumerate_basis(self, max_len):
        """Basis paths of length <= max_len in (length, lexicographic) order."""
        out = [self._paths[v] for v in sorted(self.quiver.vertices)]
        for a in sorted(self.quiver.arrow_by_name):
            run = self._walk(a, max_len)
            out.extend(self.walk_path(a, k) for k in range(1, len(run) + 1))
        return sorted(out)

    def is_finite_dimensional(self):
        """(finite?, dimension) with dimension None in the infinite case."""
        if self.infinite_cycles():
            return False, None
        return True, self.dimension()

    def dimension(self):
        if self.infinite_cycles():
            return None
        return len(self.quiver.vertices) + len(self.radical_paths())

    # -- misc --------------------------------------------------------------------

    def generators(self):
        """Stationary paths then arrows, in sorted order."""
        out = [self._paths[v] for v in sorted(self.quiver.vertices)]
        out.extend(self.walk_path(a, 1) for a in sorted(self.quiver.arrow_by_name))
        return out

    def parse_element(self, text):
        return parse_element(self, text)

    @property
    def is_polynomial_ring(self):
        return self.presentation.is_polynomial_ring


# -- element text format ----------------------------------------------------
#
# `c1*p1 + c2*p2 + ...` with rational coefficients `p/q`, paths written as
# `e_<vertex>` or `.`-joined arrow names.  A bare constant denotes that
# multiple of the identity.  Round-trips exactly through parse_element; the
# sums and coefficients follow the shared grammar in quiver.py.


def format_element(x):
    terms = x.sorted_terms()
    vertices = x.algebra.quiver.vertices
    stationary = {p.vertex: c for p, c in terms if p.is_stationary}
    pieces = []
    if len(stationary) == len(vertices) and len(set(stationary.values())) == 1:
        pieces.append((next(iter(stationary.values())), ""))
        terms = [(p, c) for p, c in terms if not p.is_stationary]
    pieces += [(c, f"*{p}") for p, c in terms]
    return _format_sum(pieces)


def parse_element(algebra, text):
    result = algebra.zero()
    for sign, term in _signed_terms(text, ElementFormatError):
        result = result + _parse_term(algebra, term).scale(sign)
    return result


def _parse_term(algebra, term):
    if "*" in term:
        coeff_text, path_text = (t.strip() for t in term.split("*", 1))
        coeff = _parse_coeff(coeff_text)
        if coeff is None:
            raise ElementFormatError(f"bad coefficient {coeff_text!r}")
        return _parse_path(algebra, path_text).scale(coeff)
    # bare constant (multiple of the identity) or bare path
    coeff = _parse_coeff(term)
    if coeff is not None:
        return algebra.one().scale(coeff)
    return _parse_path(algebra, term)


def _parse_path(algebra, text):
    if text.startswith("e_"):
        vertex = text[2:]
        if vertex not in algebra.quiver.arrows_from:
            raise ElementFormatError(f"unknown vertex in {text!r}")
        return algebra.stationary(vertex)
    names = re.split(r"[.·]", text) if ("." in text or "·" in text) else None
    if names is None:
        if text in algebra.quiver.arrow_by_name:
            names = [text]
        elif text and all(ch in algebra.quiver.arrow_by_name for ch in text):
            names = list(text)  # juxtaposed single-character arrow names
        else:
            raise ElementFormatError(f"unknown path {text!r}")
    for n in names:
        if n not in algebra.quiver.arrow_by_name:
            raise ElementFormatError(f"unknown arrow {n!r} in path {text!r}")
    if not algebra.quiver.is_composable(tuple(names)):
        raise ElementFormatError(f"path {text!r} is not composable")
    return algebra.path_element(tuple(names))
