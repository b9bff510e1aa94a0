"""Exact arithmetic in the quotient of a path algebra by a monomial ideal.

Elements are finite rational combinations of basis paths (paths avoiding the
ideal).  All arithmetic is exact over the rationals, with each coefficient
an int when it is integral and a Fraction otherwise, so products of integral
elements build no Fraction.  In a (locally) string algebra each arrow has at
most one surviving continuation, so the basis paths starting with an arrow
are the prefixes of one walk from it, finite or going round a surviving
cycle forever.  `quiver.walk_table` builds those walks once, when the
presentation is validated, and the algebra reads the presentation's table:
a path is zero exactly when it is not a prefix of the walk from its first
arrow, a product of basis paths is a basis path exactly when the joined
arrows are, and the surviving cycles are the periodic walks.  Each basis
path is built once per algebra and shared, and the algebra keeps the path
itself, its source and its target in a table keyed by path, which element
construction and products read.

`Element(algebra, terms)` validates its terms and maps each to the
algebra's shared path equal to it, one table lookup for a path built
before, so an element's terms are always the algebra's own paths.  Ring
operations do not validate their results again, and each is one pass over
its terms that calls out only to put a Fraction in canonical form or to
build a basis path on its first use: a product groups the right factor by
source vertex and extends each left path along its walk inline, so its
terms are shared basis paths, and sums, differences and products only drop
zeros and make integral Fractions ints.  No code changes an element's
terms in place, so each algebra keeps `zero`, `one` and the generator
elements in its cache, built on first use and read from it after.  A
product with the shared `one()` returns the other factor itself; an
element that merely equals 1 is multiplied out.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import CapExceededError, ElementFormatError
from .quiver import Path, _format_sum, _parse_coeff, _signed_terms


# most arrows, over all its paths, that one listing of basis paths may hold;
# a process listing near the cap peaks at 45-70 MB resident (CPython 3.11,
# x86-64; see README, Notes on guarantees)
BASIS_ARROW_CAP = 2_000_000


def _canonical(c):
    """The coefficient c as an int when it is integral, else as a Fraction."""
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _element_of(algebra, terms):
    """Element of canonical nonzero coefficients on the algebra's shared
    basis paths, taken as they are."""
    out = Element.__new__(Element)
    out.algebra = algebra
    out.terms = terms
    return out


class Element:
    """Finite map from basis paths to nonzero rational coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        clean = ((algebra.basis_path(p), _canonical(c)) for p, c in terms.items())
        self.terms = {p: c for p, c in clean if c and p is not None}

    @classmethod
    def _trusted(cls, algebra, terms):
        """Element of terms a ring operation built: zeros dropped, integral
        Fractions made ints, no other check."""
        return _element_of(algebra, {p: c if type(c) is int else _canonical(c)
                                     for p, c in terms.items() if c})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            if p not in terms:
                terms[p] = c
                continue
            c = terms[p] + c
            if c:
                terms[p] = c if type(c) is int else _canonical(c)
            else:
                del terms[p]
        return _element_of(self.algebra, terms)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            if p not in terms:
                terms[p] = -c
                continue
            c = terms[p] - c
            if c:
                terms[p] = c if type(c) is int else _canonical(c)
            else:
                del terms[p]
        return _element_of(self.algebra, terms)

    def __neg__(self):
        return _element_of(self.algebra, {p: -c for p, c in self.terms.items()})

    def __mul__(self, other):
        """The product, read off the walks: p·q is q when p is stationary,
        p when q is, and otherwise the walk from p's first arrow cut to the
        joined length, when q starts with the arrow after p on that walk
        and the joined length fits it."""
        if type(other) is not Element and isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        algebra = self.algebra
        one = algebra._cache.get("one")
        if other is one:
            return self
        if self is one:
            return other
        basis = algebra._basis
        right = {}    # the right factor's terms by source vertex
        for q, d in other.terms.items():
            right.setdefault(basis[q][1], []).append((q, d))
        walks, paths, terms = algebra._walks, algebra._paths, {}
        for p, c in self.terms.items():
            pairs = right.get(basis[p][2])
            if pairs is None:
                continue
            n, first = p[0], p[1]
            if not n:
                for q, d in pairs:
                    d *= c
                    terms[q] = terms[q] + d if q in terms else d
                continue
            walk, periodic = walks[first]
            size = len(walk)
            after = walk[n % size] if periodic or n < size else None
            for q, d in pairs:
                m = q[0]
                if not m:
                    r = p
                elif q[1] != after or not periodic and n + m > size:
                    continue
                else:
                    r = paths.get((first, n + m)) or algebra.walk_path(first, n + m)
                d *= c
                terms[r] = terms[r] + d if r in terms else d
        return _element_of(algebra, {r: c if type(c) is int else _canonical(c)
                                     for r, c in terms.items() if c})

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
        return _element_of(self.algebra,
                           {p: c for p, c in self.terms.items() if p[0] == n})

    def min_degree(self):
        """Lowest degree with a nonzero term; None for the zero element."""
        return min((p[0] for p in self.terms), default=None)

    def max_degree(self):
        return max((p[0] for p in self.terms), default=None)

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

    def __init__(self, presentation):
        presentation.require_valid()
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.relations = presentation.relations
        self._cache = {}
        self._walks = presentation.walks
        # interned basis paths, by vertex or by (first arrow, length), and
        # (the path itself, source, target) of each, by path
        self._paths = {v: Path.stationary(v) for v in self.quiver.vertices}
        self._basis = {p: (p, v, v) for v, p in self._paths.items()}

    # -- shared elements: built on first use, then read from the cache ------

    def _keep(self, key, paths):
        """The sum of the basis paths `paths`, kept in the cache under key."""
        out = self._cache[key] = _element_of(self, dict.fromkeys(paths, 1))
        return out

    def zero(self):
        out = self._cache.get("zero")
        return out if out is not None else self._keep("zero", ())

    def one(self):
        out = self._cache.get("one")
        return out if out is not None else self._keep(
            "one", map(self._paths.get, self.quiver.vertices))

    def stationary(self, vertex):
        out = self._cache.get(("e", vertex))
        if out is None:
            if vertex not in self.quiver.arrows_from:
                raise ValueError(f"unknown vertex {vertex}")
            out = self._keep(("e", vertex), [self._paths[vertex]])
        return out

    def arrow(self, name):
        out = self._cache.get(("arrow", name))
        if out is None:
            if name not in self.quiver.arrow_by_name:
                raise ValueError(f"unknown arrow {name}")
            out = self._keep(("arrow", name), [self.walk_path(name, 1)])
        return out

    # -- construction helpers ------------------------------------------------

    def path_element(self, path):
        if not isinstance(path, Path):
            path = Path.of(path)
        return Element(self, {path: 1})

    def element(self, terms):
        return Element(self, terms)

    # -- ideal and multiplication ---------------------------------------------

    def basis_path(self, path):
        """The algebra's shared basis path equal to `path`, or None when the
        path is zero: a nonstationary path is zero unless it is the walk
        from its first arrow, so a path whose arrows do not compose is zero
        as well.  Raises ValueError naming a key that is not a `Path` (a
        plain tuple equals the path it keys) or an unknown vertex or arrow."""
        if not isinstance(path, Path):
            raise ValueError(f"not a path: {path!r}")
        entry = self._basis.get(path)
        if entry is not None:
            return entry[0]
        arrows = path.arrows
        if not arrows:
            raise ValueError(f"unknown vertex {path.vertex}")
        first, n = arrows[0], len(arrows)
        if first in self._walks and arrows == self._walk(first, n):
            return self.walk_path(first, n)
        unknown = next((a for a in arrows if a not in self._walks), None)
        if unknown is not None:
            raise ValueError(f"unknown arrow {unknown}")
        return None

    def in_ideal(self, path):
        """True when the path is zero in the algebra; see `basis_path`."""
        return self.basis_path(path) is None

    def concat(self, p, q):
        """Concatenation of basis paths, or None when the product is zero:
        the walk from p's first arrow goes on along the walk from its next
        arrow, so p·q is nonzero when q starts with that arrow and fits.
        A path's first two entries are its length and its first arrow, or
        0 and its vertex.  `Element.__mul__` follows the same rule inline;
        the intertwiner columns of `decompose`, the maximality tests of
        `maximal` and the tests' reference products call this."""
        n, first = p[0], p[1]
        if not n:
            return q if first == self.quiver.path_source(q) else None
        if not q[0]:
            return p if self.quiver.path_target(p) == q[1] else None
        length = n + q[0]
        walk, periodic = self._walks[first]
        if not periodic and length > len(walk) or walk[n % len(walk)] != q[1]:
            return None
        return self._paths.get((first, length)) or self.walk_path(first, length)

    def next_arrow(self, p):
        """The arrow after the nonstationary basis path p on the walk from
        its first arrow, or None where that walk ends with p: a basis path
        q with p·q nonzero is stationary or starts with this arrow."""
        n, first = p[0], p[1]
        walk, periodic = self._walks[first]
        return walk[n % len(walk)] if periodic or n < len(walk) else None

    def walk_path(self, arrow_name, length):
        """The basis path of the first `length` arrows of the walk from
        `arrow_name`, built on first use and shared after.  Raises
        ValueError when length is below 1 or past the end of a finite walk."""
        key = (arrow_name, length)
        if key not in self._paths:
            walk = self._walk(arrow_name, length)
            if length < 1 or len(walk) != length:
                raise ValueError(f"no basis path of length {length} from arrow {arrow_name}")
            path = self._paths[key] = Path.of(walk)
            self._basis[path] = (path, self.quiver.source(arrow_name),
                                 self.quiver.target(walk[-1]))
        return self._paths[key]

    # -- structural maps (require the string overlap conditions) ---------------

    def infinite_cycles(self):
        """The cycles generating infinite maximal paths, sorted, each in its
        canonical rotation: the periodic walk read from its least arrow."""
        if "cycles" not in self._cache:
            self._cache["cycles"] = tuple(sorted(
                walk for a, (walk, periodic) in self._walks.items()
                if periodic and a == min(walk)))
        return self._cache["cycles"]

    def cycle_positions(self):
        """{arrow on a surviving cycle: (cycle index, position on the cycle)}."""
        if "cycle_positions" not in self._cache:
            self._cache["cycle_positions"] = {
                a: (i, k) for i, cyc in enumerate(self.infinite_cycles())
                for k, a in enumerate(cyc)}
        return self._cache["cycle_positions"]

    def x_degree(self, path):
        """How many times a basis path passes the closing arrow of a
        surviving cycle.  Additive under nonzero products: a path with a
        cycle arrow stays on that cycle, so the path of length k from
        position i of a cycle of n arrows passes it (k + i) // n times.  The
        key's second entry is read unguarded: a stationary path has k = 0 and
        i < n, so it reads 0 even at a vertex named like a cycle arrow."""
        at = self.cycle_positions().get(path[1])
        return 0 if at is None else (path[0] + at[1]) // len(self.infinite_cycles()[at[0]])

    def cycle_arrows(self):
        if "cycle_arrows" not in self._cache:
            self._cache["cycle_arrows"] = frozenset(self.cycle_positions())
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
        walk, periodic = self._walks[arrow_name]
        if periodic and len(walk) < max_len:
            walk *= -(-max_len // len(walk))
        return walk[:max_len]

    def _listing(self, runs, what, advice=""):
        """The basis paths of the first 1..runs[a] arrows of the walk from
        each arrow a.  Raises CapExceededError, before building any path,
        when they would hold more than BASIS_ARROW_CAP arrows in all."""
        size = sum(k * (k + 1) // 2 for k in runs.values())
        if size > BASIS_ARROW_CAP:
            raise CapExceededError(
                f"{what} hold {size} arrows, past the cap of {BASIS_ARROW_CAP}{advice}")
        return [self.walk_path(a, k) for a in runs for k in range(1, runs[a] + 1)]

    def radical_paths(self):
        """All nonstationary basis paths avoiding every infinite maximal path,
        a basis of the Jacobson radical: the prefixes of the finite walks.
        The listing is capped as in `_listing`."""
        if "radical_paths" not in self._cache:
            runs = {a: len(walk) for a, (walk, periodic) in self._walks.items()
                    if not periodic}
            self._cache["radical_paths"] = tuple(sorted(
                self._listing(runs, "radical basis: its paths")))
        return self._cache["radical_paths"]

    def radical_degree_bound(self):
        """Largest length of a radical basis path (0 when none exist): the
        longest finite walk, read from the walk table."""
        return max((len(walk) for walk, periodic in self._walks.values()
                    if not periodic), default=0)

    def x_degree_zero_bound(self):
        """Largest length of a basis path of x-degree 0 (0 when there are no
        arrows): a finite walk, or a surviving cycle less one arrow."""
        return max((len(walk) - periodic for walk, periodic in self._walks.values()),
                   default=0)

    # -- basis ------------------------------------------------------------------

    def enumerate_basis(self, max_len):
        """Basis paths of length <= max_len in (length, lexicographic) order,
        capped as in `_listing`."""
        runs = {a: max_len if periodic else min(len(walk), max_len)
                for a, (walk, periodic) in self._walks.items()}
        out = [self._paths[v] for v in sorted(self.quiver.vertices)]
        out.extend(self._listing(runs, f"basis: the paths up to length {max_len}",
                                 "; a smaller --max-len lists fewer"))
        return sorted(out)

    def is_finite_dimensional(self):
        """(finite?, dimension) with dimension None in the infinite case, as
        validation classified the presentation from its walk table."""
        return self.presentation.is_finite_dimensional, self.dimension()

    def dimension(self):
        if not self.presentation.is_finite_dimensional:
            return None
        return len(self.quiver.vertices) + sum(len(walk) for walk, _ in self._walks.values())

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
    """The element of the text.  Its signed terms are summed into one dict,
    in the order `+` would leave them, so parsing is linear in the term
    count."""
    terms = {}
    for sign, term in _signed_terms(text, ElementFormatError):
        for p, c in _parse_term(algebra, term).terms.items():
            c = terms.get(p, 0) + sign * c
            if c:
                terms[p] = c
            else:
                del terms[p]
    return Element._trusted(algebra, terms)


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
