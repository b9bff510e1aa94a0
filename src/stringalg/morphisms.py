"""Endomorphisms given on generators, derivations, exponential and inner
automorphisms, and unit inversion.

An endomorphism is stored by its images of stationary paths and arrows.  The
image of a longer path follows the walk it lies on: it is the image of its
prefix one arrow shorter times the image of its last arrow, and the prefix
images are kept for the one call that applies or composes the map.  An inner
automorphism keeps its unit, and composing with it conjugates each generator
image instead.  Certification checks the defining identities of the
presentation exactly, after which the map is trusted as an algebra
endomorphism; a composite of certified maps and conjugation by a verified
unit are certified by construction and are not checked again.  Only the
identity and graded maps carry their inverses; exponential, inner and
composite maps carry none.  The inverse of exp(d) is exp(-d), and the inverse
of conjugation by u is conjugation by u^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (CapExceededError, CertificationError, DerivationError,
                     NotAUnitError, ShapeError)
from ._linalg import matrix_inverse
from .algebra import Element, format_element
from .maximal import (classify_maximal, component_of_path, is_left_maximal,
                      is_right_maximal, parallel_maximal)
from .quiver import Path, _read_map

# derivation type tags
CYCLE = "cycle"          # arrow -> combination of returning paths through it
MAXIMAL = "maximal"      # arrow -> combination of left-maximal paths of length > 1
PARALLEL = "parallel"    # arrow -> scalar multiple of its parallel maximal path
OTHER = "other"


class Endomorphism:
    """Algebra endomorphism determined by generator images; `inverse` is the
    inverse map, set only on the identity and on graded maps by
    `invert_graded`, and None otherwise; with `unit` it is conjugation
    x -> unit.inverse * x * unit.value."""

    def __init__(self, algebra, vertex_images, arrow_images, certified=False,
                 unit=None):
        self.algebra = algebra
        self.vertex_images = dict(vertex_images)
        self.arrow_images = dict(arrow_images)
        missing = (set(algebra.quiver.vertices) - set(self.vertex_images)) | \
                  (set(algebra.quiver.arrow_by_name) - set(self.arrow_images))
        if missing:
            raise ValueError(f"missing generator images: {sorted(missing)}")
        self.certified = certified
        self.inverse = None
        self.unit = unit

    @staticmethod
    def identity(algebra):
        f = Endomorphism(
            algebra,
            {v: algebra.stationary(v) for v in algebra.quiver.vertices},
            {a: algebra.arrow(a) for a in algebra.quiver.arrow_by_name},
            certified=True)
        f.inverse = f
        return f

    def image_of_path(self, path, memo=None):
        """Image of a path; `memo` maps arrow tuples to the prefix images
        already built in the current call."""
        if path.is_stationary:
            return self.vertex_images[path.vertex]
        arrows = path.arrows
        memo = {} if memo is None else memo
        k = len(arrows)
        while k > 1 and arrows[:k] not in memo:
            k -= 1
        out = memo[arrows[:k]] if k > 1 else self.arrow_images[arrows[0]]
        for j in range(k, len(arrows)):
            out = out * self.arrow_images[arrows[j]]
            memo[arrows[:j + 1]] = out
        return out

    def apply(self, x, memo=None):
        if isinstance(x, Path):
            return self.image_of_path(x, memo)
        if self.unit is not None:
            return self.unit.inverse * x * self.unit.value
        memo = {} if memo is None else memo
        terms = {}
        for p, c in x.terms.items():
            for r, d in self.image_of_path(p, memo).terms.items():
                terms[r] = terms[r] + c * d if r in terms else c * d
        return Element._trusted(self.algebra, terms)

    def compose(self, other):
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if other.algebra is not self.algebra:
            raise ValueError("endomorphisms of different algebras")
        memo = {}
        return Endomorphism(
            self.algebra,
            {v: self.apply(img, memo) for v, img in other.vertex_images.items()},
            {a: self.apply(img, memo) for a, img in other.arrow_images.items()},
            certified=self.certified and other.certified)

    def __eq__(self, other):
        return (isinstance(other, Endomorphism) and self.algebra is other.algebra
                and self.vertex_images == other.vertex_images
                and self.arrow_images == other.arrow_images)

    def is_identity(self):
        return self == Endomorphism.identity(self.algebra)


def verify_endomorphism(f):
    """Certify the homomorphism identities; raises naming the failure.

    Checks that vertex images are orthogonal idempotents summing to one,
    that arrow images are compatible with their endpoints, and that every
    relation generator maps to zero.
    """
    algebra = f.algebra
    q = algebra.quiver
    total = algebra.zero()
    for v in q.vertices:
        ev = f.vertex_images[v]
        total = total + ev
        if ev * ev != ev:
            raise CertificationError(f"image of e_{v} is not idempotent")
        for w in q.vertices:
            if w != v and not (ev * f.vertex_images[w]).is_zero:
                raise CertificationError(f"images of e_{v} and e_{w} are not orthogonal")
    if total != algebra.one():
        raise CertificationError("vertex images do not sum to the identity")
    for a in sorted(q.arrow_by_name):
        fa = f.arrow_images[a]
        sandwich = f.vertex_images[q.source(a)] * fa * f.vertex_images[q.target(a)]
        if sandwich != fa:
            raise CertificationError(
                f"e_{q.source(a)}*f({a})*e_{q.target(a)} differs from f({a})")
    for g in algebra.relations:
        if not f.image_of_path(g).is_zero:
            raise CertificationError(f"image of relation {g} is nonzero")
    f.certified = True
    return f


def graded_part(f):
    """The degree-preserving part of a certified endomorphism.

    Maps each generator to the component of its image in the generator's
    own degree; certification of the result is re-checked and failure means
    the input was not an automorphism.
    """
    algebra = f.algebra
    if algebra.is_polynomial_ring:
        raise ShapeError("graded part is not defined for the one-loop free algebra")
    if not f.certified:
        raise CertificationError("graded part requires a certified endomorphism")
    g = Endomorphism(
        algebra,
        {v: img.degree_part(0) for v, img in f.vertex_images.items()},
        {a: img.degree_part(1) for a, img in f.arrow_images.items()})
    return verify_endomorphism(g)


@dataclass(frozen=True)
class MembershipFlags:
    fixes_vertices: bool          # every stationary path is fixed exactly
    permutes_vertices: bool       # stationary paths are permuted modulo higher degree
    graded_identity: bool         # the degree-preserving part is the identity


def membership(f):
    """Subgroup membership flags of a certified endomorphism."""
    if not f.certified:
        raise CertificationError("membership requires a certified endomorphism")
    algebra = f.algebra
    fixes = all(f.vertex_images[v] == algebra.stationary(v)
                for v in algebra.quiver.vertices)
    seen = {}
    permutes = True
    for v in algebra.quiver.vertices:
        low = f.vertex_images[v].degree_part(0)
        if len(low.terms) != 1 or set(low.terms.values()) != {1}:
            permutes = False
            break
        target = next(iter(low.terms)).vertex
        if target in seen:
            permutes = False
            break
        seen[target] = v
    graded_id = all(
        f.vertex_images[v].degree_part(0) == algebra.stationary(v)
        for v in algebra.quiver.vertices) and all(
        f.arrow_images[a].degree_part(1) == algebra.arrow(a)
        for a in algebra.quiver.arrow_by_name)
    return MembershipFlags(fixes, permutes, graded_id)


def invert_graded(f):
    """Inverse of a certified graded endomorphism (vertex permutation plus an
    invertible linear substitution of arrows); raises when singular."""
    algebra = f.algebra
    flags = membership(f)
    if not flags.permutes_vertices:
        raise CertificationError("graded map does not permute vertices")
    perm = {next(iter(f.vertex_images[v].degree_part(0).terms)).vertex: v
            for v in algebra.quiver.vertices}
    arrows = sorted(algebra.quiver.arrow_by_name)
    idx = {a: i for i, a in enumerate(arrows)}
    rows = [[Fraction(0)] * len(arrows) for _ in arrows]
    for a in arrows:
        img = f.arrow_images[a]
        if img.degree_part(1) != img:
            raise CertificationError(f"image of {a} is not homogeneous of degree 1")
        for p, c in img.terms.items():
            rows[idx[a]][idx[p.first_arrow]] = c
    inv = matrix_inverse(rows)
    if inv is None:
        raise CertificationError("graded endomorphism is singular")
    g = Endomorphism(
        algebra,
        {v: algebra.stationary(perm[v]) for v in algebra.quiver.vertices},
        {a: algebra.element({Path.of((b,)): inv[idx[a]][idx[b]] for b in arrows})
         for a in arrows})
    g = verify_endomorphism(g)
    g.inverse = f
    f.inverse = g
    return g


class Derivation:
    """Derivation vanishing on stationary paths, given by arrow images."""

    def __init__(self, algebra, arrow_images, type_tags=frozenset()):
        self.algebra = algebra
        self.arrow_images = {a: img for a, img in arrow_images.items()
                             if not img.is_zero}
        self.type_tags = frozenset(type_tags)
        self._path_cache = {}

    @property
    def is_zero(self):
        return not self.arrow_images

    def apply_path(self, path):
        if path in self._path_cache:
            return self._path_cache[path]
        algebra = self.algebra
        out = algebra.zero()
        arrows = path.arrows    # none for a stationary path, whose image is zero
        for i, a in enumerate(arrows):
            mid = self.arrow_images.get(a)
            if mid is None:
                continue
            piece = mid
            if i > 0:
                piece = algebra.path_element(arrows[:i]) * piece
            if i + 1 < len(arrows):
                piece = piece * algebra.path_element(arrows[i + 1:])
            out = out + piece
        self._path_cache[path] = out
        return out

    def apply(self, x):
        if isinstance(x, Path):
            return self.apply_path(x)
        out = self.algebra.zero()
        for p, c in x.terms.items():
            out = out + self.apply_path(p).scale(c)
        return out

    def negated(self):
        """-d, with the same target paths and type tags, not checked again:
        the relations still vanish by linearity, and neither the target
        conditions nor the tags depend on signs."""
        return Derivation(self.algebra,
                          {a: -img for a, img in self.arrow_images.items()},
                          self.type_tags)

    def plus(self, other):
        merged = dict(self.arrow_images)
        for a, img in other.arrow_images.items():
            merged[a] = merged.get(a, self.algebra.zero()) + img
        return make_derivation(self.algebra, list(merged.items()))

    def assignments(self):
        return sorted(self.arrow_images.items())


def make_derivation(algebra, assignments):
    """Build and certify a derivation from (arrow, element) assignments.

    Each basis path in a target must be parallel to its arrow, left maximal
    or starting with it, and right maximal or ending with it; the induced
    map must kill every relation generator.  Classifies the result by type
    tags (the zero derivation carries all three).
    """
    q = algebra.quiver
    merged = {}
    for a, img in assignments:
        if a not in q.arrow_by_name:
            raise DerivationError(f"unknown arrow {a}")
        merged[a] = merged.get(a, algebra.zero()) + img
    merged = {a: img for a, img in merged.items() if not img.is_zero}
    for a, img in merged.items():
        src, tgt = q.source(a), q.target(a)
        for p in img.terms:
            if q.path_source(p) != src or q.path_target(p) != tgt:
                raise DerivationError(f"target path {p} is not parallel to {a}")
            if p.first_arrow != a and not is_left_maximal(algebra, p):
                raise DerivationError(
                    f"target path {p} of {a} is neither left maximal nor starts with {a}")
            if p.last_arrow != a and not is_right_maximal(algebra, p):
                raise DerivationError(
                    f"target path {p} of {a} is neither right maximal nor ends with {a}")
    d = Derivation(algebra, merged)
    for g in algebra.relations:
        if not d.apply_path(g).is_zero:
            raise DerivationError(f"derivation does not vanish on relation {g}")
    d.type_tags = _classify_derivation(algebra, merged)
    return d


def _classify_derivation(algebra, arrow_images):
    if not arrow_images:
        return frozenset({CYCLE, MAXIMAL, PARALLEL})
    tags = set()
    cycle_arrows = algebra.cycle_arrows()
    if all(a not in cycle_arrows
           and all(p.first_arrow == a and p.last_arrow == a and p.length >= 2
                   for p in img.terms)
           for a, img in arrow_images.items()):
        tags.add(CYCLE)
    if all(p.length > 1 and is_left_maximal(algebra, p)
           for img in arrow_images.values() for p in img.terms):
        tags.add(MAXIMAL)
    if all(_is_parallel_assignment(algebra, a, img) for a, img in arrow_images.items()):
        tags.add(PARALLEL)
    return frozenset(tags) if tags else frozenset({OTHER})


def _is_parallel_assignment(algebra, a, img):
    if len(img.terms) != 1:
        return False
    bar = parallel_maximal(algebra, a)
    return bar is not None and next(iter(img.terms)) == bar


def default_nilpotency_cap(algebra):
    """One more than the longest finite maximal path length (at least 2)."""
    report = classify_maximal(algebra)
    longest = max((p.length for p in report.finite_maximal), default=0)
    return max(longest + 1, 2)


def exponentiate(d, cap=None):
    """Exponential automorphism of a locally nilpotent derivation.

    Iterates the derivation on each generator until it vanishes, dividing by
    factorials; raises CapExceededError when the iteration cap is hit (the
    derivation is then not locally nilpotent, or the cap is too small).
    The returned endomorphism is certified and carries no inverse; the
    inverse is exponentiate(d.negated()).
    """
    algebra = d.algebra
    cap = cap if cap is not None else default_nilpotency_cap(algebra)
    arrow_images = {}
    for a in algebra.quiver.arrow_by_name:
        total = algebra.arrow(a)
        term = algebra.arrow(a)
        k = 0
        factorial = 1
        while not term.is_zero:
            k += 1
            if k > cap:
                raise CapExceededError(
                    f"derivation is not nilpotent on {a} within {cap} iterations")
            factorial *= k
            term = d.apply(term)
            total = total + term.scale(Fraction(1, factorial))
        arrow_images[a] = total
    f = Endomorphism(
        algebra,
        {v: algebra.stationary(v) for v in algebra.quiver.vertices},
        arrow_images)
    return verify_endomorphism(f)


@dataclass(frozen=True)
class Unit:
    """Invertible element with its exactly verified two-sided inverse."""

    value: Element
    inverse: Element

    def __post_init__(self):
        one = self.value.algebra.one()
        if self.value * self.inverse != one or self.inverse * self.value != one:
            raise NotAUnitError("inverse verification failed")

    def swapped(self):
        """The unit u^-1 with inverse u, not checked again: the verified
        identity u * u^-1 = u^-1 * u = 1 is symmetric."""
        out = object.__new__(Unit)
        object.__setattr__(out, "value", self.inverse)
        object.__setattr__(out, "inverse", self.value)
        return out


def geometric_inverse(y, bound=None):
    """Inverse of 1 + y for nilpotent y, by the terminating geometric series."""
    algebra = y.algebra
    bound = bound if bound is not None else algebra.max_path_length + 1
    total = algebra.one()
    power = -y
    k = 0
    while not power.is_zero:
        k += 1
        if k > bound:
            raise NotAUnitError("geometric series did not terminate")
        total = total + power
        power = power * (-y)
    return total


def invert_unit(u):
    """Two-sided inverse of an element, or NotAUnitError naming the failure.

    The degree-zero part `low` must have a nonzero coefficient at every
    vertex; then u = low * (1 + y).  The inverse of 1 + y is one power series
    in the x-degree, which adds up under products.  The part y_0 of x-degree
    0 is nilpotent, so v_0 = (1 + y_0)^-1 is a terminating geometric series,
    and each further level is v_m = -v_0 * sum of y_k * v_(m-k) over
    1 <= k <= min(m, d), d the largest x-degree in y.  A unit's inverse has
    x-degree at most (n - 1) * d, n the longest cycle (the adjugate bound for
    a cycle block as n x n matrices over Q[x]), so the series stops with d
    zero levels in a row by level n * d, or u is not a unit.
    """
    algebra = u.algebra
    low = u.degree_part(0)
    coeffs = {p.vertex: c for p, c in low.terms.items()}
    missing = [v for v in algebra.quiver.vertices if not coeffs.get(v)]
    if missing:
        raise NotAUnitError(f"degree-0 part vanishes at vertex {missing[0]}")
    low_inv = algebra.element(
        {Path.stationary(v): Fraction(1) / coeffs[v] for v in algebra.quiver.vertices})
    parts = {}
    for p, c in (low_inv * (u - low)).terms.items():
        parts.setdefault(algebra.x_degree(p), {})[p] = c
    v0 = geometric_inverse(algebra.element(parts.pop(0, {})))
    levels = [v0]
    if parts:
        d = max(parts)
        n = max(len(c) for c in algebra.infinite_cycles())
        parts = {k: algebra.element(t) for k, t in parts.items()}
        while any(not v.is_zero for v in levels[-d:]):
            m = len(levels)
            if m > n * d:
                left = min(p for v in levels[-d:] for p in v.terms)
                raise NotAUnitError(
                    f"invert_unit: block of infinite maximal path "
                    f"{component_of_path(algebra, left)} is not invertible: its "
                    f"inverse series has terms past the x-degree bound {(n - 1) * d}")
            acc = algebra.zero()
            for k, yk in parts.items():
                if k <= m:
                    acc = acc + yk * levels[m - k]
            levels.append(-(v0 * acc))
    return Unit(u, sum(levels[1:], v0) * low_inv)


def inner_automorphism(u):
    """Conjugation by a unit whose degree-zero part is the identity.

    Certified without a check: the unit's two-sided inverse was verified
    exactly, so x -> u^-1 * x * u is an automorphism.  It carries no
    inverse; the inverse is inner_automorphism(u.swapped()).
    """
    if not isinstance(u, Unit):
        u = invert_unit(u)
    algebra = u.value.algebra
    if u.value.degree_part(0) != algebra.one():
        raise NotAUnitError("conjugation requires a unit congruent to 1 mod positive degree")
    return Endomorphism(
        algebra,
        {v: u.inverse * algebra.stationary(v) * u.value for v in algebra.quiver.vertices},
        {a: u.inverse * algebra.arrow(a) * u.value for a in algebra.quiver.arrow_by_name},
        certified=True, unit=u)


# -- morphism file format -----------------------------------------------------


def parse_endomorphism(algebra, text):
    """Parse `map e_<v> = <element>` / `map <arrow> = <element>` lines.

    Generators without a line default to themselves, so a file listing only
    the moved arrows describes the full map.
    """
    q = algebra.quiver
    names = [f"e_{v}" for v in q.vertices] + list(q.arrow_by_name)
    images = _read_map(text, names, algebra.parse_element)
    return Endomorphism(
        algebra,
        {v: images.get(f"e_{v}", algebra.stationary(v)) for v in q.vertices},
        {a: images.get(a, algebra.arrow(a)) for a in q.arrow_by_name})


def parse_derivation(algebra, text):
    """Parse `map <arrow> = <element>` lines into a certified derivation."""
    images = _read_map(text, algebra.quiver.arrow_by_name, algebra.parse_element)
    return make_derivation(algebra, list(images.items()))


def format_endomorphism(f):
    lines = []
    for v in sorted(f.vertex_images):
        lines.append(f"map e_{v} = {format_element(f.vertex_images[v])}")
    for a in sorted(f.arrow_images):
        lines.append(f"map {a} = {format_element(f.arrow_images[a])}")
    return "\n".join(lines)
