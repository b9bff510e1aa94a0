"""Constructive decomposition of automorphisms into exponential, endpoint
preserving, and inner factors, plus the outer-class report for gentle
presentations.

The pipeline peels factors off the input one degree level at a time:

1. a "maximal" exponential factor moving arrows by parallel maximal paths,
2. one inner factor per infinite maximal path, its unit u solved in the
   input's algebra from u * f(g) = g * u over the generators g of that
   block, with each f(g) cut to the block's paths,
3. an inner vertex correction followed by a level-by-level tower over the
   radical, yielding a maximal-type exponential, an endpoint-preserving
   factor kept with its word of cycle-type exponentials, and an inner unit.

Every decomposition is re-verified exactly against the input before it is
returned; factors are emitted in the fixed order [exponential,
endpoint-preserving, inner], preceded by a graded factor when the input is
not graded-identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._linalg import solve_affine
from .algebra import Element
from .errors import (CapExceededError, CertificationError, DecompositionError,
                     ShapeError)
from .maximal import (component_of_path, is_left_maximal, is_right_maximal,
                      parallel_maximal)
from .morphisms import (CYCLE, Endomorphism, MAXIMAL, Unit, exponentiate,
                        geometric_inverse, graded_part, inner_automorphism,
                        invert_graded, invert_unit, make_derivation, membership)
from .quiver import Path

EXP_MAXIMAL = "exp-maximal"              # exponential of a maximal-type derivation
ENDPOINT_PRESERVING = "endpoint-preserving"   # generated by cycle-type exponentials
INNER = "inner"
GRADED = "graded"

# largest intertwiner system, in rows x unknowns, built before giving up
MAX_INTERTWINER_SIZE = 10_000_000


@dataclass(frozen=True)
class Factor:
    """A factor; for the exp-maximal and endpoint-preserving kinds the
    endomorphism is exp(w_1) o ... o exp(w_k) over the `derivations` w_i."""

    kind: str
    endomorphism: Endomorphism
    derivations: tuple = ()
    unit: Optional[Unit] = None

    @property
    def is_trivial(self):
        return self.endomorphism.is_identity()


@dataclass(frozen=True)
class Decomposition:
    """Ordered factors whose composition reproduces the input exactly."""

    factors: tuple

    def compose(self):
        out = self.factors[-1].endomorphism
        for factor in reversed(self.factors[:-1]):
            out = factor.endomorphism.compose(out)
        return out

    def factor(self, kind):
        found = [f for f in self.factors if f.kind == kind]
        return found[0] if found else None


@dataclass(frozen=True)
class OuterClassReport:
    shape: str                 # kronecker | doubled-line | doubled-cycle | general-gentle
    group_description: str
    n_parallel_maximal: int    # arrows admitting a parallel maximal path


# -- stage 1: peel the parallel-maximal-path part ------------------------------


def peel_maximal(f):
    """Split off the exponential factor moving arrows by maximal paths.

    For graded-identity f, each arrow image decomposes as (terms containing
    the arrow) + y with y a combination of finite maximal paths parallel to
    the arrow; returns (d, g) with g = exp(d) o f fixing every arrow into
    the ideal it generates.
    """
    algebra = f.algebra
    if algebra.is_polynomial_ring:
        raise ShapeError("peel requires an algebra beyond the one-loop free algebra")
    if not f.certified or not membership(f).graded_identity:
        raise CertificationError("peel requires a certified graded-identity input")
    assignments = []
    for a in sorted(algebra.quiver.arrow_by_name):
        stray = {p: c for p, c in f.arrow_images[a].terms.items()
                 if a not in p.arrows}
        for p in stray:
            if p.length <= 1:
                raise DecompositionError(
                    f"image of {a} has a stray degree-{p.length} term {p}")
            if not (is_left_maximal(algebra, p) and is_right_maximal(algebra, p)):
                raise DecompositionError(
                    f"image of {a} contains non-maximal stray path {p}")
        if stray:
            assignments.append((a, algebra.element(stray).scale(-1)))
    d = make_derivation(algebra, assignments)
    if not d.is_zero and MAXIMAL not in d.type_tags:
        raise DecompositionError("stray parts do not form a maximal-type derivation")
    return d, exponentiate(d).compose(f)


# -- stage 2: conjugation solve on an infinite-maximal-path block ----------------


def solve_conjugation_unique_max(f, degree_cap=32):
    """Conjugating unit for a graded-identity automorphism of a locally
    gentle algebra with a unique infinite maximal path: the algebra is one
    block, solved by `_block_unit`."""
    algebra = f.algebra
    if algebra.is_polynomial_ring:
        raise ShapeError("the one-loop free algebra has no conjugation solver")
    cycles = algebra.infinite_cycles()
    if len(cycles) != 1 or set(cycles[0]) != set(algebra.quiver.arrow_by_name):
        raise ShapeError("algebra must have exactly one maximal path, infinite")
    if not f.certified or not membership(f).graded_identity:
        raise CertificationError("solver requires a certified graded-identity input")
    return _block_unit(f, 0, degree_cap)


def _block_unit(f, index, degree_cap):
    """Conjugating unit of the part of a certified graded-identity f on the
    block of infinite maximal path `index`.

    Solves u * f(g) = g * u in the algebra over the block's vertices and
    arrows g, with f(g) cut to the block's paths, for u congruent to 1
    supported on the block's paths of x-degree at most d (how many times a
    path passes the cycle's closing arrow, `PathAlgebra.x_degree`), growing
    d up to degree_cap.  A nonzero path that starts on the cycle stays on
    it, so this is the block's own system.  Conjugation fixes u only up to
    a central unit, and the block's center k[z] has only the scalars as
    units, so the solution at the least d is unique.  A solution that is
    not a unit raises NotAUnitError: the input was not an automorphism.
    """
    algebra = f.algebra
    cycle = algebra.infinite_cycles()[index]
    gens = [Path.stationary(v) for v in sorted({algebra.quiver.source(a) for a in cycle})]
    images = {}
    for g in gens + [Path.of((a,)) for a in sorted(cycle)]:
        base = algebra.path_element(g)
        moved = f.image_of_path(g) - base
        images[g] = base + algebra.element(
            {p: c for p, c in moved.terms.items()
             if component_of_path(algebra, p) == index})
    n = len(cycle)
    if n == 1 and any(image != algebra.path_element(g) for g, image in images.items()):
        # a free loop: the block k[x] is commutative, so conjugation fixes it
        raise DecompositionError(f"block {index} is a polynomial ring but is moved")
    memo, support = {}, []
    for degree in range(degree_cap + 1):
        # the prefix of length k of the walk from cycle[i] has x-degree (k + i) // n
        support = sorted(support + [
            algebra.walk_path(a, k) for i, a in enumerate(cycle)
            for k in range(max(1, degree * n - i), (degree + 1) * n - i)])
        u = _solve_intertwiner(images, support, memo)
        if u is not None:
            break
    else:
        raise CapExceededError(
            f"intertwiner: no polynomial intertwiner up to degree {degree_cap}")
    unit = invert_unit(u)
    if any(unit.inverse * algebra.path_element(g) * unit.value != image
           for g, image in images.items()):
        raise DecompositionError("conjugation verification failed")
    return unit


def _solve_intertwiner(images, support, memo):
    """u = 1 + sum of c_p * p over the support paths with
    u * images[g] = g * u for every generator g in images, or None.

    Deterministic: the echelon particular solution of the sparse system in
    the c_p, in support order.  memo keeps w * images[g] - g * w per
    generator g and support path w for the calls of one solve.  Raises
    CapExceededError before solving when rows x unknowns exceeds
    MAX_INTERTWINER_SIZE.
    """
    algebra = next(iter(images.values())).algebra
    concat = algebra.concat
    n = len(support)
    rows = {}    # per (generator, path): {unknown, or n for the right side: coefficient}
    for k, (g, target) in enumerate(images.items()):
        products = memo.setdefault(g, {})
        # the constant part 1 * f(g) - g * 1 goes to the right
        for p, c in (target - algebra.path_element(g)).terms.items():
            rows.setdefault((k, p), {})[n] = -c
        for i, w in enumerate(support):
            if w not in products:
                # w * p differ for different p: paths cancel on the left
                row = {concat(w, p): c for p, c in target.terms.items()}
                gw = concat(g, w)
                row[gw] = row.get(gw, 0) - 1
                row.pop(None, None)
                products[w] = Element._trusted(algebra, row).terms
            for p, c in products[w].items():
                rows.setdefault((k, p), {})[i] = c
    size = len(rows) * n
    if size > MAX_INTERTWINER_SIZE:
        raise CapExceededError(
            f"intertwiner: the system for support paths up to degree "
            f"{max(p.length for p in support)} has {size} entries "
            f"(rows x unknowns), above the cap of {MAX_INTERTWINER_SIZE}")
    sol = solve_affine(list(rows.values()), n)
    if sol is None:
        return None
    return algebra.one() + algebra.element(dict(zip(support, sol)))


# -- stage 3: the level tower over the radical ----------------------------------


def _radical_tower(f):
    """Stage 3: peel f (vertex fixing, arrows moved inside the radical)
    level by level.

    Returns (d, rho, word, u) with f = exp(d) o rho o conj(u) exactly; d is
    a maximal-type derivation, u a unit congruent to 1, and
    rho = exp(w_1) o ... o exp(w_k) over the pairs (w_i, exp(-w_i)) of word,
    the w_i cycle-type derivations, one per level that has returning terms.
    When rho is itself inner, it is absorbed into u and returned as the
    identity with an empty word.
    """
    algebra = f.algebra
    bound = algebra.radical_degree_bound()
    for v in algebra.quiver.vertices:
        if f.vertex_images[v] != algebra.stationary(v):
            raise DecompositionError(f"input does not fix e_{v}")
    for a in sorted(algebra.quiver.arrow_by_name):
        moved = f.arrow_images[a] - algebra.arrow(a)
        if any(component_of_path(algebra, p) is not None for p in moved.terms):
            raise DecompositionError(f"image of {a} moves an infinite-maximal-path block")
    d_acc = make_derivation(algebra, [])
    rho = Endomorphism.identity(algebra)
    word = []
    u_acc = algebra.one()
    current = f
    while True:
        levels = [img - algebra.arrow(a) for a, img in current.arrow_images.items()]
        degrees = [x.min_degree() for x in levels if not x.is_zero]
        if not degrees:
            break
        n = min(degrees)
        if n <= 1:
            raise DecompositionError("input is not graded-identity on arrows")
        if n > bound:
            raise DecompositionError(
                "moved parts persist beyond the radical degree bound; "
                "input is not an automorphism")
        # stage A: cancel terms starting with their own arrow by an inner factor
        y_terms = {}
        for a in algebra.quiver.arrow_by_name:
            part = (current.arrow_images[a] - algebra.arrow(a)).degree_part(n)
            for p, c in part.terms.items():
                if p.first_arrow == a:
                    tail = Path.of(p.arrows[1:])
                    y_terms[tail] = y_terms.get(tail, 0) + c
        y = algebra.element(y_terms)
        if not y.is_zero:
            v_value = algebra.one() - y
            v_inverse = geometric_inverse(-y)
            step = inner_automorphism(Unit(v_value, v_inverse))
            current = step.compose(current)
            u_acc = v_inverse * u_acc
        # stage B: remove returning-path terms by a cycle-type exponential
        x_assign = []
        for a in sorted(algebra.quiver.arrow_by_name):
            part = (current.arrow_images[a] - algebra.arrow(a)).degree_part(n)
            returning = {p: c for p, c in part.terms.items() if p.first_arrow == a}
            for p in returning:
                if p.last_arrow != a:
                    raise DecompositionError(
                        f"level-{n} residue {p} of {a} starts but does not end with it")
            if returning:
                x_assign.append((a, algebra.element(returning)))
        if x_assign:
            w = make_derivation(algebra, x_assign)
            if CYCLE not in w.type_tags:
                raise DecompositionError(
                    f"level-{n} returning residues are not cycle type")
            step_inverse = exponentiate(w.negated())
            current = step_inverse.compose(current)
            rho = rho.compose(exponentiate(w))
            word.append((w, step_inverse))
            u_acc = step_inverse.apply(u_acc)
        # stage C: the rest of the level must be left maximal; exponentiate away
        m_assign = []
        for a in sorted(algebra.quiver.arrow_by_name):
            part = (current.arrow_images[a] - algebra.arrow(a)).degree_part(n)
            for p in part.terms:
                if p.first_arrow == a:
                    raise DecompositionError(
                        f"level-{n} residue of {a} still starts with it")
                if not is_left_maximal(algebra, p):
                    raise DecompositionError(
                        f"level-{n} residue {p} of {a} is not left maximal")
                if p.last_arrow != a and not is_right_maximal(algebra, p):
                    raise DecompositionError(
                        f"level-{n} residue {p} of {a} is neither right maximal "
                        f"nor ends with it")
            if not part.is_zero:
                m_assign.append((a, part.scale(-1)))
        if m_assign:
            d_step = make_derivation(algebra, m_assign)
            if MAXIMAL not in d_step.type_tags:
                raise DecompositionError(f"level-{n} residues are not maximal type")
            step = exponentiate(d_step)
            current = step.compose(current)
            d_acc = d_acc.plus(d_step.negated())
            u_acc = step.apply(u_acc)
        still = [img - algebra.arrow(a) for a, img in current.arrow_images.items()]
        if any((not x.is_zero) and x.min_degree() <= n for x in still):
            raise DecompositionError(f"level {n} did not clear")
    if not rho.is_identity():
        match = _solve_inner_match(rho)
        if match is not None:
            u_acc = u_acc * match.value
            rho, word = Endomorphism.identity(algebra), []
    return d_acc, rho, tuple(word), u_acc


def _solve_inner_match(rho):
    """Unit u congruent to 1 with conjugation by u equal to rho, or None,
    solved on 1 + the radical paths."""
    algebra = rho.algebra
    images = {g: rho.image_of_path(g) for g in algebra.generators()}
    u = _solve_intertwiner(images, algebra.radical_paths(), {})
    if u is None:
        return None
    unit = invert_unit(u)
    return unit if inner_automorphism(unit) == rho else None


# -- public pipeline -------------------------------------------------------------


def decompose_string(f):
    """Decompose a vertex-fixing graded-identity automorphism of a
    finite-dimensional string presentation into [exponential,
    endpoint-preserving, inner] factors with exact recomposition, by
    `decompose_general`: on this domain its peel, block stage and vertex
    correction leave the radical tower's factors as they are."""
    algebra = f.algebra
    if not algebra.presentation.is_finite_dimensional:
        raise ShapeError("decompose_string requires a finite-dimensional presentation")
    if not f.certified:
        raise CertificationError("input endomorphism is not certified")
    flags = membership(f)
    if not flags.fixes_vertices or not flags.graded_identity:
        raise CertificationError(
            "decompose_string requires a vertex-fixing graded-identity input")
    return decompose_general(f)


def _tower_factors(d, rho, word, u_value):
    """The [exponential, endpoint-preserving, inner] factors exp(d), rho
    with the derivations of its word, and conjugation by the unit u_value."""
    unit = invert_unit(u_value)
    return (Factor(EXP_MAXIMAL, exponentiate(d), derivations=(d,)),
            Factor(ENDPOINT_PRESERVING, rho, derivations=tuple(w for w, _ in word)),
            Factor(INNER, inner_automorphism(unit), unit=unit))


def decompose_general(f, degree_cap=32):
    """Full decomposition of a certified automorphism of any valid
    (locally) string presentation other than the one-loop free algebra.

    A non-graded-identity input contributes a leading graded factor; the
    rest follows the three-stage pipeline.  The factor composition is
    verified exactly against the input before returning.
    """
    algebra = f.algebra
    if algebra.is_polynomial_ring:
        raise ShapeError("decompose requires an algebra beyond the one-loop free algebra")
    if not f.certified:
        raise CertificationError("input endomorphism is not certified")
    factors = []
    g = f
    if not membership(f).graded_identity:
        gr = graded_part(f)
        gr_inverse = invert_graded(gr)
        factors.append(Factor(GRADED, gr))
        g = gr_inverse.compose(f)
        if not membership(g).graded_identity:
            raise DecompositionError("graded correction failed")
    # stage 1: strip parallel-maximal-path terms
    d1, g1 = peel_maximal(g)
    # stage 2: one inner unit per infinite maximal path, solved on its block
    # the blocks multiply to zero: 1 + Σ(u_i - 1) has inverse 1 + Σ(u_i⁻¹ - 1)
    one = algebra.one()
    u2_value = u2_inverse = one
    for index in range(len(algebra.infinite_cycles())):
        unit_i = _block_unit(g1, index, degree_cap)
        u2_value = u2_value + (unit_i.value - one)
        u2_inverse = u2_inverse + (unit_i.inverse - one)
    u2 = Unit(u2_value, u2_inverse)
    g2 = inner_automorphism(u2.swapped()).compose(g1)
    for a in sorted(algebra.cycle_arrows()):
        if g2.arrow_images[a] != algebra.arrow(a):
            raise DecompositionError(f"block correction left arrow {a} moved")
    for v in algebra.quiver.vertices:
        moved = g2.vertex_images[v] - algebra.stationary(v)
        if any(component_of_path(algebra, p) is not None for p in moved.terms):
            raise DecompositionError(
                f"block correction left the image of e_{v} moved")
    # stage 2.5: inner vertex correction into the radical tower's domain
    u3_value = algebra.zero()
    for v in algebra.quiver.vertices:
        u3_value = u3_value + g2.vertex_images[v] * algebra.stationary(v)
    u3 = invert_unit(u3_value)
    g3 = inner_automorphism(u3).compose(g2)
    # stage 3: radical tower
    d_acc, rho, word, u4_value = _radical_tower(g3)
    # assemble: g = exp(d_acc - d1) o rho o conj(u_final), with
    # u_final = u4 * rho^-1(exp(-d_acc)(u3^-1 * u2)) and
    # rho^-1 = exp(-w_k) o ... o exp(-w_1) run in the word's order
    d_total = d_acc.plus(d1.negated())
    x = exponentiate(d_acc.negated()).apply(u3.inverse * u2.value)
    for _, step_inverse in word:
        x = step_inverse.apply(x)
    factors.extend(_tower_factors(d_total, rho, word, u4_value * x))
    return _verified(Decomposition(tuple(factors)), f)


def _verified(decomposition, f):
    if decomposition.compose() != f:
        raise DecompositionError("recomposition does not reproduce the input")
    return decomposition


# -- outer classes of gentle presentations ----------------------------------------


def outer_class(algebra):
    """Symbolic description of vertex-fixing automorphisms modulo inner ones
    for a (locally) gentle presentation."""
    pres = algebra.presentation
    if not pres.is_gentle:
        raise ShapeError("outer class report requires a (locally) gentle presentation")
    if pres.is_polynomial_ring:
        raise ShapeError("outer class report excludes the one-loop free algebra")
    q = algebra.quiver
    n_arrows = len(q.arrows)
    n_parallel = sum(1 for a in sorted(q.arrow_by_name)
                     if parallel_maximal(algebra, a) is not None)
    if (len(q.vertices) == 2 and n_arrows == 2 and len(algebra.relations) == 0):
        a1, a2 = q.arrows
        if a1.source == a2.source and a1.target == a2.target and a1.source != a1.target:
            return OuterClassReport("kronecker", "GL_2(k)", n_parallel)
    shape = _doubled_shape(q)
    if shape is not None:
        return OuterClassReport(
            shape, f"Z/2Z ⋉ (k^x)^{n_arrows}", n_parallel)
    return OuterClassReport(
        "general-gentle", f"(k^x)^{n_arrows} ⋉ k^{n_parallel}", n_parallel)


def _doubled_shape(q):
    """Detect the doubled line / doubled cycle quivers: every pair of joined
    vertices carries exactly two parallel arrows and the collapsed simple
    graph is a path or a cycle through all vertices."""
    groups = {}
    for a in q.arrows:
        if a.source == a.target:
            return None
        groups.setdefault((a.source, a.target), []).append(a.name)
    if any(len(names) != 2 for names in groups.values()):
        return None
    degree = {v: 0 for v in q.vertices}
    for (s, t) in groups:
        degree[s] += 1
        degree[t] += 1
    if any(d > 2 for d in degree.values()) or not q.is_connected():
        return None
    n_edges = len(groups)
    n_vertices = len(q.vertices)
    if n_edges == n_vertices and all(d == 2 for d in degree.values()):
        return "doubled-cycle"
    if n_edges == n_vertices - 1 and sum(1 for d in degree.values() if d == 1) == 2:
        return "doubled-line"
    return None
