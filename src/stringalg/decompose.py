"""Constructive decomposition of automorphisms into exponential, endpoint
preserving, and inner factors, plus the outer-class report for gentle
presentations.

The pipeline peels factors off the input one degree level at a time:

1. a "maximal" exponential factor moving arrows by parallel maximal paths,
2. one inner factor per infinite maximal path, its unit u solved from the
   linear system u * f(g) = g * u in the algebra, as in stage 3,
3. an inner vertex correction followed by a level-by-level tower over the
   radical, yielding a maximal-type exponential, an endpoint-preserving
   factor, and an inner unit.

Every decomposition is re-verified exactly against the input before it is
returned; factors are emitted in the fixed order [exponential,
endpoint-preserving, inner], preceded by a graded factor when the input is
not graded-identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._linalg import solve_affine
from .algebra import PathAlgebra
from .errors import (CapExceededError, CertificationError, DecompositionError,
                     InvariantError, ShapeError)
from .maximal import (component_of_path, is_left_maximal, is_right_maximal,
                      parallel_maximal)
from .morphisms import (Derivation, Endomorphism, MAXIMAL, Unit, exponentiate,
                        geometric_inverse, graded_part, inner_automorphism,
                        invert_graded, invert_unit, make_derivation,
                        membership, verify_endomorphism)
from .quiver import AlgebraPresentation, Path, Quiver, RelationSet

EXP_MAXIMAL = "exp-maximal"              # exponential of a maximal-type derivation
ENDPOINT_PRESERVING = "endpoint-preserving"   # generated by cycle-type exponentials
INNER = "inner"
GRADED = "graded"

# largest intertwiner system, in rows x unknowns, built before giving up
MAX_INTERTWINER_SIZE = 10_000_000


@dataclass(frozen=True)
class Factor:
    kind: str
    endomorphism: Endomorphism
    derivation: Optional[Derivation] = None
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


# -- stage 2: conjugation solve on a one-cycle block ---------------------------


def solve_conjugation_unique_max(f, degree_cap=32):
    """Conjugating unit for a graded-identity automorphism of a locally
    gentle algebra with a unique infinite maximal path.

    Solves u * f(g) = g * u in the algebra for u congruent to 1, supported
    on the paths of x-degree at most d (how many times a path passes the
    cycle's closing arrow, `PathAlgebra.x_degree`), growing d up to degree_cap.
    Conjugation fixes u only up to a central unit, and the block's center
    k[z] has only the scalars as units, so the solution at the least d is
    unique.  A solution that is not a unit raises
    NotAUnitError: the input was not an automorphism.
    """
    algebra = f.algebra
    if algebra.is_polynomial_ring:
        raise ShapeError("the one-loop free algebra has no conjugation solver")
    cycles = algebra.infinite_cycles()
    if len(cycles) != 1 or set(cycles[0]) != set(algebra.quiver.arrow_by_name):
        raise ShapeError("algebra must have exactly one maximal path, infinite")
    if not f.certified or not membership(f).graded_identity:
        raise CertificationError("solver requires a certified graded-identity input")
    n = len(cycles[0])
    memo = {}
    for degree in range(degree_cap + 1):
        support = [p for p in algebra.enumerate_basis((degree + 1) * n)
                   if not p.is_stationary and algebra.x_degree(p) <= degree]
        u = _solve_intertwiner(f, support, memo)
        if u is not None:
            break
    else:
        raise CapExceededError(
            f"intertwiner: no polynomial intertwiner up to degree {degree_cap}")
    unit = invert_unit(u)
    if inner_automorphism(unit) != f:
        raise DecompositionError("conjugation verification failed")
    return unit


def _solve_intertwiner(f, support, memo):
    """u = 1 + sum of c_p * p over the support paths with u * f(g) = g * u
    for every generator g, or None.

    Deterministic: the echelon particular solution of the sparse system in
    the c_p, in support order.  memo keeps g, f(g) and w * f(g) - g * w per
    generator g and support path w for the calls of one solve.  Raises
    CapExceededError before solving when rows x unknowns exceeds
    MAX_INTERTWINER_SIZE.
    """
    algebra = f.algebra
    n = len(support)
    rows = {}    # per (generator, path): {unknown, or n for the right side: coefficient}
    for k, g in enumerate(algebra.generators()):
        if g not in memo:
            base = algebra.path_element(g)
            memo[g] = base, f.apply(base), {}
        base, target, products = memo[g]
        # the constant part 1 * f(g) - g * 1 goes to the right
        for p, c in (target - base).terms.items():
            rows.setdefault((k, p), {})[n] = -c
        for i, w in enumerate(support):
            if w not in products:
                we = algebra.path_element(w)
                products[w] = (we * target - base * we).terms
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

    Returns (d, rho, u) with f = exp(d) o rho o conj(u) exactly;
    d is a maximal-type derivation, rho a composition of cycle-type
    exponentials carrying its inverse, and u a unit congruent to 1.  When
    rho is itself inner, it is absorbed into u and returned as the identity.
    """
    algebra = f.algebra
    bound = algebra.radical_degree_bound()
    for v in algebra.quiver.vertices:
        if f.vertex_images[v] != algebra.stationary(v):
            raise DecompositionError(f"input does not fix e_{v}")
    cycle_arrows = algebra.cycle_arrows()
    for a in sorted(algebra.quiver.arrow_by_name):
        moved = f.arrow_images[a] - algebra.arrow(a)
        if any(component_of_path(algebra, p) is not None for p in moved.terms):
            raise DecompositionError(f"image of {a} moves an infinite-maximal-path block")
    d_acc = make_derivation(algebra, [])
    rho = Endomorphism.identity(algebra)
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
                    y_terms[tail] = y_terms.get(tail, Fraction(0)) + c
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
                x_assign.append((a, algebra.element(returning).scale(-1)))
        if x_assign:
            d_step = make_derivation(algebra, x_assign)
            step = exponentiate(d_step)
            current = step.compose(current)
            rho = rho.compose(step.inverse)
            u_acc = step.apply(u_acc)
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
            rho = Endomorphism.identity(algebra)
    return d_acc, rho, u_acc


def _solve_inner_match(rho):
    """Unit u congruent to 1 with conjugation by u equal to rho, or None,
    solved on 1 + the radical paths."""
    u = _solve_intertwiner(rho, rho.algebra.radical_paths(), {})
    if u is None:
        return None
    unit = invert_unit(u)
    return unit if inner_automorphism(unit) == rho else None


# -- public pipeline -------------------------------------------------------------


def decompose_string(f):
    """Decompose a vertex-fixing graded-identity automorphism of a
    finite-dimensional string presentation into [exponential,
    endpoint-preserving, inner] factors with exact recomposition."""
    algebra = f.algebra
    if not algebra.presentation.is_finite_dimensional:
        raise ShapeError("decompose_string requires a finite-dimensional presentation")
    if not f.certified:
        raise CertificationError("input endomorphism is not certified")
    flags = membership(f)
    if not flags.fixes_vertices or not flags.graded_identity:
        raise CertificationError(
            "decompose_string requires a vertex-fixing graded-identity input")
    return _verified(Decomposition(_tower_factors(*_radical_tower(f))), f)


def _tower_factors(d, rho, u_value):
    """The [exponential, endpoint-preserving, inner] factors exp(d), rho
    and conjugation by the unit u_value."""
    unit = invert_unit(u_value)
    return (Factor(EXP_MAXIMAL, exponentiate(d), derivation=d),
            Factor(ENDPOINT_PRESERVING, rho),
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
    # stage 2: one inner unit per infinite maximal path
    # the blocks multiply to zero: 1 + Σ(u_i - 1) has inverse 1 + Σ(u_i⁻¹ - 1)
    u2_value = u2_inverse = algebra.one()
    for index in range(len(algebra.infinite_cycles())):
        sub = component_algebra(algebra, index)
        fi = _restrict_to_block(g1, index, sub)
        if sub.is_polynomial_ring:
            if not fi.is_identity():
                raise DecompositionError(
                    f"block {index} is a polynomial ring but is moved")
            continue
        unit_i = solve_conjugation_unique_max(fi, degree_cap=degree_cap)
        u2_value = u2_value + algebra.element((unit_i.value - sub.one()).terms)
        u2_inverse = u2_inverse + algebra.element((unit_i.inverse - sub.one()).terms)
    u2 = Unit(u2_value, u2_inverse)
    g2 = inner_automorphism(u2).inverse.compose(g1)
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
    d_acc, rho, u4_value = _radical_tower(g3)
    # assemble: g = exp(d_acc - d1) o rho o conj(u_final)
    d_total = d_acc.plus(d1.negated())
    w = u3.inverse * u2.value
    exp_acc_inv = exponentiate(d_acc).inverse
    u_final_value = u4_value * rho.inverse.apply(exp_acc_inv.apply(w))
    factors.extend(_tower_factors(d_total, rho, u_final_value))
    return _verified(Decomposition(tuple(factors)), f)


def component_algebra(algebra, index):
    """Standalone presentation of one infinite-maximal-path block."""
    key = ("component_algebra", index)
    if key in algebra._cache:
        return algebra._cache[key]
    cyc = algebra.infinite_cycles()[index]
    names = set(cyc)
    q = algebra.quiver
    vertices = sorted({q.source(a) for a in names} | {q.target(a) for a in names})
    arrows = [(a.name, a.source, a.target)
              for a in q.arrows if a.name in names]
    gens = [g for g in algebra.relations if set(g.arrows) <= names]
    sub_quiver = Quiver(vertices, arrows)
    pres = AlgebraPresentation.build(sub_quiver, RelationSet(sub_quiver, gens))
    if pres.classification != "locally-gentle":
        raise InvariantError(
            "component algebra",
            f"infinite-maximal-path block is {pres.classification}, not locally gentle")
    sub = PathAlgebra(pres, max_path_length=algebra.max_path_length)
    algebra._cache[key] = sub
    return sub


def _restrict_to_block(f, index, sub):
    """Automorphism induced on one infinite-maximal-path block."""
    algebra = f.algebra
    def block_part(x):
        return sub.element({p: c for p, c in x.terms.items()
                            if component_of_path(algebra, p) == index})
    vertex_images = {}
    for v in sub.quiver.vertices:
        vertex_images[v] = sub.stationary(v) + block_part(
            f.vertex_images[v] - algebra.stationary(v))
    arrow_images = {}
    for a in sub.quiver.arrow_by_name:
        arrow_images[a] = sub.arrow(a) + block_part(
            f.arrow_images[a] - algebra.arrow(a))
    g = Endomorphism(sub, vertex_images, arrow_images)
    try:
        return verify_endomorphism(g)
    except CertificationError as exc:
        raise DecompositionError(
            f"restriction to block {index} is not an endomorphism: {exc}") from exc


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
