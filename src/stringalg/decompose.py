"""Constructive decomposition of automorphisms into exponential, endpoint
preserving, and inner factors, plus the outer-class report for gentle
presentations.

The pipeline peels factors off the input one degree level at a time:

1. a "maximal" exponential factor moving arrows by parallel maximal paths,
2. one inner factor per infinite maximal path, its unit u solved in the
   input's algebra from u * f(g) = g * u over the generators g of that
   block, with each f(g) cut to the block's paths, on the paths of
   x-degree at most E, the top x-degree of a moved term in those images,
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

from ._linalg import Echelon
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


def _block_unit(f, index):
    """Conjugating unit of the part of a certified graded-identity f on the
    block of infinite maximal path `index`.

    Solves u * f(g) = g * u in the algebra over the block's vertices and
    arrows g, with f(g) cut to the block's paths, for u congruent to 1
    supported on the block's paths of x-degree at most d (how many times a
    path passes the cycle's closing arrow, `PathAlgebra.x_degree`), growing
    d from 0 to E, the largest x-degree of a moved term in the cut images.
    A nonzero path that starts on the cycle stays on it, so this is the
    block's own system.  The degrees are one solve by `_solve_intertwiner`:
    degree d adds the paths of x-degree d as columns.  Conjugation fixes u
    only up to a central unit, and the block's center k[z] has only the
    scalars as units, so the solution at the least d is unique.

    A unit has x-degree D <= E.  Number the cycle arrows c_0..c_{n-1} by
    position and send the path of length k from position i to
    x^((i + k) // n) * E_{i, (i + k) mod n}: this embeds the block in
    M_n(k[x]), x-degree becoming matrix degree.  If f(c_i) = U^-1 * C_i * U
    with C_i = E_{i, i+1} (x * E_{n-1, 0} for the closing arrow), f(c_i) is
    the outer product of column i of U^-1, nonzero, and row i + 1 of U
    (times x), so its degree is the sum of theirs: k[x] has no zero
    divisors.  Row i + 1 of U has degree at most that of f(c_i), at most E
    (E - 1 on the closing arrow), and every row of U is a row i + 1.  So no
    unit up to E means no unit at all, and DecompositionError names the
    block, E and the generator that carries the top term.  A solution that
    is not a unit raises NotAUnitError: the input was not an automorphism.

    The unit is returned with its verified inverse but without checking
    that it conjugates the block: `decompose_general`, its one caller,
    checks that every cycle arrow is fixed after the block correction and
    then compares the whole recomposition with its input.
    """
    algebra = f.algebra
    cycle = algebra.infinite_cycles()[index]
    gens = [Path.stationary(v) for v in sorted({algebra.quiver.source(a) for a in cycle})]
    images = {}
    bound, top = 0, None   # E, and the moved term of that x-degree with its generator
    for g in gens + [Path.of((a,)) for a in sorted(cycle)]:
        base = algebra.path_element(g)
        kept = {p: c for p, c in (f.image_of_path(g) - base).terms.items()
                if component_of_path(algebra, p) == index}
        for p in kept:
            if top is None or algebra.x_degree(p) > bound:
                bound, top = algebra.x_degree(p), (p, g)
        images[g] = base + algebra.element(kept)
    n = len(cycle)
    # the prefix of length k of the walk from cycle[i] has x-degree (k + i) // n
    supports = (sorted(algebra.walk_path(a, k) for i, a in enumerate(cycle)
                       for k in range(max(1, degree * n - i), (degree + 1) * n - i))
                for degree in range(bound + 1))
    u = _solve_intertwiner(images, supports)
    if u is None:
        raise DecompositionError(
            f"intertwiner: no unit conjugates block {index} (a unit would have "
            f"x-degree at most {bound}, the x-degree of {top[0]} in the image "
            f"of {top[1]})")
    return invert_unit(u)


def _solve_intertwiner(images, supports):
    """u = 1 + sum of c_p * p over the paths of the first batches of
    `supports` (an iterable of path lists, batch d of x-degree d) with
    u * images[g] = g * u for every generator g in images; None when no
    batch gives one.

    One growing solve.  The unknown c_w has the column w * images[g] - g * w
    over the generators g, built by `_intertwiner_columns`, and the
    right-hand side is g - images[g]; neither changes when the support
    grows.  Rows are numbered by (generator, path) as they first hold a
    nonzero entry.  Each batch adds its paths as columns, in order, to one
    `Echelon`: each column is built once and reduced once, the reduced
    right-hand side carries over, and the solve stops after the first batch
    that leaves it zero.  A column that depends on the ones before it keeps
    coefficient 0, so with free unknowns the answer follows insertion
    order.  Raises CapExceededError before reducing a batch when the system
    grown by it has more than MAX_INTERTWINER_SIZE rows x unknowns.
    """
    algebra = next(iter(images.values())).algebra
    column_of = _intertwiner_columns(images)
    rows = {}

    def numbered(entries):
        return {rows.setdefault(key, len(rows)): c for key, c in entries.items()}

    echelon = Echelon(numbered(
        {(k, p): -c for k, (g, image) in enumerate(images.items())
         for p, c in (image - algebra.path_element(g)).terms.items()}))
    unknowns = 0
    for degree, batch in enumerate(supports):
        columns = [numbered(column_of(w)) for w in batch]
        unknowns += len(batch)
        size = len(rows) * unknowns
        if size > MAX_INTERTWINER_SIZE:
            raise CapExceededError(
                f"intertwiner: the system for support paths up to x-degree "
                f"{degree} has {size} entries "
                f"(rows x unknowns), above the cap of {MAX_INTERTWINER_SIZE}")
        for w, column in zip(batch, columns):
            echelon.add(w, column)
        solution = echelon.solution()
        if solution is not None:
            return algebra.one() + algebra.element(solution)
    return None


def _intertwiner_columns(images):
    """column(w): the nonzero entries of w * images[g] - g * w over the
    generators g, as {(index of g in images, path): value}, for a
    nonstationary basis path w.

    A product of basis paths w * p is nonzero only when p is stationary at
    w's target or starts with the arrow after w, so the images' terms are
    sorted once into buckets by first arrow (a stationary term by its
    path), and w meets only its two buckets.  Likewise g * w is w for the
    stationary g at w's source and is nonzero for an arrow g only when w
    starts with the arrow after g.  Distinct p give distinct w * p, as
    paths cancel on the left.
    """
    algebra = next(iter(images.values())).algebra
    concat, quiver = algebra.concat, algebra.quiver
    stationary = {v: Path.stationary(v) for v in quiver.vertices}
    follow, lead = {}, {}   # image terms by first arrow; generators by the arrow after them
    for k, (g, image) in enumerate(images.items()):
        for p, c in image.terms.items():
            follow.setdefault(p[1] if p[0] else p, []).append((k, p, c))
        lead.setdefault(algebra.next_arrow(g) if g[0] else g, []).append((k, g))

    def column(w):
        out = {}
        at = stationary[quiver.path_target(w)]
        for k, p, c in follow.get(at, []) + follow.get(algebra.next_arrow(w), []):
            wp = concat(w, p)
            if wp is not None:
                out[(k, wp)] = c
        start = stationary[quiver.path_source(w)]
        for k, g in lead.get(start, []) + lead.get(w[1], []):
            gw = concat(g, w) if g[0] else w
            if gw is not None:
                c = out.pop((k, gw), 0) - 1
                if c:
                    out[(k, gw)] = c
        return out

    return column


# -- stage 3: the level tower over the radical ----------------------------------


def _radical_tower(f):
    """Stage 3: peel f (vertex fixing, arrows moved inside the radical)
    level by level.

    Returns (d, rho, word, u, u_inverse) with f = exp(d) o rho o conj(u)
    exactly; d is a maximal-type derivation, u a unit congruent to 1 and
    u_inverse its inverse, carried through every step and not yet checked,
    and rho = exp(w_1) o ... o exp(w_k) over the pairs (w_i, exp(-w_i)) of
    word, the w_i cycle-type derivations, one per level that has returning
    terms.  When rho is itself inner, it is absorbed into u and returned as
    the identity with an empty word.
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
    u_acc = u_inv = algebra.one()
    current = f
    n = None    # the level last worked on: its stages must have cleared it
    while True:
        levels = [img - algebra.arrow(a) for a, img in current.arrow_images.items()]
        degrees = [x.min_degree() for x in levels if not x.is_zero]
        if not degrees:
            break
        if n is not None and min(degrees) <= n:
            raise DecompositionError(f"level {n} did not clear")
        n = min(degrees)
        if n <= 1:
            raise DecompositionError("input is not graded-identity on arrows")
        if n > bound:
            raise DecompositionError(
                "moved parts persist beyond the radical degree bound; "
                "input is not an automorphism")
        # n >= 2, so the level-n part of an image never holds its arrow
        # stage A: cancel terms starting with their own arrow by an inner factor
        y_terms = {}
        for a in algebra.quiver.arrow_by_name:
            part = current.arrow_images[a].degree_part(n)
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
            u_acc, u_inv = v_inverse * u_acc, u_inv * v_value
        # stage B: remove returning-path terms by a cycle-type exponential
        x_assign = []
        for a in sorted(algebra.quiver.arrow_by_name):
            part = current.arrow_images[a].degree_part(n)
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
            u_acc, u_inv = _apply_both(step_inverse, u_acc, u_inv)
        # stage C: the rest of the level must be left maximal; exponentiate away
        m_assign = []
        for a in sorted(algebra.quiver.arrow_by_name):
            part = current.arrow_images[a].degree_part(n)
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
            u_acc, u_inv = _apply_both(step, u_acc, u_inv)
    if not rho.is_identity():
        match = _solve_inner_match(rho)
        if match is not None:
            u_acc, u_inv = u_acc * match.value, match.inverse * u_inv
            rho, word = Endomorphism.identity(algebra), []
    return d_acc, rho, tuple(word), u_acc, u_inv


def _apply_both(f, x, y):
    """(f(x), f(y)) for an endomorphism f, sharing its prefix images."""
    memo = {}
    return f.apply(x, memo), f.apply(y, memo)


def _solve_inner_match(rho):
    """Unit u congruent to 1 with conjugation by u equal to rho, or None,
    solved on 1 + the radical paths."""
    algebra = rho.algebra
    images = {g: rho.image_of_path(g) for g in algebra.generators()}
    u = _solve_intertwiner(images, [algebra.radical_paths()])
    if u is None:
        return None
    unit = invert_unit(u)
    return unit if inner_automorphism(unit) == rho else None


# -- public pipeline -------------------------------------------------------------


def _tower_factors(d, rho, word, unit):
    """The [exponential, endpoint-preserving, inner] factors exp(d), rho
    with the derivations of its word, and conjugation by `unit`."""
    return (Factor(EXP_MAXIMAL, exponentiate(d), derivations=(d,)),
            Factor(ENDPOINT_PRESERVING, rho, derivations=tuple(w for w, _ in word)),
            Factor(INNER, inner_automorphism(unit), unit=unit))


def decompose_general(f):
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
        unit_i = _block_unit(g1, index)
        u2_value = u2_value + (unit_i.value - one)
        u2_inverse = u2_inverse + (unit_i.inverse - one)
    u2 = Unit(u2_value, u2_inverse)
    g2 = inner_automorphism(u2.swapped()).compose(g1)
    # the block units' one conjugation check: each block is fixed on g2
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
    d_acc, rho, word, u4_value, u4_inverse = _radical_tower(g3)
    # assemble: g = exp(d_acc - d1) o rho o conj(u_final), with
    # u_final = u4 * x for x = rho^-1(exp(-d_acc)(u3^-1 * u2)) and
    # rho^-1 = exp(-w_k) o ... o exp(-w_1) run in the word's order; the
    # same maps send u2^-1 * u3 to x^-1, and Unit checks the pair
    d_total = d_acc.plus(d1.negated())
    x, x_inverse = _apply_both(exponentiate(d_acc.negated()),
                               u3.inverse * u2.value, u2.inverse * u3.value)
    for _, step_inverse in word:
        x, x_inverse = _apply_both(step_inverse, x, x_inverse)
    unit = Unit(u4_value * x, x_inverse * u4_inverse)
    factors.extend(_tower_factors(d_total, rho, word, unit))
    return _verified(Decomposition(tuple(factors)), f)


def _verified(decomposition, f):
    if decomposition.compose() != f:
        raise DecompositionError("recomposition does not reproduce the input")
    return decomposition


# -- outer classes of gentle presentations ----------------------------------------


def outer_class(algebra):
    """Symbolic description of the vertex-fixing automorphisms of a
    (locally) gentle presentation modulo the inner automorphisms by units
    congruent to 1 modulo the radical.

    Conjugation by a unit that scales the stationary paths (the vertex
    torus, of dimension |Q_0| - 1 modulo scalars) is inner too but is not
    divided out, so a description is that many dimensions larger than HH^1
    (as computed on the Kronecker, double-diamond and doubled-line
    presentations)."""
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
