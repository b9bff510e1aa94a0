"""Random generators for automorphism factors, shared by the decomposition
and acceptance suites.  Everything is seeded, so failures reproduce."""

from fractions import Fraction

from stringalg.maximal import classify_maximal, rotation_sum
from stringalg.morphisms import (Endomorphism, exponentiate, inner_automorphism,
                                 invert_unit, make_derivation, verify_endomorphism)


def derivation_targets(algebra, max_degree=8):
    """(arrow, path) pairs valid as single-path derivation targets that
    exponentiate to automorphisms."""
    report = classify_maximal(algebra)
    q = algebra.quiver
    cycle_arrows = algebra.cycle_arrows()
    out = []
    for a in sorted(q.arrow_by_name):
        if a not in cycle_arrows:
            z = rotation_sum(algebra, a)
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


def random_exponential(rng, algebra, targets=None):
    targets = targets if targets is not None else derivation_targets(algebra)
    if not targets:
        return Endomorphism.identity(algebra)
    picks = rng.sample(targets, min(len(targets), rng.randint(1, 3)))
    assignments = [(a, algebra.path_element(p).scale(rng.randint(-3, 3)))
                   for a, p in picks]
    return exponentiate(make_derivation(algebra, assignments))


def elementary_unit_paths(algebra, max_degree=6, cycles_only=False):
    """Basis paths p with p*p = 0, so that 1 + c*p is always invertible.

    With cycles_only, keep closed paths: conjugation by the resulting units
    fixes every stationary path, staying inside the vertex-fixing subgroup.
    """
    q = algebra.quiver
    out = []
    for p in algebra.enumerate_basis(max_degree):
        if p.is_stationary:
            continue
        if cycles_only and q.path_source(p) != q.path_target(p):
            continue
        pe = algebra.path_element(p)
        if (pe * pe).is_zero:
            out.append(p)
    return out


def random_unit_factors(rng, paths, most=3):
    """(c, p) pairs, p drawn from elementary unit paths, for the product of
    the units 1 + c*p; the product's inverse is that of the 1 - c*p in
    reverse order."""
    return [(Fraction(rng.randint(-3, 3)), p)
            for p in rng.sample(paths, min(len(paths), rng.randint(1, most)))]


def unit_product(algebra, factors):
    value = algebra.one()
    for c, p in factors:
        value = value * (algebra.one() + algebra.path_element(p).scale(c))
    return value


def random_inner(rng, algebra, paths=None):
    paths = paths if paths is not None else elementary_unit_paths(algebra)
    if not paths:
        return inner_automorphism(invert_unit(algebra.one()))
    value = unit_product(algebra, random_unit_factors(rng, paths))
    return inner_automorphism(invert_unit(value))


def random_graded_identity_automorphism(rng, algebra, pieces=3,
                                        targets=None, paths=None):
    f = Endomorphism.identity(algebra)
    for _ in range(pieces):
        if rng.random() < 0.5:
            f = random_exponential(rng, algebra, targets).compose(f)
        else:
            f = random_inner(rng, algebra, paths).compose(f)
    return f


def random_graded_symmetric(rng, algebra, vertex_swap, arrow_swap, pieces=2):
    """A graded symmetry composed, on a random side, with a random
    graded-identity automorphism.  The symmetry maps e_v to e_(vertex_swap
    of v) and each arrow a to a random nonzero multiple of arrow_swap[a];
    vertices missing from vertex_swap stay put."""
    symmetry = verify_endomorphism(Endomorphism(
        algebra,
        {v: algebra.stationary(vertex_swap.get(v, v)) for v in algebra.quiver.vertices},
        {a: algebra.arrow(arrow_swap[a]).scale(rng.choice((-3, -1, 1, 2, Fraction(1, 2))))
         for a in algebra.quiver.arrow_by_name}))
    f = random_graded_identity_automorphism(rng, algebra, pieces)
    return symmetry.compose(f) if rng.random() < 0.5 else f.compose(symmetry)
