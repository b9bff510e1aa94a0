"""Maximal-path structure: classification, the arrow partition, the radical,
and the central elements attached to infinite maximal paths.

Everything here assumes a valid (locally) string presentation, under which
each arrow has at most one surviving continuation and predecessor.  That
forces the cycles generating infinite maximal paths to be closed islands in
the arrow graph, so basis paths split cleanly into "radical" paths (touching
no such cycle) and subpaths of infinite maximal paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import nullspace
from .errors import InvariantError
from .quiver import Path


@dataclass(frozen=True)
class InfiniteMaximalPath:
    """An infinite maximal path, stored via its canonical generating cycle."""

    cycle: Path

    @property
    def arrows(self):
        return frozenset(self.cycle.arrows)

    def __str__(self):
        return f"({self.cycle})^inf"


@dataclass(frozen=True)
class MaximalPathReport:
    left_maximal: tuple
    right_maximal: tuple
    finite_maximal: tuple
    infinite_maximal: tuple


@dataclass(frozen=True)
class ArrowPartition:
    """Arrows split into the radical part and one block per infinite maximal
    path, together with the induced vertex sets."""

    radical_arrows: tuple
    component_arrows: tuple       # tuple of arrow-name tuples, one per cycle
    radical_vertices: tuple
    component_vertices: tuple


def repeat_free_path(algebra, arrow_name):
    """The longest basis path starting at the arrow with no repeated arrow.

    Unique because continuations are single valued: the arrow's entry in the
    presentation's walk table cut where it returns to the arrow.  Since
    predecessors are single valued too, that first return is the walk's
    first repeated arrow.  When the arrow sits on a surviving cycle the
    entry is that cycle, read from the arrow.
    """
    run, _ = algebra.presentation.walks[arrow_name]
    return Path.of(run[:(run + (arrow_name,)).index(arrow_name, 1)])


def is_left_maximal(algebra, path):
    """No arrow extends the basis path on the left outside the ideal."""
    src = algebra.quiver.path_source(path)
    return all(algebra.concat(algebra.walk_path(a.name, 1), path) is None
               for a in algebra.quiver.arrows_into[src])


def is_right_maximal(algebra, path):
    tgt = algebra.quiver.path_target(path)
    return all(algebra.concat(path, algebra.walk_path(a.name, 1)) is None
               for a in algebra.quiver.arrows_from[tgt])


def classify_maximal(algebra):
    """Classify maximal paths; finite ones are enumerated exactly, from the
    radical paths, under their listing cap."""
    if "classify" in algebra._cache:
        return algebra._cache["classify"]
    infinite = tuple(InfiniteMaximalPath(Path.of(c)) for c in algebra.infinite_cycles())
    candidates = algebra.radical_paths()
    left = tuple(p for p in candidates if is_left_maximal(algebra, p))
    right = tuple(p for p in candidates if is_right_maximal(algebra, p))
    finite = tuple(p for p in left if is_right_maximal(algebra, p))
    report = MaximalPathReport(left, right, finite, infinite)
    algebra._cache["classify"] = report
    return report


def arrow_partition(algebra):
    """Partition the arrows by infinite-maximal-path membership."""
    cycles = algebra.infinite_cycles()
    comp_arrows = tuple(tuple(sorted(c)) for c in cycles)
    radical = algebra.radical_arrows()
    q = algebra.quiver
    def vertex_set(names):
        return tuple(sorted({q.source(a) for a in names} | {q.target(a) for a in names}))
    return ArrowPartition(
        radical_arrows=radical,
        component_arrows=comp_arrows,
        radical_vertices=vertex_set(radical),
        component_vertices=tuple(vertex_set(c) for c in comp_arrows),
    )


def component_of_path(algebra, path):
    """Index of the infinite maximal path containing a basis path, or None.

    A nonstationary basis path lies in a cycle block exactly when its first
    arrow does, since blocks are closed under continuation.
    """
    at = algebra.cycle_positions().get(path.first_arrow)
    return None if at is None else at[0]


def cycle_sum(algebra, imp):
    """Central element of an infinite maximal path: the sum of its
    generating cycles (one rotation per member arrow)."""
    return _central_rotation_sum(algebra, imp.cycle.arrows, f"cycle sum of {imp}")


def rotation_sum(algebra, arrow_name):
    """Sum of the rotations of the repeat-free cycle through an arrow.

    Returns None when the arrow supports no returning path: its walk is
    finite and ends before it comes back to the arrow.  Otherwise the
    result is a homogeneous central element whose powers, multiplied by the
    arrow, span the returning paths through that arrow.
    """
    walk, periodic = algebra.presentation.walks[arrow_name]
    run = repeat_free_path(algebra, arrow_name)
    if not periodic and len(walk) == run.length:
        return None
    return _central_rotation_sum(algebra, run.arrows, f"rotation sum of {arrow_name}")


def _central_rotation_sum(algebra, cyc, label):
    """The sum of the rotations of the cycle `cyc`, checked to commute with
    every generator."""
    element = algebra.element({
        Path.of(cyc[i:] + cyc[:i]): 1 for i in range(len(cyc))})
    for g in algebra.generators():
        ge = algebra.path_element(g)
        if ge * element != element * ge:
            raise InvariantError("central element", f"{label} fails to commute with {g}")
    return element


def parallel_maximal(algebra, arrow_name):
    """The unique finite maximal path parallel to the arrow that neither
    starts nor ends with it, or None."""
    q = algebra.quiver
    src, tgt = q.source(arrow_name), q.target(arrow_name)
    report = classify_maximal(algebra)
    found = [p for p in report.finite_maximal
             if q.path_source(p) == src and q.path_target(p) == tgt
             and p.first_arrow != arrow_name and p.last_arrow != arrow_name]
    if len(found) > 1:
        raise InvariantError("parallel maximal path",
                             f"multiple parallel maximal paths for {arrow_name}: "
                             f"{[str(p) for p in found]}")
    return found[0] if found else None


def degree_zero_center_dimension(algebra):
    """Dimension of the degree-0 center, via the commutation linear system.

    Solving x = sum(l_v e_v) with x*a = a*x for every arrow forces l to be
    constant on connected components; for a connected quiver this is 1.
    """
    verts = list(algebra.quiver.vertices)
    index = {v: i for i, v in enumerate(verts)}
    rows = []
    for a in algebra.quiver.arrows:
        row = [Fraction(0)] * len(verts)
        row[index[a.source]] += 1
        row[index[a.target]] -= 1
        rows.append(row)
    return len(nullspace(rows, len(verts)))
