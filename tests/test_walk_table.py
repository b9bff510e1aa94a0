"""The walk table against the relation scan it replaces.

Products, ideal membership and the basis are read off the unique walk from
each arrow; RelationSet.contains (every generator over every subpath) stays
the reference they are checked against here.  `concat` hands out one shared
(interned) path per basis path, and element products only offer it the
pairs of terms whose ends meet.
"""

import hashlib
import random
from fractions import Fraction

from stringalg import Element, Path, PathAlgebra
from stringalg.cli import run

from conftest import SOURCES, make_algebra
from test_random_presentations import random_presentation


def _algebras():
    out = [(name, make_algebra(source)) for name, source in SOURCES.items()]
    rng = random.Random(211)
    out += [(f"random {k}", PathAlgebra(random_presentation(rng))) for k in range(20)]
    return out


def _composable_paths(quiver, max_len):
    """Every path of the quiver up to max_len: stationary ones, then the
    arrow sequences extended one matching arrow at a time."""
    out = [Path.stationary(v) for v in quiver.vertices]
    level = [(a.name,) for a in quiver.arrows]
    while level and len(level[0]) <= max_len:
        out += [Path.of(arrows) for arrows in level]
        level = [arrows + (b.name,) for arrows in level
                 for b in quiver.arrows_from[quiver.target(arrows[-1])]]
    return out


def _reference_concat(algebra, p, q):
    quiver = algebra.quiver
    if quiver.path_target(p) != quiver.path_source(q):
        return None
    if p.is_stationary:
        return q
    if q.is_stationary:
        return p
    joined = Path.of(p.arrows + q.arrows)
    return None if algebra.relations.contains(joined) else joined


def test_walk_table_matches_relation_scan():
    for name, algebra in _algebras():
        paths = _composable_paths(algebra.quiver, 8)
        for p in paths:
            assert algebra.in_ideal(p) == algebra.relations.contains(p), (name, str(p))
        basis = algebra.enumerate_basis(8)
        assert basis == sorted(p for p in paths if not algebra.relations.contains(p)), name
        for p in basis:
            for q in basis:
                assert algebra.concat(p, q) == _reference_concat(algebra, p, q), \
                    (name, str(p), str(q))


def test_concat_results_are_interned():
    for name, algebra in _algebras():
        basis = algebra.enumerate_basis(6)
        seen = {}
        for p in basis:
            for q in basis:
                r = algebra.concat(p, q)
                if r is None:
                    continue
                joined = p.arrows + q.arrows
                expected = Path.of(joined) if joined else p
                assert r == expected and hash(r) == hash(expected), (name, str(p), str(q))
                assert seen.setdefault(r, r) is r, (name, str(r))
        assert all(algebra.walk_path(p.first_arrow, p.length) is p
                   for p in basis if p.arrows), name


def _random_element(rng, algebra, basis):
    terms = {p: rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
             for p in rng.sample(basis, min(len(basis), rng.randint(0, 8)))}
    return Element(algebra, terms)


def _reference_product(x, y):
    terms = {}
    for p, c in x.terms.items():
        for q, d in y.terms.items():
            r = _reference_concat(x.algebra, p, q)
            if r is not None:
                terms[r] = terms.get(r, 0) + c * d
    return Element(x.algebra, terms)


def test_products_match_the_all_pairs_reference():
    rng = random.Random(17)
    for name, algebra in _algebras():
        basis = algebra.enumerate_basis(6)
        for _ in range(15):
            x = _random_element(rng, algebra, basis)
            y = _random_element(rng, algebra, basis)
            assert x * y == _reference_product(x, y), (name, str(x), str(y))


def test_products_offer_concat_only_composable_pairs(monkeypatch):
    calls = []
    concat = PathAlgebra.concat

    def counted(algebra, p, q):
        calls.append(algebra.quiver.path_target(p) == algebra.quiver.path_source(q))
        return concat(algebra, p, q)

    monkeypatch.setattr(PathAlgebra, "concat", counted)
    rng = random.Random(23)
    for name, algebra in _algebras():
        basis = algebra.enumerate_basis(6)
        quiver = algebra.quiver
        for _ in range(10):
            x = _random_element(rng, algebra, basis)
            y = _random_element(rng, algebra, basis)
            calls.clear()
            x * y
            assert all(calls), name
            assert len(calls) == sum(quiver.path_target(p) == quiver.path_source(q)
                                     for p in x.terms for q in y.terms), name


# SHA-256 of the stdout of `basis --max-len 8`, `--json maximal` and
# `radical`, concatenated, for each fixture; pinned before the walk table
# replaced the relation scans
STRUCTURE_DIGESTS = {
    "two_cycle_rel": "67a22bc0f34a8d510ba7f156a5f2445568b3dba03a3fe93c0caff69876799c1f",
    "one_loop": "047fbf7fefd41e253f8efc4eaaf45a2a5a9d5d0d60a7d7c1f0a524275b8d6a6a",
    "kronecker": "67a286e32043731485ddcb2f4357189a25971a0274709769bd00f2d7f9b2e3d1",
    "two_cycle_free": "c21c9c16aecdf6e98938b5d5d693fc8d5389c37fe19a8c8be217728e69ee38f1",
    "three_cycle_free": "61cdd800083c5350c79373d3dd2739813d1be1666e573ba06969d47a2e78ce0e",
    "two_loops": "042aeca9a18ab3a2e026d31e0570868bcf5e016b31d65f808ab2307224f946e8",
    "cycle_pendant": "c7c2d3b585ca1bc7cfd93fa495946a6a30acd578b8708081968c4b679c29b227",
    "cycle_with_diamond": "fb796958046199f8bcd3d1f15ddea23b847f94098b1b9cb0501787d3e4f2030f",
    "double_diamond": "85fd8cb3ff308cedf4b09a540856196b932c9dce0d8c6a3177b62499fd95c7a4",
    "doubled_three_cycle": "47e0d1b127e584acc797ea14976fed57b56d724b261094999dc39858fc1e71b8",
    "doubled_line": "6aa1f235349dc8b299150bf29b81b2a16126a3d00f93a6cd04fa253a6c2a3a73",
}


def test_structure_reports_are_pinned(tmp_path, capsys):
    digests = {}
    for name, source in SOURCES.items():
        path = tmp_path / f"{name}.quiver"
        path.write_text(source, encoding="utf-8")
        h = hashlib.sha256()
        for argv in (["--max-len", "8", "basis"], ["--json", "maximal"], ["radical"]):
            assert run(argv + [str(path)]) == 0, (name, argv)
            h.update(capsys.readouterr().out.encode("utf-8"))
        digests[name] = h.hexdigest()
    assert digests == STRUCTURE_DIGESTS
