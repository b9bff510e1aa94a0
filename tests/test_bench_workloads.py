"""The decompose benchmark's set-up still copies every kind of map.

`bench/workloads.py::fresh_copy` rebuilds each input endomorphism and reads
its `inverse` attribute, so a change to which maps carry an inverse must keep
that attribute readable on every map.  The module is loaded from its file
and only read.
"""

import importlib.util
import random
import sys
from pathlib import Path

from stringalg.morphisms import (Endomorphism, exponentiate, graded_part,
                                 invert_graded, make_derivation)

from conftest import SOURCES, make_algebra
from factories import random_graded_symmetric, random_inner

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_fresh_copy_keeps_each_map_and_its_inverse():
    fresh_copy = _workloads().fresh_copy
    rng = random.Random(41)
    algebra = make_algebra(SOURCES["two_cycle_rel"])
    exp = exponentiate(make_derivation(algebra, [("a", algebra.parse_element("a.b.a"))]))
    inner = random_inner(rng, algebra)
    graded = graded_part(random_graded_symmetric(
        rng, algebra, {"1": "2", "2": "1"}, {"a": "b", "b": "a"}))
    invert_graded(graded)
    maps = {"identity": Endomorphism.identity(algebra), "exponential": exp,
            "inner": inner, "composite": exp.compose(inner), "graded": graded}
    for name, f in maps.items():
        copy = fresh_copy(f)
        assert copy == f and copy is not f, name
        assert copy.certified == f.certified, name
        assert (copy.inverse is None) == (f.inverse is None), name
        if f.inverse is not None:
            assert copy.inverse == f.inverse, name
    assert maps["identity"].inverse is not None and graded.inverse is not None
    assert all(maps[name].inverse is None for name in ("exponential", "inner", "composite"))
