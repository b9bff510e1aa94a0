"""The decompose benchmark's set-up still copies every kind of map, and its
block solves stay in integers.

`bench/workloads.py::fresh_copy` rebuilds each input endomorphism and reads
its `inverse` attribute, so a change to which maps carry an inverse must keep
that attribute readable on every map.  The module is loaded from its file
and only read.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from stringalg._linalg import Echelon
from stringalg.decompose import decompose_general
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


def test_decompose_block_solves_build_no_fraction(monkeypatch):
    # the workload's first 20 maps: every Fraction built while a function of
    # stringalg._linalg is on the stack is recorded
    ops = _workloads().build_decompose(11, None)[:20]
    built, columns = [], []
    new, add = Fraction.__new__, Echelon.add

    def counting_columns(self, unknown, column):
        columns.append(unknown)
        return add(self, unknown, column)

    def counting(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_globals.get("__name__") == "stringalg._linalg":
                built.append(args)
                break
            frame = frame.f_back
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Echelon, "add", counting_columns)
    monkeypatch.setattr(Fraction, "__new__", counting)
    for op in ops:
        decompose_general(op.payload)
    monkeypatch.undo()
    assert built == [] and len(columns) > 100
