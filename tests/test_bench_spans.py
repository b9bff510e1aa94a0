"""The benchmark's tracer still finds every private name it wraps.

`bench/spans.py` wraps functions and methods of `stringalg` by name from
outside the package, so a refactor that renames or removes one breaks
`bench/run.py --trace 1`.  The module is loaded from its file and only
read; installing the tracer wraps the package and uninstalling restores it.
"""

import importlib
import importlib.util
import random
from pathlib import Path

from stringalg.decompose import decompose_general

from conftest import SOURCES, make_algebra
from factories import random_inner

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _named(spans):
    for layer, qualname, name in spans.NAMED_SPANS + spans.COUNTED:
        owner, attr = spans._resolve(importlib.import_module(f"stringalg.{layer}"),
                                     qualname)
        yield name, owner, attr


def test_every_wrapped_name_resolves():
    spans = _spans()
    for name, owner, attr in _named(spans):
        assert callable(getattr(owner, attr, None)), name


def test_tracer_installs_records_and_uninstalls():
    spans = _spans()
    before = [(owner, attr, getattr(owner, attr)) for _, owner, attr in _named(spans)]
    algebra = make_algebra(SOURCES["two_cycle_free"])
    f = random_inner(random.Random(7), algebra)
    tracer = spans.Tracer()
    tracer.install()
    try:
        decompose_general(f)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)
    seen = {tracer.names[i] for i in tracer.name_id}
    assert {"decompose.intertwiner", "decompose.recompose",
            "morphisms.compose", "morphisms.image"} <= seen
