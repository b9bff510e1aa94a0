"""Spans around calls into each stringalg layer, recorded from outside the
package.

The tracer replaces functions and methods with timing wrappers: methods on
their class, module functions in every stringalg module that holds a
reference to them, so a call is recorded once whichever import site it goes
through.  Spans are kept in memory as flat arrays (name, parent, start, end)
and turned into per-layer metrics after the traced pass.  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

# package modules, in layer order; the benchmark names each layer after one
LAYERS = ("cli", "quiver", "algebra", "maximal", "morphisms", "decompose",
          "polymat", "_linalg")


def layer_label(layer):
    """Metric prefix of a layer: names must start with a letter or digit."""
    return layer.lstrip("_")


# Private functions and methods that carry a per-layer metric, as
# (module, qualified name, span name).  Every public module-level function of
# every layer is wrapped too, under "<layer>.<function>".
NAMED_SPANS = (
    ("quiver", "RelationSet.contains", "quiver.contains"),
    ("algebra", "Element.__mul__", "algebra.mul"),
    ("algebra", "PathAlgebra.concat", "algebra.concat"),
    ("algebra", "PathAlgebra.enumerate_basis", "algebra.basis"),
    ("polymat", "Poly.__divmod__", "polymat.divmod"),
    ("polymat", "_poly_normalize", "polymat.normalize"),
    ("polymat", "_convolve", "polymat.convolve"),
    ("polymat", "PolyMatrix.determinant", "polymat.det"),
    ("polymat", "SmithFactorization.verify", "polymat.verify"),
    ("morphisms", "Endomorphism.compose", "morphisms.compose"),
    ("morphisms", "Endomorphism.image_of_path", "morphisms.image"),
    ("decompose", "_solve_intertwiner", "decompose.intertwiner"),
    ("decompose", "_verified", "decompose.recompose"),
    ("_linalg", "_rref", "linalg.rref"),
)

# constructors counted without a span: they run millions of times per pass
COUNTED = (
    ("quiver", "Path.__post_init__", "quiver.path_new"),
    ("algebra", "Element.__init__", "algebra.element_new"),
)


class Tracer:
    """Records spans for every wrapped call between install() and
    uninstall()."""

    def __init__(self):
        self.names = []
        self.layers = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {}
        self._restore = []
        self.public = set()   # span names of public module functions
        self.excluded = []    # (start, end, innermost open span) of foreign work

    # -- recording -------------------------------------------------------------

    def intern(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def counter(self, name):
        return self.counters.setdefault(name, [0])

    def span_wrapper(self, fn, name, layer, before=None, after=None):
        nid = self.intern(name, layer)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def exclude(self, start, end):
        """Record work that is not the program's, such as a host probe run
        from a signal handler, so that the span it interrupted is not
        charged for it."""
        self.excluded.append((start, end, self._stack[-1]))

    def count_wrapper(self, fn, name):
        cell = self.counter(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, package="stringalg"):
        """Wrap the layer entry points of an imported package."""
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        sites = [importlib.import_module(package)] + list(modules.values())
        hooks = self._hooks()
        for layer, module in modules.items():
            for fname, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not fname.startswith("_")):
                    span = f"{layer_label(layer)}.{fname}"
                    self.public.add(span)
                    self._replace_function(sites, fn, self.span_wrapper(
                        fn, span, layer, *hooks.get(span, (None, None))))
        for layer, qualname, span in NAMED_SPANS:
            owner, attr = _resolve(modules[layer], qualname)
            fn = getattr(owner, attr)
            wrapper = self.span_wrapper(fn, span, layer, *hooks.get(span, (None, None)))
            if owner is modules[layer]:
                self._replace_function(sites, fn, wrapper)
            else:
                self._replace_attr(owner, attr, wrapper)
        for layer, qualname, name in COUNTED:
            owner, attr = _resolve(modules[layer], qualname)
            self._replace_attr(owner, attr, self.count_wrapper(getattr(owner, attr), name))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _replace_attr(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, sites, fn, wrapper):
        # every module-level name bound to the function, so each call is seen
        # once whichever import site it goes through
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is fn:
                    self._replace_attr(site, attr, wrapper)

    def _hooks(self):
        concat_hits = self.counter("algebra.concat_hits")
        image_hits = self.counter("morphisms.image_hits")
        rref_cells = self.counter("linalg.rref_cells")
        peak_bits = self.counter("polymat.peak_coeff_bits")

        def concat_after(result):
            if result is not None:
                concat_hits[0] += 1

        def image_before(args):
            # a hit is a path already in the endomorphism's private cache
            if args[1] in getattr(args[0], "_path_cache", ()):
                image_hits[0] += 1

        def rref_before(args):
            rref_cells[0] += len(args[0]) * args[1]

        def smith_after(fact):
            peak_bits[0] = max(peak_bits[0], coefficient_bits(fact))

        return {"algebra.concat": (None, concat_after),
                "morphisms.image": (image_before, None),
                "linalg.rref": (rref_before, None),
                "polymat.modified_smith": (None, smith_after)}

    # -- analysis ------------------------------------------------------------------

    def summary(self):
        """Per span name: (layer, calls, total seconds, self seconds)."""
        return summarize(self.names, self.layers, self.name_id, self.parent,
                         self.start, self.end, self.excluded)

    def write(self, path):
        """Write the spans: `path` holds a JSON header (names, layers,
        counters, span count), `path`.bin the four arrays back to back in
        native byte order (int32 name id, int32 parent, float64 start,
        float64 end; parent -1 marks a root)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "layers": self.layers,
                       "spans": len(self.start),
                       "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
                       "counters": {k: v[0] for k, v in self.counters.items()}},
                      fh)
        with open(path + ".bin", "wb") as fh:
            for values in (self.name_id, self.parent, self.start, self.end):
                values.tofile(fh)


def _resolve(module, qualname):
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def coefficient_bits(fact):
    """Largest bit length of a numerator or denominator in U or V."""
    bits = 0
    for matrix in (fact.U, fact.V):
        for row in matrix.rows:
            for entry in row:
                bits = max(bits, int(entry.den).bit_length(),
                           *(int(v).bit_length() for v in entry.nums))
    return bits


def summarize(names, layers, name_id, parent, start, end, excluded=()):
    """Calls, total and self time per span name from flat span arrays.
    Each excluded (start, end, span) interval counts as a child of the
    innermost span around it, found from the span that was open."""
    n = len(start)
    child = array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    for lo, hi, s in excluded:
        # a signal can land while a span is being opened or closed
        while s >= 0 and not (start[s] <= lo and hi <= end[s]):
            s = parent[s]
        if s >= 0:
            child[s] += hi - lo
    out = {name: [layer, 0, 0.0, 0.0] for name, layer in zip(names, layers)}
    for i in range(n):
        entry = out[names[name_id[i]]]
        duration = end[i] - start[i]
        entry[1] += 1
        entry[2] += duration
        entry[3] += duration - child[i]
    return {name: tuple(v) for name, v in out.items()}


def layer_metrics(tracer, op_seconds):
    """Per-layer metrics of a traced pass whose ops took op_seconds in all
    (host probes left out),
    and the layer with the largest share of self time.  Every time is self
    time in milliseconds; `<layer>.calls` counts calls of the layer's public
    functions, nested ones included."""
    summary = tracer.summary()
    counters = {name: cell[0] for name, cell in tracer.counters.items()}

    def calls(span):
        return summary[span][1] if span in summary else 0

    def self_ms(span):
        return summary[span][3] * 1e3 if span in summary else 0.0

    def ratio(hits, base):
        return hits / base if base else 0.0

    m = {
        "quiver.contains_calls": calls("quiver.contains"),
        "quiver.contains_ms": self_ms("quiver.contains"),
        "quiver.path_new": counters["quiver.path_new"],
        "quiver.parse_calls": calls("quiver.parse_quiver"),
        "quiver.parse_ms": self_ms("quiver.parse_quiver"),
        "algebra.mul_calls": calls("algebra.mul"),
        "algebra.mul_self_ms": self_ms("algebra.mul"),
        "algebra.concat_calls": calls("algebra.concat"),
        "algebra.concat_ms": self_ms("algebra.concat"),
        "algebra.concat_hit_ratio": ratio(counters["algebra.concat_hits"],
                                          calls("algebra.concat")),
        "algebra.element_new": counters["algebra.element_new"],
        "algebra.basis_ms": self_ms("algebra.basis"),
        "polymat.smith_calls": calls("polymat.modified_smith"),
        "polymat.smith_self_ms": self_ms("polymat.modified_smith"),
        "polymat.smith_steps": calls("polymat.smith_elimination_step"),
        "polymat.divmod_calls": calls("polymat.divmod"),
        "polymat.divmod_ms": self_ms("polymat.divmod"),
        "polymat.normalize_calls": calls("polymat.normalize"),
        "polymat.normalize_ms": self_ms("polymat.normalize"),
        "polymat.convolve_ms": self_ms("polymat.convolve"),
        "polymat.det_ms": self_ms("polymat.det"),
        "polymat.inverse_ms": self_ms("polymat.poly_matrix_inverse"),
        "polymat.peak_coeff_bits": counters["polymat.peak_coeff_bits"],
        "polymat.verify_calls": calls("polymat.verify"),
        "polymat.verify_ms": self_ms("polymat.verify"),
        "morphisms.verify_calls": calls("morphisms.verify_endomorphism"),
        "morphisms.verify_ms": self_ms("morphisms.verify_endomorphism"),
        "morphisms.compose_calls": calls("morphisms.compose"),
        "morphisms.compose_ms": self_ms("morphisms.compose"),
        "morphisms.image_calls": calls("morphisms.image"),
        "morphisms.image_hit_ratio": ratio(counters["morphisms.image_hits"],
                                           calls("morphisms.image")),
        "morphisms.invert_unit_calls": calls("morphisms.invert_unit"),
        "morphisms.invert_unit_ms": self_ms("morphisms.invert_unit"),
        "morphisms.exp_ms": self_ms("morphisms.exponentiate"),
        "decompose.intertwiner_calls": calls("decompose.intertwiner"),
        "decompose.intertwiner_ms": self_ms("decompose.intertwiner"),
        "decompose.recompose_ms": self_ms("decompose.recompose"),
        "linalg.rref_ms": self_ms("linalg.rref"),
        "linalg.rref_cells": counters["linalg.rref_cells"],
    }
    for label in ("cli", "decompose", "linalg", "maximal"):
        m[f"{label}.calls"] = sum(calls(s) for s in tracer.public
                                  if s.startswith(label + "."))
    layer_self = {layer_label(layer): 0.0 for layer in LAYERS}
    for layer, _, _, self_s in summary.values():
        layer_self[layer_label(layer)] += self_s
    for label, seconds in layer_self.items():
        m[f"{label}.self_ms"] = seconds * 1e3
        m[f"{label}.self_share"] = 100 * seconds / op_seconds
    m["unspanned_share"] = 100 * (op_seconds - sum(layer_self.values())) / op_seconds
    m["trace.spans"] = len(tracer.start)
    hot = max(layer_self, key=layer_self.get)
    return m, hot
