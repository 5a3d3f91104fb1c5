"""Spans and counts around the calls into each layer's public functions.

:meth:`Tracer.install` replaces every public function of the engine's
modules, and the methods listed in ``METHODS``, by a wrapper, everywhere
that function is bound (each ``gradedbundles`` module and any extra
namespace given); :meth:`Tracer.uninstall` puts the originals back.

A wrapper counts every call.  It opens a span when the call enters a layer
other than the innermost open span's layer, or when the function is one of
``TIMED``; a call from a layer into itself is otherwise only counted, which
keeps the cost low on hot paths such as ``SuperPolynomial.__mul__``.  A
layer's self time is the time of its spans minus the time covered by their
child spans in other layers.  Spans opened by a ``TIMED`` function inside its
own layer only add to that function's inclusive time.

Spans are folded into per-layer and per-function totals as they close.  While
``keep`` is set, each one is also stored as (id, parent id, name, start, end);
``keep`` turns itself off when a task ends, so it keeps one task's spans.

:meth:`Tracer.count_allocations` adds two fine counters: calls to
``Fraction.__new__`` and to ``Variable.__hash__`` made while a layer span is
open.  They are kept out of the timed spans because they slow every
arithmetic step.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

LAYERS = ("superalg", "bundle", "linfun", "algebroid", "constructions",
          "specfile", "report", "cli")

# Weight and monomial helpers run once per monomial; wrapping them would
# make the traced run measure mostly its own wrappers.
SKIP = {"weight_add", "weight_leq", "total", "parity_matches_weight",
        "monomial_weight", "monomial_parity"}

# (class, attribute) -> function key, per layer
METHODS = {
    "superalg": {
        ("SuperPolynomial", "__init__"): "init",
        ("SuperPolynomial", "from_var"): "from_var",
        ("SuperPolynomial", "constant"): "constant",
        ("SuperPolynomial", "__add__"): "add",
        ("SuperPolynomial", "__radd__"): "add",
        ("SuperPolynomial", "__sub__"): "sub",
        ("SuperPolynomial", "__rsub__"): "sub",
        ("SuperPolynomial", "__neg__"): "neg",
        ("SuperPolynomial", "__mul__"): "mul",
        ("SuperPolynomial", "__rmul__"): "mul",
        ("SuperPolynomial", "__pow__"): "pow",
        ("SuperPolynomial", "__eq__"): "eq",
        ("Derivation", "__post_init__"): "derivation",
        ("Derivation", "__call__"): "derivation_call",
    },
    "bundle": {
        ("CoordinateSystem", "__init__"): "coordinate_system",
        ("TransitionMap", "reversed"): "reversed",
    },
    "linfun": {
        ("GLBundle", "__init__"): "gl_bundle",
        ("PairingResult", "check_invariance"): "check_invariance",
    },
    "algebroid": {
        # the odd Poisson (Schouten) bracket, whatever the entry point
        ("OddPoissonSpace", "bracket"): "schouten",
        ("OddPoissonSpace", "hamiltonian_field"): "hamiltonian_field",
        ("OddPhaseSpace", "__init__"): "phase_space",
        ("OddPhaseSpace", "schouten"): "phase_schouten",
        ("HomologicalField", "square"): "square",
        ("WeightedAlgebroid", "from_q"): "from_q",
    },
    "constructions": {
        ("StructureConstants", "__post_init__"): "structure_constants",
        ("PolynomialDiffeo", "build"): "diffeo_build",
    },
    "report": {
        ("Report", "add"): "add",
        ("Report", "info"): "info",
        ("Report", "merge_validation"): "merge_validation",
    },
}

# module function -> key, where the function's own name would mislead
RENAMED = {
    ("algebroid", "schouten"): "schouten_entry",
    ("report", "render_text"): "render",
    ("report", "render_json"): "render",
}

TIMED = {
    "bundle.validate", "linfun.linearise", "linfun.linear_dual", "linfun.pairing",
    "linfun.symmetry_report", "algebroid.check_weighted_algebroid",
    "algebroid.schouten", "constructions.higher_tangent",
    "constructions.tangent_algebroid", "constructions.lie_tower",
    "constructions.reduced_bracket", "specfile.parse", "report.render", "cli.main",
}

BENCH = "bench"


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.bytes_out = 0
        self.keep = False
        self.spans = []
        # frame: [layer, key, start, child time, span id]
        self._stack = [[BENCH, "outside", 0.0, 0.0, 0]]
        self._active = defaultdict(int)
        self._next_id = 1
        self._undo = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn, layer, key):
        counts, stack, active = self.counts, self._stack, self._active
        inclusive, self_time = self.inclusive, self.self_time
        clock = time.perf_counter
        timed = key in TIMED
        renders = key == "report.render"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stack[-1][0] == layer and not timed:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [layer, key, clock(), 0.0, span_id]
            stack.append(frame)
            active[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[key] -= 1
                dur = end - frame[2]
                if timed and not active[key]:
                    inclusive[key] += dur
                parent = stack[-1]
                if parent[0] == layer:
                    parent[3] += frame[3]
                else:
                    self_time[layer] += dur - frame[3]
                    parent[3] += dur
                if self.keep:
                    self.spans.append((span_id, parent[4], key, frame[2], end))
            if renders:
                self.bytes_out += len(result.encode("utf-8"))
            return result

        return wrapper

    def _targets(self):
        """(layer, key, owner, attribute, original) for everything wrapped."""
        for layer in LAYERS:
            mod = sys.modules.get(f"gradedbundles.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (callable(obj) and getattr(obj, "__module__", None) == mod.__name__
                        and not isinstance(obj, type) and not name.startswith("_")
                        and name not in SKIP):
                    yield layer, f"{layer}.{RENAMED.get((layer, name), name)}", None, name, obj
            for (cls_name, attr), short in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                yield layer, f"{layer}.{short}", cls, attr, cls.__dict__[attr]

    def install(self, namespaces=()):
        spaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "gradedbundles"]
        spaces += list(namespaces)
        for layer, key, owner, attr, original in list(self._targets()):
            if owner is not None:
                if isinstance(original, (staticmethod, classmethod)):
                    wrapped = type(original)(self._wrap(original.__func__, layer, key))
                else:
                    wrapped = self._wrap(original, layer, key)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(original, layer, key)
            for space in spaces:
                for name, value in list(vars(space).items()):
                    if value is original:
                        self._undo.append((space, name, original))
                        setattr(space, name, wrapped)

    def count_allocations(self):
        from gradedbundles.superalg import Variable

        counts, stack = self.counts, self._stack
        new = Fraction.__dict__["__new__"]
        hash_ = Variable.__dict__["__hash__"]
        new_fn = new.__func__

        def counting_new(cls, *args, **kwargs):
            if stack[-1][0] != BENCH:
                counts["superalg.fraction_new"] += 1
            return new_fn(cls, *args, **kwargs)

        def counting_hash(v):
            if stack[-1][0] != BENCH:
                counts["superalg.variable_hash"] += 1
            return hash_(v)

        self._undo.append((Fraction, "__new__", new))
        self._undo.append((Variable, "__hash__", hash_))
        Fraction.__new__ = staticmethod(counting_new)
        Variable.__hash__ = counting_hash

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- tasks
    @contextmanager
    def task(self):
        """A root span for one task; its self time is the benchmark's own."""
        frame = [BENCH, "task", time.perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.self_time[BENCH] += end - frame[2] - frame[3]
            if self.keep:
                self.spans.append((frame[4], 0, "bench.task", frame[2], end))
                self.keep = False

    def summary(self):
        return {"counts": dict(self.counts), "inclusive": dict(self.inclusive),
                "self": dict(self.self_time), "bytes_out": self.bytes_out}
