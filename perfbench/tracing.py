"""Outside-in layer tracing for the floeralg benchmark.

Each module of the package is one layer. ``install`` replaces the public
module-level functions of every layer module, and the class entry points
listed in ``CLASS_ENTRIES``, with wrappers that record one span per call:
name, start, end, parent span and item id. Every floeralg module that
imported one of those functions by name gets the wrapper bound in its
place too, so calls through ``from .x import f`` are seen as well.

Per-vector methods (``F2Matrix.mul_vec``, ``Subspace.reduce``,
``GradedRing.mul``, ``FloerComplex.apply_operator`` ...) are not wrapped:
they run millions of times, and their time lands in the self time of the
layer that calls them. Generator functions are not wrapped either, since a
span around a generator would only cover its creation.

Spans are recorded only while an item is active, are kept in memory, and
are aggregated (or written out) after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "serialize", "f2linalg", "floercomplex", "spectral",
          "gradedalg", "theorems", "maslov")

# Class entry points wrapped besides every public module-level function:
# constructors, classmethods and the matrix-level operations.
CLASS_ENTRIES = {
    "f2linalg": {
        "F2Matrix": ("zeros", "identity", "from_row_ints", "from_dense",
                     "from_entries", "__matmul__", "__add__", "transpose",
                     "inverse", "entries"),
        "Subspace": ("from_vectors", "sum"),
    },
    "floercomplex": {"MorseComplex": ("__init__",)},
    "gradedalg": {"GradedRing": ("__init__", "is_degree_one_generated"),
                  "Derivation": ("__init__",)},
    "maslov": {"LagrangianLoop": ("from_frames", "validate")},
}

# Entry points that run a Gaussian elimination; only the outermost one of a
# nested chain is counted, so kernel() does not also count the
# Subspace.from_vectors it calls.
ELIMINATION = frozenset({
    "f2linalg.rank", "f2linalg.kernel", "f2linalg.image", "f2linalg.solve",
    "f2linalg.F2Matrix.inverse", "f2linalg.Subspace.from_vectors",
    "f2linalg.quotient_map",
})


def _elim_cells(name, args):
    """rows x cols of the input of an elimination entry point."""
    if name == "f2linalg.Subspace.from_vectors":
        return len(args[2]) * args[1]
    if name == "f2linalg.quotient_map":
        return args[1].dim * args[1].ambient_dim
    return args[0].rows * args[0].cols


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self.spans = []        # (span_id, parent_id, item, name, start, end)
        self.item = None
        self._stack = []       # [span_id, name, start, child_seconds]
        self._open = Counter()  # span names currently on the stack
        self._next_id = 0
        self.self_s = defaultdict(float)    # per layer
        self.incl_s = defaultdict(float)    # per span name, outermost only
        self.calls = Counter()              # per span name
        self.counts = Counter()             # named counters
        self.item_s = 0.0
        self.items = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._open[name] += 1
        self.calls[name] += 1

    def _exit(self):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.item,
                           name, start, end))
        self.self_s[name.split(".", 1)[0]] += duration - child
        if not self._open[name]:
            self.incl_s[name] += duration
        return duration

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def run_item(self, item_id, fn):
        """Run one item under a root span of the benchmark's own layer."""
        self.item = item_id
        self._enter("bench.item")
        try:
            return fn()
        finally:
            self.item_s += self._exit()
            self.items += 1
            self.item = None

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)
        elim = name in ELIMINATION
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            if elim and not any(tracer._open[e] for e in ELIMINATION):
                if name == "f2linalg.Subspace.from_vectors":
                    args = (args[0], args[1], list(args[2]))
                tracer.counts["elim_calls"] += 1
                tracer.counts["elim_cells"] += _elim_cells(name, args)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit()
                if hook is not None:
                    hook(tracer.counts, args, None, exc)
                raise
            tracer._exit()
            if hook is not None:
                hook(tracer.counts, args, result, None)
            return result
        return wrapper

    def install(self):
        """Wrap every layer; returns a function that restores the originals."""
        import floeralg.cli  # noqa: F401  (imports every layer)
        from floeralg import f2linalg

        restore = []
        replaced = {}
        for layer in LAYERS:
            if layer == "cli":
                continue  # commands are spanned by the benchmark's CLI runner
            mod = sys.modules[f"floeralg.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in CLASS_ENTRIES.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    restore.append((cls, meth, raw))
                    setattr(cls, meth, new)

        # F2Matrix objects are built in many places; count every construction.
        post_init = f2linalg.F2Matrix.__post_init__

        def counting_post_init(matrix):
            if self.item is not None:
                self.counts["construct_calls"] += 1
            post_init(matrix)
        restore.append((f2linalg.F2Matrix, "__post_init__", post_init))
        f2linalg.F2Matrix.__post_init__ = counting_post_init

        for name, mod in list(sys.modules.items()):
            if not name.startswith("floeralg"):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, replaced[obj])

        def uninstall():
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
        return uninstall

    # -- results ---------------------------------------------------------------

    def dump_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, item, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "item": item,
                                     "name": name, "start": start, "end": end}) + "\n")

    def layer_metrics(self):
        """Per-layer metrics (totals over the traced items)."""
        inc, calls, cnt, own = self.incl_s, self.calls, self.counts, self.self_s
        maslov_s = inc["maslov.maslov_index"]
        tried = calls["gradedalg.derivation_from_generator_values"]
        out = {
            "cli.self_s": own["cli"],
            "serialize.self_s": own["serialize"],
            "serialize.schema_s": inc["serialize.validate_against_schema"],
            "serialize.load_s": inc["serialize.load_json"],
            "serialize.dump_s": sum(inc[f"serialize.{n}"] for n in (
                "canonical_json", "complex_to_dict", "ring_to_dict", "loop_to_dict")),
            "serialize.bytes_read": cnt["bytes_read"],
            "serialize.bytes_written": cnt["bytes_written"],
            "f2linalg.self_s": own["f2linalg"],
            "f2linalg.elim_calls": cnt["elim_calls"],
            "f2linalg.elim_cells": cnt["elim_cells"],
            "f2linalg.construct_calls": cnt["construct_calls"]
            + calls["f2linalg.F2Matrix.transpose"],
            "f2linalg.matmul_calls": calls["f2linalg.F2Matrix.__matmul__"],
            "floercomplex.self_s": own["floercomplex"],
            "floercomplex.product_leibniz_s": inc["floercomplex.check_product_leibniz"],
            "floercomplex.census_gen_s": inc["floercomplex.random_complex_census"],
            "floercomplex.d2_checks": calls["floercomplex.check_d_squared"],
            "floercomplex.folded_calls": calls["floercomplex.folded_homology"],
            "spectral.self_s": own["spectral"],
            "spectral.collapse_runs": calls["spectral.run_to_collapse"],
            "spectral.page_turns": calls["spectral.turn_page"],
            "spectral.window_s": inc["spectral.window_homology_dims"],
            "spectral.e1_oracle_s": inc["spectral.e1_oracle"],
            "spectral.page_product_s": inc["spectral.induced_page_product"],
            "gradedalg.self_s": own["gradedalg"],
            "gradedalg.extension_calls": tried,
            "gradedalg.extension_s": inc["gradedalg.derivation_from_generator_values"],
            "gradedalg.leibniz_check_s": inc["gradedalg.check_leibniz"],
            "gradedalg.leibniz_pairs": cnt["leibniz_pairs"],
            "gradedalg.deg1_check_s": inc["gradedalg.GradedRing.is_degree_one_generated"],
            "gradedalg.derivation_yield": cnt["extensions_ok"] / tried if tried else 0.0,
            "theorems.self_s": own["theorems"],
            "theorems.driver_calls": sum(n for name, n in calls.items()
                                         if name.startswith("theorems.")),
            "maslov.self_s": own["maslov"],
            "maslov.frames": cnt["frames"],
            "maslov.frames_per_s": cnt["frames"] / maslov_s if maslov_s else 0.0,
            "maslov.guard_trips": cnt["guard_trips"],
        }
        layer_self = sum(own[layer] for layer in LAYERS)
        out["trace.self_coverage"] = layer_self / self.item_s if self.item_s else 0.0
        return out

    def dominant_layer(self):
        return max(LAYERS, key=lambda layer: self.self_s[layer])


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        if self.tracer.item is not None:
            self.tracer._enter(self.name)

    def __exit__(self, *exc):
        if self.tracer.item is not None:
            self.tracer._exit()
        return False


# -- counters computed at layer boundaries ------------------------------------


def _load_json(counts, args, result, exc):
    try:
        counts["bytes_read"] += os.path.getsize(args[0])
    except OSError:
        pass


def _canonical_json(counts, args, result, exc):
    if result is not None:
        counts["bytes_written"] += len(result.encode("utf-8"))


def _check_leibniz(counts, args, result, exc):
    counts["leibniz_pairs"] += args[0].ring.dim ** 2


def _extension(counts, args, result, exc):
    if exc is None:
        counts["extensions_ok"] += 1


def _maslov_index(counts, args, result, exc):
    counts["frames"] += len(args[0])
    if type(exc).__name__ == "InsufficientSampling":
        counts["guard_trips"] += 1


_HOOKS = {
    "serialize.load_json": _load_json,
    "serialize.canonical_json": _canonical_json,
    "gradedalg.check_leibniz": _check_leibniz,
    "gradedalg.derivation_from_generator_values": _extension,
    "maslov.maslov_index": _maslov_index,
}
