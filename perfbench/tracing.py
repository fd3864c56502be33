"""Per-layer tracing from outside the package, for the benchmark's traced run.

install() wraps the public functions of each module under a metric name. A
function is patched in every leibniz_forge module that holds it (loops keeps
its own mat_exp_exact and is_nilpotent bindings, the package root re-exports
most names), and a method is patched on its class. Each wrapped call adds to
the name's call count and self time, its duration minus that of the wrapped
calls under it. Entry points (hot is false) also record a span; hot leaf calls
record no span of their own but add their count and time to the innermost
open span. Observers read wrapped outputs for coefficient size; their cost
is charged to no layer and shows only in trace.overhead.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

MAX_SPANS = 50_000


def _q_bits(xs) -> int:
    """Largest numerator or denominator bit length among exact scalars."""
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for x in xs if not isinstance(x, float)), default=0)


def _matrix_bits(rec, m):
    rec.maximum("linalg.max_coeff_bits", _q_bits(x for row in m.entries for x in row))


def _vec_bits(rec, v):
    rec.maximum("linalg.max_coeff_bits", _q_bits(v))


def _poly_size(rec, p):
    if p.terms:
        rec.maximum("poly.max_terms", len(p.terms))
        rec.maximum("poly.max_coeff_bits", _q_bits(c for _, c in p.terms))


def _gate(rec, gate):
    if gate.basis_nilpotent and not gate.sampled_nilpotent:
        rec.counts["loops.loop_gate.sampled_rejects"] += 1


# (metric, module, attribute path, hot, observer)
TARGETS = (
    ("linalg.matmul", "linalg", "Matrix.__matmul__", True, _matrix_bits),
    ("linalg.matmul", "linalg", "FloatMatrix.__matmul__", True, None),
    ("linalg.apply", "linalg", "Matrix.apply", True, _vec_bits),
    ("linalg.apply", "linalg", "FloatMatrix.apply", True, None),
    ("linalg.rref", "linalg", "rref", True, lambda rec, out: _matrix_bits(rec, out[0])),
    ("linalg.is_nilpotent", "linalg", "is_nilpotent", True, None),
    ("linalg.mat_exp_exact", "linalg", "mat_exp_exact", True, _matrix_bits),
    ("linalg.mat_exp_float", "linalg", "mat_exp_float", True, None),
    ("algebra.check_leibniz", "algebra", "StructureAlgebra.check_leibniz", False, None),
    ("algebra.check_lie", "algebra", "StructureAlgebra.check_lie", False, None),
    ("algebra.left_mul", "algebra", "StructureAlgebra.left_mul", True, None),
    ("algebra.squares_ideal", "algebra", "squares_ideal", False, None),
    ("algebra.subspace_span", "algebra", "Subspace.span", True, None),
    ("products.graph_criterion", "products", "graph_criterion", False, None),
    ("products.module_action", "products", "ModuleAction.__post_init__", False, None),
    ("products.omni_algebras", "products", "omni_algebras", False, None),
    ("envelope.canonical_envelope", "envelope", "canonical_envelope", False, None),
    ("envelope.lambda_envelope", "envelope", "lambda_envelope", False, None),
    ("envelope.validate_envelope", "envelope", "validate_envelope", False, None),
    ("envelope.checks", "envelope", "recovery_check", False, None),
    ("envelope.checks", "envelope", "scaling_check", False, None),
    ("envelope.checks", "envelope", "sigma_one_embed_check", False, None),
    ("yamaguti.validate_ly", "yamaguti", "validate_ly", False, None),
    ("yamaguti.ly_from_leibniz", "yamaguti", "ly_from_leibniz", False, None),
    ("yamaguti.ly_envelope", "yamaguti", "ly_envelope", False, None),
    ("loops.loop_gate", "loops", "loop_gate", False, _gate),
    ("loops.loop_product", "loops", "loop_product", True, None),
    ("loops.left_divide", "loops", "left_divide", True, None),
    ("loops.left_inverse", "loops", "left_inverse", True, None),
    ("loops.left_inner_mapping", "loops", "left_inner_mapping", True, None),
    ("poly.add", "poly", "Poly.__add__", True, _poly_size),
    ("poly.mul", "poly", "Poly.__mul__", True, _poly_size),
    ("poly.partial", "poly", "Poly.partial", True, _poly_size),
    ("poly.from_dict", "poly", "Poly.from_dict", True, _poly_size),
    ("courant.courant_bracket", "courant", "courant_bracket", True, None),
    ("courant.dorfman_product", "courant", "dorfman_product", True, None),
    ("courant.vf_bracket", "courant", "vf_bracket", True, None),
    ("courant.lie_derivative_one_form", "courant", "lie_derivative_one_form", True, None),
    ("courant.graph_closure_check", "courant", "graph_closure_check", False, None),
    ("cli.main", "cli", "main", False, None),
    ("cli.parse", "cli", "parse_algebra_text", False, None),
    ("cli.parse", "cli", "parse_subspace_text", False, None),
    ("cli.parse", "cli", "parse_ly_text", False, None),
    ("cli.parse", "cli", "parse_section_text", False, None),
    ("cli.parse", "cli", "parse_bivector_text", False, None),
    ("cli.parse", "cli", "parse_twoform_text", False, None),
)

LAYER_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))
EXTRA_METRICS = (
    ("linalg.max_coeff_bits", "bits"),
    ("poly.max_coeff_bits", "bits"),
    ("poly.max_terms", "count"),
    ("loops.loop_gate.sampled_rejects", "count"),
    ("gc.pause_s", "s"),
    ("gc.collections", "count"),
    ("trace.overhead", "ratio"),
)


class Recorder:
    """Call counts, self times, spans and maxima of the traced passes."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.spans: list[dict] = []
        self.case = None
        self.keep_spans = False
        self._frames: list[list[int]] = []  # [child ns] per open wrapped call
        self._open: list[dict] = []         # open spans, innermost last
        self._gc_start = 0
        self._gc_ns = 0

    def maximum(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def wrap(self, name, fn, hot, observe):
        rec, frames, calls, self_ns = self, self._frames, self.calls, self.self_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            frame = [0]
            frames.append(frame)
            span = None
            if not hot and rec.keep_spans and len(rec.spans) < MAX_SPANS:
                span = {"name": name, "case": rec.case, "start_ns": clock(),
                        "parent": rec._open[-1]["id"] if rec._open else None,
                        "id": len(rec.spans), "leaf": {}}
                rec.spans.append(span)
                rec._open.append(span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                calls[name] += 1
                self_ns[name] += dt - frame[0]
                if span is not None:
                    span["dur_ns"] = dt
                    rec._open.pop()
                elif hot and rec._open:
                    leaf = rec._open[-1]["leaf"].setdefault(name, [0, 0])
                    leaf[0] += 1
                    leaf[1] += dt
                if frames:
                    frames[-1][0] += dt
            if observe is not None:
                t1 = clock()
                observe(rec, out)
                if frames:
                    frames[-1][0] += clock() - t1
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def recording(self, spans: bool = True):
        """Record wrapped calls and garbage-collector pauses inside the block,
        and spans of the entry points if `spans`."""
        gc.callbacks.append(self._on_gc)
        self.active, self.keep_spans = True, spans
        try:
            yield self
        finally:
            self.active = self.keep_spans = False
            gc.callbacks.remove(self._on_gc)

    @contextmanager
    def paused(self):
        """Let the benchmark's own checks call the package without being counted."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _on_gc(self, phase, info) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self._gc_ns += time.perf_counter_ns() - self._gc_start
            self.counts["gc.collections"] += 1

    def metrics(self, overhead: float, passes: int) -> dict:
        """Counts and times per recorded pass; maxima over all of them."""
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = {"value": self.calls[name] / passes, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_ns[name] / 1e9 / passes, "unit": "s"}
        values = {"gc.pause_s": self._gc_ns / 1e9 / passes, "trace.overhead": overhead}
        values.update((name, count / passes) for name, count in self.counts.items())
        for name, unit in EXTRA_METRICS:
            value = values.get(name, self.maxima.get(name, 0))
            out[name] = {"value": value, "unit": unit}
        return out


def install(package: str = "leibniz_forge") -> Recorder:
    """Wrap every target in the imported package and return the recorder."""
    rec = Recorder()
    mods = {short: importlib.import_module(f"{package}.{short}")
            for short in dict.fromkeys(t[1] for t in TARGETS)}
    holders = [m for name, m in sys.modules.items()
               if name == package or name.startswith(package + ".")]
    for name, short, path, hot, observe in TARGETS:
        owner = mods[short]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if cls_path:
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(rec.wrap(name, raw.__func__, hot, observe)))
            else:
                setattr(owner, attr, rec.wrap(name, raw, hot, observe))
            continue
        wrapped = rec.wrap(name, raw, hot, observe)
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
    return rec
