"""Spans around the public functions of each ``smallcox`` module.

The tracer wraps functions from outside the package: it replaces every
binding of a layer function in every ``smallcox`` module namespace (for
example ``rewriting.smith_normal_form`` as well as
``matrices.smith_normal_form``), and puts the originals back on
``uninstall``.  Each call records a span with its job id, its parent
span, its start and end, and counters read from the arguments and the
result.  A span's self time is its duration minus the intervals its
child spans cover, counting a child's own bookkeeping as the child's.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


PACKAGE = "smallcox"


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions it wraps and what it reports.

    Metric names are ``<name>.<stat>`` for each stat in ``stats`` and
    ``<name>.<self_key>`` for the self time.  A stat ``calls`` is the call
    count; the others come from ``count``, summed over calls except that
    a stat named ``max_*`` keeps the largest value.
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    stats: tuple[str, ...] = ()
    count: Optional[Callable] = None
    self_key: str = "self_s"

    def metric_names(self) -> list[str]:
        return [f"{self.name}.{self.self_key}"] + \
            [f"{self.name}.{s}" for s in self.stats]


def _snf_counts(args, kwargs, result):
    rows, ncols = args[0], args[1]
    want = kwargs.get("want_transform", args[2] if len(args) > 2 else False)
    return {"rows": len(rows), "cols": ncols,
            "nonzeros_in": sum(1 for row in rows for e in row if e),
            "transform_calls": int(bool(want)),
            "max_abs_v": max((abs(e) for row in result.v for e in row),
                             default=0) if result.v is not None else 0}


def _rewriter_counts(args, kwargs, result):
    rw = args[0]
    rels = rw.presentation.relators
    return {"schreier_generators": rw.num_schreier, "relators": len(rels),
            "relator_letters": sum(len(r) for r in rels)}


LAYERS = (
    Layer("matrices.smith_normal_form", (("matrices", "smith_normal_form"),),
          ("calls", "rows", "cols", "nonzeros_in", "transform_calls",
           "max_abs_v"), _snf_counts),
    Layer("rewriting.KernelRewriter.conjugation_matrix",
          (("rewriting", "KernelRewriter.conjugation_matrix"),), ("calls",)),
    Layer("rewriting.KernelRewriter", (("rewriting", "KernelRewriter.__init__"),),
          ("schreier_generators", "relators", "relator_letters"),
          _rewriter_counts, self_key="init_self_s"),
    Layer("rewriting.abelian_invariants", (("rewriting", "abelian_invariants"),)),
    Layer("rewriting.tietze_simplify", (("rewriting", "tietze_simplify"),),
          ("generators_in", "generators_out"),
          lambda a, k, r: {"generators_in": a[0].generators,
                           "generators_out": r.generators}),
    Layer("rewriting.coset_table", (("rewriting", "coset_table"),),
          ("cosets",), lambda a, k, r: {"cosets": r.count}),
    Layer("rewriting.quotient_map", (("rewriting", "quotient_map"),)),
    Layer("congruence.enumerate_image", (("congruence", "enumerate_image"),),
          ("calls", "elements", "products"),
          lambda a, k, r: {"elements": r.order,
                           "products": r.order * a[0].rank}),
    Layer("congruence.quotient_check",
          (("congruence", "alternating_quotient_check"),
           ("congruence", "even_vector_quotient_check"),
           ("congruence", "product_quotient_check")),
          ("elements",), lambda a, k, r: {"elements": r.image_order}),
    Layer("tits.evaluate", (("tits", "evaluate"),), ("letters",),
          lambda a, k, r: {"letters": len(a[1])}),
    Layer("tits.evaluate_mod", (("tits", "evaluate_mod"),), ("letters",),
          lambda a, k, r: {"letters": len(a[1])}),
    Layer("crystallo.holonomy_via_conjugation",
          (("crystallo", "holonomy_via_conjugation"),),
          ("cosets", "dimension"),
          lambda a, k, r: {"cosets": r.holonomy_order,
                           "dimension": r.dimension}),
    Layer("crystallo.theta_faithfulness", (("crystallo", "theta_faithfulness"),)),
    Layer("permutahedron.face_census", (("permutahedron", "face_census"),),
          ("vertices",), lambda a, k, r: {"vertices": r.vertices}),
    Layer("cli.dispatch", (("cli", "dispatch"),)),
)


@dataclass
class Span:
    sid: int
    job: Optional[int]
    parent: Optional[int]
    layer: Layer
    start: float = 0.0
    end: float = 0.0
    # the interval the parent must not count as its own: the call plus
    # this wrapper's bookkeeping around it
    outer: tuple[float, float] = (0.0, 0.0)
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers, keeps the spans in memory, aggregates them."""

    def __init__(self):
        self.job: Optional[int] = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or
                                         name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            for module_name, path in layer.targets:
                owner = sys.modules.get(f"{PACKAGE}.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                wrapped = self._wrap(layer, original)
                if outer:  # a method: patch the class once
                    self._patch(owner, attr, wrapped)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapped)

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_outer = time.perf_counter()
            stack = tracer._stack
            span = Span(next(tracer._ids), tracer.job,
                        stack[-1].sid if stack else None, layer)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.outer = (t_outer, span.end)
                stack.pop()
                tracer.spans.append(span)
            if layer.count is not None:
                span.counts = layer.count(args, kwargs, result)
                span.outer = (t_outer, time.perf_counter())
            return result

        return traced

    # -- aggregating ----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over all spans recorded so far."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + \
                    span.outer[1] - span.outer[0]
        out: dict[str, float] = {}
        absent = set(self.absent)
        for layer in LAYERS:
            if all(f"{m}.{p}" in absent for m, p in layer.targets):
                continue
            self_name, *counter_names = layer.metric_names()
            out[self_name] = 0.0
            out.update(dict.fromkeys(counter_names, 0))
        for span in self.spans:
            layer = span.layer
            key = f"{layer.name}.{layer.self_key}"
            out[key] += span.end - span.start - covered.get(span.sid, 0.0)
            if "calls" in layer.stats:
                out[f"{layer.name}.calls"] += 1
            for stat, value in span.counts.items():
                key = f"{layer.name}.{stat}"
                out[key] = max(out[key], value) if stat.startswith("max_") \
                    else out[key] + value
        return out
