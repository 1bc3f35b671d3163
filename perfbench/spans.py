"""Span tracing of loomfold's layers, installed from outside the library.

`install` replaces each public function of the layer modules with a wrapper
that records one span per call: name, parent span, item, start and end.
The replacement is made in every loomfold namespace that holds the
function, so names that modules import from each other (for example
`pbw.alcove_factorize` or `characters.bar_inversion_parts`) are traced too.
Spans stay in memory; `layer_metrics` turns them into the per-layer
metrics after the run, and the worker writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("cartan", "lattice", "weyl", "folding", "characters", "pbw", "qsymbolic", "cli")

# Vector and polynomial helpers called once per root, column or term.  A span
# for each call would cost more than the work it measures, so their time is
# counted as self time of the span that calls them.
LEAF = frozenset({
    "cartan.bilinear",
    "lattice.coeff", "lattice.height", "lattice.is_positive", "lattice.is_negative",
    "lattice.project_bar", "lattice.root_norm", "lattice.is_long",
    "weyl.pairing_rule", "weyl.lambda_pairing",
    "folding.fold_root",
    "qsymbolic.q_power", "qsymbolic.a_param", "qsymbolic.qint", "qsymbolic.qbinom",
})

# Span name -> the per-layer time metric its self time counts towards.
# `characters.product_from_exponents` is split by caller in `layer_metrics`.
SPAN_METRIC = {
    "characters.fold_series": "characters.fold_series_s",
    "characters.series_equal": "characters.compare_s",
    "weyl.alcove_factorize": "weyl.factorize_s",
    "weyl.inversion_set_from_word": "weyl.word_inversions_s",
    "weyl.inversion_set_closed_form": "weyl.closed_form_s",
    "weyl.inversion_set_detailed": "weyl.closed_form_s",
    "weyl.translation_minus_lambda": "weyl.translation_s",
    "folding.verify_fold_identity": "folding.fold_identity_s",
    "folding.parent_char_exponents": "folding.parent_exponents_s",
    "folding.parent_positive_roots": "folding.parent_exponents_s",
    "cartan.build_affine": "cartan.build_s",
    "lattice.finite_positive_roots": "lattice.roots_s",
    "lattice.closure_positive_roots": "lattice.roots_s",
    "pbw.minuscule_case": "pbw.case_s",
    "pbw.eprime_graph": "pbw.graph_s",
    "pbw.graph_to_dot": "pbw.graph_s",
    "qsymbolic.eta_case": "qsymbolic.eta_s",
    "qsymbolic.serre_coeff_check": "qsymbolic.serre_s",
}

COUNT_METRICS = (
    "characters.factors", "characters.factors_tall",
    "characters.terms_parent", "characters.terms_twisted",
    "weyl.word_letters", "folding.fold_entries", "folding.fiber_roots",
    "cartan.types", "lattice.roots", "pbw.edges", "cli.bytes_out",
)

# Layers whose named metrics leave part of their work out (char_exponents,
# sigma_for, bar_inversion_parts, argparse and JSON) also report their
# whole self time.  In the other layers the named metrics cover it all.
SELF_METRICS = ("characters.self_s", "weyl.self_s", "folding.self_s", "cli.self_s")

TIME_METRICS = tuple(sorted(
    set(SPAN_METRIC.values()) | set(SELF_METRICS)
    | {"characters.parent_product_s", "characters.twisted_product_s"}))


# index of each field in a span record
NAME, PARENT, ITEM, START, END = range(5)


class Tracer:
    """Holds the spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = -1          # index of the workload item being run
        self._stack: list[int] = []
        self._types: set = set()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, self.item, clock(), 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                hook(self, rec, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public layer function in every loomfold namespace."""
    modules = {layer: importlib.import_module(f"loomfold.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            qual = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and qual not in LEAF):
                wrapped[obj] = tracer.wrap(qual, obj)
    for mod in (importlib.import_module("loomfold"), *modules.values()):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _on_build(tr: Tracer, rec, args, kwargs, result) -> None:
    tr._types.add(_arg(args, kwargs, 0, "at"))
    tr.counts["cartan.types"] = len(tr._types)


def _on_closure(tr: Tracer, rec, args, kwargs, result) -> None:
    tr.counts["lattice.roots"] += len(result)


def _on_factorize(tr: Tracer, rec, args, kwargs, result) -> None:
    tr.counts["weyl.word_letters"] += len(result[0])


def _on_fold_identity(tr: Tracer, rec, args, kwargs, result) -> None:
    tr.counts["folding.fold_entries"] += len(result)
    tr.counts["folding.fiber_roots"] += sum(len(e.fiber) for e in result)


def _on_product(tr: Tracer, rec, args, kwargs, result) -> None:
    exponents = _arg(args, kwargs, 0, "exponents")
    degree = _arg(args, kwargs, 2, "degree")
    if isinstance(exponents, (list, tuple)):
        for beta, e in exponents:
            if e:
                tr.counts["characters.factors"] += 1
                if sum(beta) > degree:
                    tr.counts["characters.factors_tall"] += 1
    twisted = rec[PARENT] >= 0 and tr.spans[rec[PARENT]][NAME] == "characters.char_product"
    tr.counts["characters.terms_twisted" if twisted else "characters.terms_parent"] += len(result.terms)


def _on_graph(tr: Tracer, rec, args, kwargs, result) -> None:
    tr.counts["pbw.edges"] += len(result.edges)


_HOOKS = {
    "cartan.build_affine": _on_build,
    "lattice.closure_positive_roots": _on_closure,
    "weyl.alcove_factorize": _on_factorize,
    "folding.verify_fold_identity": _on_fold_identity,
    "characters.product_from_exponents": _on_product,
    "pbw.eprime_graph": _on_graph,
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct child spans."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer times (self time, seconds) and counts of one traced run.

    `trace.overhead` needs the untraced wall and is added by the caller.
    """
    spans = tracer.spans
    out = {name: 0.0 for name in TIME_METRICS}
    top = 0.0
    for s, self_s in zip(spans, self_times(spans)):
        name = s[NAME]
        layer_self = name.split(".", 1)[0] + ".self_s"
        if layer_self in out:
            out[layer_self] += self_s
        if name == "characters.product_from_exponents":
            twisted = s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "characters.char_product"
            out["characters.twisted_product_s" if twisted else "characters.parent_product_s"] += self_s
        elif name in SPAN_METRIC:
            out[SPAN_METRIC[name]] += self_s
        if s[PARENT] < 0:
            top += s[END] - s[START]
    for name in COUNT_METRICS:
        out[name] = tracer.counts[name]
    out["trace.coverage"] = top / traced_wall if traced_wall > 0 else 0.0
    return out
