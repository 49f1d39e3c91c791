"""Span tracing around the public functions of each `borelshift` module.

`Tracer.install()` wraps every function named in `LAYERS`.  It rebinds the
name in the module that defines it and in every loaded `borelshift` module
that imported it by name (methods are rebound on their class), and
`uninstall()` puts the originals back.  Each call records one span: name,
start, end, parent span and operation id.  Spans stay in memory until the run
writes them out.

A layer metric `<layer>.<x>_s` is the self time of its functions' spans: the
span's duration minus the durations of the spans nested directly inside it.
Self times of all spans plus the time outside every span add up to the traced
wall time, which `summary()` checks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# metric prefix -> (module, functions); "Class.method" names a method
LAYERS = {
    "presentations.parse": ("presentations", ("parse_document", "parse_presentation")),
    "presentations.format": ("presentations", ("format_document", "format_presentation")),
    "graphs.components": ("graphs", ("strongly_connected_components", "is_strongly_connected",
                                     "component_has_cycle", "irreducible_components",
                                     "is_single_cycle")),
    "graphs.period": ("graphs", ("period_of_component", "schema_period", "cyclic_classes")),
    "graphs.first_return": ("graphs", ("first_return_counts", "schema_first_return_counts")),
    "graphs.loop_counts": ("graphs", ("renewal_loop_counts", "entropy_by_loop_count",
                                      "loop_entropy_estimate")),
    "entropy.perron": ("entropy", ("perron_entropy",)),
    "entropy.cw": ("entropy", ("collatz_wielandt_enclosure",)),
    "entropy.identify": ("entropy", ("identify_algebraic",)),
    "entropy.compare": ("entropy", ("compare_entropy", "max_entropy")),
    "intervals.log": ("intervals", ("log_fraction", "log_interval")),
    "recurrence.classify": ("recurrence", ("classify_recurrence",)),
    "invariants.summarize": ("invariants", ("summarize_components", "invariants_of")),
    "invariants.u_eta": ("invariants", ("compute_u_eta", "canonical_invariants")),
    "invariants.decide": ("invariants", ("decide_almost_borel_iso",)),
    "invariants.parse": ("invariants", ("parse_invariants",)),
    "realize.realize": ("realize", ("realize_invariants", "pair_of_realization")),
    "codes.labeled": ("codes", ("BlockCode.labeled",)),
    "codes.fiber_product": ("codes", ("label_fiber_product",)),
    "codes.prune": ("codes", ("prune_to_biinfinite",)),
    "codes.injective": ("codes", ("check_injective",)),
    "codes.finite_to_one": ("codes", ("check_finite_to_one",)),
    "codes.image_entropy": ("codes", ("image_entropy",)),
    "codes.relation": ("codes", ("minimal_relation", "verify_bowen_relation")),
    "codes.fm": ("codes", ("build_fibered_product_Fm",)),
    "codes.tilde": ("codes", ("extract_tilde_Xm",)),
    "codes.psi": ("codes", ("quotient_psi",)),
    "markers.synthesize": ("markers", ("synthesize_injective_subsystem",)),
    "markers.build_sft": ("markers", ("build_marker_sft",)),
    "pathology.build": ("pathology", ("build_pathology_graph",)),
    "pathology.certify": ("pathology", ("certify_pathology",)),
    "pathology.lifts": ("pathology", ("anchored_lifts",)),
    # self time of cli.main: argument parsing, file reads, report formatting
    "cli.dispatch": ("cli", ("main",)),
}


def _count(name):
    return lambda counts, args, result: counts.__setitem__(name, counts[name] + 1)


def _add(name, size):
    return lambda counts, args, result: counts.__setitem__(name, counts[name] + size(result))


def _perron(counts, args, result):
    counts["entropy.perron_calls"] += 1
    kind = type(result).__name__
    if kind == "ExactAlgebraic":
        counts["entropy.perron_exact"] += 1
    elif kind == "IntervalApprox":
        counts["entropy.perron_interval"] += 1


def _classify(counts, args, result):
    counts["recurrence.classify_calls"] += 1
    counts.distinct["recurrence.classify_distinct"].add(args[0])


def _product(counts, args, result):
    counts["codes.product_states"] += len(result.vertices)


def _sft(counts, args, result):
    counts["markers.sft_calls"] += 1
    counts["markers.sft_states"] += len(result[0].vertices)


# function -> observer(counts, args, result) run after each call
COUNTERS = {
    "presentations.parse_document": _count("presentations.parse_calls"),
    "graphs.irreducible_components": _add("graphs.components_found", len),
    "entropy.perron_entropy": _perron,
    "entropy.collatz_wielandt_enclosure": _count("entropy.cw_calls"),
    "entropy.identify_algebraic": _count("entropy.identify_calls"),
    "entropy.compare_entropy": _count("entropy.compare_calls"),
    "intervals.log_fraction": _count("intervals.log_calls"),
    "recurrence.classify_recurrence": _classify,
    "invariants.decide_almost_borel_iso": _count("invariants.decide_calls"),
    "realize.realize_invariants": _add(
        "realize.components", lambda r: len(r.components) + len(r.families)),
    "codes.label_fiber_product": _product,
    "codes.build_fibered_product_Fm": _product,
    "codes.extract_tilde_Xm": _product,
    "markers.build_marker_sft": _sft,
    "markers.synthesize_injective_subsystem": _count("markers.certificates"),
    "pathology.anchored_lifts": _count("pathology.lifts_calls"),
    "pathology.build_pathology_graph": _add("pathology.states", lambda r: len(r.domain.vertices)),
}

COUNT_METRICS = (
    "presentations.parse_calls", "graphs.components_found", "entropy.perron_calls",
    "entropy.perron_exact", "entropy.perron_interval", "entropy.cw_calls",
    "entropy.identify_calls", "entropy.compare_calls", "intervals.log_calls",
    "recurrence.classify_calls", "recurrence.classify_distinct", "invariants.decide_calls",
    "realize.components", "codes.product_states", "markers.sft_calls", "markers.sft_states",
    "markers.certificates", "pathology.lifts_calls", "pathology.states",
)

TIME_METRICS = tuple(f"{prefix}_s" for prefix in LAYERS)


class Counts(defaultdict):
    def __init__(self):
        super().__init__(int)
        self.distinct = defaultdict(set)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts = Counts()
        self.metric_of: dict[str, str] = {}
        self._restore: list = []

    def _wrap(self, name: str, fn, observe):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "borelshift" or n.startswith("borelshift.")]
        for prefix, (modname, functions) in LAYERS.items():
            mod = importlib.import_module(f"borelshift.{modname}")
            for fname in functions:
                span = f"{modname}.{fname}"
                self.metric_of[span] = f"{prefix}_s"
                observe = COUNTERS.get(span)
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(span, orig, observe))
                    self._restore.append((cls, meth, orig))
                    continue
                orig = getattr(mod, fname)
                wrapped = self._wrap(span, orig, observe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
                            self._restore.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def summary(self, wall: float) -> dict:
        """Per-layer self times and counts, plus the time outside every span."""
        self_time = [s[2] - s[1] for s in self.spans]
        top = 0.0
        for s in self.spans:
            if s[3] >= 0:
                self_time[s[3]] -= s[2] - s[1]
            else:
                top += s[2] - s[1]
        metrics = {m: 0.0 for m in TIME_METRICS}
        for s, t in zip(self.spans, self_time):
            metrics[self.metric_of[s[0]]] += t
        for m in COUNT_METRICS:
            metrics[m] = self.counts[m]
        metrics["recurrence.classify_distinct"] = len(
            self.counts.distinct["recurrence.classify_distinct"])
        outside = wall - top
        attributed = sum(metrics[m] for m in TIME_METRICS) + outside
        return {"metrics": metrics, "outside_s": outside, "attributed_s": attributed,
                "spans": len(self.spans), "negative_self": sum(1 for t in self_time if t < -1e-9)}

    def dump(self, path: str):
        """Write spans as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
