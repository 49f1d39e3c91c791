"""Computable classification of countable-state Markov shifts at desk scale.

Presentations (finite graphs and first-return loop schemas), certified
entropy and recurrence classification, the per-period entropy/count
invariants with an isomorphism decision procedure and a realization map,
sliding 1-block factor codes with injectivity/finite-to-one oracles and
symbol-relation machinery, marker-based injective subsystem synthesis, and
a family of shifts whose entropy hides from bounded-depth loop counting.

`import borelshift` loads no submodule: each name below is imported from its
module on first access (PEP 562), so a process loads only what it reaches.
"""

import importlib

# module -> the public names it exports; the modules are exported as well
_EXPORTS = {
    "presentations": (
        "FiniteGraph", "LoopSchema", "Tail", "ParseError", "Unsatisfiable", "Inconclusive",
        "parse_document", "parse_presentation", "format_document", "format_presentation",
        "golden_mean_graph", "full_shift_graph", "cycle_graph",
    ),
    "graphs": (
        "strongly_connected_components", "is_strongly_connected", "irreducible_components",
        "period_of_component", "schema_period", "cyclic_classes", "is_single_cycle",
        "first_return_counts", "schema_first_return_counts", "renewal_loop_counts",
        "entropy_by_loop_count", "loop_entropy_estimate",
    ),
    "intervals": ("RatInterval", "PrecisionExhausted"),
    "entropy": (
        "ExtendedEntropy", "ExactAlgebraic", "IntervalApprox", "ZERO_ENTROPY",
        "INFINITE_ENTROPY", "DEFAULT_TOL", "perron_entropy", "compare_entropy",
        "max_entropy", "entropy_from_log_value", "identify_algebraic",
    ),
    "recurrence": (
        "POSITIVE_RECURRENT", "NULL_RECURRENT", "TRANSIENT", "ComponentSummary",
        "UndecidableAtTolerance", "classify_recurrence",
    ),
    "invariants": (
        "Generator", "InvariantPair", "IsoVerdict", "UNATTAINED", "InconclusiveAtTolerance",
        "summarize_components", "compute_u_eta", "canonical_invariants", "check_admissible",
        "decide_almost_borel_iso", "invariants_of", "parse_invariants", "format_invariants",
    ),
    "realize": (
        "FamilySchema", "Realization", "UnrealizableEntropy", "realize_invariants",
        "pair_of_realization",
    ),
    "codes": (
        "BlockCode", "SymbolRelation", "InjectivityReport", "FiniteToOneReport",
        "BowenReport", "ResolvingReport", "label_fiber_product", "prune_to_biinfinite",
        "check_injective", "check_finite_to_one", "image_entropy", "image_words",
        "minimal_relation", "verify_bowen_relation", "build_fibered_product_Fm",
        "extract_tilde_Xm", "quotient_psi", "parse_code", "format_code", "parse_relation",
        "format_relation",
    ),
    "markers": (
        "MarkerParams", "EmbeddingCertificate", "PreconditionViolated", "NoDistinctLoops",
        "BudgetExhausted", "synthesize_injective_subsystem", "make_subsystem_code",
        "find_image_distinct_loops", "build_marker_sft", "marker_block_entropy",
    ),
    "pathology": (
        "PathologySpec", "PathologyReport", "base_words", "build_pathology_graph",
        "certify_pathology", "choose_pathology_parameters", "control_parameters",
        "anchored_lifts",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
