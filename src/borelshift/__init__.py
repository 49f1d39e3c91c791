"""Computable classification of countable-state Markov shifts at desk scale.

Presentations (finite graphs and first-return loop schemas), certified
entropy and recurrence classification, the per-period entropy/count
invariants with an isomorphism decision procedure and a realization map,
sliding 1-block factor codes with injectivity/finite-to-one oracles and
symbol-relation machinery, marker-based injective subsystem synthesis, and
a family of shifts whose entropy hides from bounded-depth loop counting.
"""

from .presentations import (
    FiniteGraph,
    LoopSchema,
    GeometricTail,
    DampedTail,
    ParseError,
    parse_document,
    parse_presentation,
    format_document,
    format_presentation,
    golden_mean_graph,
    full_shift_graph,
    cycle_graph,
)
from .graphs import (
    strongly_connected_components,
    is_strongly_connected,
    irreducible_components,
    period_of_component,
    schema_period,
    cyclic_classes,
    is_single_cycle,
    first_return_counts,
    schema_first_return_counts,
    renewal_loop_counts,
    entropy_by_loop_count,
    loop_entropy_estimate,
)
from .intervals import RatInterval, INF, PrecisionExhausted
from .entropy import (
    ExtendedEntropy,
    ExactAlgebraic,
    IntervalApprox,
    ZERO_ENTROPY,
    INFINITE_ENTROPY,
    DEFAULT_TOL,
    perron_entropy,
    compare_entropy,
    max_entropy,
    entropy_from_log_value,
    identify_algebraic,
)
from .recurrence import (
    POSITIVE_RECURRENT,
    NULL_RECURRENT,
    TRANSIENT,
    RecurrenceReport,
    ComponentSummary,
    UndecidableAtTolerance,
    classify_recurrence,
    summarize_schema,
)
from .invariants import (
    Generator,
    InvariantPair,
    IsoVerdict,
    UNATTAINED,
    InconclusiveAtTolerance,
    summarize_components,
    compute_u_eta,
    canonical_invariants,
    check_admissible,
    decide_almost_borel_iso,
    invariants_of,
    parse_invariants,
    format_invariants,
)
from .realize import (
    FamilySchema,
    Realization,
    UnrealizableEntropy,
    realize_invariants,
    pair_of_realization,
)
from .codes import (
    BlockCode,
    SymbolRelation,
    InjectivityReport,
    FiniteToOneReport,
    BowenReport,
    ResolvingReport,
    label_fiber_product,
    prune_to_biinfinite,
    check_injective,
    check_finite_to_one,
    image_entropy,
    image_words,
    minimal_relation,
    verify_bowen_relation,
    build_fibered_product_Fm,
    extract_tilde_Xm,
    quotient_psi,
    parse_code,
    format_code,
    parse_relation,
    format_relation,
)
from .markers import (
    MarkerParams,
    EmbeddingCertificate,
    PreconditionViolated,
    NoDistinctLoops,
    BudgetExhausted,
    synthesize_injective_subsystem,
    make_subsystem_code,
    find_image_distinct_loops,
    build_marker_sft,
    marker_block_entropy,
)
from .pathology import (
    PathologySpec,
    PathologyReport,
    base_words,
    build_pathology_graph,
    certify_pathology,
    choose_pathology_parameters,
    control_parameters,
    truncated_entropy,
    count_label_paths,
    anchored_lifts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
