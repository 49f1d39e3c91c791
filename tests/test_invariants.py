"""Entropy/count invariants: canonical form, admissibility, isomorphism decision."""

from fractions import Fraction

import pytest

from borelshift import (
    ComponentSummary,
    FiniteGraph,
    Generator,
    INFINITE_ENTROPY,
    InconclusiveAtTolerance,
    IntervalApprox,
    InvariantPair,
    LoopSchema,
    POSITIVE_RECURRENT,
    ParseError,
    TRANSIENT,
    UNATTAINED,
    ZERO_ENTROPY,
    canonical_invariants,
    check_admissible,
    classify_recurrence,
    compare_entropy,
    compute_u_eta,
    decide_almost_borel_iso,
    entropy_from_log_value,
    format_document,
    format_invariants,
    full_shift_graph,
    golden_mean_graph,
    invariants_of,
    parse_document,
    parse_invariants,
    perron_entropy,
    summarize_components,
)

from borelshift import cli, invariants

from helpers import LOG2, LOG3

LOG2_E = entropy_from_log_value(Fraction(2))
LOG3_E = entropy_from_log_value(Fraction(3))


def pair(*gens):
    return InvariantPair(tuple(Generator(p, h, c) for p, h, c in gens))


# === u and eta as functions ===

def test_u_takes_sup_over_divisor_periods():
    pr = pair((1, LOG2_E, 1), (2, LOG3_E, 1))
    assert abs(float(pr.u_value(1)) - LOG2) < 1e-12
    assert abs(float(pr.u_value(2)) - LOG3) < 1e-12
    assert abs(float(pr.u_value(3)) - LOG2) < 1e-12
    assert abs(float(pr.u_value(6)) - LOG3) < 1e-12
    assert pr.u_value(5) is not ZERO_ENTROPY


def test_u_zero_off_divisors():
    pr = pair((2, LOG2_E, 1))
    assert pr.u_value(3) is ZERO_ENTROPY
    assert pr.eta_value(3) == 0


def test_eta_counts_only_top_entropy_at_exact_period():
    pr = pair((1, LOG2_E, 2), (2, LOG3_E, 1), (2, LOG2_E, 5))
    # at period 2 the top entropy is log3; the log2 generators don't count
    assert pr.eta_value(2) == 1
    assert pr.eta_value(1) == 2
    # at period 4, u = log3 but no generator of period exactly 4: eta = 0
    assert pr.eta_value(4) == 0


def test_unattained_contributes_zero_eta():
    pr = pair((1, LOG2_E, UNATTAINED))
    assert pr.eta_value(1) == 0
    assert abs(float(pr.u_value(1)) - LOG2) < 1e-12


# === summaries of presentations ===

def test_summarize_components_mixed_document():
    parts = (golden_mean_graph(), LoopSchema(((1, 2),)))
    summaries = summarize_components(parts)
    assert len(summaries) == 2
    assert all(s.recurrence == POSITIVE_RECURRENT for s in summaries)
    assert {s.source for s in summaries} == {"p0.c0", "p1.loops"}


def test_summarize_classifies_each_distinct_schema_once(monkeypatch):
    calls = []

    def counting(schema):
        calls.append(schema)
        return classify_recurrence(schema)

    monkeypatch.setattr(invariants, "classify_recurrence", counting)
    twice = LoopSchema(((1, 1), (2, 1)))
    doc = format_document((twice, twice, twice, LoopSchema(((1, 3),))))
    summaries = summarize_components(parse_document(doc))
    assert len(calls) == 2
    assert [s.source for s in summaries] == ["p0.loops", "p1.loops", "p2.loops", "p3.loops"]
    assert summaries[0].entropy == summaries[1].entropy == summaries[2].entropy
    assert summaries[3].entropy.rational_root() == 3


def test_summarize_skips_cycle_entropy():
    s = summarize_components(FiniteGraph.from_edges([("a", "b"), ("b", "a")]))
    assert len(s) == 1
    assert s[0].entropy is ZERO_ENTROPY
    assert not s[0].mme
    assert s[0].period == 2


def test_compute_u_eta_drops_zero_entropy_components():
    summaries = [
        ComponentSummary(3, ZERO_ENTROPY, False, POSITIVE_RECURRENT, "c0"),
        ComponentSummary(1, LOG2_E, True, POSITIVE_RECURRENT, "c1"),
    ]
    got = compute_u_eta(summaries)
    assert len(got.generators) == 1
    assert got.generators[0].period == 1


def test_invariants_of_golden_plus_full2_absorbs_golden():
    # u is log2 everywhere already from the full 2-shift; the golden component
    # changes no value of (u, eta), so the pairs decide isomorphic
    both = invariants_of((golden_mean_graph(), full_shift_graph("ab")))
    alone = invariants_of(full_shift_graph("ab"))
    assert decide_almost_borel_iso(both, alone).isomorphic
    # but golden alone is a different shift
    v = decide_almost_borel_iso(invariants_of(golden_mean_graph()), alone)
    assert not v.isomorphic
    assert v.witness_period == 1


# === canonicalization ===

def test_canonical_merges_equal_keys():
    got = canonical_invariants(pair((1, LOG2_E, 1), (1, LOG2_E, 2)))
    assert got.generators == (Generator(1, LOG2_E, 3),)


def test_canonical_drops_strictly_dominated():
    got = canonical_invariants(pair((1, LOG3_E, 1), (2, LOG2_E, 4)))
    assert got.generators == (Generator(1, LOG3_E, 1),)


def test_canonical_keeps_equal_entropy_at_larger_period():
    # count > 0 at a multiple period changes eta there; must survive
    got = canonical_invariants(pair((1, LOG2_E, 1), (2, LOG2_E, 3)))
    assert len(got.generators) == 2
    assert got.eta_value(2) == 3


def test_canonical_drops_zero_count_at_dominated_divisor():
    got = canonical_invariants(pair((1, LOG2_E, 1), (2, LOG2_E, 0)))
    assert got.generators == (Generator(1, LOG2_E, 1),)
    # yet a zero count NOT dominated by a divisor survives as a function value
    got = canonical_invariants(pair((2, LOG2_E, 0), (3, LOG2_E, 1)))
    assert any(g.period == 2 for g in got.generators)


def test_canonical_absorbs_unattained_into_attained():
    got = canonical_invariants(pair((1, LOG2_E, UNATTAINED), (1, LOG2_E, 2)))
    assert got.generators == (Generator(1, LOG2_E, 2),)
    got = canonical_invariants(pair((1, LOG2_E, UNATTAINED)))
    assert got.generators == (Generator(1, LOG2_E, UNATTAINED),)


def test_canonical_clusters_interval_entropies():
    a = IntervalApprox(Fraction(7, 10), Fraction(7, 10))
    b = IntervalApprox(Fraction(7, 10) + Fraction(1, 10**12), Fraction(7, 10) + Fraction(1, 10**12))
    got = canonical_invariants(pair((1, a, 1), (1, b, 1)))
    assert len(got.generators) == 1
    assert got.generators[0].count == 2


def test_canonical_functions_are_preserved():
    raw = pair((1, LOG2_E, 1), (2, LOG2_E, 0), (2, LOG3_E, 2), (6, LOG3_E, 0))
    canon = canonical_invariants(raw)
    for p in (1, 2, 3, 4, 6, 12):
        assert raw.eta_value(p) == canon.eta_value(p)
        c = decide_almost_borel_iso(raw, canon)
        assert c.isomorphic


# === admissibility ===

def test_admissibility_rules():
    assert check_admissible(pair((1, LOG2_E, 3))).admissible
    assert check_admissible(pair((2, INFINITE_ENTROPY, 0))).admissible
    assert check_admissible(pair((2, INFINITE_ENTROPY, UNATTAINED))).admissible
    rep = check_admissible(pair((2, INFINITE_ENTROPY, 1), (6, INFINITE_ENTROPY, 2)))
    assert not rep.admissible
    assert rep.violations == (2, 6)


# === the isomorphism decision ===

def test_decision_distinguishes_counts():
    a = pair((1, LOG2_E, 1))
    b = pair((1, LOG2_E, 2))
    v = decide_almost_borel_iso(a, b)
    assert not v.isomorphic
    assert v.witness_period == 1
    assert "eta(1)" in v.detail


def test_decision_distinguishes_entropy():
    v = decide_almost_borel_iso(pair((1, LOG2_E, 1)), pair((1, LOG3_E, 1)))
    assert not v.isomorphic
    assert "u(1)" in v.detail


def test_decision_needs_lcm_periods():
    # both pairs have u = log2 on even, log2 on multiples of 3; they differ
    # only at period 6, where eta is 1+1 versus 2 at exact period 6... build
    # a genuine lcm case: (2,log2,1)+(3,log2,1) vs (2,log2,1)+(3,log2,1)+(6,log2,1)
    a = pair((2, LOG2_E, 1), (3, LOG2_E, 1))
    b = pair((2, LOG2_E, 1), (3, LOG2_E, 1), (6, LOG2_E, 1))
    v = decide_almost_borel_iso(a, b)
    assert not v.isomorphic
    assert v.witness_period == 6
    # agreeing everywhere on {1,2,3,6} means isomorphic regardless of listing
    c = pair((2, LOG2_E, 1), (3, LOG2_E, 1), (6, LOG2_E, 0))
    assert decide_almost_borel_iso(a, c).isomorphic


def test_decision_period_one_infinite_entropy():
    a = pair((1, INFINITE_ENTROPY, 0))
    b = pair((1, LOG3_E, 0))
    v = decide_almost_borel_iso(a, b)
    assert not v.isomorphic


def test_decision_raises_when_tolerance_cannot_separate():
    a = pair((1, IntervalApprox(Fraction(1, 2), Fraction(3, 4)), 1))
    b = pair((1, IntervalApprox(Fraction(5, 8), Fraction(7, 8)), 1))
    with pytest.raises(InconclusiveAtTolerance):
        decide_almost_borel_iso(a, b)


def test_eta_sensitivity_of_transient_pieces():
    # adding a strictly lower-entropy transient piece changes nothing
    golden = invariants_of(golden_mean_graph())
    low_transient = ComponentSummary(
        1, entropy_from_log_value(Fraction(3, 2)), False, TRANSIENT, "t"
    )
    with_piece = compute_u_eta(list(summarize_components(golden_mean_graph())) + [low_transient])
    assert decide_almost_borel_iso(golden, with_piece).isomorphic
    # an equal-entropy transient piece also changes nothing (eta counts MMEs)
    same_transient = ComponentSummary(
        1, perron_entropy(golden_mean_graph()), False, TRANSIENT, "t"
    )
    with_same = compute_u_eta(list(summarize_components(golden_mean_graph())) + [same_transient])
    assert decide_almost_borel_iso(golden, with_same).isomorphic
    # a second MME copy does change eta
    extra_mme = ComponentSummary(
        1, perron_entropy(golden_mean_graph()), True, POSITIVE_RECURRENT, "m"
    )
    with_mme = compute_u_eta(list(summarize_components(golden_mean_graph())) + [extra_mme])
    v = decide_almost_borel_iso(golden, with_mme)
    assert not v.isomorphic and v.witness_period == 1


# === document format ===

def test_parse_format_round_trip():
    docs = [
        pair((1, LOG2_E, 1)),
        pair((2, INFINITE_ENTROPY, 0), (3, LOG3_E, UNATTAINED)),
        pair((1, IntervalApprox(Fraction(7, 10), Fraction(7, 10)), 2)),
        pair((4, perron_entropy(golden_mean_graph()), 1)),
    ]
    for p in docs:
        assert parse_invariants(format_invariants(p)) == p


def test_parse_entropy_expression_forms():
    p = parse_invariants(
        "gen 1 log 2 1\n"
        "gen 2 inf 0\n"
        "gen 3 poly -1 -1 1 root-in 1 2 1\n"
        "gen 4 7/10 7/10 2\n"
        "gen 5 log 7/2 unattained\n"
    )
    assert len(p.generators) == 5
    assert p.generators[0].entropy.rational_root() == 2
    assert p.generators[1].entropy is INFINITE_ENTROPY
    assert p.generators[2].entropy.minpoly == (-1, -1, 1)
    assert p.generators[3].entropy == IntervalApprox(Fraction(7, 10), Fraction(7, 10))
    assert p.generators[4].count is UNATTAINED


def test_parse_keeps_poly_primitive():
    # the gcd 2 is divided out, and the linear minimal polynomial pins its
    # root at 2, so the text that format_invariants writes parses to it again
    p = parse_invariants("gen 1 poly -4 2 root-in 1 3 1\n")
    assert p == parse_invariants("gen 1 log 2 1\n")
    assert format_invariants(p) == "gen 1 log 2 1\n"
    q = parse_invariants("gen 1 poly -2 -2 2 root-in 3/2 2 1\n")
    assert q.generators[0].entropy.minpoly == (-1, -1, 1)


def test_parse_rejects_nonpositive_entropy():
    with pytest.raises(ParseError):
        parse_invariants("gen 1 log 1 1\n")
    with pytest.raises(ParseError):
        parse_invariants("gen 1 0 0 1\n")  # interval [0,0]
    with pytest.raises(ParseError):
        parse_invariants("gen 1 log 1/2 1\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse_invariants("")
    with pytest.raises(ParseError):
        parse_invariants("generator 1 log 2 1\n")
    with pytest.raises(ParseError):
        parse_invariants("gen 0 log 2 1\n")
    with pytest.raises(ParseError):
        parse_invariants("gen 1 log 2\n")
    with pytest.raises(ParseError):
        parse_invariants("gen 1 exotic 3 1\n")
    with pytest.raises(ParseError):
        parse_invariants("gen 1 poly -1 -1 1 root-in 1 1\n")
    # root-in must isolate exactly one root, with no equal nonzero signs at the ends
    for bad in (
        "poly -1 -1 1 root-in 3 4",  # no root
        "poly 2 1 -3 1 root-in 3/2 3",  # (x-2)(x^2-x-1): two roots
        "poly 1 -2 1 root-in 0 2",  # (x-1)^2: no sign change
    ):
        with pytest.raises(ParseError):
            parse_invariants(f"gen 1 {bad} 1\n")


def test_parse_root_in_at_an_endpoint():
    # (x - 2)(x^2 - x - 1): the root 2 sits at the left end of [2, 3]
    (g,) = parse_invariants("gen 1 poly 2 1 -3 1 root-in 2 3 1\n").generators
    assert g.entropy.minpoly == (2, 1, -3, 1)
    assert compare_entropy(g.entropy, LOG2_E) == "eq"


@pytest.mark.parametrize(
    "expr",
    [
        "poly 4 0 -3 1 root-in 3/2 5/2",  # (x - 2)^2 (x + 1)
        "poly 1 2 -1 -2 1 root-in 3/2 2",  # (x^2 - x - 1)^2 around the golden mean
    ],
)
def test_parse_rejects_a_double_root(expr, tmp_path):
    with pytest.raises(ParseError):
        parse_invariants(f"gen 1 {expr} 1\n")
    doc = tmp_path / "inv.txt"
    doc.write_text(f"gen 1 {expr} 1\n")
    assert cli.main(["compare", str(doc), str(doc)]) == 65


def test_parse_comments_and_blanks_ignored():
    p = parse_invariants("# header\n\ngen 1 log 2 1  # full 2-shift\n")
    assert len(p.generators) == 1
