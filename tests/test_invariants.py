"""Entropy/count invariants: canonical form, admissibility, isomorphism decision."""

import random
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

from borelshift import cli, entropy, graphs, invariants, recurrence
from borelshift.graphs import period_of_component
from borelshift.presentations import GraphIndex

from helpers import LOG2, LOG3, u_eta_decision

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

    # summarize_components imports it from recurrence when a schema needs it
    monkeypatch.setattr(recurrence, "classify_recurrence", counting)
    twice = LoopSchema(((1, 1), (2, 1)))
    doc = format_document((twice, twice, twice, LoopSchema(((1, 3),))))
    summaries = summarize_components(parse_document(doc))
    assert len(calls) == 2
    assert [s.source for s in summaries] == ["p0.loops", "p1.loops", "p2.loops", "p3.loops"]
    assert summaries[0].entropy == summaries[1].entropy == summaries[2].entropy
    assert summaries[3].entropy.rational_root() == 3


def test_summarize_computes_each_component_period_once(monkeypatch, tmp_path, capsys):
    # perron_entropy takes the period that summarize_components computed;
    # the graph section is indexed once, and each component's index is
    # sliced from it and walked once, along succ only: neither analyze nor
    # compare builds the predecessor rows of any index
    calls, compiles, levels, walks, indexes = [], [], [], [], []

    def counting(c):
        calls.append(c)
        indexes.append(c.index())
        return period_of_component(c)

    def spy(log, fn):
        return lambda *args: log.append(args) or fn(*args)

    def compile_kept(*args):
        indexes.append(compile(*args))
        return indexes[-1]

    compile = spy(compiles, GraphIndex.compile)
    monkeypatch.setattr(invariants, "period_of_component", counting)
    monkeypatch.setattr(entropy, "period_of_component", counting)
    monkeypatch.setattr(GraphIndex, "compile", staticmethod(compile_kept))
    monkeypatch.setattr(graphs, "_levels", spy(levels, graphs._levels))
    monkeypatch.setattr(graphs, "_walk", spy(walks, graphs._walk))
    forest = FiniteGraph.from_edges(
        [("a", "a"), ("a", "b"), ("b", "a")]  # golden mean, period 1
        + [("c", "e"), ("c", "f"), ("d", "e"), ("e", "c"), ("e", "d"), ("f", "c")]
        + [("g", "h"), ("h", "i"), ("i", "g"), ("j", "a")]  # a 3-cycle, a transient j
    )
    doc = tmp_path / "forest.txt"
    doc.write_text(format_document([forest]))
    assert cli.main(["analyze", str(doc)]) == 0
    assert len(calls) == 3
    assert len(compiles) == 1
    assert [c for (c,) in levels] == calls and walks == []
    # x^2 - x - 1 is negative at the lower end and positive at the upper, both positive
    golden = "9007199254740992/5566755282872779 14573954537613771/9007199254740992"
    assert capsys.readouterr().out == (
        "# component=c0 period=1 entropy=0.48121182506 recurrence=positive-recurrent mme=true\n"
        "# component=c1 period=2 entropy=0.48121182506 recurrence=positive-recurrent mme=true\n"
        "# component=c2 period=3 entropy=0 recurrence=positive-recurrent mme=false\n"
        f"gen 1 poly -1 -1 1 root-in {golden} 1\n"
        f"gen 2 poly -1 -1 1 root-in {golden} 1\n"
    )
    assert cli.main(["compare", str(doc), str(doc)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "isomorphic=true"
    assert len(compiles) == 3 and len(calls) == 9 and walks == []
    assert all("pred" not in vars(idx) for idx in indexes)


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


def test_canonical_merges_equal_keys_past_the_float_range_around_infinity():
    # float() of both 10^3999 and infinity is inf; infinity still sorts after
    # every finite entropy, so the two equal finite keys stay adjacent and merge
    got = canonical_invariants(parse_invariants(
        "gen 1 1e3999 1e3999 1\ngen 2 inf 0\ngen 1 1e3999 1e3999 1\n"
    ))
    assert [(g.period, g.count) for g in got.generators] == [(1, 2), (2, 0)]
    assert got.generators[1].entropy is INFINITE_ENTROPY


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


def test_canonical_compares_each_item_with_one_cluster(monkeypatch):
    # an item is compared with the last cluster only, and dominance is read
    # off the cluster order: n items take at most n - 1 comparisons
    rng = random.Random("canonical-neighbours")
    calls = []
    compare = invariants.compare_entropy
    monkeypatch.setattr(invariants, "compare_entropy",
                        lambda a, b, tol: calls.append((a, b)) or compare(a, b, tol))
    values = [entropy_from_log_value(Fraction(m)) for m in range(2, 10)]
    for _ in range(30):
        raw = pair(*((rng.randint(1, 6), rng.choice(values), rng.choice([0, 1, 2, UNATTAINED]))
                     for _ in range(rng.randint(1, 12))))
        calls.clear()
        canon = canonical_invariants(raw)
        assert len(calls) <= len(raw.generators) - 1, raw
        for p in range(1, 13):
            assert raw.u_value(p) == canon.u_value(p) and raw.eta_value(p) == canon.eta_value(p)


def test_canonical_places_an_item_the_floats_misorder():
    # log 2 and log(2 + 2 10^-17) have one float, so sorting keeps them in
    # input order; at tolerance 10^-30 the second is below the first, and it
    # walks back to its place: the larger value at period 2 is not taken as
    # dominated by the smaller one at period 1
    low = entropy_from_log_value(Fraction(2))
    high = entropy_from_log_value(Fraction(2) + Fraction(2, 10**17))
    assert float(low) == float(high)
    tol = Fraction(1, 10**30)
    got = canonical_invariants(pair((2, high, 1), (1, low, 1)), tol)
    assert got.generators == (Generator(1, low, 1), Generator(2, high, 1))


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


LAMS = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4))


def gen_lines(gens) -> str:
    return "".join(
        f"gen {p} log {lam} {'unattained' if count is None else count}\n" for p, lam, count in gens
    )


def same_functions(rng, gens):
    """A reordered list with the same u and eta: a count split in two, 0 and
    unattained swapped, and a generator below a divisor's entropy added."""
    out = list(gens)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(out))
        p, lam, count = out[k]
        move = rng.randrange(3)
        if move == 0 and count and count >= 2:
            out[k:k + 1] = [(p, lam, 1), (p, lam, count - 1)]
        elif move == 1 and not count:
            out[k] = (p, lam, None if count == 0 else 0)
        elif move == 2 and lam > LAMS[0] and len(out) < 6:
            out.append((p * rng.randint(1, 12 // p), LAMS[0], rng.choice((0, 1, None))))
    rng.shuffle(out)
    return out


def test_decision_equals_the_oracle_on_every_period_up_to_the_lcm():
    # the decision looks at 1 and the generator periods only; the oracle
    # evaluates u and eta at every period up to the lcm of all of them
    rng = random.Random(3607)
    decided = {True: 0, False: 0}
    for trial in range(360):
        a = [(rng.randint(1, 12), rng.choice(LAMS), rng.choice((0, 1, 2, None)))
             for _ in range(rng.randint(1, 6))]
        if trial % 3 == 0:
            b = same_functions(rng, a)
        else:
            b = [(rng.randint(1, 12), rng.choice(LAMS), rng.choice((0, 1, 2, None)))
                 for _ in range(rng.randint(1, 6))]
            if trial % 3 == 1:  # most of a, so that the first difference lies further out
                b = a[: rng.randint(0, len(a))] + b[: rng.randint(1, 2)]
        v = decide_almost_borel_iso(parse_invariants(gen_lines(a)), parse_invariants(gen_lines(b)))
        want, witness = u_eta_decision(a, b)
        assert (v.isomorphic, v.witness_period) == (want, witness), (a, b)
        decided[want] += 1
    assert min(decided.values()) >= 100, decided


def test_compare_is_reflexive_past_twelve_distinct_periods(tmp_path, capsys):
    # 13 primes: the lcm closure of the periods has 8,192 values
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    doc = tmp_path / "primes.txt"
    doc.write_text(gen_lines((p, Fraction(2), 1) for p in primes))
    assert cli.main(["compare", str(doc), str(doc)]) == 0
    assert capsys.readouterr().out == "isomorphic=true\n"
    other = tmp_path / "other.txt"
    other.write_text(gen_lines([(p, Fraction(2), 1) for p in primes] + [(41, Fraction(2), 1)]))
    assert cli.main(["compare", str(doc), str(other)]) == 1
    assert "witness_period=41" in capsys.readouterr().out


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
