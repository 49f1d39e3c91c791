"""Acceptance suite: nine fixed criteria, one test (and one verdict line) each.

Each test prints a single "criterion N: PASS" line on success; failures
surface through the usual pytest assertion report.  Runtime budgets are
asserted with wall-clock measurements.
"""

import math
import random
import time
from fractions import Fraction

from borelshift import (
    BlockCode,
    FiniteGraph,
    Generator,
    InvariantPair,
    IntervalApprox,
    LoopSchema,
    SymbolRelation,
    Tail,
    check_injective,
    classify_recurrence,
    compute_u_eta,
    control_parameters,
    certify_pathology,
    choose_pathology_parameters,
    decide_almost_borel_iso,
    entropy_by_loop_count,
    extract_tilde_Xm,
    full_shift_graph,
    golden_mean_graph,
    invariants_of,
    loop_entropy_estimate,
    make_subsystem_code,
    minimal_relation,
    perron_entropy,
    period_of_component,
    quotient_psi,
    realize_invariants,
    summarize_components,
    synthesize_injective_subsystem,
    verify_bowen_relation,
    ExactAlgebraic,
    POSITIVE_RECURRENT,
    TRANSIENT,
)
from borelshift.graphs import schema_period

from helpers import (
    GOLDEN_ENTROPY,
    LOG2,
    LOG3,
    period_by_cycles,
    random_strongly_connected,
)


def test_criterion_1_entropy_exactness():
    t0 = time.perf_counter()
    h_golden = perron_entropy(golden_mean_graph())
    t_golden = time.perf_counter() - t0
    assert abs(float(h_golden) - GOLDEN_ENTROPY) < 1e-9

    t0 = time.perf_counter()
    two = FiniteGraph(
        ("p", "q"), (("p", "p"), ("p", "q"), ("q", "p"), ("q", "q"))
    )
    h_two = perron_entropy(two)
    t_two = time.perf_counter() - t0
    assert isinstance(h_two, ExactAlgebraic)
    assert h_two.rational_root() == 2
    assert t_golden < 1.0 and t_two < 1.0
    print(f"criterion 1: PASS entropy {float(h_golden):.12f} / exact log 2")


def test_criterion_2_period_oracle():
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    agreements = 0
    for _ in range(200):
        vs, edges = random_strongly_connected(rng, 8)
        g = FiniteGraph(tuple(vs), tuple(edges))
        assert period_of_component(g) == period_by_cycles(vs, edges)
        agreements += 1
    elapsed = time.perf_counter() - t0
    assert agreements == 200
    assert elapsed < 30.0
    print(f"criterion 2: PASS 200/200 period agreements in {elapsed:.1f}s")


def test_criterion_3_recurrence_classification():
    t0 = time.perf_counter()
    geo = LoopSchema(counts=(), tail=Tail(Fraction(1, 2), Fraction(2), 0, 1))
    rep = classify_recurrence(geo)
    assert rep.recurrence == POSITIVE_RECURRENT
    assert rep.mme is True
    assert abs(float(rep.entropy) - LOG3) < 1e-9
    enc = rep.entropy.log_enclosure()
    assert enc.lo <= Fraction(math.log(3)) <= enc.hi or enc.hi - enc.lo < Fraction(1, 10**9)

    damped = LoopSchema(
        counts=(), tail=Tail(Fraction(1, 3), Fraction(2), 2, 1)
    )
    rep2 = classify_recurrence(damped)
    assert rep2.recurrence == TRANSIENT
    assert rep2.mme is False
    assert abs(float(rep2.entropy) - LOG2) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 3: PASS PR log3 and transient log2 in {elapsed:.1f}s")


def _random_admissible_pair(rng: random.Random) -> InvariantPair:
    entropies = [
        ("log2", ExactAlgebraic((-2, 1), 2, 2)),
        ("log3", ExactAlgebraic((-3, 1), 3, 3)),
        ("0.7", IntervalApprox(Fraction(7, 10), Fraction(7, 10))),
        ("1.1", IntervalApprox(Fraction(11, 10), Fraction(11, 10))),
    ]
    gens = []
    used = set()
    for _ in range(rng.randint(1, 3)):
        period = rng.randint(1, 6)
        name, h = entropies[rng.randrange(len(entropies))]
        if (period, name) in used:
            continue
        used.add((period, name))
        gens.append(Generator(period, h, rng.randint(0, 2)))
    if not gens:
        gens.append(Generator(1, entropies[0][1], 1))
    return InvariantPair(tuple(gens))


def test_criterion_4_classification_round_trip():
    rng = random.Random(41)
    t0 = time.perf_counter()
    hits = 0
    for _ in range(50):
        pair = _random_admissible_pair(rng)
        real = realize_invariants(pair)
        assert not real.families
        back = compute_u_eta(summarize_components(real.parts()))
        verdict = decide_almost_borel_iso(back, pair)
        assert verdict.isomorphic, f"{pair} -> {back}: {verdict.detail}"
        hits += 1
    elapsed = time.perf_counter() - t0
    assert hits == 50
    assert elapsed < 120.0
    print(f"criterion 4: PASS 50/50 round trips in {elapsed:.1f}s")


def _presentation_pool():
    rng = random.Random(55)
    pool = []
    while len(pool) < 10:
        vs, edges = random_strongly_connected(rng, 5)
        pool.append(FiniteGraph(tuple(vs), tuple(edges)))
    while len(pool) < 20:
        lengths = sorted(rng.sample(range(1, 9), rng.randint(1, 3)))
        counts = tuple((n, rng.randint(1, 3)) for n in lengths)
        if sum(c for _, c in counts) < 2:
            continue
        tail = None
        if rng.random() < 0.4:
            tail = Tail(Fraction(1, 2), Fraction(2), 0, max(lengths) + 1)
        pool.append(LoopSchema(counts=counts, tail=tail))
    return pool


def test_criterion_5_equivalence_laws():
    pool = _presentation_pool()
    pairs = [invariants_of((p,)) for p in pool]
    for pair in pairs:
        assert decide_almost_borel_iso(pair, pair).isomorphic
    verdicts = {}
    checked = 0
    for i in range(20):
        for j in range(20):
            if i == j:
                continue
            v = decide_almost_borel_iso(pairs[i], pairs[j]).isomorphic
            verdicts[(i, j)] = v
            checked += 1
            if (j, i) in verdicts:
                assert verdicts[(j, i)] == v
    assert checked == 380
    for i in range(20):
        for j in range(20):
            for k in range(20):
                if verdicts.get((i, j)) and verdicts.get((j, k)):
                    assert verdicts.get((i, k), i == k)

    golden = golden_mean_graph()
    low_transient = LoopSchema(
        counts=(), tail=Tail(Fraction(1, 3), Fraction(3, 2), 2, 1)
    )
    with_transient = invariants_of((golden, low_transient))
    alone = invariants_of((golden,))
    doubled = invariants_of((golden, golden))
    assert decide_almost_borel_iso(with_transient, alone).isomorphic
    extra = decide_almost_borel_iso(doubled, alone)
    assert not extra.isomorphic
    assert extra.witness_period == 1
    print("criterion 5: PASS reflexive 20/20, symmetric 380/380, eta-sensitivity")


def test_criterion_6_injective_subsystem():
    t0 = time.perf_counter()
    full3 = full_shift_graph(("a", "b", "c"))
    code = BlockCode(
        full3, (("a", "0"), ("b", "0"), ("c", "1")), mode="vertex"
    )
    target = IntervalApprox(
        Fraction(9, 10) * Fraction(math.log(2)), Fraction(9, 10) * Fraction(math.log(2))
    )
    cert = synthesize_injective_subsystem(code, target)
    sub = make_subsystem_code(cert, code.labeled())
    assert check_injective(sub).injective
    assert period_of_component(cert.presentation) == 1
    assert float(perron_entropy(cert.presentation)) > 0.9 * LOG2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"criterion 6: PASS tier {cert.tier}, entropy {float(cert.entropy):.6f} "
        f"in {elapsed:.1f}s"
    )


def test_criterion_7_bowen_fibered_product():
    t0 = time.perf_counter()
    golden = golden_mean_graph()
    ident = BlockCode(
        golden, tuple((e, e) for e in golden.edge_names), mode="edge"
    )
    equality = SymbolRelation.of([(e, e) for e in golden.edge_names])
    assert verify_bowen_relation(ident, equality).holds

    unequal = SymbolRelation.of(
        [(e, e) for e in golden.edge_names] + [("e0", "e1")]
    )
    rep = verify_bowen_relation(ident, unequal)
    assert not rep.holds
    assert not rep.label_equal
    assert rep.failures

    code = BlockCode(
        golden, (("e0", "1"), ("e1", "0"), ("e2", "0")), mode="edge"
    )
    rel = minimal_relation(code)
    tilde = extract_tilde_Xm(code, rel, 2)
    psi = quotient_psi(tilde, 2)
    assert psi.right_resolving and psi.left_resolving
    assert psi.preimage_count == 2
    # the ordered-pair shift is a 2-cycle over one unordered fiber, so each
    # quotient word of any length has exactly 2 = m! ordered lifts
    succ = {u: [v for (a, v) in tilde.edges if a == u] for u in tilde.vertices}
    for length in range(1, 9):
        lifts = 0
        for start in tilde.vertices:
            frontier = [start]
            for _ in range(length):
                frontier = [w for u in frontier for w in succ[u]]
            lifts += len(frontier)
        assert lifts == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 7: PASS Bowen suite and 2-to-1 quotient in {elapsed:.1f}s")


def test_criterion_8_pathology_certification():
    t0 = time.perf_counter()
    base = FiniteGraph(("0", "1"), (("0", "0"), ("0", "1"), ("1", "0")))
    eps = Fraction(3, 10)
    spec = choose_pathology_parameters(base, eps, depth=8, window=40)
    rep = certify_pathology(spec, eps, window=40)
    assert rep.return_counts_match
    assert rep.estimate < 0.3
    assert rep.estimate_below_eps
    assert rep.gap_certified
    assert rep.bordered_unique

    ctrl = control_parameters(base, depth=8)
    assert ctrl.M <= 2 and all(m <= 2 for m in ctrl.m_seq)
    rep2 = certify_pathology(ctrl, eps, window=40)
    assert rep2.return_counts_match
    assert rep2.estimate >= 0.3
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 8: PASS estimate {rep.estimate:.3f} < 0.3 <= "
        f"{rep2.estimate:.3f} in {elapsed:.1f}s"
    )


def _random_schema(rng: random.Random) -> LoopSchema:
    lengths = sorted(rng.sample(range(1, 7), rng.randint(1, 3)))
    counts = tuple((n, rng.randint(1, 4)) for n in lengths)
    tail = None
    if rng.random() < 0.5:
        tail = Tail(
            Fraction(rng.randint(1, 3)),
            rng.randint(2, 4),
            0,
            max(lengths) + rng.randint(1, 3),
        )
    return LoopSchema(counts=counts, tail=tail)


def test_criterion_9_cross_oracle_entropy():
    rng = random.Random(99)
    hits = 0
    for _ in range(20):
        schema = _random_schema(rng)
        h = float(classify_recurrence(schema).entropy)
        rows = entropy_by_loop_count(schema, None, 200)
        est = loop_entropy_estimate(rows, period=schema_period(schema))
        assert abs(est - h) < 0.02, f"{schema}: {est} vs {h}"
        hits += 1
    assert hits == 20
    print("criterion 9: PASS 20/20 loop-count estimates within 0.02")
