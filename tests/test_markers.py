"""Injective subsystem synthesis: tier selection, marker block structure,
and the certified entropy of the built presentations.
"""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from borelshift import (
    BlockCode,
    BudgetExhausted,
    FiniteGraph,
    IntervalApprox,
    MarkerParams,
    NoDistinctLoops,
    PreconditionViolated,
    build_marker_sft,
    check_injective,
    compare_entropy,
    find_image_distinct_loops,
    first_return_counts,
    full_shift_graph,
    golden_mean_graph,
    label_fiber_product,
    make_subsystem_code,
    marker_block_entropy,
    perron_entropy,
    prune_to_biinfinite,
    synthesize_injective_subsystem,
)
from borelshift import markers

from helpers import (
    LOG2, OverBudget, label_pairs_by_worklist, marker_presentation_reference,
    random_strongly_connected, two_length_growth_rate,
)


def even_code() -> BlockCode:
    g = golden_mean_graph()
    return BlockCode(g, (("e0", "1"), ("e1", "0"), ("e2", "0")), mode="edge")


def point(x) -> IntervalApprox:
    f = Fraction(x)
    return IntervalApprox(f, f)


# === marker words ===

def test_marker_words_composition():
    p = MarkerParams("v", ("v",), ("v", "w", "u"), A=3, C=2, N=4, K=1)
    m1, m2 = p.marker_words()
    assert m1 == ("v",) * 3 + ("v", "w", "u") * 2 + ("v",)
    assert m2 == ("v",) * 3 + ("v", "w", "u") * 2 + ("v", "w", "u")
    assert len(m1) == 10 and len(m2) == 12


# === tier selection ===

def test_whole_domain_tier_for_injective_code():
    g = golden_mean_graph()
    ident = BlockCode(g, tuple((e, e) for e in g.edge_names), mode="edge")
    cert = synthesize_injective_subsystem(ident, point(Fraction(2, 5)))
    assert cert.tier == "whole-domain"
    assert sorted(cert.presentation.vertices) == ["e0", "e1", "e2"]
    assert compare_entropy(cert.entropy, perron_entropy(g)) == "eq"


def test_label_injective_tier_picks_one_vertex_per_symbol():
    full3 = full_shift_graph(("a", "b", "c"))
    code = BlockCode(full3, (("a", "0"), ("b", "0"), ("c", "1")), mode="vertex")
    target = point(Fraction(9, 10) * Fraction(math.log(2)))
    cert = synthesize_injective_subsystem(code, target)
    assert cert.tier == "label-injective"
    assert len(cert.presentation.vertices) == 2
    assert "c" in cert.presentation.vertices
    assert abs(float(cert.entropy) - LOG2) < 1e-9
    assert check_injective(make_subsystem_code(cert, code.labeled())).injective


def test_marker_tier_on_non_injective_code():
    code = even_code()
    cert = synthesize_injective_subsystem(code, point(Fraction(1, 5)))
    assert cert.tier == "marker"
    assert cert.params is not None
    assert float(cert.entropy) >= 0.2
    # the certificate maps presentation states back into the domain
    dom = set(code.labeled().domain.vertices)
    covered = dict(cert.symbol_map)
    assert set(covered) == set(cert.presentation.vertices)
    assert set(covered.values()) <= dom
    sub = make_subsystem_code(cert, code.labeled())
    assert set(sub.labeled().alphabet()) <= {"0", "1"}
    assert check_injective(sub).injective


def test_marker_certificate_at_one_quarter_has_diagonal_fiber_product():
    # the 537-state injective code: its label fiber product is its diagonal
    code = even_code()
    cert = synthesize_injective_subsystem(code, point(Fraction(1, 4)))
    assert cert.tier == "marker"
    states = cert.presentation.vertices
    assert len(states) == 537
    lg = make_subsystem_code(cert, code.labeled()).labeled()
    start = time.perf_counter()
    prod = label_fiber_product(lg)
    assert time.perf_counter() - start < 5.0
    assert prod.vertices == tuple(f"{v}|{v}" for v in states)
    assert prod.tuples == tuple((v, v) for v in states)
    assert list(prod.edges) == sorted((f"{u}|{u}", f"{w}|{w}") for u, w in cert.presentation.edges)
    assert prod.edge_names == tuple(f"e{k}" for k in range(len(prod.edges)))


@pytest.mark.parametrize("target", [Fraction(1, 10), Fraction(1, 5), Fraction(1, 4)])
def test_marker_certificate_products_match_the_worklist_prune(target):
    # the oracle prunes all label-equal pairs, 146,045 of them at 1/4
    code = even_code()
    cert = synthesize_injective_subsystem(code, point(target))
    lg = make_subsystem_code(cert, code.labeled()).labeled()
    alive, pair_edges = label_pairs_by_worklist(
        list(lg.domain.vertices), list(lg.domain.edges), dict(lg.mapping)
    )
    prod = label_fiber_product(lg)
    assert list(prod.tuples) == alive
    assert list(prod.vertices) == [f"{u}|{v}" for u, v in alive]
    assert list(prod.edges) == sorted(
        (f"{a}|{b}", f"{c}|{d}") for (a, b), (c, d) in pair_edges
    )


def test_marker_certificate_entropy_matches_presentation():
    # the block-structure root equation and a direct Perron computation on
    # the built graph must certify the same value
    cert = synthesize_injective_subsystem(even_code(), point(Fraction(1, 5)))
    direct = perron_entropy(prune_to_biinfinite(cert.presentation))
    assert compare_entropy(cert.entropy, direct) == "eq"


def test_marker_certificate_block_renewal_structure():
    cert = synthesize_injective_subsystem(even_code(), point(Fraction(1, 5)))
    p = cert.params
    m1, m2 = p.marker_words()
    b1 = len(m1) + p.K * p.N
    b2 = len(m2) + p.K * p.N
    counts = first_return_counts(cert.presentation, "m1.0", b1 + b2)
    big = counts[b1]
    assert big >= 2**p.K  # at least two gallery words per slot
    assert counts[b1 + b2] == big * big
    assert sum(counts) == big + big * big


def test_target_above_domain_entropy_is_rejected():
    g = golden_mean_graph()
    ident = BlockCode(g, tuple((e, e) for e in g.edge_names), mode="edge")
    with pytest.raises(PreconditionViolated):
        synthesize_injective_subsystem(ident, point(Fraction(1, 2)))


def test_budget_exhausted_when_no_marker_material():
    # two-cycle with a constant label: every loop word reads the same, so no
    # gallery can ever reach size two
    g = FiniteGraph.from_edges([("a", "b"), ("b", "a")])
    code = BlockCode(g, (("a", "0"), ("b", "0")), mode="vertex")
    with pytest.raises(BudgetExhausted):
        synthesize_injective_subsystem(code, point(0))


def test_gallery_length_stops_where_no_gallery_can_clear_the_target(monkeypatch):
    # a gallery holds at most GALLERY_CAP words, so at target 1/4 no length
    # N with log(GALLERY_CAP) <= N / 4, that is N >= 34, can clear it; the
    # galleries are stubbed empty, which every N also skips
    lengths = []

    def stub(lg, base, N, ell_lab):
        lengths.append(N)
        return []

    monkeypatch.setattr(markers, "_gallery", stub)
    with pytest.raises(BudgetExhausted):
        synthesize_injective_subsystem(even_code(), point(Fraction(1, 4)), state_cap=100)
    assert lengths and max(lengths) == 33


# === distinct loops ===

def test_find_image_distinct_loops_golden():
    lg = even_code().labeled()
    first, second = find_image_distinct_loops(lg, "e0")
    assert {first, second} == {("e0", "e1", "e2"), ("e0", "e0", "e0")}
    lm = dict(lg.mapping)
    assert [lm[v] for v in first] != [lm[v] for v in second]


def test_no_distinct_loops_on_constant_cycle():
    g = FiniteGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    lg = BlockCode(g, (("a", "x"), ("b", "x"), ("c", "x")), mode="vertex").labeled()
    with pytest.raises(NoDistinctLoops):
        find_image_distinct_loops(lg, "a", max_len=2)


@pytest.mark.parametrize("edges, want", [
    # two loops of length 2 and one of length 3: the first of each
    ([("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("c", "d"), ("d", "a")],
     (("a", "c"), ("a", "c", "d"))),
    # loops of lengths 3 and 5 only, up to max_len
    ([("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "f"), ("f", "g"),
      ("g", "a")], (("a", "b", "c"), ("a", "d", "e", "f", "g"))),
])
def test_constant_labels_fall_back_to_the_two_shortest_loop_lengths(monkeypatch, edges, want):
    # every label is x, so no length has two label-distinct loops; each length
    # is enumerated once, and its first loop is the one the fallback keeps
    g = FiniteGraph.from_edges(edges)
    lg = BlockCode(g, tuple((v, "x") for v in g.vertices), mode="vertex").labeled()
    calls = []
    loops_at = markers._loops_at
    monkeypatch.setattr(
        markers, "_loops_at", lambda *args, **kw: calls.append(args[2]) or loops_at(*args, **kw)
    )
    assert find_image_distinct_loops(lg, "a") == want
    assert calls == [1, 2, 3, 4, 5, 6]
    for loop in want:
        assert loop == loops_at(g, "a", len(loop), 1)[0]


# === block presentations by hand ===

def test_single_word_gallery_matches_two_length_oracle():
    lg = even_code().labeled()
    p = MarkerParams("e0", ("e0",), ("e0", "e1", "e2"), A=2, C=1, N=2, K=1)
    m1, m2 = p.marker_words()
    b1, b2 = len(m1) + 2, len(m2) + 2
    assert (b1, b2) == (8, 10)
    assert p.block_structure(1) == (8, 10, 1)
    g, symbol = build_marker_sft(p, [("e0", "e0")])
    counts = first_return_counts(g, "m1.0", b1 + 2 * b2)
    hits = [(i, c) for i, c in enumerate(counts) if c]
    assert hits == [(b1, 1), (b1 + b2, 1), (b1 + 2 * b2, 1)]
    oracle = two_length_growth_rate(b1, b2)
    assert abs(float(marker_block_entropy(p, 1)) - oracle) < 1e-9
    assert abs(float(perron_entropy(prune_to_biinfinite(g))) - oracle) < 1e-9
    # every state names a domain vertex
    assert set(symbol.values()) <= {"e0", "e1", "e2"}


def test_two_word_gallery_counts_are_powers():
    lg = even_code().labeled()
    p = MarkerParams("e0", ("e0", "e1", "e2"), ("e0", "e0", "e0"), A=2, C=1, N=4, K=2)
    gallery = [("e0", "e0", "e1", "e2"), ("e0", "e1", "e2", "e0")]
    g, _ = build_marker_sft(p, gallery)
    m1, m2 = p.marker_words()
    b = len(m1) + p.K * p.N  # both blocks have the same length here
    assert len(m2) + p.K * p.N == b
    assert p.block_structure(len(gallery)) == (b, b, 4)
    counts = first_return_counts(g, "m1.0", 3 * b)
    hits = [(i, c) for i, c in enumerate(counts) if c]
    # G^K = 4 choices per block, big^(j+1) first returns after j+1 blocks
    assert hits == [(b, 4), (2 * b, 16), (3 * b, 64)]


def test_empty_gallery_rejected():
    lg = even_code().labeled()
    p = MarkerParams("e0", ("e0",), ("e0", "e1", "e2"), A=2, C=1, N=2, K=1)
    with pytest.raises(ValueError):
        build_marker_sft(p, [])


def test_state_budget_enforced():
    lg = even_code().labeled()
    p = MarkerParams("e0", ("e0",), ("e0", "e1", "e2"), A=2, C=1, N=3, K=8000)
    with pytest.raises(BudgetExhausted):
        build_marker_sft(p, [("e0", "e0", "e0")])


def test_one_trie_builder_matches_the_copy_by_copy_reference():
    rng = random.Random(4102)
    shared = single = raised = 0
    for case in range(80):
        alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
        N, K = rng.randint(2, 6), rng.randint(1, 8)

        def word(n):
            return tuple(rng.choice(alphabet) for _ in range(n))

        if case % 4 == 0:
            gallery = [word(N)]
        else:  # one stem and several endings, so the words share prefixes
            stem = word(rng.randint(1, N - 1))
            gallery = [stem + word(N - len(stem)) for _ in range(8)]
            gallery = list(dict.fromkeys(gallery + [word(N) for _ in range(rng.randint(0, 4))]))
        ell, ell_t = word(rng.randint(1, 3)), word(rng.randint(1, 3))
        A, C = rng.randint(1, 4), rng.randint(1, 3)
        params = MarkerParams("a", ell, ell_t, A, C, N, K)
        total = len(marker_presentation_reference(ell, ell_t, A, C, K, gallery, 10**9)[0])
        nodes = len({w[:i] for w in gallery for i in range(1, N + 1)})
        shared += nodes < N * len(gallery)
        single += len(gallery) == 1
        for cap in (total - 1, total, total + 1):
            try:
                want = marker_presentation_reference(ell, ell_t, A, C, K, gallery, cap)
            except OverBudget:
                with pytest.raises(BudgetExhausted) as exc:
                    build_marker_sft(params, gallery, cap)
                assert str(exc.value) == markers.BUDGET_MESSAGE
                raised += 1
                continue
            g, symbol = build_marker_sft(params, gallery, cap)
            assert (g.vertices, g.edges) == want[:2], (params, gallery, cap)
            assert list(symbol.items()) == list(want[2].items())
    assert shared >= 40 and single >= 20 and raised == 80


def test_over_budget_candidate_names_nothing():
    # 14 marker states and a million copies of a 5-node trie: over the default
    # budget at the first trie node, before any state or edge is named
    p = MarkerParams("e0", ("e0",), ("e0", "e1", "e2"), A=2, C=1, N=3, K=10**6)
    gallery = [("e0", "e0", "e0"), ("e0", "e1", "e2")]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted) as exc:
            build_marker_sft(p, gallery)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == markers.BUDGET_MESSAGE
    assert peak < 64 * 1024


# === marker entropy ===

def test_marker_block_entropy_with_equal_block_lengths():
    # both blocks are 20 long, so the schema is {20: 2 G} with G = 2^2:
    # 8 x^20 = 1, an exact root of x^20 - 8, whose entropy is log(8) / 20
    p = MarkerParams("e0", ("e0", "e1", "e2"), ("e0", "e0", "e0"), A=2, C=1, N=4, K=2)
    m1, m2 = p.marker_words()
    assert len(m1) + p.K * p.N == len(m2) + p.K * p.N == 20
    h = marker_block_entropy(p, 2)
    assert h.minpoly == (-8,) + (0,) * 19 + (1,)
    assert abs(float(h) - math.log(8) / 20) < 1e-12
    gallery = [("e0", "e0", "e1", "e2"), ("e0", "e1", "e2", "e0")]
    g, _ = build_marker_sft(p, gallery)
    assert compare_entropy(h, perron_entropy(prune_to_biinfinite(g))) == "eq"


def test_domain_component_entropy_is_computed_once(monkeypatch):
    calls = []

    def counting(c, *args):
        calls.append(len(c.vertices))
        return perron_entropy(c, *args)

    monkeypatch.setattr(markers, "perron_entropy", counting)
    cert = synthesize_injective_subsystem(even_code(), point(Fraction(1, 4)))
    assert cert.tier == "marker"
    assert calls.count(3) == 1


# === loop words: one path list, one substring search ===

def _loops_at_by_tuples(g, base, length, cap):
    """The stack search markers._loops_at replaced: each stack entry carries
    its whole word, extended by tuple concatenation."""
    idx = g.index()
    b = idx.pos[base]
    out = []
    stack = [(b, (b,))]
    while stack and len(out) < cap:
        v, word = stack.pop()
        if len(word) == length:
            if any(w == b for w, _ in idx.succ[v]):
                out.append(tuple(idx.order[i] for i in word))
            continue
        for w, _ in idx.succ[v]:
            stack.append((w, word + (w,)))
    return out


def _gallery_by_slices(lg, base, N, ell_label):
    """The gallery filter markers._gallery replaced: label words as tuples,
    the run test one slice comparison per offset."""
    loops = _loops_at_by_tuples(lg.domain, base, N, markers.GALLERY_CAP)
    run_cap = max(1, (N // 2) // max(1, len(ell_label)))
    needle = ell_label * (run_cap + 1)
    out, seen = [], set()
    for w in loops:
        lab = tuple(lg.label(v) for v in w)
        word = lab + lab
        if lab in seen or any(
            word[i : i + len(needle)] == needle for i in range(len(word) - len(needle) + 1)
        ):
            continue
        seen.add(lab)
        out.append(w)
    return out


def test_loop_search_and_gallery_equal_the_tuple_versions():
    rng = random.Random(4100)
    loops = galleries = 0
    for _ in range(120):
        vs, edges = random_strongly_connected(rng, n_max=7)
        if rng.random() < 0.3:  # a vertex with no successors
            vs = vs + ["sink"]
            edges = edges + [(rng.choice(vs[:-1]), "sink")]
        g = FiniteGraph(tuple(vs), tuple(edges))
        # labels of one and of two characters: "ab" is one symbol, not "a" then "b"
        lg = BlockCode(g, tuple((v, rng.choice(("a", "b", "ab"))) for v in vs))
        base = rng.choice(vs)
        for length in range(1, 9):
            cap = rng.choice((1, 5, 64, 10**6))
            want = _loops_at_by_tuples(g, base, length, cap)
            assert markers._loops_at(g, base, length, cap) == want, (vs, edges, base, length)
            loops += len(want)
        for N in range(2, 9):
            ell = tuple(rng.choice(("a", "b", "ab")) for _ in range(rng.randint(1, 3)))
            want = _gallery_by_slices(lg, base, N, ell)
            assert markers._gallery(lg, base, N, ell) == want, (vs, edges, base, N, ell)
            galleries += len(want)
    assert loops > 2000 and galleries > 1000
