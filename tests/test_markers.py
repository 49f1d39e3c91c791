"""Injective subsystem synthesis: tier selection, marker block structure,
and the certified entropy of the built presentations.
"""

import math
import time
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

from helpers import LOG2, two_length_growth_rate


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
