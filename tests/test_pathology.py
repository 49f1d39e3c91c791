"""Loop-count-invisible entropy: construction shape, first-return structure,
block identifiability, and the certification report.
"""

import itertools
from fractions import Fraction
from itertools import islice

import pytest

from borelshift import (
    BlockCode,
    BudgetExhausted,
    FiniteGraph,
    PathologySpec,
    base_words,
    build_pathology_graph,
    certify_pathology,
    choose_pathology_parameters,
    control_parameters,
    first_return_counts,
)
from borelshift import pathology
from borelshift.pathology import (
    SIZE_CAP,
    WINDOW_CAP,
    _sampled_pairs,
    anchored_lifts,
    count_label_paths,
    word_counts,
)


def golden_base() -> FiniteGraph:
    return FiniteGraph(("0", "1"), (("0", "0"), ("0", "1"), ("1", "0")))


def depth2_spec() -> PathologySpec:
    return PathologySpec(golden_base(), 5, (7, 8))


# === base words ===

def test_base_word_counts_are_fibonacci():
    base = golden_base()
    assert [len(base_words(base, k)) for k in range(1, 6)] == [2, 3, 5, 8, 13]


def test_base_words_are_sorted_paths():
    # the second base declares its vertices out of name order
    for base in (golden_base(), FiniteGraph(("1", "2", "0"), (("0", "0"), ("0", "1"), ("1", "0"), ("1", "2"), ("2", "0")))):
        edges = set(base.edges)
        want = [
            w for w in itertools.product(sorted(base.vertices), repeat=4)
            if all((u, v) in edges for u, v in zip(w, w[1:]))
        ]
        assert base_words(base, 4) == want


def test_word_counts_equal_the_word_lists():
    # golden mean, vertices out of name order, and a sink that ends words
    bases = (
        golden_base(),
        FiniteGraph(("1", "2", "0"), (("0", "0"), ("0", "1"), ("1", "0"), ("1", "2"), ("2", "0"))),
        FiniteGraph(("0", "1", "3"), (("0", "0"), ("0", "1"), ("1", "0"), ("1", "3"))),
    )
    for base in bases:
        assert list(islice(word_counts(base), 6)) == [len(base_words(base, k)) for k in range(1, 7)]


# === spec validation ===

def test_spec_rejects_connector_multiple_of_M():
    with pytest.raises(ValueError):
        PathologySpec(golden_base(), 5, (10,))


def test_spec_rejects_duplicate_return_lengths():
    # 2*1 + 7 == 2*2 + 5
    with pytest.raises(ValueError):
        PathologySpec(golden_base(), 3, (7, 5))


def test_spec_rejects_return_length_equal_to_M():
    with pytest.raises(ValueError):
        PathologySpec(golden_base(), 9, (7,))


def test_spec_rejects_marker_symbol_in_base():
    bad = FiniteGraph(("0", "2"), (("0", "0"), ("0", "2"), ("2", "0")))
    with pytest.raises(ValueError):
        PathologySpec(bad, 5, (7,))


def test_spec_rejects_parallel_base_edges():
    bad = FiniteGraph(("0",), (("0", "0"), ("0", "0")))
    with pytest.raises(ValueError):
        PathologySpec(bad, 5, (7,))


def test_spec_rejects_empty_levels_and_small_M():
    with pytest.raises(ValueError):
        PathologySpec(golden_base(), 0, (7,))
    with pytest.raises(ValueError):
        PathologySpec(golden_base(), 5, ())


# === built graph ===

def test_depth2_graph_shape():
    code = build_pathology_graph(depth2_spec())
    g = code.domain
    assert len(g.vertices) == 102
    assert len(g.edges) == 115
    assert "r" in g.vertices
    assert set(dict(code.mapping).values()) == {"0", "1", "2"}


def test_size_counts_the_built_presentation():
    # exact when every base vertex has a successor and a predecessor; a
    # sink's words do not all extend into the trees, so it is a bound there
    specs = [depth2_spec(), PathologySpec(golden_base(), 3, (4, 5))]
    for depth in (1, 3, 5):
        specs.append(choose_pathology_parameters(golden_base(), Fraction(3, 10), depth, 12))
        specs.append(control_parameters(golden_base(), depth))
    for spec in specs:
        g = build_pathology_graph(spec).domain
        assert spec.size() == len(g.vertices) + len(g.edges)
    sink = FiniteGraph(("0", "1", "3"), (("0", "0"), ("0", "1"), ("1", "0"), ("1", "3")))
    spec = PathologySpec(sink, 5, (7, 8, 9))
    g = build_pathology_graph(spec).domain
    assert spec.size() > len(g.vertices) + len(g.edges)


def test_over_budget_flags_are_refused_before_building(monkeypatch):
    def build(spec):
        raise AssertionError("built past the budget")

    monkeypatch.setattr(pathology, "build_pathology_graph", build)
    eps = Fraction(3, 10)
    # depth 9 makes 838,696 vertices plus edges, depth 8 makes 307,633
    deep = choose_pathology_parameters(golden_base(), eps, 9, 40)
    with pytest.raises(BudgetExhausted):
        certify_pathology(deep, eps, 40)
    assert choose_pathology_parameters(golden_base(), eps, 8, 40).size() <= SIZE_CAP
    with pytest.raises(BudgetExhausted):
        certify_pathology(depth2_spec(), eps, WINDOW_CAP + 1)
    for choose in (control_parameters, lambda base, depth: choose_pathology_parameters(base, eps, depth)):
        with pytest.raises(BudgetExhausted):
            choose(golden_base(), SIZE_CAP + 1)


def test_first_returns_match_formula():
    spec = depth2_spec()
    code = build_pathology_graph(spec)
    assert spec.return_lengths() == [(5, 1), (9, 4), (12, 9)]
    counts = first_return_counts(code.domain, "r", 14)
    assert [(n, c) for n, c in enumerate(counts) if c] == spec.return_lengths()


# === label-path counting ===

def label_paths_by_brute_force(code, length):
    """(start state, end state, label word) of every edge path of the length."""
    g = code.domain
    sym = dict(code.mapping)
    by_name = dict(zip(g.edge_names, g.edges))
    paths = [((u,), ()) for u in g.vertices]
    for _ in range(length):
        nxt = []
        for verts, word in paths:
            for name, (a, b) in by_name.items():
                if a == verts[-1]:
                    nxt.append((verts + (b,), word + (sym[name],)))
        paths = nxt
    return [(verts[0], verts[-1], word) for verts, word in paths]


def test_count_label_paths_against_exhaustive_enumeration():
    code = build_pathology_graph(PathologySpec(golden_base(), 3, (4,)))
    for length in (1, 2, 3, 4):
        brute: dict[tuple, int] = {}
        for _, _, word in label_paths_by_brute_force(code, length):
            brute[word] = brute.get(word, 0) + 1
        for word in itertools.product(("0", "1", "2"), repeat=length):
            assert count_label_paths(code, word) == brute.get(word, 0)


def test_count_label_paths_keeps_parallel_edges_apart():
    # two parallel loops labeled 1 at a, and a -> b -> a labeled 0 0
    g = FiniteGraph(("a", "b"), (("a", "a"), ("a", "a"), ("a", "b"), ("b", "a")))
    code = BlockCode(g, (("e0", "1"), ("e1", "1"), ("e2", "0"), ("e3", "0")), mode="edge")
    words = [("1",), ("1", "1"), ("1", "0"), ("0", "0", "1"), ("1", "1", "1")]
    assert [count_label_paths(code, w) for w in words] == [2, 4, 2, 2, 8]


def test_count_label_paths_empty_word_counts_states():
    code = build_pathology_graph(depth2_spec())
    assert count_label_paths(code, ()) == len(code.domain.vertices)


# === anchored lifts ===

def test_bordered_blocks_lift_uniquely():
    spec = depth2_spec()
    code = build_pathology_graph(spec)
    # level-k excursion blocks, flanked by base words of length k
    words = [
        wp + ("2",) * m + wm
        for k, m in enumerate(spec.m_seq, start=1)
        for wp in base_words(spec.base, k)
        for wm in base_words(spec.base, k)
    ]
    # root blocks, flanked by single symbols
    words += [(s,) + ("2",) * spec.M + (s2,) for s, s2 in itertools.product("01", repeat=2)]
    assert len(words) == 17
    assert anchored_lifts(code, words) == [1] * len(words)


def test_unrealized_run_length_has_no_lift():
    spec = depth2_spec()
    code = build_pathology_graph(spec)
    # no connector has 6 marker edges and 6 is not a multiple of M = 5
    assert anchored_lifts(code, [("0",) + ("2",) * 6 + ("0",)]) == [0]


def test_anchored_lifts_against_exhaustive_enumeration():
    code = build_pathology_graph(PathologySpec(golden_base(), 3, (4,)))
    g = code.domain
    sym = dict(code.mapping)
    marks = [e for name, e in zip(g.edge_names, g.edges) if sym[name] == "2"]
    after_mark = {v for _, v in marks}
    before_mark = {u for u, _ in marks}
    words = []
    brute: dict[tuple, int] = {}
    for length in range(1, 6):
        words += itertools.product(("0", "1", "2"), repeat=length)
        for start, end, word in label_paths_by_brute_force(code, length):
            if start in after_mark and end in before_mark:
                brute[word] = brute.get(word, 0) + 1
    assert max(brute.values()) > 1  # counts beyond 0 and 1 are exercised
    assert anchored_lifts(code, words) == [brute.get(w, 0) for w in words]


def test_unanchored_run_is_ambiguous():
    code = build_pathology_graph(depth2_spec())
    # a 0 entering a 2-run: 1 start at the root plus 2 at t0, 3 at t00,
    # 3 at t10 via the connector entries
    assert count_label_paths(code, ("0", "2")) == 9


# === certification report ===

def test_certify_depth2_window8():
    spec = depth2_spec()
    rep = certify_pathology(spec, Fraction(3, 10), window=8)
    assert rep.states == 102
    assert rep.return_counts_match
    # only the M-loop fits in the window, so the estimate collapses to 0
    assert rep.estimate == 0.0
    assert rep.estimate_below_eps
    assert rep.gap_certified
    assert 0.2 < float(rep.hidden_entropy) < 0.3
    assert rep.bordered_unique and rep.bordered_failures == ()
    # 4 level-1 pairs + 9 level-2 pairs + 4 root blocks
    assert rep.bordered_checked == 17
    assert rep.ambiguous_witness == ("0", "2")
    assert rep.witness_lifts >= 2


def test_multi_character_symbols_name_distinct_nodes():
    # the words (a, b) and (ab,) spell the same characters; each still gets
    # its own tree node and connector, so the presentation has every state
    base = FiniteGraph(("a", "b", "ab"),
                       (("a", "a"), ("a", "b"), ("b", "a"), ("b", "ab"), ("ab", "a")))
    spec = choose_pathology_parameters(base, Fraction(3, 10), 2, 12)
    g = build_pathology_graph(spec).domain
    assert spec.size() == len(g.vertices) + len(g.edges) == 806
    rep = certify_pathology(spec, Fraction(3, 10), window=12)
    assert rep.states == 386
    assert rep.return_counts_match and rep.bordered_unique
    assert rep.estimate_below_eps and rep.gap_certified


def test_colliding_connector_lengths_are_detected():
    # equal 2-run lengths at two levels let a level-2 block re-parse through
    # the co-tree, the root, and a level-1 connector
    spec = PathologySpec(golden_base(), 5, (7, 7))
    rep = certify_pathology(spec, Fraction(3, 10), window=8)
    assert not rep.bordered_unique
    assert any("level 2" in f for f in rep.bordered_failures)


# === parameter choice ===

def test_chosen_parameters_hide_every_excursion():
    spec = choose_pathology_parameters(golden_base(), Fraction(3, 10), depth=3, window=12)
    assert spec.M == 5
    totals = [2 * k + m for k, m in enumerate(spec.m_seq, start=1)]
    assert all(t > 12 for t in totals)
    assert len(set(totals)) == len(totals)
    assert len(set(spec.m_seq)) == len(spec.m_seq)
    assert all(m % spec.M != 0 and m != spec.M for m in spec.m_seq)


def test_control_parameters_hide_nothing():
    ctrl = control_parameters(golden_base(), depth=3)
    assert ctrl.M == 2
    assert all(m == 1 for m in ctrl.m_seq)
    rep = certify_pathology(ctrl, Fraction(3, 10), window=12)
    assert rep.return_counts_match
    assert rep.estimate >= 0.3
    assert not rep.estimate_below_eps
    # visibility is bought by giving up block identifiability
    assert not rep.bordered_unique


# === pair sampling ===

def test_sampled_pairs_cap_and_determinism():
    ws = base_words(golden_base(), 3)
    full = _sampled_pairs(ws, 1000)
    assert len(full) == len(ws) ** 2
    capped = _sampled_pairs(ws, 6)
    assert len(capped) <= 6
    assert capped == _sampled_pairs(ws, 6)
    assert set(capped) <= set(full)
