"""Loop-count-invisible entropy: construction shape, first-return structure,
block identifiability, and the certification report.
"""

import hashlib
import itertools
import random
import tracemalloc
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
from borelshift.graphs import first_returns_by_step
from borelshift.pathology import (
    SIZE_CAP,
    WINDOW_CAP,
    _sampled_pairs,
    anchored_lifts,
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

    monkeypatch.setattr(pathology, "_construct", build)
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


def unchecked_spec(base: FiniteGraph, M: int, m_seq: tuple[int, ...]) -> PathologySpec:
    """A spec that skips validation: M = 1 makes every connector length a
    multiple of M, so PathologySpec refuses it, but the builder's root loop
    is then a self-loop and the construction is still defined."""
    spec = object.__new__(PathologySpec)
    for field, value in (("base", base), ("M", M), ("m_seq", m_seq)):
        object.__setattr__(spec, field, value)
    return spec


def random_spec(rng: random.Random) -> PathologySpec:
    """A simple base graph on 1-4 symbols of one or two characters, declared
    in a shuffled order, with a random valid M and connector lengths."""
    names = rng.sample(["0", "1", "a", "b", "ab", "10", "x"], rng.randint(1, 4))
    edges = [(u, v) for u in names for v in names if rng.random() < 0.5]
    base = FiniteGraph(tuple(names), tuple(edges))
    while True:
        M = rng.randint(2, 6)
        m_seq = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3)))
        try:
            return PathologySpec(base, M, m_seq)
        except ValueError:
            pass


def construction_specs() -> list[PathologySpec]:
    """Specs over a multi-character base, an out-of-order base, a sink, a
    self-loop root, control parameters and 30 random bases."""
    multi = FiniteGraph(("a", "b", "ab"), (("a", "a"), ("a", "b"), ("b", "a"), ("b", "ab"), ("ab", "a")))
    out_of_order = FiniteGraph(("1", "3", "0"), (("0", "0"), ("0", "1"), ("1", "0"), ("1", "3"), ("3", "0")))
    sink = FiniteGraph(("0", "1", "3"), (("0", "0"), ("0", "1"), ("1", "0"), ("1", "3")))
    specs = [
        depth2_spec(),
        PathologySpec(out_of_order, 5, (7, 8)),
        choose_pathology_parameters(multi, Fraction(3, 10), 2, 12),
        PathologySpec(sink, 5, (7, 8, 9)),
        unchecked_spec(golden_base(), 1, (2, 3)),
        control_parameters(golden_base(), 3),
        control_parameters(multi, 2),
    ]
    rng = random.Random(33)
    return specs + [random_spec(rng) for _ in range(30)]


def test_arcs_and_named_graph_are_one_labeled_graph():
    # the integer arcs and the named presentation list their edges in one
    # order, so matching them arc by arc gives the bijection of positions to
    # names, which must be well defined, onto and label-preserving
    for spec in construction_specs():
        states, labels, tails, heads = pathology._construct(spec)[:4]
        arcs = list(zip(labels, tails, heads))
        code = build_pathology_graph(spec)
        g = code.domain
        sym = dict(code.mapping)
        assert len(arcs) == len(g.edges)
        name_of: dict[int, str] = {}
        for (label, i, j), (u, v), e in zip(arcs, g.edges, g.edge_names):
            assert name_of.setdefault(i, u) == u and name_of.setdefault(j, v) == v
            assert sym[e] == label
        assert sorted(name_of) == list(range(states))
        assert sorted(name_of.values()) == list(g.vertices)
        assert name_of[0] == "r"


def test_walk_first_returns_equal_the_named_graph_first_returns():
    # the certificate steps one label walk over every label; the named
    # presentation's first returns at r come from its compiled index
    for spec in construction_specs():
        walk = walk_of(spec)
        l_max = max(n for n, _ in spec.return_lengths()) + 3
        want = first_return_counts(build_pathology_graph(spec).domain, "r", l_max)
        assert first_returns_by_step(walk.step_any, 0, l_max) == want


def test_certificate_traced_peak_at_depth_6():
    # arcs held as tuples, successor rows and per-tail lists peaked at 14.7
    # MiB traced here; the compact columns and one walk take about 1.3 MiB
    spec = choose_pathology_parameters(golden_base(), Fraction(3, 10), 6, 40)
    tracemalloc.start()
    try:
        rep = certify_pathology(spec, Fraction(3, 10), 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.states == 24606 and rep.return_counts_match
    assert peak < 5 * 2**20, peak


def graph_digest(code: BlockCode) -> str:
    g = code.domain
    return hashlib.sha256(repr((g.vertices, g.edges, g.edge_names, code.mapping)).encode()).hexdigest()


def test_named_graph_bytes_are_pinned():
    # vertices, edges, edge names and mapping of three presentations, as
    # recorded before the construction moved onto integer positions
    multi = FiniteGraph(("a", "b", "ab"), (("a", "a"), ("a", "b"), ("b", "a"), ("b", "ab"), ("ab", "a")))
    sink = FiniteGraph(("0", "1", "3"), (("0", "0"), ("0", "1"), ("1", "0"), ("1", "3")))
    pinned = [
        (depth2_spec(), "28fb6d343b6e98dda5f9d61e905564c26df3a01cc32c06028cd1531948419677"),
        (choose_pathology_parameters(multi, Fraction(3, 10), 2, 12),
         "df72f5d0fca3b9929b144a2d35f88d1be0fda1e43950a3f823fdcc5051f687de"),
        (PathologySpec(sink, 5, (7, 8, 9)),
         "d0c6fe5c9481ee2f5e2c282d314ed38880168648b4d0fc35fc77442f03a059c3"),
    ]
    for spec, digest in pinned:
        assert graph_digest(build_pathology_graph(spec)) == digest


def test_first_returns_match_formula():
    spec = depth2_spec()
    code = build_pathology_graph(spec)
    assert spec.return_lengths() == [(5, 1), (9, 4), (12, 9)]
    counts = first_return_counts(code.domain, "r", 14)
    assert [(n, c) for n, c in enumerate(counts) if c] == spec.return_lengths()


# === label-path counting ===

def walk_of(spec: PathologySpec):
    """The label walk of the construction, built as certify_pathology builds it."""
    return pathology._LabelWalk(*pathology._construct(spec)[:4])


def count_paths(walk, word) -> int:
    """Number of paths whose arcs spell the non-empty word, by the walk."""
    cnt = walk.start(None, word[0])
    for letter in word[1:]:
        cnt = walk.step(cnt, letter)
    return sum(cnt.values())


def label_paths_by_brute_force(code, length):
    """(start state, end state, label word) of every edge path of the length."""
    g = code.domain
    sym = dict(code.mapping)
    out: dict[str, list[tuple[str, str]]] = {}
    for name, (a, b) in zip(g.edge_names, g.edges):
        out.setdefault(a, []).append((b, sym[name]))
    paths = [((u,), ()) for u in g.vertices]
    for _ in range(length):
        paths = [(verts + (b,), word + (s,)) for verts, word in paths for b, s in out.get(verts[-1], ())]
    return [(verts[0], verts[-1], word) for verts, word in paths]


def anchored_by_brute_force(code, lengths):
    """Lifts of every label word of the lengths that start where a 2-labeled
    arc ends and end where one starts, counted path by path."""
    g = code.domain
    sym = dict(code.mapping)
    marks = [e for name, e in zip(g.edge_names, g.edges) if sym[name] == "2"]
    after_mark, before_mark = {v for _, v in marks}, {u for u, _ in marks}
    brute: dict[tuple, int] = {}
    for length in lengths:
        for start, end, word in label_paths_by_brute_force(code, length):
            if start in after_mark and end in before_mark:
                brute[word] = brute.get(word, 0) + 1
    return brute


def parallel_code(loop_label: str):
    """Two parallel loops at a carrying loop_label, and a -> b -> a labeled 0 0:
    the code, and the label walk built from its own columns."""
    g = FiniteGraph(("a", "b"), (("a", "a"), ("a", "a"), ("a", "b"), ("b", "a")))
    labels = (loop_label, loop_label, "0", "0")
    code = BlockCode(g, tuple((f"e{i}", s) for i, s in enumerate(labels)), mode="edge")
    vertices, tails, heads, _ = g.columns
    return code, pathology._LabelWalk(len(vertices), labels, tails, heads)


def test_count_label_paths_against_exhaustive_enumeration():
    spec = PathologySpec(golden_base(), 3, (4,))
    code, walk = build_pathology_graph(spec), walk_of(spec)
    for length in (1, 2, 3, 4):
        brute: dict[tuple, int] = {}
        for _, _, word in label_paths_by_brute_force(code, length):
            brute[word] = brute.get(word, 0) + 1
        for word in itertools.product(("0", "1", "2"), repeat=length):
            assert count_paths(walk, word) == brute.get(word, 0)


def test_count_label_paths_keeps_parallel_edges_apart():
    _, walk = parallel_code("1")
    words = [("1",), ("1", "1"), ("1", "0"), ("0", "0", "1"), ("1", "1", "1")]
    assert [count_paths(walk, w) for w in words] == [2, 4, 2, 2, 8]


# === anchored lifts ===

def test_bordered_blocks_lift_uniquely():
    spec = depth2_spec()
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
    assert anchored_lifts(walk_of(spec), words) == [1] * len(words)


def test_unrealized_run_length_has_no_lift():
    # no connector has 6 marker edges and 6 is not a multiple of M = 5
    assert anchored_lifts(walk_of(depth2_spec()), [("0",) + ("2",) * 6 + ("0",)]) == [0]


def test_anchored_lifts_against_exhaustive_enumeration():
    spec = PathologySpec(golden_base(), 3, (4,))
    words = []
    for length in range(1, 6):
        words += itertools.product(("0", "1", "2"), repeat=length)
    brute = anchored_by_brute_force(build_pathology_graph(spec), range(1, 6))
    assert max(brute.values()) > 1  # counts beyond 0 and 1 are exercised
    assert anchored_lifts(walk_of(spec), words) == [brute.get(w, 0) for w in words]


def test_anchored_batches_equal_singleton_calls():
    # a batch shares path counts between words with a common prefix; shuffled
    # batches with duplicates, prefixes of other words, one-letter words and
    # words without a lift must give each word its own count
    spec = depth2_spec()
    blocks = [
        wp + ("2",) * m + wm
        for k, m in enumerate(spec.m_seq, start=1)
        for wp in base_words(spec.base, k)
        for wm in base_words(spec.base, k)
    ]
    prefixes = [b[:i] for b in blocks[::4] for i in range(1, len(b))]
    no_lift = [("0",) + ("2",) * 6 + ("0",), ("1", "2", "1"), ("0", "2", "1")]
    cases = [
        (build_pathology_graph(spec), walk_of(spec),
         blocks + prefixes + no_lift + [("0",), ("1",), ("2",)]),
        # the parallel loops carry the marker, so lifts through them count twice
        (*parallel_code("2"), [w for n in (1, 2, 3, 4) for w in itertools.product("02", repeat=n)]),
        (*parallel_code("1"), [("1",), ("0", "0"), ("1", "0", "0", "1")]),
    ]
    assert anchored_lifts(cases[0][1], no_lift) == [0, 0, 0]
    rng = random.Random(5)
    for code, walk, words in cases:
        brute = anchored_by_brute_force(code, {len(w) for w in words})
        batch = words + rng.sample(words, len(words) // 2)
        rng.shuffle(batch)
        assert any(a != b and a[: len(b)] == b for a in batch for b in batch)
        want = [brute.get(w, 0) for w in batch]
        assert anchored_lifts(walk, batch) == want
        assert [anchored_lifts(walk, [w])[0] for w in batch] == want
    assert max(anchored_by_brute_force(parallel_code("2")[0], [3]).values()) == 8


def test_unanchored_run_is_ambiguous():
    # a 0 entering a 2-run: 1 start at the root plus 2 at t0, 3 at t00,
    # 3 at t10 via the connector entries
    assert count_paths(walk_of(depth2_spec()), ("0", "2")) == 9


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
