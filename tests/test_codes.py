"""1-block codes on the golden mean shift, checked against hand derivations.

The running example maps the golden mean edge shift onto the even shift:
edges a->a = "1", a->b = "0", b->a = "0", so 1s are separated by runs of 0s
of even length.
"""

import itertools
import random
import time
from collections import Counter
from math import factorial

import pytest

from borelshift import (
    BlockCode,
    BudgetExhausted,
    FiniteGraph,
    ParseError,
    SymbolRelation,
    build_fibered_product_Fm,
    check_finite_to_one,
    check_injective,
    compare_entropy,
    extract_tilde_Xm,
    format_code,
    format_relation,
    full_shift_graph,
    golden_mean_graph,
    image_entropy,
    image_words,
    label_fiber_product,
    minimal_relation,
    parse_code,
    parse_relation,
    perron_entropy,
    prune_to_biinfinite,
    quotient_psi,
    verify_bowen_relation,
)

from helpers import (
    is_even_shift_word,
    label_pair_product,
    line_graph_edges,
    quotient_flags,
    related_tuple_graph,
)


def even_code() -> BlockCode:
    g = golden_mean_graph()  # edges e0: a->a, e1: a->b, e2: b->a
    return BlockCode(g, (("e0", "1"), ("e1", "0"), ("e2", "0")), mode="edge")


def identity_code() -> BlockCode:
    g = golden_mean_graph()
    return BlockCode(g, (("a", "a"), ("b", "b")), mode="vertex")


# === structural plumbing ===

def test_labeled_line_graph_of_edge_code():
    lg = even_code().labeled()
    assert sorted(lg.domain.vertices) == ["e0", "e1", "e2"]
    # line graph: e follows f when head(f) = tail(e)
    assert ("e0", "e1") in lg.domain.edges
    assert ("e1", "e2") in lg.domain.edges
    assert ("e2", "e0") in lg.domain.edges
    assert ("e1", "e1") not in lg.domain.edges
    assert lg.label("e0") == "1" and lg.label("e1") == "0"
    assert lg.alphabet() == ("0", "1")


def test_vertex_mode_rejects_parallel_edges():
    g = FiniteGraph(("u",), (("u", "u"), ("u", "u")))
    with pytest.raises(ValueError):
        BlockCode(g, (("u", "x"),), mode="vertex")


def test_mapping_must_cover_keys():
    g = golden_mean_graph()
    with pytest.raises(ValueError):
        BlockCode(g, (("e0", "1"),), mode="edge")
    with pytest.raises(ValueError):
        BlockCode(g, (("a", "x"),), mode="vertex")


def test_prune_to_biinfinite_removes_transients():
    g = FiniteGraph.from_edges([("a", "a"), ("a", "m"), ("m", "z"), ("z", "z")])
    pruned = prune_to_biinfinite(g)
    # m sits on a one-way street between two loops: it does survive, since it
    # extends to a bi-infinite path through a ... m ... z
    assert set(pruned.vertices) == {"a", "m", "z"}
    g2 = FiniteGraph.from_edges([("a", "a"), ("a", "dead")])
    assert set(prune_to_biinfinite(g2).vertices) == {"a"}


def test_label_fiber_product_diagonal_always_present():
    lg = even_code().labeled()
    prod = prune_to_biinfinite(label_fiber_product(lg, lg))
    verts = set(prod.vertices)
    assert {"e0|e0", "e1|e1", "e2|e2"} <= verts
    # equal labels only: e0 (label 1) never pairs with e1 (label 0)
    assert "e0|e1" not in verts
    assert "e1|e2" in verts and "e2|e1" in verts


# === injectivity ===

def test_identity_code_injective():
    assert check_injective(identity_code()).injective


def test_even_code_not_injective_with_periodic_witness():
    rep = check_injective(even_code())
    assert not rep.injective
    assert rep.periodic
    first, second = rep.witness
    assert first != second
    lg = even_code().labeled()
    assert [lg.label(v) for v in first] == [lg.label(v) for v in second]
    # witness paths are genuine paths of the line graph
    for path in (first, second):
        for u, w in zip(path, path[1:]):
            assert w in lg.domain.successors(u)
    # the cycle closes up: last vertex connects back to the first
    for path in (first, second):
        assert path[0] in lg.domain.successors(path[-1])


def test_injective_after_symbol_split():
    # distinguishing the two 0-edges restores injectivity
    g = golden_mean_graph()
    code = BlockCode(g, (("e0", "1"), ("e1", "0"), ("e2", "2")), mode="edge")
    assert check_injective(code).injective


# === finite-to-one ===

def test_even_code_finite_to_one():
    rep = check_finite_to_one(even_code())
    assert rep.finite_to_one
    assert rep.diamond is None


def test_collapsing_code_infinite_to_one():
    code = BlockCode(full_shift_graph("ab"), (("a", "0"), ("b", "0")), mode="vertex")
    rep = check_finite_to_one(code)
    assert not rep.finite_to_one
    first, second = rep.diamond
    assert first != second
    assert first[0] == second[0] and first[-1] == second[-1]
    lg = code.labeled()
    assert [lg.label(v) for v in first] == [lg.label(v) for v in second]


# === the sofic image ===

def test_image_words_match_even_shift_language():
    code = even_code()
    for n in range(1, 9):
        got = {"".join(w) for w in image_words(code, n)}
        want = {
            "".join(bits)
            for bits in itertools.product("01", repeat=n)
            if is_even_shift_word("".join(bits))
        }
        assert got == want


def test_image_entropy_of_even_shift_is_golden():
    h = image_entropy(even_code())
    assert compare_entropy(h, perron_entropy(golden_mean_graph())) == "eq"


def test_image_entropy_of_collapsed_code_is_zero():
    code = BlockCode(full_shift_graph("ab"), (("a", "0"), ("b", "0")), mode="vertex")
    assert float(image_entropy(code)) == 0.0


# === symbol relations and the compatibility check ===

def test_minimal_relation_frozen_value():
    rel = minimal_relation(even_code())
    assert rel.pairs == frozenset(
        [("e0", "e0"), ("e1", "e1"), ("e2", "e2"), ("e1", "e2"), ("e2", "e1")]
    )


def test_bowen_holds_for_minimal_relation():
    code = even_code()
    rep = verify_bowen_relation(code, minimal_relation(code))
    assert rep.holds and rep.complete and rep.label_equal
    assert rep.symmetric and rep.reflexive
    assert rep.failures == ()


def test_bowen_detects_missing_pair():
    code = even_code()
    rel = SymbolRelation.of(
        [("e0", "e0"), ("e1", "e1"), ("e2", "e2"), ("e2", "e1")]
    )
    rep = verify_bowen_relation(code, rel)
    assert not rep.holds
    assert not rep.complete
    assert not rep.symmetric
    assert any("e1" in f for f in rep.failures)


def test_bowen_detects_cross_label_pair():
    code = even_code()
    rel = SymbolRelation.of(
        list(minimal_relation(code).pairs) + [("e0", "e1"), ("e1", "e0")]
    )
    rep = verify_bowen_relation(code, rel)
    assert not rep.holds
    assert not rep.label_equal
    assert rep.complete  # still contains every extendable pair


def test_identity_relation_on_injective_code():
    code = identity_code()
    rel = minimal_relation(code)
    assert rel.pairs == frozenset([("a", "a"), ("b", "b")])
    assert verify_bowen_relation(code, rel).holds


# === fibered products and the quotient map ===

def test_fibered_product_F2_of_even_code():
    code = even_code()
    rel = minimal_relation(code)
    f2 = build_fibered_product_Fm(code, rel, 2)
    assert sorted(f2.vertices) == ["e0,e0", "e1,e1", "e1,e2", "e2,e1", "e2,e2"]
    # componentwise edges: (e1,e2) -> (e2,e0) needs rel(e2,e0), absent
    assert ("e1,e2", "e2,e1") in f2.edges
    assert ("e0,e0", "e1,e1") in f2.edges


def test_fibered_product_F1_is_domain():
    code = even_code()
    rel = minimal_relation(code)
    f1 = build_fibered_product_Fm(code, rel, 1)
    assert sorted(f1.vertices) == ["e0", "e1", "e2"]
    assert len(f1.edges) == len(code.labeled().domain.edges)


def test_distinct_entry_product_and_quotient():
    code = even_code()
    rel = minimal_relation(code)
    x2 = extract_tilde_Xm(code, rel, 2)
    assert sorted(x2.vertices) == ["e1,e2", "e2,e1"]
    rep = quotient_psi(x2, 2)
    assert rep.right_resolving and rep.left_resolving
    assert rep.fibers_complete
    assert rep.preimage_count == 2
    assert rep.failures == ()


def test_quotient_psi_empty_beyond_multiplicity():
    code = even_code()
    rel = minimal_relation(code)
    rep = quotient_psi(extract_tilde_Xm(code, rel, 3), 3)
    assert rep.preimage_count is None
    assert "empty" in rep.failures[0]


def test_fibered_product_past_tuple_cap_raises_quickly():
    code = even_code()  # F_m has 2^m + 1 states
    start = time.perf_counter()
    with pytest.raises(BudgetExhausted, match="TUPLE_CAP"):
        build_fibered_product_Fm(code, minimal_relation(code), 40)
    assert time.perf_counter() - start < 5.0


def test_label_fiber_product_is_pruned_and_keeps_coordinates():
    # c is transient: it has no predecessor
    g = FiniteGraph(("c", "a", "b"), (("c", "a"), ("a", "b"), ("b", "a"), ("a", "a")))
    code = BlockCode(g, (("a", "x"), ("b", "x"), ("c", "x")), mode="vertex")
    lg = code.labeled()
    prod = label_fiber_product(lg, lg)
    assert prod.vertices == prune_to_biinfinite(prod).vertices
    assert prod.vertices == ("a|a", "a|b", "b|a", "b|b")
    assert prod.tuples == (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))


# === products against brute force ===

NAME_POOL = ("a", "b1", "b10", "b2", "c", "x9", "x10", "z", "e0", "e1")


def random_code(rng: random.Random, mode: str) -> BlockCode:
    """Small random code, its names in non-sorted order.

    Some domains are two or (in vertex mode) three equally labeled copies of
    one graph, maybe joined by one more edge, so that larger fibers occur.
    """
    # three copies of an edge-mode domain make the brute-force products slow
    copies = rng.choice((1, 1, 2, 3) if mode == "vertex" else (1, 1, 2, 2))
    suffixes = ("",) if copies == 1 else "ABC"[:copies]
    symbols = "pqr"[: rng.randint(2, 3)]
    if mode == "vertex":
        base = rng.sample(NAME_POOL, rng.randint(2, 5 if copies == 1 else 2))
        base_edges = {(rng.choice(base), rng.choice(base)) for _ in range(rng.randint(2, 3 * len(base)))}
        base_labels = {v: rng.choice(symbols) for v in base}
        labels = {v + s: base_labels[v] for v in base for s in suffixes}
        vs = [v + s for s in suffixes for v in base]
        edges = {(u + s, w + s) for s in suffixes for u, w in base_edges}
        if copies > 1 and rng.random() < 0.5:
            edges.add((rng.choice(vs), rng.choice(vs)))
        rng.shuffle(vs)
        return BlockCode(FiniteGraph(tuple(vs), tuple(sorted(edges))),
                         tuple((v, labels[v]) for v in vs), mode)
    base = [f"v{i}" for i in range(rng.randint(1, 3))]
    base_edges = [(rng.choice(base), rng.choice(base)) for _ in range(rng.randint(1, 4 // copies))]
    base_edges += [base_edges[0], (base[-1], base[-1])]  # a parallel edge and a self-loop
    rng.shuffle(base_edges)
    base_names = rng.sample(NAME_POOL, len(base_edges))
    base_labels = [rng.choice(symbols) for _ in base_edges]
    vs, edges, keys, mapping = [v + s for s in suffixes for v in base], [], [], []
    for s in suffixes:
        for (u, w), name, sym in zip(base_edges, base_names, base_labels):
            edges.append((u + s, w + s))
            keys.append(name + s)
            mapping.append((name + s, sym))
    if copies > 1 and rng.random() < 0.5:
        edges.append((rng.choice(vs), rng.choice(vs)))
        keys.append("y")
        mapping.append(("y", rng.choice(symbols)))
    return BlockCode(FiniteGraph(tuple(vs), tuple(edges), tuple(keys)), tuple(mapping), mode)


def names(ts, sep=","):
    return [sep.join(t) for t in ts]


def parts(lg: BlockCode) -> tuple:
    return list(lg.domain.vertices), list(lg.domain.edges), dict(lg.mapping)


def assert_label_product(a: BlockCode, b: BlockCode, note) -> tuple:
    """`label_fiber_product(a, b)` equals the brute force as built: pair order,
    `u|v` names, coordinates, sorted edges and `e<k>` edge names."""
    pairs, pair_edges = label_pair_product(parts(a), parts(b))
    prod = label_fiber_product(a, b)
    assert list(prod.vertices) == names(pairs, "|"), note
    assert list(prod.tuples) == pairs, note
    assert list(prod.edges) == sorted(zip(names((p for p, _ in pair_edges), "|"),
                                          names((q for _, q in pair_edges), "|"))), note
    assert list(prod.edge_names) == [f"e{k}" for k in range(len(pair_edges))], note
    return pairs


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_products_match_brute_force(mode):
    for seed in range(50):
        rng = random.Random(seed)
        code = random_code(rng, mode)
        lg = code.labeled()
        if mode == "edge":
            named = [(n, u, w) for n, (u, w) in zip(code.domain.edge_names, code.domain.edges)]
            assert lg.domain.vertices == code.domain.edge_names, seed
            assert list(lg.domain.edges) == line_graph_edges(named), seed
        vertices, edges = list(lg.domain.vertices), list(lg.domain.edges)
        labels = dict(code.mapping)

        pairs = assert_label_product(lg, lg, seed)
        assert minimal_relation(code).pairs == frozenset(pairs), seed

        # the minimal relation, all label-equal pairs, or random pairs
        rel = [
            set(pairs),
            {(u, v) for u in vertices for v in vertices if labels[u] == labels[v]},
            {(u, v) for u in vertices for v in vertices if rng.random() < 0.4},
        ][seed % 3]
        srel = SymbolRelation.of(rel)
        for m in (1, 2, 3):
            tuples, t_edges, _ = related_tuple_graph(vertices, edges, rel, m)
            fm = build_fibered_product_Fm(code, srel, m)
            assert list(fm.vertices) == sorted(names(tuples)), (seed, m)
            assert list(fm.edges) == sorted(
                zip(names(t for t, _ in t_edges), names(s for _, s in t_edges))), (seed, m)
        for m in (2, 3):
            tuples, t_edges, alive = related_tuple_graph(vertices, edges, rel, m, wired=True)
            xm = extract_tilde_Xm(code, srel, m)
            kept = set(names(alive))
            assert list(xm.vertices) == sorted(kept), (seed, m)
            every = sorted(zip(names(t for t, _ in t_edges), names(s for _, s in t_edges)))
            # a pruned product keeps each edge's name from the unpruned one
            want = [(f"e{k}", e) for k, e in enumerate(every) if e[0] in kept and e[1] in kept]
            assert list(zip(xm.edge_names, xm.edges)) == want, (seed, m)
            flags = quotient_flags(alive, t_edges)
            rep = quotient_psi(xm, m)
            got = {k: getattr(rep, k) for k in flags}
            assert got == flags, (seed, m)
            assert rep.preimage_count == (factorial(m) if all(flags.values()) else None)


def test_label_fiber_product_of_two_graphs():
    """Distinct graphs, so `a`'s block offsets and `b`'s bucket ranks differ:
    different sizes, a label on one side only, and a side with no bi-infinite
    part (then the product is empty)."""
    shapes = Counter()
    for seed in range(60):
        rng = random.Random(1000 + seed)
        a = random_code(rng, rng.choice(("vertex", "edge"))).labeled()
        b = random_code(rng, rng.choice(("vertex", "edge"))).labeled()
        if seed % 3 == 1:
            (v, _), *rest = b.mapping
            b = BlockCode(b.domain, ((v, "only"), *rest))
        elif seed % 3 == 2:
            # keep only edges forward in vertex order: b is acyclic
            at = {v: k for k, v in enumerate(b.domain.vertices)}
            forward = tuple((u, w) for u, w in b.domain.edges if at[u] < at[w])
            b = BlockCode(FiniteGraph(b.domain.vertices, forward), b.mapping)
        if rng.random() < 0.5:
            a, b = b, a
        pairs = assert_label_product(a, b, seed)
        if seed % 3 == 2:
            assert pairs == [], seed
        elif pairs and len(a.domain.vertices) != len(b.domain.vertices):
            shapes["sizes differ"] += 1
            shapes["one-sided label"] += seed % 3 == 1
    assert shapes["sizes differ"] >= 10 and shapes["one-sided label"] >= 3, shapes


def test_line_graph_of_16000_edges_is_linear():
    rng = random.Random(16000)
    vs = [f"v{i}" for i in range(4000)]
    g = FiniteGraph(tuple(vs), tuple((rng.choice(vs), rng.choice(vs)) for _ in range(16000)))
    code = BlockCode(g, tuple((e, rng.choice("01")) for e in g.edge_names), mode="edge")
    start = time.perf_counter()
    lg = code.labeled()
    assert time.perf_counter() - start < 5.0
    outdeg = {v: 0 for v in vs}
    for u, _ in g.edges:
        outdeg[u] += 1
    assert len(lg.domain.edges) == sum(outdeg[w] for _, w in g.edges)


# === document round trips ===

def test_code_document_round_trip():
    code = even_code()
    text = format_code(code)
    assert parse_code(text) == code
    vcode = identity_code()
    assert parse_code(format_code(vcode)) == vcode


def test_relation_document_round_trip():
    rel = minimal_relation(even_code())
    assert parse_relation(format_relation(rel)) == rel


def test_parse_code_errors():
    with pytest.raises(ParseError):
        parse_code("")
    with pytest.raises(ParseError):
        parse_code("code diagonal\nedge a a\nmap e0 1\n")
    with pytest.raises(ParseError):
        parse_code("code edge\nedge a a\nmap e0\n")
    # mapping must cover the keys
    with pytest.raises(ParseError):
        parse_code("code edge\nedge a a\nedge a a x\nmap e0 1\n")


@pytest.mark.parametrize("text, lineno", [
    # comments and blank lines before the graph body still count
    ("code vertex\n# comment\n\nmap a 0\nvertex a\nedge a a|b\n", 6),
    ("# a code\ncode edge\nvertex a\n\nedge a a x0\n# note\nmap x0 1\n\nvertex a b\n", 9),
    ("\n\ncode vertex\nmap a 0\n", 3),  # no vertices: the header's line
])
def test_parse_code_reports_graph_errors_at_their_line(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_code(text)
    assert err.value.lineno == lineno


def test_parse_relation_errors():
    with pytest.raises(ParseError):
        parse_relation("")
    with pytest.raises(ParseError):
        parse_relation("relation\npair a\n")
