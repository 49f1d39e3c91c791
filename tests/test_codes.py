"""1-block codes on the golden mean shift, checked against hand derivations.

The running example maps the golden mean edge shift onto the even shift:
edges a->a = "1", a->b = "0", b->a = "0", so 1s are separated by runs of 0s
of even length.
"""

import hashlib
import itertools
import random
import time
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
    cli,
    codes,
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


# sha256 of code_verb_outputs before label_fiber_product was cached on the code
SHARED_PRODUCT_DIGEST = "7bb095c4a96c85368b01748404f880d3772a71602cc3ec93183569065fa955a1"


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


def test_labeled_is_built_once_per_code():
    # every check on one code shares one line graph, and one label map
    code = even_code()
    lg = code.labeled()
    assert code.labeled() is lg
    ident = identity_code()
    assert lg.labeled() is lg and ident.labeled() is ident
    assert code == even_code() and hash(code) == hash(even_code())
    assert code._label_map is code._label_map == {"e0": "1", "e1": "0", "e2": "0"}


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
    prod = prune_to_biinfinite(label_fiber_product(lg))
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
            assert (u, w) in lg.domain.edges
    # the cycle closes up: last vertex connects back to the first
    for path in (first, second):
        assert (path[-1], path[0]) in lg.domain.edges


def test_non_periodic_injectivity_witness_and_diamond():
    # a -> b1 -> c and a -> b2 -> c spell 0 1 2 alike, but the pair (b1, b2)
    # lies on no cycle of the label fiber product
    g = FiniteGraph(
        ("a", "b1", "b2", "c"),
        (("a", "a"), ("a", "b1"), ("a", "b2"), ("b1", "c"), ("b2", "c"), ("c", "c")),
    )
    code = BlockCode(g, (("a", "0"), ("b1", "1"), ("b2", "1"), ("c", "2")))
    rep = check_injective(code)
    assert not rep.injective and not rep.periodic
    assert rep.witness == (("a", "a", "b1", "c", "c"), ("a", "a", "b2", "c", "c"))
    assert check_finite_to_one(code).diamond == (("a", "b1", "c"), ("a", "b2", "c"))


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
    prod = label_fiber_product(lg)
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


def lockstep_code(rng: random.Random, mode: str) -> BlockCode:
    """Small random code whose domain is hubs joined by chains, many of them
    labeled by the same word, so that pairs of chains move in lockstep.

    In vertex mode a chain's interior vertices carry the word; in edge mode
    its edges do, and one-edge chains between the same hubs are parallel
    edges.  A hub may carry a self-loop.  Vertices are declared shuffled.
    """
    hubs = [f"h{i}" for i in range(rng.randint(1, 2))]
    words = ["".join(rng.choice("pq") for _ in range(rng.randint(1, 4))) for _ in range(2)]
    vs, edges, labels = list(hubs), [], {h: rng.choice("pq") for h in hubs}
    for c in range(rng.randint(2, 3)):
        word = rng.choice(words)
        inner = [f"c{c}_{i}" for i in range(len(word) if mode == "vertex" else len(word) - 1)]
        vs += inner
        walk = [rng.choice(hubs), *inner, rng.choice(hubs)]
        if mode == "vertex":
            labels.update(zip(inner, word))
        else:  # edges are labeled by their index
            labels.update(zip(range(len(edges), len(edges) + len(word)), word))
        edges += zip(walk, walk[1:])
    if rng.random() < 0.3:
        h = rng.choice(hubs)
        labels[len(edges)] = rng.choice("pq")
        edges.append((h, h))
    rng.shuffle(vs)
    if mode == "vertex":
        edges = sorted(set(edges))
        return BlockCode(FiniteGraph(tuple(vs), tuple(edges)), tuple((v, labels[v]) for v in vs), mode)
    keys = [f"x{k}" for k in range(len(edges))]
    return BlockCode(FiniteGraph(tuple(vs), tuple(edges), tuple(keys)),
                     tuple((keys[k], labels[k]) for k in range(len(edges))), mode)


def names(ts, sep=","):
    return [sep.join(t) for t in ts]


def parts(lg: BlockCode) -> tuple:
    return list(lg.domain.vertices), list(lg.domain.edges), dict(lg.mapping)


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_products_match_brute_force(mode):
    for seed in range(100):
        rng = random.Random(seed)
        code = random_code(rng, mode) if seed < 50 else lockstep_code(rng, mode)
        lg = code.labeled()
        if mode == "edge":
            named = [(n, u, w) for n, (u, w) in zip(code.domain.edge_names, code.domain.edges)]
            assert lg.domain.vertices == code.domain.edge_names, seed
            assert list(lg.domain.edges) == line_graph_edges(named), seed
        vertices, edges = list(lg.domain.vertices), list(lg.domain.edges)
        labels = dict(code.mapping)

        # the label fiber product as built: pair order, `u|v` names,
        # coordinates, sorted edges and `e<k>` edge names
        pairs, pair_edges = label_pair_product(parts(lg), parts(lg))
        prod = label_fiber_product(lg)
        assert list(prod.vertices) == names(pairs, "|"), seed
        assert list(prod.tuples) == pairs, seed
        assert list(prod.edges) == sorted(zip(names((p for p, _ in pair_edges), "|"),
                                              names((q for _, q in pair_edges), "|"))), seed
        assert list(prod.edge_names) == [f"e{k}" for k in range(len(pair_edges))], seed
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


# === one label fiber product per code ===


@pytest.fixture
def builds(monkeypatch):
    """The codes whose label fiber product is built while a test runs."""
    got = []
    build = codes._build_label_fiber_product

    def spy(code):
        got.append(code)
        return build(code)

    monkeypatch.setattr(codes, "_build_label_fiber_product", spy)
    return got


def test_label_fiber_product_is_built_once_per_code(builds):
    code = even_code()
    assert label_fiber_product(code) is label_fiber_product(code)
    assert builds == [code]
    other = even_code()
    check_injective(other)
    check_finite_to_one(other)
    assert len(builds) == 2 and builds[1] is other
    # an equal code is another object, with a product of its own
    assert label_fiber_product(other) is not label_fiber_product(code)
    assert label_fiber_product(other).tuples == label_fiber_product(code).tuples
    assert len(builds) == 2


def test_bowen_builds_one_label_fiber_product(builds, tmp_path, capsys):
    # minimal_relation and verify_bowen_relation read one product
    path = tmp_path / "even.code"
    path.write_text(format_code(even_code()))
    assert cli.main(["bowen", str(path)]) == 0
    assert capsys.readouterr().out.startswith("# holds=true\nrelation\n")
    assert len(builds) == 1


def corpus_code(rng: random.Random, index: int, size: int) -> BlockCode:
    """A code shaped like the benchmark's: a strongly connected domain (a
    shuffled Hamiltonian cycle plus chords) labeled from about size / 5
    symbols, in vertex mode on `size` vertices or in edge mode on the edges
    of a multigraph on size / 2 vertices with some edges doubled."""
    mode = "vertex" if index % 2 == 0 else "edge"
    n = size if mode == "vertex" else size // 2
    vs = [f"q{i}" for i in range(n)]
    ring = rng.sample(vs, n)
    edges = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    edges += [(rng.choice(vs), rng.choice(vs)) for _ in range(n)]
    symbols = [str(s) for s in range(max(2, size // 5))]
    if mode == "vertex":
        edges = sorted(set(edges))
        return BlockCode(FiniteGraph(tuple(vs), tuple(edges)),
                         tuple((v, rng.choice(symbols)) for v in vs), mode)
    edges += [rng.choice(edges) for _ in range(max(1, n // 4))]
    keys = [f"x{k}" for k in range(len(edges))]
    return BlockCode(FiniteGraph(tuple(vs), tuple(edges), tuple(keys)),
                     tuple((k, rng.choice(symbols)) for k in keys), mode)


def code_verb_outputs(tmp_path, capsys) -> list:
    """Exit codes and output of `bowen` and `fiberprod --m 2` on the even
    code and on seeded codes of the benchmark's shape, with the reports of
    check_injective and check_finite_to_one on each."""
    rng = random.Random(20261020)
    docs = [format_code(even_code())]
    sizes = (10, 12, 20, 24, 30, 30)
    docs += [format_code(corpus_code(rng, i, size)) for i, size in enumerate(sizes)]
    out = []
    for i, text in enumerate(docs):
        path = tmp_path / f"c{i}.code"
        path.write_text(text)
        for argv in (["bowen", str(path)], ["fiberprod", str(path), "--m", "2"]):
            rc = cli.main(argv)
            captured = capsys.readouterr()
            out.append((rc, captured.out, captured.err))
        code = parse_code(text)
        out.append((check_injective(code), check_finite_to_one(code)))
    return out


def test_shared_label_fiber_product_prints_the_same_bytes(tmp_path, capsys, monkeypatch):
    # the verbs print the bytes they printed when every call built its own
    # product: with a fresh product per call, and as a digest of the output
    # recorded before the product was shared
    shared = code_verb_outputs(tmp_path, capsys)
    assert {rc for rc, *_ in shared[::3]} == {0} and {rc for rc, *_ in shared[1::3]} == {0, 1}
    digest = hashlib.sha256(repr(shared).encode()).hexdigest()
    assert digest == SHARED_PRODUCT_DIGEST
    monkeypatch.setattr(codes, "label_fiber_product", codes._build_label_fiber_product)
    assert code_verb_outputs(tmp_path, capsys) == shared
