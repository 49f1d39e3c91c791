"""Component structure, periods, and loop-counting against brute oracles."""

import math
import random
from fractions import Fraction

import pytest

from borelshift import (
    FiniteGraph,
    LoopSchema,
    Tail,
    cycle_graph,
    cyclic_classes,
    entropy_by_loop_count,
    first_return_counts,
    full_shift_graph,
    golden_mean_graph,
    irreducible_components,
    is_single_cycle,
    is_strongly_connected,
    loop_entropy_estimate,
    parse_document,
    period_of_component,
    renewal_loop_counts,
    schema_first_return_counts,
    schema_period,
    strongly_connected_components,
)
from borelshift.graphs import _component_ids, rome
from borelshift.presentations import GraphIndex

from helpers import (
    GOLDEN_ENTROPY,
    dense_loop_counts,
    first_returns_from_loops,
    period_by_cycles,
    random_strongly_connected,
)


# === strongly connected components ===

def test_scc_hand_case():
    g = FiniteGraph.from_edges(
        [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c"), ("d", "e")]
    )
    comps = {frozenset(c) for c in strongly_connected_components(g)}
    assert comps == {frozenset("ab"), frozenset("cd"), frozenset("e")}
    assert not is_strongly_connected(g)
    assert is_strongly_connected(golden_mean_graph())


def test_scc_matches_reachability_oracle():
    rng = random.Random(711)
    for _ in range(80):
        n = rng.randint(1, 7)
        vs = [f"v{i}" for i in range(n)]
        edges = sorted(
            {(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 2 * n))}
        )
        g = FiniteGraph(tuple(vs), tuple(edges))

        reach = {v: {v} for v in vs}
        changed = True
        while changed:
            changed = False
            for u, w in edges:
                for src in vs:
                    if u in reach[src] and w not in reach[src]:
                        reach[src].add(w)
                        changed = True
        want = {
            frozenset(w for w in vs if v in reach[w] and w in reach[v]) for v in vs
        }
        got = {frozenset(c) for c in strongly_connected_components(g)}
        assert got == want


def test_scc_handles_deep_chains_without_recursion_limit():
    n = 5000
    vs = tuple(f"v{i}" for i in range(n))
    edges = tuple((f"v{i}", f"v{i+1}") for i in range(n - 1))
    comps = strongly_connected_components(FiniteGraph(vs, edges))
    assert len(comps) == n


def closure_components(n, edges) -> tuple[list[int], list[list[int]]]:
    """Component ids by mutual reachability from a transitive closure on
    bit sets, numbered by each component's smallest position, and each
    component's positions ascending."""
    reach = [1 << v for v in range(n)]
    changed = True
    while changed:
        changed = False
        for u, w in edges:
            for src in range(n):
                if reach[src] >> u & 1 and reach[src] | reach[w] != reach[src]:
                    reach[src] |= reach[w]
                    changed = True
    comp, groups = [-1] * n, []
    for v in range(n):
        if comp[v] < 0:
            groups.append([w for w in range(n) if reach[v] >> w & 1 and reach[w] >> v & 1])
            for w in groups[-1]:
                comp[w] = len(groups) - 1
    return comp, groups


def test_component_ids_match_reachability_closure():
    # self-loops and parallel edges from independent draws, isolated
    # positions, and many components: blocks whose edges between them run
    # mostly forward, now and then backward to merge blocks
    rng = random.Random(2718)
    many = 0
    for _ in range(320):
        n = rng.randint(1, 24)
        vs = [f"v{i:02d}" for i in range(n)]
        cuts = rng.sample(range(1, n), rng.randint(0, min(n - 1, 8)))
        block = [sum(c <= i for c in cuts) for i in range(n)]
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            u, w = rng.randrange(n), rng.randrange(n)
            if block[u] > block[w] and rng.random() < 0.9:
                u, w = w, u
            edges.append((u, w))
        edges += [(u, u) for u in rng.sample(range(n), rng.randint(0, n // 3))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))  # parallel copies
        declared = rng.sample(range(n), n)  # declaration order differs from name order
        at = {v: k for k, v in enumerate(declared)}
        idx = GraphIndex.compile([vs[v] for v in declared],
                                 [at[u] for u, _ in edges], [at[w] for _, w in edges])
        want = closure_components(n, edges)
        assert _component_ids(idx) == want
        assert "pred" not in vars(idx)
        many += len(want[1]) >= 5
    assert many >= 100, many


@pytest.mark.parametrize("closed", [True, False])
def test_component_ids_on_a_long_cycle_and_path(closed):
    # 200,000 positions in one depth-first branch: the walk keeps its own
    # stack, so no recursion limit applies, and its work is linear
    n = 200_000
    heads = list(range(1, n)) + [0] * closed
    idx = GraphIndex.compile([f"v{i:06d}" for i in range(n)], range(len(heads)), heads)
    comp, groups = _component_ids(idx)
    if closed:
        assert comp == [0] * n and groups == [list(range(n))]
    else:
        assert comp == list(range(n)) and groups == [[i] for i in range(n)]
    assert "pred" not in vars(idx)


def reference_pred(vertices, edges) -> list[tuple[tuple[int, int], ...]]:
    """Predecessor rows from the edge list: for each position, the distinct
    tails ascending with their multiplicities."""
    pos = {v: i for i, v in enumerate(sorted(vertices))}
    rows = [{} for _ in vertices]
    for u, w in edges:
        rows[pos[w]][pos[u]] = rows[pos[w]].get(pos[u], 0) + 1
    return [tuple(sorted(row.items())) for row in rows]


def test_pred_is_built_on_first_read_and_transposes_succ():
    rng = random.Random(5153)
    for _ in range(100):
        vs, edges, g = multi_component_graph(rng)
        comps = irreducible_components(g)
        for part, cv, ce in [(g, vs, edges)] + [(c, c.vertices, c.edges) for _, c in comps]:
            idx = part.index()
            assert "pred" not in vars(idx)
            assert idx.pred == reference_pred(cv, ce)
            assert idx.pred is idx.pred  # transposed once, then cached


def test_irreducible_components_skips_acyclic_parts():
    g = FiniteGraph.from_edges(
        [("a", "a"), ("a", "m"), ("m", "c"), ("c", "d"), ("d", "c")]
    )
    comps = irreducible_components(g)
    assert len(comps) == 2
    sizes = sorted(len(sub.vertices) for _, sub in comps)
    assert sizes == [1, 2]
    # the bridge vertex m lies on no cycle and belongs to no component
    assert all("m" not in sub.vertices for _, sub in comps)


def brute_irreducible_components(vertices, edges, names):
    """SCCs with at least one internal edge, by mutual reachability, each
    induced in the original vertex order, edge order and edge names, with ids
    c0, c1, ... in the order of each component's smallest vertex name."""
    reach = {v: {v} for v in vertices}
    changed = True
    while changed:
        changed = False
        for u, w in edges:
            for src in vertices:
                if u in reach[src] and w not in reach[src]:
                    reach[src].add(w)
                    changed = True
    sccs = {frozenset(w for w in vertices if v in reach[w] and w in reach[v]) for v in vertices}
    out = []
    for comp in sorted(sccs, key=min):
        pairs = [(e, n) for e, n in zip(edges, names) if e[0] in comp and e[1] in comp]
        if pairs:
            out.append((
                f"c{len(out)}",
                tuple(v for v in vertices if v in comp),
                tuple(e for e, _ in pairs),
                tuple(n for _, n in pairs),
            ))
    return out


def test_irreducible_components_match_brute_force_definition():
    rng = random.Random(4417)
    for trial in range(150):
        n = rng.randint(1, 9)
        vs = [f"v{i}" for i in range(n)]
        rng.shuffle(vs)  # declaration order differs from name order
        # parallel edges and self-loops come from independent draws
        edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 2 * n))]
        # some edges feed an extra acyclic vertex, one way only
        if rng.random() < 0.5:
            vs.append("sink")
            edges.append((rng.choice(vs[:-1]), "sink"))
        if trial % 2:
            names = [f"x{k}" for k in range(len(edges))]
            rng.shuffle(names)
        else:
            names = [f"e{k}" for k in range(len(edges))]
        g = FiniteGraph(tuple(vs), tuple(edges), tuple(names))
        want = brute_irreducible_components(vs, edges, names)
        got = [(cid, c.vertices, c.edges, c.edge_names) for cid, c in irreducible_components(g)]
        assert got == want
        strongly = len(want) == 1 and len(want[0][1]) == len(vs)
        assert is_strongly_connected(g) == strongly


def closed_walk_gcd(vertices, edges) -> int:
    """The period as the gcd of the lengths n <= len(vertices) for which
    some vertex starts a closed walk of length n.  Every cycle is a sum of
    simple cycles, which are at most that long, so these lengths hold every
    simple cycle's and are multiples of the gcd of all cycle lengths."""
    g = 0
    for v in vertices:
        ends = {v}
        for n in range(1, len(vertices) + 1):
            ends = {w for u, w in edges if u in ends}
            if v in ends:
                g = math.gcd(g, n)
    return g


def multi_component_graph(rng: random.Random):
    """Blocks of random edges, self-loops and parallel edges included, with
    edges between blocks only from an earlier block to a later one, so
    that every component lies inside a block; vertices declared in a
    shuffled order, and some edges named, e<k> names among them."""
    blocks = [[f"b{b}v{i}" for i in range(rng.randint(1, 5))] for b in range(rng.randint(2, 5))]
    edges = []
    for b, block in enumerate(blocks):
        inside = rng.randint(0, 3 * len(block))
        edges += [(rng.choice(block), rng.choice(block)) for _ in range(inside)]
        for later in blocks[b + 1:]:
            edges += [(rng.choice(block), rng.choice(later)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(edges)
    vs = [v for block in blocks for v in block]
    rng.shuffle(vs)
    pool = [f"x{k}" for k in range(len(edges))] + [f"e{k}" for k in range(len(edges))]
    names = [rng.choice(pool) if rng.random() < 0.3 else None for _ in edges]
    seen = set()
    names = [n if n is None or n not in seen and not seen.add(n) else None for n in names]
    lines = [f"vertex {v}" for v in vs]
    lines += [f"edge {u} {w}" + ("" if n is None else f" {n}") for (u, w), n in zip(edges, names)]
    return vs, edges, parse_document("graph\n" + "\n".join(lines) + "\n")[0]


def test_component_slices_equal_the_compiled_induced_subgraph():
    # a component's index is sliced from its parent's: its rows must be the
    # ones that compiling the induced subgraph gives, its period the
    # closed-walk gcd, and its names, read after both, the brute force ones
    rng = random.Random(9151)
    found = 0
    for _ in range(150):
        vs, edges, g = multi_component_graph(rng)
        want = brute_irreducible_components(vs, edges, g.edge_names)
        comps = irreducible_components(g)
        assert [cid for cid, _ in comps] == [w[0] for w in want]
        for (_, c), (_, cv, ce, names) in zip(comps, want):
            assert "columns" not in vars(c)  # no name is built before it is read
            compiled = GraphIndex.compile(
                cv, [cv.index(u) for u, _ in ce], [cv.index(w) for _, w in ce])
            assert c.index() == compiled
            assert period_of_component(c) == closed_walk_gcd(cv, ce)
            assert is_single_cycle(c) == (len(ce) == len(cv) and len(set(ce)) == len(ce)
                                          and closed_walk_gcd(cv, ce) == len(cv))
            assert (c.vertices, c.edges, c.edge_names) == (cv, ce, names)
            found += 1
    assert found >= 300, found


# === romes ===

def kahn_sorts(vertices, edges) -> bool:
    """True iff Kahn's algorithm orders every vertex: the graph is acyclic."""
    indeg = {v: 0 for v in vertices}
    succ = {v: [] for v in vertices}
    for u, w in edges:
        succ[u].append(w)
        indeg[w] += 1
    ready = [v for v in vertices if indeg[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return done == len(vertices)


def rome_graph(rng: random.Random, kind: str) -> FiniteGraph:
    """A seeded graph of one kind, its vertices declared in shuffled order.

    "random": any edges, so self-loops, parallel edges, sources and sinks;
    "forest": disjoint cycles of lengths 1-5, joined one way, with tree
    vertices hanging in and out; "flower": cycles of lengths 1-5 through one
    centre, maybe doubled into parallel edges; "acyclic": edges only forward
    in the declaration order, parallel ones included.
    """
    if kind == "flower":
        vs, edges = ["c"], []
        for k in range(rng.randint(1, 6)):
            petal = [f"p{k}_{i}" for i in range(rng.randint(0, 4))]
            vs += petal
            walk = ["c", *petal, "c"]
            edges += list(zip(walk, walk[1:])) * rng.choice((1, 1, 2))
    elif kind == "forest":
        cycles = [[f"c{k}_{i}" for i in range(rng.randint(1, 5))] for k in range(rng.randint(1, 5))]
        vs = [v for cycle in cycles for v in cycle]
        edges = [e for cycle in cycles for e in zip(cycle, cycle[1:] + cycle[:1])]
        # one-way joins, from a cycle to a later one
        for _ in range(rng.randint(0, 3)):
            k, l = rng.randrange(len(cycles)), rng.randrange(len(cycles))
            if k < l:
                edges.append((rng.choice(cycles[k]), rng.choice(cycles[l])))
        # tree vertices, each joined to an earlier vertex by one edge, in or out
        for i in range(rng.randint(0, len(vs))):
            a = rng.choice(vs)
            vs.append(f"t{i}")
            edges.append((a, f"t{i}") if rng.random() < 0.5 else (f"t{i}", a))
    elif kind == "acyclic":
        vs = [f"v{i}" for i in range(rng.randint(1, 12))]
        edges = []
        for _ in range(rng.randint(0, 3 * len(vs))):
            i, j = rng.randrange(len(vs)), rng.randrange(len(vs))
            if i < j:
                edges.append((vs[i], vs[j]))
    else:
        vs = [f"v{i}" for i in range(rng.randint(1, 12))]
        edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 3 * len(vs)))]
    rng.shuffle(vs)
    return FiniteGraph(tuple(vs), tuple(edges))


@pytest.mark.parametrize("kind", ["random", "forest", "flower", "acyclic"])
def test_rome_leaves_an_acyclic_graph(kind):
    for seed in range(80):
        g = rome_graph(random.Random(seed), kind)
        idx = g.index()
        r = rome(idx)
        assert r == sorted(set(r)), seed
        cut = {idx.order[p] for p in r}
        rest = [v for v in g.vertices if v not in cut]
        assert kahn_sorts(rest, [(u, w) for u, w in g.edges if u not in cut and w not in cut]), seed
        if kind == "acyclic":
            assert r == [], seed
        elif kind == "flower":
            assert len(r) == 1, seed
        else:
            # a vertex on a cycle of its own, a self-loop, is in every rome
            assert {u for u, w in g.edges if u == w} <= cut, seed


def test_rome_of_one_long_cycle_is_one_vertex():
    # bypassing walks a cycle of 5,000 vertices down to a self-loop
    n = 5000
    vs = tuple(f"v{i}" for i in range(n))
    g = FiniteGraph(vs, tuple((f"v{i}", f"v{(i + 1) % n}") for i in range(n)))
    assert len(rome(g.index())) == 1


# === periods ===

def test_period_hand_cases():
    assert period_of_component(cycle_graph(5)) == 5
    assert period_of_component(golden_mean_graph()) == 1
    assert period_of_component(full_shift_graph("ab")) == 1
    two = FiniteGraph.from_edges([("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")])
    assert period_of_component(two) == 2


def test_period_matches_cycle_gcd_oracle():
    rng = random.Random(20401)
    for _ in range(120):
        vs, edges = random_strongly_connected(rng, 6)
        g = FiniteGraph(tuple(vs), tuple(edges))
        assert period_of_component(g) == period_by_cycles(vs, edges)


def test_period_refuses_exactly_what_is_not_strongly_connected():
    # no edge: refused before any search indexes position 0
    for g in (FiniteGraph((), ()), FiniteGraph(("a",), ())):
        with pytest.raises(ValueError):
            period_of_component(g)
    rng = random.Random(2601)
    strong = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        vs = [f"v{i}" for i in range(n)]
        edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(1, 3 * n))]
        g = FiniteGraph(tuple(vs), tuple(edges))
        if is_strongly_connected(g):
            strong += 1
            assert period_of_component(g) == period_by_cycles(vs, edges)
        else:
            with pytest.raises(ValueError):
                period_of_component(g)
    assert 30 <= strong <= 270


def test_cyclic_classes_partition_and_rotate():
    g = cycle_graph(6)
    classes = cyclic_classes(g)
    assert len(classes) == 6
    bip = FiniteGraph.from_edges(
        [("a", "x"), ("x", "a"), ("a", "y"), ("y", "a")]
    )
    classes = cyclic_classes(bip)
    assert sorted(map(sorted, classes)) in ([["a"], ["x", "y"]], [["x", "y"], ["a"]])
    # every edge steps to the next class
    pos = {v: i for i, c in enumerate(classes) for v in c}
    for u, w in bip.edges:
        assert pos[w] == (pos[u] + 1) % len(classes)


def test_is_single_cycle():
    assert is_single_cycle(cycle_graph(3))
    assert not is_single_cycle(golden_mean_graph())
    assert not is_single_cycle(FiniteGraph(("u",), (("u", "u"), ("u", "u"))))
    # every vertex has one out-edge of multiplicity 1, but the graph is not
    # strongly connected: two disjoint 2-cycles, a cycle fed by a transient
    # vertex; and the empty graph has no cycle at all
    assert not is_single_cycle(FiniteGraph.from_edges(
        [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]))
    assert not is_single_cycle(FiniteGraph.from_edges([("a", "b"), ("b", "a"), ("j", "a")]))
    assert not is_single_cycle(FiniteGraph((), ()))
    # each flagged component of those is a single cycle, read along succ alone
    comps = irreducible_components(FiniteGraph.from_edges(
        [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("j", "a")]))
    assert [is_single_cycle(c) for _, c in comps] == [True, True]
    assert all("pred" not in vars(c.index()) for _, c in comps)


def test_schema_period_from_support():
    assert schema_period(LoopSchema(((4, 1), (6, 2)))) == 2
    assert schema_period(LoopSchema(((3, 1),))) == 3
    assert schema_period(LoopSchema(((4, 1), (6, 0)))) == 4
    tailed = LoopSchema((), Tail(Fraction(1, 9), 3, 0, 2, stride=2))
    assert schema_period(tailed) == 2
    mixed = LoopSchema(((3, 1),), Tail(Fraction(1, 9), 3, 0, 2, stride=2))
    assert schema_period(mixed) == 1
    assert period_of_component(tailed) == 2


def test_schema_period_matches_the_tail_support():
    # the oracle: the gcd of the explicit positive lengths and of the tail
    # lengths with a positive count, from the tail formulas, over a window
    # that ends in two positive support points
    rng = random.Random(31)
    zero_start = 0
    for case in range(60):
        k, n0, s = rng.randint(2, 4), rng.randint(31, 40), rng.randint(1, 4)
        if case % 2:
            tail = Tail(Fraction(rng.randint(1, 3), k**n0), k, 0, n0, s)
            count = lambda n: tail.a * k**n
        else:
            a = Fraction(1, 10 ** rng.randint(0, 6))
            tail = Tail(a, Fraction(k + 1, 2), rng.randint(1, 4), n0, s)
            count = lambda n: math.floor(tail.a * tail.k**n / n**tail.d)
        lengths = rng.sample(range(1, 31), rng.randint(0, 3))
        explicit = tuple((m, rng.randint(0, 2)) for m in lengths)
        support = range(n0, n0 + 200 * s, s)
        counts = [count(n) for n in support]
        assert counts[-1] > 0 and counts[-2] > 0
        zero_start += counts[0] == 0
        want = 0
        for n, c in explicit + tuple(zip(support, counts)):
            if c > 0:
                want = math.gcd(want, n)
        assert schema_period(LoopSchema(explicit, tail)) == want
    assert zero_start >= 5


# === loop and first-return counting ===

def test_first_return_counts_golden_mean():
    g = golden_mean_graph()
    # at a: returns of length 1 (self loop) and 2 (a->b->a)
    assert first_return_counts(g, "a", 6) == [0, 1, 1, 0, 0, 0, 0]
    # at b: first returns b -> a^j -> b, one for every j >= 1
    assert first_return_counts(g, "b", 5) == [0, 0, 1, 1, 1, 1]


def test_first_return_counts_weights_parallel_edges():
    g = FiniteGraph(("u", "v"), (("u", "v"), ("u", "v"), ("v", "u")))
    assert first_return_counts(g, "u", 4) == [0, 0, 2, 0, 0]


def test_loop_counts_match_dense_matrix_oracle():
    rng = random.Random(88)
    for _ in range(60):
        vs, edges = random_strongly_connected(rng, 5)
        # sprinkle parallel edges; multiplicity must be respected
        extra = [rng.choice(edges) for _ in range(rng.randint(0, 2))]
        g = FiniteGraph(tuple(vs), tuple(edges) + tuple(extra))
        base = rng.choice(vs)
        l_max = rng.randint(3, 9)
        loops = dense_loop_counts(vs, list(g.edges), base, l_max)
        firsts = first_returns_from_loops(loops)
        assert first_return_counts(g, base, l_max) == firsts
        assert renewal_loop_counts(firsts)[1:] == loops[1:]


def test_renewal_identity_round_trip():
    f = [0, 1, 1, 0, 2, 0, 0]
    loops = renewal_loop_counts(f)
    assert first_returns_from_loops(loops) == f


def test_schema_first_return_counts_reads_schema():
    s = LoopSchema(((1, 1),), Tail(Fraction(1, 2), 2, 0, 3))
    assert schema_first_return_counts(s, 4) == [0, 1, 0, 4, 8]


# === entropy estimates from loop counts ===

def test_entropy_rows_full_shift():
    rows = entropy_by_loop_count(full_shift_graph("ab"), "a", 6)
    ns = [n for n, _, _ in rows]
    assert ns == [1, 2, 3, 4, 5, 6]
    # vertex paths a -> ... -> a of length n: 2^(n-1) of them
    for n, count, est in rows:
        assert count == 2 ** (n - 1)
        assert est == pytest.approx(math.log(count) / n)
    assert loop_entropy_estimate(rows) == pytest.approx(math.log(2))


def test_entropy_rows_restrict_to_base_component():
    # base sits in a 1-cycle component; the full 2-shift elsewhere must not leak
    g = FiniteGraph.from_edges(
        [("z", "z"), ("p", "p"), ("p", "q"), ("q", "p"), ("q", "q"), ("z", "p")]
    )
    rows = entropy_by_loop_count(g, "z", 5)
    assert all(count == 1 for _, count, _ in rows)
    assert loop_entropy_estimate(rows) == pytest.approx(0.0)


def test_loop_count_window_is_checked_before_counting():
    # "a" lies on no cycle, which counting would report; the window comes first
    g = FiniteGraph.from_edges([("a", "b"), ("b", "b")])
    with pytest.raises(ValueError, match="l_max must be >= 1"):
        entropy_by_loop_count(g, "a", 0)


def test_loop_estimate_converges_golden_mean():
    rows = entropy_by_loop_count(golden_mean_graph(), "a", 40)
    assert abs(loop_entropy_estimate(rows) - GOLDEN_ENTROPY) < 1e-6


def test_loop_estimate_uses_period_quotient():
    rows = entropy_by_loop_count(cycle_graph(3), "v0", 30)
    assert [n for n, _, _ in rows] == [3, 6, 9, 12, 15, 18, 21, 24, 27, 30]
    assert loop_entropy_estimate(rows, period=3) == pytest.approx(0.0)
    # period-2 full shift on pairs: counts 2^(n/2) at even n
    g = FiniteGraph(
        ("a", "b"),
        (("a", "b"), ("a", "b"), ("b", "a"), ("b", "a")),
    )
    rows = entropy_by_loop_count(g, "a", 20)
    assert loop_entropy_estimate(rows, period=2) == pytest.approx(math.log(2))


def test_loop_estimate_single_row_falls_back():
    rows = [(7, 128, math.log(128) / 7)]
    assert loop_entropy_estimate(rows) == pytest.approx(math.log(2))
