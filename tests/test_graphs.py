"""Component structure, periods, and loop-counting against brute oracles."""

import math
import random
from fractions import Fraction

import pytest

from borelshift import (
    DampedTail,
    FiniteGraph,
    GeometricTail,
    LoopSchema,
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
    period_of_component,
    renewal_loop_counts,
    schema_first_return_counts,
    schema_period,
    strongly_connected_components,
)

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


def test_schema_period_from_support():
    assert schema_period(LoopSchema(((4, 1), (6, 2)))) == 2
    assert schema_period(LoopSchema(((3, 1),))) == 3
    assert schema_period(LoopSchema(((4, 1), (6, 0)))) == 4
    tailed = LoopSchema((), GeometricTail(Fraction(1, 9), 3, 2, stride=2))
    assert schema_period(tailed) == 2
    mixed = LoopSchema(((3, 1),), GeometricTail(Fraction(1, 9), 3, 2, stride=2))
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
            tail = GeometricTail(Fraction(rng.randint(1, 3), k**n0), k, n0, s)
            count = lambda n: tail.a * k**n
        else:
            a = Fraction(1, 10 ** rng.randint(0, 6))
            tail = DampedTail(a, Fraction(k + 1, 2), rng.randint(1, 4), n0, s)
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
    s = LoopSchema(((1, 1),), GeometricTail(Fraction(1, 2), 2, 3))
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
