"""Seeded input corpus, written as document text.

Every generator writes the document grammar directly (`graph` / `loops` /
`gen` / `code` lines) instead of going through `borelshift` constructors, so
that no library time is spent, or hidden, in generation.  Sizes come from a
fixed schedule; the seed draws only structure (chords, labels, vertex names,
line order, tail parameters), so two seeds give runs of comparable work.

Each generator returns a `Doc`: the text plus the ground truth the oracles in
`oracles.py` need, stated in plain Python terms (edge lists over integer
vertices, first-return lengths and counts).  Nothing in a `Doc` is computed by
the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Size schedules.  "full" is what the benchmark measures; "smoke" runs every
# operation kind on tiny inputs in a few seconds (see selfcheck.py).
SCHEDULES = {
    "full": {
        "alg_graph_sizes": (8, 16, 24, 32, 40, 40, 40, 40, 48),
        "full_shift_sizes": (2, 3, 4),
        "round_trips": 50,
        "large_graph_sizes": (100, 300, 1000, 3000),
        "forest_cycles": 1000,
        "forest_positive_sizes": (64, 80, 100),
        "marker_doc_k": 16,
        "code_sizes": (10, 20, 30, 40, 50, 60, 70, 80, 30, 50, 70, 80),
        "fiber_ms": (2, 3),
        "embed_targets": (Fraction(1, 10), Fraction(1, 5), Fraction(1, 4)),
        "pathology_depth": 6,
        "zero_cycle_lengths": (2,),
    },
    "smoke": {
        "alg_graph_sizes": (8, 12),
        "full_shift_sizes": (2, 3),
        "round_trips": 3,
        "large_graph_sizes": (64, 100),
        "forest_cycles": 20,
        "forest_positive_sizes": (62,),
        "marker_doc_k": 2,
        "code_sizes": (10, 14),
        "fiber_ms": (2,),
        "embed_targets": (Fraction(1, 10),),
        "pathology_depth": 2,
        "zero_cycle_lengths": (2,),
    },
}


@dataclass
class Doc:
    name: str
    text: str
    truth: dict = field(default_factory=dict)


def _names(rng: random.Random, n: int, prefix: str) -> list[str]:
    """n distinct vertex names whose sorted order is a seeded permutation."""
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"{prefix}{i}" for i in ids]


def graph_text(names: list[str], edges: list[tuple[int, int]]) -> str:
    lines = ["graph"]
    lines.extend(f"vertex {v}" for v in names)
    lines.extend(f"edge {names[a]} {names[b]}" for a, b in edges)
    return "\n".join(lines) + "\n"


def _strongly_connected_edges(rng: random.Random, n: int, chords: int) -> list[tuple[int, int]]:
    """Simple digraph on 0..n-1: a Hamiltonian cycle plus `chords` distinct chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    target = min(n * n, n + chords)
    while len(edges) < target:
        edges.add((rng.randrange(n), rng.randrange(n)))
    out = sorted(edges)
    rng.shuffle(out)
    return out


def random_graph_doc(rng: random.Random, name: str, n: int) -> Doc:
    """Strongly connected graph with n vertices and 2n edges."""
    edges = _strongly_connected_edges(rng, n, n)
    names = _names(rng, n, rng.choice("abpqvw"))
    return Doc(name, graph_text(names, edges), {"n": n, "edges": edges})


def golden_mean_doc(rng: random.Random) -> Doc:
    names = _names(rng, 2, "g")
    edges = [(0, 0), (0, 1), (1, 0)]
    rng.shuffle(edges)
    return Doc("golden", graph_text(names, edges), {"n": 2, "edges": edges})


def full_shift_doc(rng: random.Random, k: int) -> Doc:
    names = _names(rng, k, "s")
    edges = [(a, b) for a in range(k) for b in range(k)]
    rng.shuffle(edges)
    return Doc(f"full{k}", graph_text(names, edges), {"n": k, "edges": edges})


def cycle_doc(rng: random.Random, length: int) -> Doc:
    names = _names(rng, length, "z")
    edges = [(i, (i + 1) % length) for i in range(length)]
    return Doc(f"cycle{length}", graph_text(names, edges), {"n": length, "edges": edges})


# --- loop schemas ---


def _tail_line(family: str, params: dict) -> str:
    stride = params.get("stride", 1)
    suffix = f" stride {stride}" if stride != 1 else ""
    if family == "geometric":
        return f"tail geometric {params['a']} {params['k']} from {params['n0']}{suffix}"
    return f"tail damped {params['a']} {params['k']} {params['d']} from {params['n0']}{suffix}"


def schema_doc(name: str, counts: list[tuple[int, int]], tail=None, base: str = "0") -> Doc:
    lines = ["loops", f"at {base}"]
    lines.extend(f"count {n} {c}" for n, c in counts)
    if tail is not None:
        lines.append(_tail_line(*tail))
    return Doc(name, "\n".join(lines) + "\n", {"counts": counts, "tail": tail})


def schema_docs(rng: random.Random) -> list[Doc]:
    """One schema of each recurrence shape the classifier distinguishes.

    Parameters are drawn so that the verdict is known in closed form:
    geometric tails diverge at the radius (positive recurrent); damped tails
    with d = 2 and a <= 1/2 keep Phi(R) <= a * zeta(2) < 1 (transient, entropy
    log k) unless an explicit count c at length 1 has c / k >= 1, which puts
    the root strictly inside the disc (positive recurrent).
    """
    docs = []
    # finite schema: explicit counts only
    lengths = sorted(rng.sample(range(1, 7), 3))
    docs.append(schema_doc("finite", [(n, rng.randint(1, 3)) for n in lengths]))
    # geometric tails, plain and strided
    k = rng.choice((2, 3))
    docs.append(
        schema_doc(
            "geometric",
            [(1, rng.randint(1, 2))],
            ("geometric", {"a": rng.choice((1, 2)), "k": k, "n0": rng.randint(2, 4)}),
        )
    )
    docs.append(
        schema_doc(
            "geometric-strided",
            [(1, 1)],
            ("geometric", {"a": 1, "k": rng.choice((2, 3)), "n0": 2, "stride": 2}),
        )
    )
    # damped transient, plain and strided (no explicit counts)
    docs.append(
        schema_doc(
            "damped-transient",
            [],
            ("damped", {"a": Fraction(1, rng.choice((2, 3, 4))),
                        "k": rng.choice((2, 3, Fraction(5, 2))), "d": 2, "n0": rng.randint(1, 3)}),
        )
    )
    stride = rng.choice((2, 3))
    docs.append(
        schema_doc(
            "damped-transient-strided",
            [],
            ("damped", {"a": Fraction(1, 2), "k": rng.choice((2, 3)), "d": 2,
                        "n0": stride, "stride": stride}),
        )
    )
    # damped positive recurrent: count c >= k at length 1
    k = rng.choice((2, 3))
    docs.append(
        schema_doc(
            "damped-recurrent",
            [(1, k + 1)],
            ("damped", {"a": Fraction(1, 2), "k": k, "d": 2, "n0": 2}),
        )
    )
    docs.append(
        schema_doc(
            "damped-recurrent-strided",
            [(1, 3)],
            ("damped", {"a": Fraction(1, 2), "k": 2, "d": 2, "n0": 2, "stride": 2}),
        )
    )
    return docs


# --- invariant pairs for the realize round trip ---

PAIR_ENTROPIES = (
    ("log 2", "log2"),
    ("log 3", "log3"),
    ("7/10 7/10", Fraction(7, 10)),
    ("11/10 11/10", Fraction(11, 10)),
)


PAIR_SIZES = (1, 2, 3, 2)  # generators per document, cycled


def admissible_pair_docs(rng: random.Random, count: int) -> list[Doc]:
    """Invariants documents with 1-3 generators, as in acceptance criterion 4.

    Realizing a generator costs very different amounts by kind: log m with a
    count realizes as one closed-form schema, 7/10 as a long digit expansion
    whose classification needs a high-degree polynomial.  So the generators
    come from a fixed pool that cycles evenly through every (period,
    entropy, count) combination, and the seed only shuffles the pool and
    deals it into documents.
    """
    sizes = [PAIR_SIZES[i % len(PAIR_SIZES)] for i in range(count)]
    kinds = [(e, c) for e in range(len(PAIR_ENTROPIES)) for c in (0, 1, 2)]
    pool = [(1 + (j // len(kinds)) % 6,) + kinds[j % len(kinds)] for j in range(sum(sizes))]
    rng.shuffle(pool)
    docs = []
    for i, size in enumerate(sizes):
        gens = []
        for _ in range(size):
            # the first pooled generator whose (period, entropy) is new here
            k = next((k for k, g in enumerate(pool) if all(g[:2] != h[:2] for h in gens)), None)
            if k is None:
                break
            gens.append(pool.pop(k))
        text = "".join(f"gen {p} {PAIR_ENTROPIES[e][0]} {c}\n" for p, e, c in gens)
        truth = {"gens": [(p, PAIR_ENTROPIES[e][1], c) for p, e, c in gens]}
        docs.append(Doc(f"pair{i}", text, truth))
    return docs


# --- large structured graphs ---


def forest_doc(rng: random.Random, cycles: int, positive_sizes) -> Doc:
    """Disjoint short cycles with tree tails, plus a few dense components.

    Cycle lengths are 1-6 and every cycle carries in- and out-trees of 2-8
    acyclic vertices; the dense components are strongly connected with more
    vertices than the exact-entropy cap, so they take the interval path.
    """
    edges: list[tuple[int, int]] = []
    cycle_lengths = []
    positive = []
    n = 0
    for _ in range(cycles):
        length = rng.randint(1, 6)
        cyc = list(range(n, n + length))
        n += length
        edges.extend((cyc[i], cyc[(i + 1) % length]) for i in range(length))
        cycle_lengths.append(length)
        into, out_of = list(cyc), list(cyc)
        for _ in range(rng.randint(2, 8)):
            tail = n
            n += 1
            # each tail vertex hangs off the cycle or an earlier tail vertex of
            # the same direction, so the trees stay acyclic
            if rng.random() < 0.5:
                edges.append((tail, rng.choice(into)))
                into.append(tail)
            else:
                edges.append((rng.choice(out_of), tail))
                out_of.append(tail)
    for size in positive_sizes:
        local = _strongly_connected_edges(rng, size, size)
        edges.extend((n + a, n + b) for a, b in local)
        positive.append((size, local))
        n += size
    rng.shuffle(edges)
    names = _names(rng, n, "f")
    truth = {"n": n, "edges": edges, "cycle_lengths": cycle_lengths, "positive": positive}
    return Doc("forest", graph_text(names, edges), truth)


# The marker presentation that `embed` emits for the even-shift code at
# target 1/5: base e0, loops ell = (e0 e1 e2) and ell~ = (e0 e0 e0), A = 4,
# C = 2, a gallery of three loops of length N = 4, and K = 16 gallery copies.
MARKER_GALLERY = (("e0", "e1", "e2", "e0"), ("e0", "e0", "e1", "e2"), ("e0", "e0", "e0", "e0"))
MARKER_ELL = ("e0", "e1", "e2")
MARKER_ELL_TILDE = ("e0", "e0", "e0")


def marker_doc(rng: random.Random, K: int) -> Doc:
    """Marker chains m1, m2 feeding K copies of the gallery trie, as a graph.

    Returns to the start of m1 happen after one m1 block and j >= 0 m2 blocks,
    G = |gallery|^K choices per block, so Phi(x) = G x^b1 + G x^b2 solves to 1
    at the inverse Perron root, with b_a the two block lengths.
    """
    A, C = 4, 2
    m1 = MARKER_ELL * A + MARKER_ELL_TILDE * C + MARKER_ELL
    m2 = MARKER_ELL * A + MARKER_ELL_TILDE * C + MARKER_ELL_TILDE
    ids: dict[str, int] = {}
    edges = set()

    def node(name: str) -> int:
        if name not in ids:
            ids[name] = len(ids)
        return ids[name]

    for a, word in (("1", m1), ("2", m2)):
        for i in range(len(word)):
            node(f"m{a}.{i}")
            if i:
                edges.add((node(f"m{a}.{i-1}"), node(f"m{a}.{i}")))
    tries = []
    for k in range(K):
        nodes: dict[tuple, int] = {}
        for w in MARKER_GALLERY:
            for i in range(1, len(w) + 1):
                if w[:i] not in nodes:
                    nodes[w[:i]] = node(f"g{k}.{len(nodes)}")
                if i > 1:
                    edges.add((nodes[w[: i - 1]], nodes[w[:i]]))
        tries.append(nodes)
    firsts = [{t[w[:1]] for w in MARKER_GALLERY} for t in tries]
    fulls = [{t[w] for w in MARKER_GALLERY} for t in tries]
    for a, word in (("1", m1), ("2", m2)):
        edges.update((node(f"m{a}.{len(word)-1}"), s) for s in firsts[0])
    for k in range(K):
        for e in fulls[k]:
            if k + 1 < K:
                edges.update((e, s) for s in firsts[k + 1])
            else:
                edges.update(((e, node("m1.0")), (e, node("m2.0"))))
    edges = sorted(edges)
    rng.shuffle(edges)
    n_gallery = len(MARKER_GALLERY[0])
    big = len(MARKER_GALLERY) ** K
    truth = {
        "n": len(ids),
        "edges": edges,
        "marker": (big, len(m1) + K * n_gallery, len(m2) + K * n_gallery),
    }
    names = _names(rng, len(ids), "k")
    return Doc(f"marker{K}", graph_text(names, edges), truth)


# --- factor codes ---


def random_code_doc(rng: random.Random, index: int, size: int) -> Doc:
    """1-block code on a strongly connected domain; vertex and edge mode alternate.

    Vertex mode labels `size` vertices of a simple graph with 2*size edges;
    edge mode labels the 2*(size//2) edges of a multigraph on size//2
    vertices, so both present `size` states after normalization.  Labels are
    drawn from an alphabet of about size/5 symbols: enough collisions to make
    the fibre products non-trivial, few enough to keep m = 3 products small.
    """
    mode = "vertex" if index % 2 == 0 else "edge"
    alphabet = max(2, size // 5)
    if mode == "vertex":
        n = size
        edges = _strongly_connected_edges(rng, n, n)
    else:
        n = max(2, size // 2)
        edges = _strongly_connected_edges(rng, n, n)
        # parallel edges are what edge mode is for
        for _ in range(max(1, n // 4)):
            edges.append(rng.choice(edges))
        rng.shuffle(edges)
    names = _names(rng, n, "q")
    lines = [f"code {mode}", "graph"]
    lines.extend(f"vertex {v}" for v in names)
    if mode == "vertex":
        lines.extend(f"edge {names[a]} {names[b]}" for a, b in edges)
        labels = [str(rng.randrange(alphabet)) for _ in range(n)]
        lines.extend(f"map {names[i]} {labels[i]}" for i in range(n))
    else:
        lines.extend(f"edge {names[a]} {names[b]} x{i}" for i, (a, b) in enumerate(edges))
        labels = [str(rng.randrange(alphabet)) for _ in edges]
        lines.extend(f"map x{i} {labels[i]}" for i in range(len(edges)))
    truth = {"mode": mode, "n": n, "edges": edges, "labels": labels, "names": names}
    return Doc(f"code{index}", "\n".join(lines) + "\n", truth)


def even_code_doc() -> Doc:
    """The golden-mean edge code onto the even shift, as in the marker tests.

    A fixed input: the marker search, and so the certificate, depends on it.
    """
    text = "code edge\ngraph\nvertex a\nvertex b\nedge a a x0\nedge a b x1\nedge b a x2\n"
    truth = {"mode": "edge", "n": 2, "edges": [(0, 0), (0, 1), (1, 0)],
             "labels": ["1", "0", "0"], "names": ["a", "b"]}
    return Doc("even", text + "map x0 1\nmap x1 0\nmap x2 0\n", truth)
