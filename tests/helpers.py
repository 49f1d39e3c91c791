"""Independent oracles and generators shared by the test modules.

Everything here is deliberately naive: exhaustive enumeration, dense matrix
powers, float bisection.  The point is to check the library against code
that shares none of its machinery.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import gcd

Edge = tuple[str, str]


def simple_cycle_lengths(vertices: list[str], edges: list[Edge]) -> list[int]:
    """Lengths of all vertex-simple cycles, by exhaustive DFS."""
    succ = {v: sorted({w for u, w in edges if u == v}) for v in vertices}
    lengths = []
    order = {v: i for i, v in enumerate(sorted(vertices))}

    def walk(start, current, seen):
        for nxt in succ[current]:
            if nxt == start:
                lengths.append(len(seen))
            # only enumerate cycles whose smallest vertex is the start
            elif nxt not in seen and order[nxt] > order[start]:
                walk(start, nxt, seen | {nxt})

    for v in sorted(vertices):
        walk(v, v, {v})
    return sorted(lengths)


def period_by_cycles(vertices: list[str], edges: list[Edge]) -> int:
    lens = simple_cycle_lengths(vertices, edges)
    out = 0
    for n in lens:
        out = gcd(out, n)
    return out


def dense_loop_counts(
    vertices: list[str], edges: list[Edge], base: str, l_max: int
) -> list[int]:
    """Loops at base via integer matrix powers; index n holds the count."""
    order = sorted(vertices)
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    a = [[0] * n for _ in range(n)]
    for u, v in edges:
        a[idx[u]][idx[v]] += 1
    out = [0] * (l_max + 1)
    power = [row[:] for row in a]
    for step in range(1, l_max + 1):
        if step > 1:
            power = [
                [sum(row[k] * a[k][j] for k in range(n)) for j in range(n)]
                for row in power
            ]
        out[step] = power[idx[base]][idx[base]]
    return out


def first_returns_from_loops(loops: list[int]) -> list[int]:
    """Invert the renewal identity l_n = sum f_m l_{n-m} with l_0 = 1."""
    l_max = len(loops) - 1
    f = [0] * (l_max + 1)
    for n in range(1, l_max + 1):
        f[n] = loops[n] - sum(f[m] * loops[n - m] for m in range(1, n))
    return f


def loop_series_bounds(counts, tail, x: Fraction, terms: int = 300):
    """(lo, hi) around sum c_n x^n, term by term.

    `counts` lists explicit (n, c_n); `tail` is None, ("geometric", a, k, n0,
    s) with c_n = a k^n, or ("damped", a, k, d, n0, s) with c_n = floor(a k^n
    / n^d), on n = n0, n0 + s, ...  lo adds the explicit terms and the first
    `terms` tail terms one at a time.  hi adds to it a bound on the rest: with
    N the first omitted length, c_n <= a k^n / N^d for n >= N, whose series
    is geometric (sum z^j = 1/(1 - z) for z < 1).  A geometric tail has
    d = 0, so its hi is the exact sum.  Needs k x < 1.
    """
    lo = sum(c * x**n for n, c in counts)
    if tail is None:
        return lo, lo
    if tail[0] == "geometric":
        _, a, k, n0, s = tail
        d = 0
    else:
        _, a, k, d, n0, s = tail
    n = n0
    for _ in range(terms):
        lo += math.floor(a * Fraction(k) ** n / n**d) * x**n
        n += s
    z = (k * x) ** s
    return lo, lo + a * (k * x) ** n / Fraction(n) ** d / (1 - z)


def damped_enclosure_reference(a, k, d: int, n0: int, s: int, x: Fraction, max_width):
    """(lo, hi) around sum floor(a k^n / n^d) x^n on n = n0, n0 + s, ...,
    or math.inf where the series diverges, term by term in Fractions.

    The schedule is the one a damped-tail enclosure follows: 64 terms, then
    doubling until hi - lo <= max_width or the term count reaches 4096
    (at k x = 1) or 16384 (below).  With m the first omitted support point
    and z = k x: hi adds a z^m / m^d / (1 - z^s) below the radius, and the
    integral bound a (m^-d + m^(1-d) / (s (d - 1))) on it at z = 1; lo adds
    a z^m / m^d less the floors' loss x^m / (1 - x^s), when positive.
    """
    a, k = Fraction(a), Fraction(k)
    z = k * x
    if z > 1 or (z == 1 and d <= 1):
        return math.inf
    cap = 4096 if z == 1 else 16384
    total = Fraction(0)
    n = n0
    xp, kp = x**n, k**n
    terms = 64
    done = 0
    while True:
        while done < terms:
            total += math.floor(a * kp / n**d) * xp
            n += s
            xp, kp = xp * x**s, kp * k**s
            done += 1
        if z < 1:
            rest = a * z**n / (1 - z**s) / Fraction(n) ** d
        else:
            rest = a * (Fraction(n) ** -d + Fraction(n) ** (1 - d) / (s * (d - 1)))
        head = a * z**n / Fraction(n) ** d - xp / (1 - x**s)
        lo, hi = total + max(Fraction(0), head), total + rest
        if hi - lo <= max_width or terms >= cap:
            return lo, hi
        terms *= 2


def is_even_shift_word(word: str) -> bool:
    """Maximal 0-blocks lying between two 1s must have even length."""
    first = word.find("1")
    if first < 0:
        return True
    last = word.rfind("1")
    for block in word[first:last].split("1"):
        if len(block) % 2 == 1:
            return False
    return True


def two_length_growth_rate(l1: int, l2: int) -> float:
    """log of the root of x^-l1 + x^-l2 = 1, by float bisection."""
    lo, hi = 1.0, 2.0
    while lo ** -l1 + lo ** -l2 <= 1.0:
        lo *= 0.99
    while hi ** -l1 + hi ** -l2 >= 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** -l1 + mid ** -l2 > 1.0:
            lo = mid
        else:
            hi = mid
    return math.log((lo + hi) / 2)


def count_label_words(edges: list[Edge], labels: dict[Edge, str], length: int) -> set:
    """All edge-label words of paths with `length` edges (multigraph unaware:
    call with distinct edge keys when labels differ on parallel edges)."""
    words = {("", v) for v in {u for u, _ in edges} | {w for _, w in edges}}
    for _ in range(length):
        words = {
            (word + labels[(u, v)], v)
            for word, at in words
            for u, v in edges
            if u == at
        }
    return {word for word, _ in words}


def random_strongly_connected(rng: random.Random, n_max: int = 8):
    """Simple strongly connected digraph: a full cycle plus random chords."""
    n = rng.randint(2, n_max)
    vs = [f"v{i}" for i in range(n)]
    shuffled = vs[:]
    rng.shuffle(shuffled)
    edges = {
        (shuffled[i], shuffled[(i + 1) % n]) for i in range(n)
    }
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.choice(vs), rng.choice(vs)
        edges.add((u, v))
    return vs, sorted(edges)


def line_graph_edges(named_edges: list[tuple[str, str, str]]) -> list[Edge]:
    """Line graph of a multigraph given as (name, tail, head): e -> f exactly
    when head(e) = tail(f), tested over all pairs, e-major in edge order."""
    return [
        (e, f)
        for e, _, head in named_edges
        for f, tail, _ in named_edges
        if head == tail
    ]


def prune_by_deletion(vertices, edges) -> list:
    """Delete vertices without a successor or a predecessor until none is left;
    the survivors keep their order in `vertices`."""
    alive = list(vertices)
    while True:
        keep = [
            v for v in alive
            if any(u == v and w in alive for u, w in edges)
            and any(w == v and u in alive for u, w in edges)
        ]
        if keep == alive:
            return alive
        alive = keep


def label_pair_product(a: tuple, b: tuple) -> tuple:
    """Pruned label fiber product of two labeled graphs, by brute force.

    Each graph is (vertices, edges, labels).  Pairs are all (u, v) with u a
    vertex of `a`, v one of `b` and equal labels, in vertex order of u and
    then of v; an edge joins every two pairs whose coordinates are both edges.
    Returns the surviving pairs in that order and the edges between them.
    """
    (va, ea, la), (vb, eb, lb) = a, b
    pairs = [(u, v) for u in va for v in vb if la[u] == lb[v]]
    sa, sb = set(ea), set(eb)
    pair_edges = [(p, q) for p in pairs for q in pairs if (p[0], q[0]) in sa and (p[1], q[1]) in sb]
    alive = prune_by_deletion(pairs, pair_edges)
    return alive, [(p, q) for p, q in pair_edges if p in alive and q in alive]


def related_tuple_graph(vertices: list[str], edges: list[Edge], rel: set, m: int,
                        wired: bool = False) -> tuple:
    """F_m by brute force, or with `wired` the pruned distinct-entry product.

    F_m: all m-tuples whose entries are pairwise related both ways, with an
    edge t -> s when every t_k -> s_k is an edge.  With `wired`: distinct
    entries only, and t -> s an edge when t_i -> s_j is an edge exactly for
    i = j, tested over all pairs of tuples, then pruned by deletion.  Returns
    the tuples and the edges before pruning, and the surviving tuples.
    """
    es = set(edges)
    tuples = [
        t for t in itertools.product(vertices, repeat=m)
        if all((t[i], t[j]) in rel and (t[j], t[i]) in rel
               for i in range(m) for j in range(i + 1, m))
        and (not wired or len(set(t)) == m)
    ]

    def joined(t, s) -> bool:
        if wired:
            return all(((t[i], s[j]) in es) == (i == j) for i in range(m) for j in range(m))
        return all((t[i], s[i]) in es for i in range(m))

    tuple_edges = [(t, s) for t in tuples for s in tuples if joined(t, s)]
    alive = prune_by_deletion(tuples, tuple_edges) if wired else tuples
    return tuples, tuple_edges, alive


def quotient_flags(alive: list[tuple], tuple_edges: list) -> dict:
    """Resolving flags and fiber completeness of the map t -> set(t), over the
    surviving tuples, by brute force."""
    kept = set(alive)
    succ = {t: [s for a, s in tuple_edges if a == t and s in kept] for t in alive}
    pred = {t: [a for a, s in tuple_edges if s == t and a in kept] for t in alive}

    def resolving(nbr) -> bool:
        reach: dict = {}
        for t in alive:
            reach.setdefault(frozenset(t), set()).update(frozenset(w) for w in nbr[t])
        return all(
            len({frozenset(w) for w in nbr[t]}) == len(nbr[t])
            and {frozenset(w) for w in nbr[t]} == reach[frozenset(t)]
            for t in alive
        )

    m = len(alive[0]) if alive else 0
    orderings: dict = {}
    for t in alive:
        orderings[frozenset(t)] = orderings.get(frozenset(t), 0) + 1
    return {
        "right_resolving": resolving(succ),
        "left_resolving": resolving(pred),
        "fibers_complete": bool(alive) and all(c == math.factorial(m) for c in orderings.values()),
    }


GOLDEN_ENTROPY = math.log((1 + math.sqrt(5)) / 2)
LOG2 = math.log(2)
LOG3 = math.log(3)


# Seeded document mutations: a token replaced, a line deleted, duplicated,
# swapped or inserted, or the text truncated.  Token replacements stay small:
# classifying a loop near LENGTH_CAP takes seconds by design, which a
# per-input time bound would report as a hang.
TOKENS = (
    "0", "1", "2", "3", "7", "-1", "1/2", "3/2", "1/0", "x", "", "e1", "a", "b",
    "10" * 15, "1e999999", "log", "poly", "root-in", "inf", "geometric", "damped",
    "from", "stride", "edge", "vertex", "map", "pair", "count", "tail", "gen",
)
LINES = (
    "", "#", "graph", "loops", "code vertex", "relation", "vertex a", "vertex c",
    "edge a b", "edge b b e3", "map e3 0", "pair e0 e1", "count 2 1", "count 0 1",
    "tail geometric 1/8 2 from 5", "tail damped 1/4 2 2 from 6", "gen 1 log 3 0",
    "gen 0 log 2 1", "gen 1 inf 0",
)


def mutate(rng: random.Random, text: str) -> str:
    """One seeded mutation of a document's text."""
    lines = text.splitlines()
    op = rng.randrange(6)
    if op == 0 and lines:
        i = rng.randrange(len(lines))
        toks = lines[i].split(" ")
        toks[rng.randrange(len(toks))] = rng.choice(TOKENS)
        lines[i] = " ".join(toks)
    elif op == 1 and lines:
        del lines[rng.randrange(len(lines))]
    elif op == 2 and lines:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif op == 3 and len(lines) > 1:
        i, j = rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 4:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(LINES))
    else:
        return text[: rng.randrange(len(text) + 1)]
    return "\n".join(lines) + "\n"
