"""Independent answers for every benchmark operation.

Nothing here imports `borelshift`.  The oracles work in floats on the ground
truth that `corpus.py` records: Perron roots by power iteration on A + I over
sparse rows, periods by BFS levels, strongly connected components by an
iterative Tarjan walk, first-return equations Phi(x) = 1 by bisection, and
fibre products by direct enumeration.  The checks compare those answers with
what the program printed and return a list of disagreements (empty when the
answer is right).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

ENTROPY_TOL = 1e-9
MAX_INTERVAL_WIDTH = Fraction(1, 10**12)


# --- graphs ---


def successor_rows(n: int, edges) -> list[list[int]]:
    rows = [[] for _ in range(n)]
    for a, b in edges:
        rows[a].append(b)
    return rows


def perron_root(n: int, edges, rel_tol: float = 1e-14, max_iters: int = 200000) -> float:
    """Perron root of an irreducible adjacency (multiplicities counted).

    Power iteration on A + I, which is primitive for irreducible A, with
    float Collatz-Wielandt bounds min/max (Av)_i / v_i as the stopping rule.
    """
    rows = successor_rows(n, edges)
    v = [1.0] * n
    lo = hi = 0.0
    for _ in range(max_iters):
        av = [sum(v[j] for j in row) for row in rows]
        ratios = [av[i] / v[i] for i in range(n)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= rel_tol * hi:
            break
        v = [v[i] + av[i] for i in range(n)]
        top = max(v)
        v = [x / top for x in v]
    return (lo + hi) / 2


def strongly_connected(n: int, edges) -> list[list[int]]:
    """Tarjan's algorithm without recursion."""
    rows = successor_rows(n, edges)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            if i < len(rows[v]):
                work[-1] = (v, i + 1)
                w = rows[v][i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def period_of(vertices, edges) -> int:
    """gcd over edges of level(u) + 1 - level(v), levels by BFS from one vertex."""
    vset = set(vertices)
    inner = [(a, b) for a, b in edges if a in vset and b in vset]
    rows: dict[int, list[int]] = {}
    for a, b in inner:
        rows.setdefault(a, []).append(b)
    root = next(iter(vertices))
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in rows.get(v, ()):
                if w not in level:
                    level[w] = level[v] + 1
                    nxt.append(w)
        frontier = nxt
    g = 0
    for a, b in inner:
        g = gcd(g, level[a] + 1 - level[b])
    return abs(g)


def graph_components(n: int, edges) -> list[tuple[int, float, bool]]:
    """(period, entropy, carries an MME) for every component with a cycle."""
    comps = strongly_connected(n, edges)
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    inner: list[list] = [[] for _ in comps]
    for a, b in edges:
        if comp_of[a] == comp_of[b]:
            inner[comp_of[a]].append((a, b))
    out = []
    for comp, own in zip(comps, inner):
        if not own:
            continue
        period = period_of(comp, own)
        if len(own) == len(comp):
            # every vertex has exactly one inner successor: a single cycle
            out.append((period, 0.0, False))
            continue
        local = {v: i for i, v in enumerate(comp)}
        lam = perron_root(len(comp), [(local[a], local[b]) for a, b in own])
        out.append((period, math.log(lam), True))
    return out


# --- first-return equations ---


def bisect_increasing(f, lo: float, hi: float, steps: int = 200) -> float:
    """Root of an increasing function with f(lo) < 0 < f(hi)."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def finite_returns_entropy(returns) -> float:
    """Entropy -log x of the root of sum c_n x^n = 1 (finitely many returns)."""
    if sum(c for _, c in returns) == 1:
        return 0.0
    x = bisect_increasing(lambda x: sum(c * x**n for n, c in returns) - 1, 0.0, 1.0)
    return -math.log(x)


def marker_entropy(big: int, b1: int, b2: int) -> float:
    """-log x for the root of G x^b1 + G x^b2 = 1, solved in t = -log x."""
    lo, hi = sorted((b1, b2))

    def log_phi(t):
        return math.log(big) - lo * t + math.log1p(math.exp(-(hi - lo) * t))

    return bisect_increasing(lambda t: -log_phi(t), 0.0, 50.0)


def _tail_support(tail, limit: int):
    _, p = tail
    n = p["n0"]
    step = p.get("stride", 1)
    while n <= limit:
        yield n
        n += step


def _damped_weights(p, terms: int) -> list[tuple[int, float]]:
    """(n, floor(a k^n / n^d) / k^n) over the first `terms` support points."""
    a, k = Fraction(p["a"]), Fraction(p["k"])
    out = []
    n = p["n0"]
    step = p.get("stride", 1)
    for _ in range(terms):
        num = a.numerator * k.numerator**n
        den = a.denominator * k.denominator**n * n ** p["d"]
        c = num // den
        out.append((n, (c * k.denominator**n) / k.numerator**n))
        n += step
    return out


def schema_truth(counts, tail) -> tuple[str, float, int]:
    """(recurrence, entropy, period) of a loop schema, from Phi alone."""
    g = 0
    for n, c in counts:
        if c:
            g = gcd(g, n)
    if tail is None:
        return "positive-recurrent", finite_returns_entropy(counts), g
    family, p = tail
    k = float(Fraction(p["k"]))
    if family == "geometric":
        a = float(Fraction(p["a"]))
        for n in list(_tail_support(tail, p["n0"] + 2 * p.get("stride", 1))):
            g = gcd(g, n)
        s = p.get("stride", 1)

        def phi(x):
            y = k * x
            return sum(c * x**n for n, c in counts) + a * y ** p["n0"] / (1 - y**s) - 1

        x = bisect_increasing(phi, 0.0, (1 - 1e-15) / k)
        return "positive-recurrent", -math.log(x), g
    a = float(Fraction(p["a"]))
    explicit = sum(c * k**-n for n, c in counts)
    # floor(a k^n / n^d) / k^n <= a / n^d, and for d >= 2 the support past
    # `last` adds at most a / last: a bound below 1 certifies transience
    last = 20000
    support = list(_tail_support(tail, last))
    if explicit + a * sum(n ** -p["d"] for n in support) + a / last < 1:
        weights = _damped_weights(p, 64)
        for n in [n for n, w in weights if w > 0]:
            g = gcd(g, n)
        return "transient", math.log(k), g
    weights = _damped_weights(p, 4000)
    for n in [n for n, w in weights if w > 0][:64]:
        g = gcd(g, n)
    if explicit + sum(w for _, w in weights) <= 1:
        raise ValueError("schema is too close to critical for the float oracle")

    def phi(x):
        q = k * x
        return sum(c * x**n for n, c in counts) + sum(w * q**n for n, w in weights) - 1

    x = bisect_increasing(phi, 0.0, 1 / k)
    return "positive-recurrent", -math.log(x), g


# --- invariants documents ---


def parse_generators(text: str):
    """[(period, expr tokens, count or None for unattained)] from gen lines."""
    gens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] != "gen":
            raise ValueError(f"not a generator line: {line!r}")
        count = None if toks[-1] == "unattained" else int(toks[-1])
        gens.append((int(toks[1]), toks[2:-1], count))
    return gens


def expr_value(toks) -> float:
    if toks[0] == "log":
        return math.log(float(Fraction(toks[1])))
    if toks[0] == "poly":
        cut = toks.index("root-in")
        lo, hi = Fraction(toks[cut + 1]), Fraction(toks[cut + 2])
        return math.log(float((lo + hi) / 2))
    lo, hi = Fraction(toks[0]), Fraction(toks[1])
    return float((lo + hi) / 2)


def check_enclosure(toks, h: float) -> list[str]:
    """A printed entropy expression must certify the oracle entropy h."""
    errs = []
    if toks[0] == "log":
        if abs(math.log(float(Fraction(toks[1]))) - h) > ENTROPY_TOL:
            errs.append(f"log {toks[1]} is not entropy {h!r}")
    elif toks[0] == "poly":
        cut = toks.index("root-in")
        coeffs = [int(t) for t in toks[1:cut]]
        lo, hi = Fraction(toks[cut + 1]), Fraction(toks[cut + 2])
        lam = math.exp(h)
        if not (float(lo) - ENTROPY_TOL <= lam <= float(hi) + ENTROPY_TOL):
            errs.append(f"root-in [{float(lo)!r}, {float(hi)!r}] misses the root {lam!r}")
        scale = sum(abs(c) * lam**i for i, c in enumerate(coeffs))
        value = sum(c * lam**i for i, c in enumerate(coeffs))
        if abs(value) > 1e-7 * scale:
            errs.append(f"minimal polynomial does not vanish at {lam!r}")
    else:
        lo, hi = Fraction(toks[0]), Fraction(toks[1])
        if hi - lo > MAX_INTERVAL_WIDTH:
            errs.append(f"interval width {float(hi - lo)!r} exceeds 1e-12")
        if abs(float((lo + hi) / 2) - h) > ENTROPY_TOL:
            errs.append(f"interval [{float(lo)!r}, {float(hi)!r}] is not entropy {h!r}")
    return errs


def u_eta(items, periods):
    """u(p) and eta(p) for p in periods from (period, entropy, mme count) items."""
    out = []
    for p in periods:
        hs = [h for q, h, _ in items if p % q == 0 and h > ENTROPY_TOL]
        u = max(hs, default=0.0)
        eta = 0
        if u > 0:
            eta = sum(c for q, h, c in items if q == p and abs(h - u) <= ENTROPY_TOL)
        out.append((u, eta))
    return out


def check_invariants(text: str, components, max_period: int = 60) -> list[str]:
    """Printed generators must give the same (u, eta) as the oracle components.

    `components` lists (period, entropy, mme count).  The functions are
    compared at periods 1..max_period and at every period either side names.
    Every generator's entropy expression must also enclose the oracle entropy
    it stands for.
    """
    try:
        gens = parse_generators(text)
    except ValueError as exc:
        return [str(exc)]
    errs = []
    want_hs = [h for _, h, _ in components if h > ENTROPY_TOL]
    for period, toks, _ in gens:
        h = expr_value(toks)
        nearest = min(want_hs, key=lambda w: abs(w - h), default=None)
        if nearest is None:
            errs.append(f"generator at period {period} but the shift has zero entropy")
            continue
        errs.extend(check_enclosure(toks, nearest))
    named = {p for p, _, _ in components} | {p for p, _, _ in gens}
    periods = sorted(set(range(1, max_period + 1)) | named)
    got = u_eta([(p, expr_value(t), c or 0) for p, t, c in gens], periods)
    want = u_eta(components, periods)
    for p, (g, w) in zip(periods, zip(got, want)):
        if abs(g[0] - w[0]) > ENTROPY_TOL or g[1] != w[1]:
            errs.append(f"(u, eta)({p}) = {g} but the oracle gives {w}")
            break
    return errs


def component_lines(stdout: str) -> list[dict]:
    out = []
    for line in stdout.splitlines():
        if line.startswith("# component="):
            out.append(dict(tok.split("=", 1) for tok in line[2:].split()))
    return out


# --- factor codes ---


def labeled_graph(truth):
    """(states, successor sets, labels) of the code's vertex-mode normal form."""
    edges, labels = truth["edges"], truth["labels"]
    if truth["mode"] == "vertex":
        states = list(range(truth["n"]))
        succ = [set() for _ in states]
        for a, b in edges:
            succ[a].add(b)
        return states, succ, labels
    states = list(range(len(edges)))
    starting = {}
    for i, (a, _) in enumerate(edges):
        starting.setdefault(a, []).append(i)
    succ = [set(starting.get(b, ())) for _, b in edges]
    return states, succ, labels


def state_names(truth, names) -> list[str]:
    if truth["mode"] == "vertex":
        return list(names)
    return [f"x{i}" for i in range(len(truth["edges"]))]


def prune(nodes, succ) -> set:
    """Largest node set in which every node has a successor and a predecessor."""
    alive = set(nodes)
    pred: dict = {v: set() for v in nodes}
    for v in nodes:
        for w in succ[v]:
            pred[w].add(v)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if not (succ[v] & alive) or not (pred[v] & alive):
                alive.discard(v)
                changed = True
    return alive


def minimal_relation(truth) -> set:
    """Label-equal state pairs that extend to equal-label bi-infinite paths."""
    states, succ, labels = labeled_graph(truth)
    pairs = [(u, v) for u in states for v in states if labels[u] == labels[v]]
    pair_succ = {
        (u, v): {(a, b) for a in succ[u] for b in succ[v] if labels[a] == labels[b]}
        for u, v in pairs
    }
    return prune(pairs, pair_succ)


def domain_entropy(truth) -> float:
    return math.log(perron_root(truth["n"], truth["edges"]))


def image_entropy(truth) -> float:
    """Entropy of the sofic image: follower-set automaton, then Perron roots.

    Subsets start at each symbol's states in the pruned labeled graph and
    step by symbol; the image entropy is the largest component entropy of
    that deterministic graph.
    """
    states, succ, labels = labeled_graph(truth)
    alive = prune(states, succ)
    start: dict = {}
    for v in alive:
        start.setdefault(labels[v], set()).add(v)
    ids: dict = {}
    edges = []
    frontier = [frozenset(s) for s in start.values()]
    for s in frontier:
        ids.setdefault(s, len(ids))
    while frontier:
        s = frontier.pop()
        by_symbol: dict = {}
        for v in s:
            for w in succ[v] & alive:
                by_symbol.setdefault(labels[w], set()).add(w)
        for t in by_symbol.values():
            t = frozenset(t)
            if t not in ids:
                ids[t] = len(ids)
                frontier.append(t)
            edges.append((ids[s], ids[t]))
    return max((h for _, h, _ in graph_components(len(ids), edges)), default=0.0)


def distinct_tuple_shift(truth, relation: set, m: int):
    """Distinct-entry m-tuples with exact wiring, pruned; plus its successor map."""
    states, succ, _ = labeled_graph(truth)
    tuples = [()]
    for _ in range(m):
        tuples = [
            t + (v,)
            for t in tuples
            for v in states
            if all((u, v) in relation and (v, u) in relation for u in t)
        ]
    tuples = [t for t in tuples if len(set(t)) == m]
    tsucc = {
        a: {
            b
            for b in tuples
            if all((b[j] in succ[a[i]]) == (i == j) for i in range(m) for j in range(m))
        }
        for a in tuples
    }
    alive = prune(tuples, tsucc)
    return alive, {a: tsucc[a] & alive for a in alive}


def fiberprod_truth(truth, relation: set, m: int) -> dict:
    """tilde_states, fibers_complete and both resolving flags of the quotient."""
    alive, tsucc = distinct_tuple_shift(truth, relation, m)
    tpred = {a: set() for a in alive}
    for a in alive:
        for b in tsucc[a]:
            tpred[b].add(a)
    by_set: dict = {}
    for t in alive:
        by_set.setdefault(frozenset(t), []).append(t)
    complete = bool(alive) and all(len(v) == math.factorial(m) for v in by_set.values())

    def resolving(nbr) -> bool:
        images: dict = {}
        for t in alive:
            images.setdefault(frozenset(t), set()).update(frozenset(w) for w in nbr[t])
        for t in alive:
            seen = [frozenset(w) for w in nbr[t]]
            if len(set(seen)) != len(seen) or set(seen) != images[frozenset(t)]:
                return False
        return True

    return {
        "tilde_states": len(alive),
        "fibers_complete": complete,
        "right_resolving": resolving(tsucc),
        "left_resolving": resolving(tpred),
    }


# --- pathology ---


def golden_word_count(k: int) -> int:
    """Words of length k with no 11 (the default pathology base)."""
    a, b = 1, 1  # words ending in 0, in 1, at length 1
    for _ in range(k - 1):
        a, b = a + b, a
    return a + b


def pathology_returns(M: int, m_seq) -> list[tuple[int, int]]:
    out = [(M, 1)]
    for k, m in enumerate(m_seq, start=1):
        out.append((2 * k + m, golden_word_count(k) ** 2))
    return out


def window_estimate(returns, window: int) -> float:
    """Loop-count slope log(l_n / l_{n-1}) at the largest usable n <= window."""
    f = [0] * (window + 1)
    for n, c in returns:
        if n <= window:
            f[n] += c
    loops = [1] + [0] * window
    for n in range(1, window + 1):
        loops[n] = sum(f[j] * loops[n - j] for j in range(1, n + 1) if f[j])
    ns = [n for n in range(1, window + 1) if loops[n] > 0]
    for n in reversed(ns):
        if loops[n - 1] > 0 and n - 1 >= 1:
            return math.log(loops[n]) - math.log(loops[n - 1])
    n = ns[-1]
    return math.log(loops[n]) / n


def first_return_lower_bound(n: int, edges, base: int, limit: int) -> float:
    """Entropy lower bound from first returns to `base` of length <= limit.

    Truncating Phi can only raise the root of Phi(x) = 1, so -log of the
    truncated root bounds the entropy from below.
    """
    rows = successor_rows(n, edges)
    weight = {base: 1.0}
    returns = []
    scale = 0.0  # log of the factor divided out of `weight` so far
    for step in range(1, limit + 1):
        nxt: dict[int, float] = {}
        for v, w in weight.items():
            for u in rows[v]:
                nxt[u] = nxt.get(u, 0.0) + w
        back = nxt.pop(base, 0.0)
        if back:
            returns.append((step, math.log(back) + scale))
        if not nxt:
            break
        top = max(nxt.values())
        weight = {v: w / top for v, w in nxt.items()}
        scale += math.log(top)
    # solve sum exp(log c_n - n t) = 1 for t = -log x
    return bisect_increasing(
        lambda t: -(sum(math.exp(lc - s * t) for s, lc in returns) - 1), 0.0, 50.0
    )

