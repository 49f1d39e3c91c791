"""Shifts whose entropy is invisible to bounded-length loop counting.

The construction hangs excursions off a base vertex r: a loop of length M
labeled 2, and for each level k = 1..depth an excursion for every ordered
pair of base words (w+, w-) of length k: spell w+ down a shared prefix tree,
cross a connector of m_k edges labeled 2 (one connector per pair), then spell
w- down a shared suffix co-tree back to r.  The first-return generating
function at r is therefore

    Phi(x) = x^M + sum_k |Y_k|^2 x^(2 k + m_k)

and an observer counting loops at r of length at most some window sees only
the terms that fit.  Choosing every excursion longer than the window makes
the loop-entropy estimate collapse (to 0 when only the M-loop is visible)
while the shift itself has entropy bounded away from it, and deeper
constructions push the true entropy toward the base entropy.

Requiring m_k to avoid multiples of M makes maximal 2-blocks self-identifying:
a maximal 2-block of length jM lifts only through the root loop, one of
length m_k only through a level-k connector, so a block together with its
flanking base words determines the path segment covering it; unanchored
2-runs stay ambiguous with many lifts.  Maximality is imposed at word level
by requiring the lift to enter through a 2-labeled edge and leave through
one, which is exactly what flanking 2 symbols force.

The construction is built once, on integer positions: the root is position 0
and every other state gets the next position as the construction first meets
it.  Its arcs are held once, as parallel columns of labels, tails and heads,
and the loop and the connectors, chains of marker arcs, go in as runs of
positions.  `certify_pathology` reads the columns only to build one label
walk, built from arc columns alone, each arc spelling its own label: per
label, an array giving each position's first head (-1 for none), and a
small dict for the few tails with more than one arc of that label (the tree
nodes, where the connectors start).  The walk keeps a path count per end
position.  Stepped over every label it gives the first returns at the root;
stepped along the letters of a word it counts the word's lifts without
listing them.  At the default depth 8 (151,370 states) the certificate
peaks at 8 MB traced, where the arcs held as tuples, successor rows and
per-tail lists took 73 MB.  `build_pathology_graph` names the same positions
and arcs for readers of the presentation.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import chain, repeat
from math import ceil, log
from operator import ne
from typing import NamedTuple, Optional

from .codes import BlockCode, BudgetExhausted
from .entropy import ExtendedEntropy, IntervalApprox, compare_entropy
from .graphs import first_returns_by_step, loop_entropy_estimate, renewal_loop_counts
from .presentations import FiniteGraph, LoopSchema, Record
from .recurrence import classify_recurrence

ROOT = "r"
MARK = "2"
BORDER_CHECK_CAP = 400

# Largest number of vertices plus edges that certify_pathology builds.  The
# default run (golden-mean base, eps 3/10, window 40) makes 151,370 states
# and 307,633 in all at depth 8; each level multiplies that by about 2.7.
SIZE_CAP = 400_000
# Largest loop-count window: the loop counts up to it are summed and logged.
WINDOW_CAP = 10_000


class PathologySpec(Record):
    """Base graph (its vertex names are the base symbols; a simple graph), root
    loop length M, and the connector length per level k = 1..len(m_seq)."""

    _fields = ("base", "M", "m_seq")

    def __init__(self, base: FiniteGraph, M: int, m_seq: tuple[int, ...]):
        if M < 1:
            raise ValueError("root loop length M must be >= 1")
        if not m_seq:
            raise ValueError("need at least one level")
        for m in m_seq:
            if m < 1 or m % M == 0:
                raise ValueError("connector lengths must avoid multiples of M")
        lengths = [2 * k + m for k, m in enumerate(m_seq, start=1)]
        if len(set(lengths)) != len(lengths) or M in lengths:
            raise ValueError("return lengths must be pairwise distinct")
        if MARK in base.vertices:
            raise ValueError(f"base alphabet may not contain {MARK!r}")
        if base.has_parallel_edges():
            raise ValueError("base must be a simple vertex-shift graph")
        super().__init__(base, M, m_seq)

    @property
    def depth(self) -> int:
        return len(self.m_seq)

    def return_lengths(self) -> list[tuple[int, int]]:
        """(length, count) of first returns to the root, M-loop included."""
        out = [(self.M, 1)]
        for k, (m, words) in enumerate(zip(self.m_seq, word_counts(self.base)), start=1):
            out.append((2 * k + m, words**2))
        return sorted(out)

    def size(self) -> int:
        """Vertices plus edges of build_pathology_graph(self), counted from
        M, m_seq and the base word counts |Y_k| without building anything;
        BudgetExhausted as soon as the count passes SIZE_CAP.

        The vertices are the root and M - 1 loop states, one prefix-tree and
        one co-tree node per base word of length 1..depth, and m_k - 1 per
        level-k connector; the edges are the M-loop's M, at most one into
        each tree and co-tree node, and m_k per connector.
        """
        size = 2 * self.M
        for m, words in zip(self.m_seq, word_counts(self.base)):
            size += 4 * words + words**2 * (2 * m - 1)
            if size > SIZE_CAP:
                raise BudgetExhausted(
                    f"pathology presentation has more than SIZE_CAP = {SIZE_CAP} "
                    "vertices plus edges"
                )
        return size


def word_counts(base: FiniteGraph):
    """|Y_1|, |Y_2|, ...: the number of vertex words of each length in the
    base graph, by a walk that keeps one count per end vertex."""
    idx = base.index()
    ends = [1] * len(idx.order)
    while True:
        yield sum(ends)
        nxt = [0] * len(ends)
        for i, c in enumerate(ends):
            for j, _ in idx.succ[i]:
                nxt[j] += c
        ends = nxt


def base_words(base: FiniteGraph, n: int) -> list[tuple[str, ...]]:
    """All vertex words of length n in the base graph, sorted: they are built
    in position order, which is name order."""
    idx = base.index()
    words = [(i,) for i in range(len(idx.order))]
    for _ in range(n - 1):
        words = [w + (j,) for w in words for j, _ in idx.succ[w[-1]]]
    return [tuple(idx.order[i] for i in w) for w in words]


class _Construction(NamedTuple):
    """The construction on integer positions 0..states-1, the root at 0 and
    the M-loop's inner states at 1..M-1.  Arc n, in edge order, is
    (labels[n], tails[n], heads[n]).  `tree` and `cotree` map each
    prefix-tree and co-tree word to its position, () to the root; connector
    (k, w+, w-, p) has its m_k - 1 inner states at p, p + 1, ..."""

    states: int
    labels: list[str]
    tails: array
    heads: array
    tree: dict[tuple[str, ...], int]
    cotree: dict[tuple[str, ...], int]
    connectors: list[tuple[int, tuple[str, ...], tuple[str, ...], int]]


def _construct(spec: PathologySpec) -> _Construction:
    """The M-loop, then the shared prefix tree and suffix co-tree over the
    deepest level, then one connector per ordered pair of base words at each
    level.  Tree and co-tree nodes are keyed by word tuples, so words that
    spell the same characters, like (a, b) and (ab,), stay distinct.  The
    loop and each connector are chains of marker arcs, appended to the arc
    columns as runs of positions."""
    states = spec.M
    labels = [MARK] * spec.M
    tails = array("l", range(spec.M))
    heads = array("l", range(1, spec.M))
    heads.append(0)
    tree: dict[tuple[str, ...], int] = {(): 0}
    cotree: dict[tuple[str, ...], int] = {(): 0}

    def node(nodes: dict, word: tuple[str, ...]) -> int:
        nonlocal states
        p = nodes.get(word)
        if p is None:
            p = nodes[word] = states
            states += 1
        return p

    def arc(label: str, i: int, j: int) -> None:
        labels.append(label)
        tails.append(i)
        heads.append(j)

    levels = [base_words(spec.base, k) for k in range(1, spec.depth + 1)]
    # base words are path words, so every prefix and suffix appears
    tree_edges = set()
    cotree_edges = set()
    for w in levels[-1]:
        for i in range(len(w)):
            tree_edges.add((w[:i], w[: i + 1]))
            cotree_edges.add((w[i:], w[i + 1 :]))
    for p, q in sorted(tree_edges):
        arc(q[-1], node(tree, p), node(tree, q))
    for s, rest in sorted(cotree_edges):
        arc(s[0], node(cotree, s), node(cotree, rest))

    connectors = []
    for k, (m, words) in enumerate(zip(spec.m_seq, levels), start=1):
        for wp in words:
            t = node(tree, wp)
            for wm in words:
                u = node(cotree, wm)
                connectors.append((k, wp, wm, states))
                inner = range(states, states + m - 1)
                states += m - 1
                labels.extend(repeat(MARK, m))
                tails.append(t)
                tails.extend(inner)
                heads.extend(inner)
                heads.append(u)
    return _Construction(states, labels, tails, heads, tree, cotree, connectors)


def build_pathology_graph(spec: PathologySpec) -> BlockCode:
    """Edge-labeled presentation of the construction; labels are base symbols
    plus the 2 marker.

    Its edges are the construction's arcs, in their order, between the names
    of their positions: the root r, loop states z1..z(M-1), tree nodes t and
    co-tree nodes u followed by their word, and connector states c followed
    by the level, the word pair and the state's place on the connector.  Symbols are joined with ',' and
    a connector tag's fields separated by '|', neither of which a symbol may
    hold, so distinct words name distinct states.
    """
    c = _construct(spec)
    names = [ROOT, *(f"z{i}" for i in range(1, spec.M))] + [""] * (c.states - spec.M)
    for tag, nodes in (("t", c.tree), ("u", c.cotree)):
        for word, p in nodes.items():
            if word:
                names[p] = tag + ",".join(word)
    for k, wp, wm, first in c.connectors:
        tag = f"c{k}|{','.join(wp)}|{','.join(wm)}"
        inner = range(1, spec.m_seq[k - 1])
        names[first : first + len(inner)] = (f"{tag}|{j}" for j in inner)
    name = names.__getitem__
    g = FiniteGraph(tuple(sorted(names)), tuple(zip(map(name, c.tails), map(name, c.heads))))
    return BlockCode(g, tuple(zip(g.edge_names, c.labels)), mode="edge")


class _LabelWalk:
    """Per-label successor arrays over positions 0..states-1, built from arc
    columns, for counting paths by the word their arcs spell.

    `first[a][v]` is the head of v's one arc labeled a, -1 if it has none
    and -2 if it has several; `more[a]` maps those few tails to their heads,
    in arc order, so parallel arcs count apart.  Counts are kept per end
    position.  The masks `entered` and `leaves` mark where a 2-labeled step
    ends and where one starts.
    """

    def __init__(self, states: int, labels, tails, heads):
        self.states = states
        self.first: dict[str, array] = {}
        self.more: dict[str, dict[int, list[int]]] = {}
        for a, i, j in zip(labels, tails, heads):
            first = self.first.get(a)
            if first is None:
                first = self.first[a] = array("l", [-1]) * states
                self.more[a] = {}
            q = first[i]
            if q == -1:
                first[i] = j
            elif q >= 0:
                first[i] = -2
                self.more[a][i] = [q, j]
            else:
                self.more[a][i].append(j)
        # a lift enters where a 2-labeled step ends and leaves where one starts
        marks = self.first.get(MARK, ())
        self.leaves = bytes(map(ne, marks, repeat(-1))) if marks else bytes(states)
        self.entered = bytearray(states)
        for j in chain(marks, *self.more.get(MARK, {}).values()):
            if j >= 0:
                self.entered[j] = 1

    def start(self, starts: Optional[bytearray], letter: str) -> dict[int, int]:
        """Paths spelling the one-letter word from the positions that the mask
        `starts` marks, or from every position when it is None."""
        first = self.first.get(letter, ())
        cnt = {p: 1 for p, q in enumerate(first) if q != -1 and (starts is None or starts[p])}
        return self.step(cnt, letter)

    def step(self, cnt: dict[int, int], letter: str) -> dict[int, int]:
        """Extend every counted path by one arc spelling letter."""
        nxt: dict[int, int] = {}
        self._extend(nxt, cnt, letter)
        return nxt

    def step_any(self, cnt: dict[int, int]) -> dict[int, int]:
        """Extend every counted path by one arc of any label."""
        nxt: dict[int, int] = {}
        for letter in self.first:
            self._extend(nxt, cnt, letter)
        return nxt

    def _extend(self, nxt: dict[int, int], cnt: dict[int, int], letter: str) -> None:
        first = self.first.get(letter)
        if first is None:
            return
        more = self.more[letter]
        for p, c in cnt.items():
            q = first[p]
            if q >= 0:
                nxt[q] = nxt.get(q, 0) + c
            elif q == -2:
                for q in more[p]:
                    nxt[q] = nxt.get(q, 0) + c


def anchored_lifts(walk: _LabelWalk, words: list[tuple[str, ...]]) -> list[int]:
    """Number of lifts of each non-empty word whose ends extend by the 2 marker.

    A lift starts where some 2-labeled edge ends and ends where one starts,
    so the word models a block flanked by maximal 2-runs.  The batch is
    walked in sorted order, and each word keeps the path counts of the prefix
    it shares with the word before it.
    """
    leaves = walk.leaves
    out = [0] * len(words)
    path: list[dict[int, int]] = []  # path[i]: counts for the first i + 1 letters
    prev: tuple[str, ...] = ()
    for n in sorted(range(len(words)), key=words.__getitem__):
        word = words[n]
        keep, common = 0, min(len(word), len(prev))
        while keep < common and word[keep] == prev[keep]:
            keep += 1
        del path[keep:]
        if not path:
            path.append(walk.start(walk.entered, word[0]))
        for letter in word[len(path):]:
            path.append(walk.step(path[-1], letter))
        out[n] = sum(c for p, c in path[-1].items() if leaves[p])
        prev = word
    return out


class PathologyReport(NamedTuple):
    spec: PathologySpec
    return_counts_match: bool
    window: int
    states: int  # states of the construction
    loop_rows: tuple[tuple[int, int], ...]  # (length, loop count) within window
    estimate: float  # loop-entropy estimate over the window
    estimate_below_eps: bool
    hidden_entropy: ExtendedEntropy  # certified entropy of the full return schema
    gap_certified: bool  # hidden entropy certified above the window estimate
    bordered_checked: int
    bordered_unique: bool
    bordered_failures: tuple[str, ...]
    ambiguous_witness: Optional[tuple[str, ...]]
    witness_lifts: int


def _sampled_pairs(words: list[tuple[str, ...]], cap: int):
    pairs = [(a, b) for a in words for b in words]
    if len(pairs) <= cap:
        return pairs
    stride = max(1, len(pairs) // cap)
    return pairs[::stride][:cap]


def certify_pathology(spec: PathologySpec, eps: Fraction, window: int = 40) -> PathologyReport:
    """Check every desk-scale claim of the construction against its arcs.

    A window above WINDOW_CAP, or a presentation above SIZE_CAP, raises
    BudgetExhausted before anything is built.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > WINDOW_CAP:
        raise BudgetExhausted(f"window {window} is above WINDOW_CAP = {WINDOW_CAP}")
    spec.size()
    # the arc columns are dropped once the walk holds them
    walk = _LabelWalk(*_construct(spec)[:4])
    lengths = spec.return_lengths()
    l_max = max(window, max(n for n, _ in lengths))
    counts = first_returns_by_step(walk.step_any, 0, l_max)
    expected = [0] * (l_max + 1)
    for n, c in lengths:
        expected[n] = c
    counts_match = counts == expected

    # first returns to ROOT stay in its component: the loop counts follow
    loops = renewal_loop_counts(counts[: window + 1])
    rows = [(n, loops[n], log(loops[n]) / n) for n in range(1, window + 1) if loops[n]]
    estimate = loop_entropy_estimate(rows)
    eps_iv = IntervalApprox(eps, eps)
    est_iv = IntervalApprox(
        Fraction(estimate) - Fraction(1, 10**9), Fraction(estimate) + Fraction(1, 10**9)
    )
    below = compare_entropy(est_iv, eps_iv, Fraction(1, 10**12)) == "lt"

    full_schema = LoopSchema(counts=tuple(lengths), tail=None)
    hidden = classify_recurrence(full_schema).entropy
    gap = compare_entropy(hidden, est_iv, Fraction(1, 10**12)) == "gt"

    blocks: list[tuple[str, tuple[str, ...]]] = []
    for k in range(1, spec.depth + 1):
        m = spec.m_seq[k - 1]
        for wp, wm in _sampled_pairs(base_words(spec.base, k), BORDER_CHECK_CAP):
            blocks.append((f"level {k} pair {''.join(wp)}|{''.join(wm)}", wp + (MARK,) * m + wm))
    for s in base_words(spec.base, 1):
        for s2 in base_words(spec.base, 1):
            blocks.append((f"root block {s[0]}|{s2[0]}", s + (MARK,) * spec.M + s2))
    block_lifts = anchored_lifts(walk, [word for _, word in blocks])
    failures = [f"{name}: {n} lifts" for (name, _), n in zip(blocks, block_lifts) if n != 1]

    # the paths spelling (first,) + (2,) * t, extended one marker edge per t
    witness = None
    lifts = 0
    first = base_words(spec.base, 1)[0][0]
    cnt = walk.start(None, first)
    for t in range(1, max(spec.m_seq) + spec.M):
        cnt = walk.step(cnt, MARK)
        lifts = sum(cnt.values())
        if lifts >= 2:
            witness = (first,) + (MARK,) * t
            break

    return PathologyReport(
        spec=spec,
        return_counts_match=counts_match,
        window=window,
        states=walk.states,
        loop_rows=tuple((n, c) for n, c, _ in rows),
        estimate=estimate,
        estimate_below_eps=below,
        hidden_entropy=hidden,
        gap_certified=gap,
        bordered_checked=len(blocks),
        bordered_unique=not failures,
        bordered_failures=tuple(failures),
        ambiguous_witness=witness,
        witness_lifts=lifts,
    )


def _check_depth(depth: int) -> None:
    # m_seq holds one entry per level, so a deeper spec is over the cap alone
    if depth > SIZE_CAP:
        raise BudgetExhausted(f"depth {depth} is above SIZE_CAP = {SIZE_CAP}")


def choose_pathology_parameters(
    base: FiniteGraph,
    eps: Fraction,
    depth: int = 8,
    window: int = 40,
) -> PathologySpec:
    """Parameters hiding every excursion beyond the loop-count window.

    M = ceil(log 4 / eps) bounds the M-loop estimate by eps/2 on its own;
    connector lengths then place excursion k at total length window + k,
    nudged upward past multiples of M and collisions.
    """
    _check_depth(depth)
    M = max(2, ceil(log(4) / float(eps)))
    m_seq: list[int] = []
    used_total = {M}
    used_m = {M}  # distinct block lengths keep maximal 2-runs self-identifying
    for k in range(1, depth + 1):
        total = max(window + 1, 2 * k + 2)
        while (
            total in used_total
            or total - 2 * k < 1
            or (total - 2 * k) % M == 0
            or total - 2 * k in used_m
        ):
            total += 1
        used_total.add(total)
        used_m.add(total - 2 * k)
        m_seq.append(total - 2 * k)
    return PathologySpec(base, M, tuple(m_seq))


def control_parameters(base: FiniteGraph, depth: int = 8) -> PathologySpec:
    """Negative control: shortest legal loops, nothing hidden from the window."""
    _check_depth(depth)
    M = 2
    m_seq = [1] * depth  # return lengths 2k+1, all odd, never multiples of 2
    return PathologySpec(base, M, tuple(m_seq))
