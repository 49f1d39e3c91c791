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

Lifts are counted, not listed, by a walk on the presentation itself: per-label
successor rows on the positions of its own `GraphIndex`, one entry per edge, so
parallel edges stay apart.  The walk keeps a path count per end vertex and at
each step moves it along the edges spelling the next letter of the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log
from typing import Optional

from .codes import BlockCode, BudgetExhausted
from .entropy import ExtendedEntropy, IntervalApprox, compare_entropy
from .graphs import first_return_counts, loop_entropy_estimate, renewal_loop_counts
from .presentations import FiniteGraph, LoopSchema
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


@dataclass(frozen=True)
class PathologySpec:
    base: FiniteGraph  # vertex names are the base symbols; simple graph
    M: int
    m_seq: tuple[int, ...]  # connector length per level k = 1..len(m_seq)

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("root loop length M must be >= 1")
        if not self.m_seq:
            raise ValueError("need at least one level")
        for m in self.m_seq:
            if m < 1 or m % self.M == 0:
                raise ValueError("connector lengths must avoid multiples of M")
        lengths = [2 * k + m for k, m in enumerate(self.m_seq, start=1)]
        if len(set(lengths)) != len(lengths) or self.M in lengths:
            raise ValueError("return lengths must be pairwise distinct")
        if MARK in self.base.vertices:
            raise ValueError(f"base alphabet may not contain {MARK!r}")
        if self.base.has_parallel_edges():
            raise ValueError("base must be a simple vertex-shift graph")

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


def build_pathology_graph(spec: PathologySpec) -> BlockCode:
    """Edge-labeled presentation; labels are base symbols plus the 2 marker."""
    edges: list[tuple[str, str]] = []
    labels: list[str] = []

    def add(u: str, v: str, sym: str):
        edges.append((u, v))
        labels.append(sym)

    # M-loop at the root
    if spec.M == 1:
        add(ROOT, ROOT, MARK)
    else:
        add(ROOT, "z1", MARK)
        for i in range(1, spec.M - 1):
            add(f"z{i}", f"z{i+1}", MARK)
        add(f"z{spec.M-1}", ROOT, MARK)

    # symbols are joined with ',' and a connector tag's fields separated by
    # '|', neither of which a symbol may hold, so distinct words stay distinct
    def tnode(prefix: tuple[str, ...]) -> str:
        return ROOT if not prefix else "t" + ",".join(prefix)

    def unode(suffix: tuple[str, ...]) -> str:
        return ROOT if not suffix else "u" + ",".join(suffix)

    levels = {k: base_words(spec.base, k) for k in range(1, spec.depth + 1)}

    # shared prefix tree and shared suffix co-tree over the deepest level;
    # base words are path words, so every prefix and suffix appears
    tree_edges = set()
    cotree_edges = set()
    for w in levels[spec.depth]:
        for i in range(len(w)):
            tree_edges.add((w[:i], w[: i + 1]))
            cotree_edges.add((w[i:], w[i + 1 :]))
    for p, q in sorted(tree_edges):
        add(tnode(p), tnode(q), q[-1])
    for s, rest in sorted(cotree_edges):
        add(unode(s), unode(rest), s[0])

    # one connector per ordered pair at each level
    for k in range(1, spec.depth + 1):
        m = spec.m_seq[k - 1]
        for wp in levels[k]:
            for wm in levels[k]:
                tag = f"c{k}|{','.join(wp)}|{','.join(wm)}"
                prev = tnode(wp)
                for j in range(1, m):
                    cur = f"{tag}|{j}"
                    add(prev, cur, MARK)
                    prev = cur
                add(prev, unode(wm), MARK)

    verts = tuple(sorted({v for e in edges for v in e}))
    g = FiniteGraph(verts, tuple(edges))
    mapping = tuple(zip(g.edge_names, labels))
    return BlockCode(g, mapping, mode="edge")


class _LabelWalk:
    """Per-label successor rows of a code's presentation, on the positions of
    its domain's `GraphIndex`, for counting edge paths by the word they spell.

    `rows[a][v]` lists the ends of the edges from v that spell a, once per
    edge, so parallel edges count apart.  In edge mode an edge spells its own
    label; in vertex mode an edge v -> w spells the label of w, and a walk's
    first letter picks its start vertices instead of moving.  Counts are kept
    per end vertex.
    """

    def __init__(self, code: BlockCode):
        g = code.domain
        idx = g.index()
        n = len(idx.order)
        if code.mode == "edge":
            pos = idx.pos
            self.vertex_sym = None
            arcs = ((code.label(e), pos[u], pos[v]) for (u, v), e in zip(g.edges, g.edge_names))
        else:
            sym = [code.label(v) for v in idx.order]
            self.vertex_sym = sym
            arcs = ((sym[j], i, j) for i, row in enumerate(idx.succ) for j, _ in row)
        self.rows: dict[str, list] = {}
        for a, i, j in arcs:
            row = self.rows.get(a)
            if row is None:
                row = self.rows[a] = [()] * n
            if row[i]:
                row[i].append(j)
            else:
                row[i] = [j]
        self.positions = range(n)
        marks = self.rows.get(MARK, ())
        # a lift enters where a 2-labeled edge ends and leaves where one starts
        self.leaves = {v for v, row in enumerate(marks) if row}
        if self.vertex_sym is None:
            self.entered = sorted({w for row in marks for w in row})
        else:
            self.entered = sorted(
                {j for i, s in enumerate(self.vertex_sym) if s == MARK for j, _ in idx.succ[i]}
            )

    def start(self, starts, letter: str) -> dict[int, int]:
        """Paths from the positions `starts` spelling the one-letter word."""
        if self.vertex_sym is not None:
            return {v: 1 for v in starts if self.vertex_sym[v] == letter}
        return self.step(dict.fromkeys(starts, 1), letter)

    def step(self, cnt: dict[int, int], letter: str) -> dict[int, int]:
        """Extend every counted path by one edge spelling letter."""
        row = self.rows.get(letter)
        nxt: dict[int, int] = {}
        if row is None:
            return nxt
        for p, c in cnt.items():
            for q in row[p]:
                nxt[q] = nxt.get(q, 0) + c
        return nxt


def count_label_paths(code: BlockCode, word: tuple[str, ...]) -> int:
    """Number of paths in the presentation whose label word equals word."""
    if not word:
        return len(code.domain.vertices)
    walk = _LabelWalk(code)
    cnt = walk.start(walk.positions, word[0])
    for letter in word[1:]:
        cnt = walk.step(cnt, letter)
    return sum(cnt.values())


def anchored_lifts(
    code: BlockCode, words: list[tuple[str, ...]], walk: Optional[_LabelWalk] = None
) -> list[int]:
    """Number of lifts of each non-empty word whose ends extend by the 2 marker.

    A lift starts where some 2-labeled edge ends and ends where one starts,
    so the word models a block flanked by maximal 2-runs.  The batch is
    walked in sorted order, and each word keeps the path counts of the prefix
    it shares with the word before it.  `walk` is the code's `_LabelWalk`,
    built here when not given.
    """
    if walk is None:
        walk = _LabelWalk(code)
    out = [0] * len(words)
    path: list[dict[int, int]] = []  # path[i]: counts for the first i + 1 letters
    prev: tuple[str, ...] = ()
    for n in sorted(range(len(words)), key=words.__getitem__):
        word = words[n]
        keep = 0
        while keep < min(len(word), len(prev)) and word[keep] == prev[keep]:
            keep += 1
        del path[keep:]
        if not path:
            path.append(walk.start(walk.entered, word[0]))
        for letter in word[len(path):]:
            path.append(walk.step(path[-1], letter))
        out[n] = sum(c for p, c in path[-1].items() if p in walk.leaves)
        prev = word
    return out


@dataclass(frozen=True)
class PathologyReport:
    spec: PathologySpec
    return_counts_match: bool
    window: int
    states: int  # vertices of the built presentation
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
    """Check every desk-scale claim of the construction against the built graph.

    A window above WINDOW_CAP, or a presentation above SIZE_CAP, raises
    BudgetExhausted before anything is built.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > WINDOW_CAP:
        raise BudgetExhausted(f"window {window} is above WINDOW_CAP = {WINDOW_CAP}")
    spec.size()
    code = build_pathology_graph(spec)
    g = code.domain
    lengths = spec.return_lengths()
    l_max = max(window, max(n for n, _ in lengths))
    counts = first_return_counts(g, ROOT, l_max)
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
    walk = _LabelWalk(code)
    block_lifts = anchored_lifts(code, [word for _, word in blocks], walk)
    failures = [f"{name}: {n} lifts" for (name, _), n in zip(blocks, block_lifts) if n != 1]

    # the paths spelling (first,) + (2,) * t, extended one marker edge per t
    witness = None
    lifts = 0
    first = base_words(spec.base, 1)[0][0]
    cnt = walk.start(walk.positions, first)
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
        states=len(g.vertices),
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
