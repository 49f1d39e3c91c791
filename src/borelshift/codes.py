"""One-block factor codes on finite presentations, with constructive checks.

A code labels either the vertices of a simple graph or the edges of a
multigraph.  `BlockCode.labeled()` returns the vertex-mode normal form as a
vertex-mode `BlockCode`: the code itself in vertex mode, the code on the
cached line graph in edge mode.  All decision procedures work on the label
fiber product: pairs of vertices with equal labels and componentwise edges,
pruned to the part lying on bi-infinite paths.

  injective      <=>  the label fiber product is contained in the diagonal
  finite-to-one  <=>  no diamond: no off-diagonal pair both reachable from
                      and co-reachable to the diagonal (domain irreducible)

The compatibility relation of a code is the vertex set of its label fiber
product.  From a relation the m-fold fibered product F_m (mutually related
ordered m-tuples, componentwise edges) and its distinct-entry part with exact
wiring carry a quotient map onto unordered m-sets; when the wiring condition
holds that quotient is left and right resolving with exactly m! preimages per
point.

The label fiber product is the code's self product.  Its candidates are
rectangles (each vertex against the bucket of its label), so a pair's code is
arithmetic and its degrees are sums of products of per-label neighbour
counts; its degree-count prune lists a pair's neighbours only when it dies,
and only the survivors are named `u|v`.  F_m and X̃_m start from relation-
filtered tuples instead and share `_tuple_product`, which builds successor
rows on `GraphIndex` positions and prunes them with `_biinfinite`.  Every
product keeps its vertices' coordinates in `tuples`.  The checks walk
`GraphIndex` positions too; names appear only in what they return.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import factorial
from typing import Optional

from .entropy import DEFAULT_TOL, ExtendedEntropy, ZERO_ENTROPY, max_entropy, perron_entropy
from .graphs import _component_ids, irreducible_components
from .presentations import (
    FiniteGraph,
    GraphIndex,
    ParseError,
    _content_lines,
    _parse_graph_body,
    format_presentation,
)

# Most mutually related tuples (of any length up to m) that F_m and the
# distinct-entry product may enumerate.  F_m can grow exponentially in m (the
# even-shift code has 2^m + 1 states); past the cap the products raise
# BudgetExhausted instead of allocating more.
TUPLE_CAP = 100_000


class BudgetExhausted(RuntimeError):
    """A documented size cap was reached before an answer was certified."""


@dataclass(frozen=True)
class BlockCode:
    """1-block code from a finite presentation onto its sofic image."""

    domain: FiniteGraph
    mapping: tuple[tuple[str, str], ...]
    mode: str = "vertex"  # or "edge"

    def __post_init__(self):
        if self.mode not in ("vertex", "edge"):
            raise ValueError("mode must be 'vertex' or 'edge'")
        keys = sorted(k for k, _ in self.mapping)
        if self.mode == "vertex":
            if self.domain.has_parallel_edges():
                raise ValueError("vertex-mode code needs a simple domain graph")
            want = sorted(self.domain.vertices)
        else:
            want = sorted(self.domain.edge_names)
        if keys != want:
            raise ValueError(f"mapping must cover every {self.mode} exactly once")

    def labeled(self) -> "BlockCode":
        """Vertex-mode normal form: the code itself in vertex mode, else the
        vertex-mode code on the line graph, built on first use and cached, so
        every check on this code shares one line graph.

        In edge mode, edge e -> f when head(e) = tail(f), ordered by e and then
        by f in the domain's edge order.
        """
        if self.mode == "vertex":
            return self
        try:
            return self._labeled
        except AttributeError:
            pass
        g = self.domain
        leaving: dict[str, list[str]] = {}
        for name, (u, _) in zip(g.edge_names, g.edges):
            leaving.setdefault(u, []).append(name)
        edges = tuple(
            (e, f) for e, (_, w) in zip(g.edge_names, g.edges) for f in leaving.get(w, ())
        )
        lm = self._label_map
        lg = BlockCode(FiniteGraph(g.edge_names, edges), tuple((v, lm[v]) for v in g.edge_names))
        object.__setattr__(self, "_labeled", lg)
        return lg

    def label(self, key: str) -> str:
        return self._label_map[key]

    @property
    def _label_map(self) -> dict:
        try:
            return self._lm_cache
        except AttributeError:
            lm = dict(self.mapping)
            object.__setattr__(self, "_lm_cache", lm)
            return lm

    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({s for _, s in self.mapping}))


@dataclass(frozen=True)
class ProductGraph(FiniteGraph):
    """Product graph; `tuples[i]` holds the coordinate names of `vertices[i]`."""

    tuples: tuple[tuple[str, ...], ...] = ()


def _biinfinite(succ: list[list[int]]) -> list[bool]:
    """Degree-count prune on integer rows of distinct successors: True exactly
    for the vertices with a predecessor and a successor in the kept part."""
    pred: list[list[int]] = [[] for _ in succ]
    for v, row in enumerate(succ):
        for w in row:
            pred[w].append(v)
    outdeg = [len(row) for row in succ]
    indeg = [len(row) for row in pred]
    alive = [o > 0 and i > 0 for o, i in zip(outdeg, indeg)]
    dead = [v for v, ok in enumerate(alive) if not ok]
    while dead:
        v = dead.pop()
        for rows, deg in ((pred, outdeg), (succ, indeg)):
            for w in rows[v]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 0:
                        alive[w] = False
                        dead.append(w)
    return alive


def _tuple_product(
    idx: GraphIndex, tuples: list[tuple[int, ...]], m: int, distinct: bool
) -> ProductGraph:
    """Graph on the m-tuples of positions of `idx` in `tuples`, with
    componentwise edges.

    Successors are products of the coordinates' successor rows, extended one
    coordinate at a time through prefixes of `tuples` and looked up in one
    tuple -> code dict.  With `distinct` (X̃_m) a -> b is kept only if no
    a_i -> b_j with i != j is an edge, and only the bi-infinite part is kept.
    Names join coordinate names with ',', and vertices are sorted by name.
    Edges are sorted and called `e<k>` by rank among all the tuples' edges,
    as `FiniteGraph.induced` keeps them.  Serves F_m and X̃_m; the label
    fiber product has its own path.
    """
    code = {t: i for i, t in enumerate(tuples)}
    prefixes = {t[:k] for t in tuples for k in range(1, m)}
    rows = [[w for w, _ in row] for row in idx.succ]
    adj = [set(row) for row in rows] if distinct else []
    succ = []
    for t in tuples:
        partial = [()]
        for k, p in enumerate(t):
            known = code if k == m - 1 else prefixes
            partial = [q for r in partial for w in rows[p] if (q := r + (w,)) in known]
        if distinct:
            partial = [
                q for q in partial
                if not any(q[j] in adj[a] for i, a in enumerate(t) for j in range(m) if i != j)
            ]
        succ.append([code[q] for q in partial])
    alive = _biinfinite(succ) if distinct else [True] * len(tuples)
    coords = [tuple(idx.order[p] for p in t) for t in tuples]
    names = [",".join(c) for c in coords]
    keep = [i for i in sorted(range(len(tuples)), key=names.__getitem__) if alive[i]]
    edges = sorted(
        (names[i], names[j], alive[i] and alive[j]) for i, row in enumerate(succ) for j in row
    )
    kept = [(f"e{k}", (u, w)) for k, (u, w, ok) in enumerate(edges) if ok]
    return ProductGraph(
        tuple(names[i] for i in keep),
        tuple(e for _, e in kept),
        tuple(name for name, _ in kept),
        tuples=tuple(coords[i] for i in keep),
    )


def _rows_by_label(lg: BlockCode, key: list[int]) -> tuple[list[dict], list[dict]]:
    """Successors and predecessors of each vertex (by index in vertex order),
    grouped by label, each neighbour w stored as `key[w]`."""
    at = {v: i for i, v in enumerate(lg.domain.vertices)}
    lm = lg._label_map
    succ: list[dict[str, list[int]]] = [{} for _ in at]
    pred: list[dict[str, list[int]]] = [{} for _ in at]
    for u, w in lg.domain.edges:
        i, j = at[u], at[w]
        succ[i].setdefault(lm[w], []).append(key[j])
        pred[j].setdefault(lm[u], []).append(key[i])
    return succ, pred


def label_fiber_product(code: BlockCode) -> ProductGraph:
    """Label-equal vertex pairs of the code's `labeled()` form with
    componentwise edges, pruned to the part on bi-infinite paths.

    The candidates are rectangles: each vertex u meets the bucket of the
    vertices with u's label, in vertex order.  Pair (u, v) has the code
    `start[u] + rank[v]`: `start[u]` is the offset of u's block in vertex
    order and `rank[v]` is v's index in its bucket, so no pair is stored.
    Neighbours are grouped by label once, as vertex indices j for the first
    coordinate and `rank` values r for the second.  The out-degree of (u, v)
    is the sum over labels s of |succ_s(u)|·|succ_s(v)|, the in-degree the
    same sum over predecessors, and a pair's neighbours are the codes
    `start[j] + r`.  The worklist prune of `_biinfinite` runs on these
    counts; each dead pair carries its block index, and lists its neighbours
    only on the side where it still had live ones.  Survivors, read off the
    blocks in code order, are named `u|v`; their edges are sorted and called
    `e<k>`.  The other products use `_tuple_product`.
    """
    lg = code.labeled()
    lm = lg._label_map
    verts = lg.domain.vertices
    bucket: dict[str, list[int]] = {}
    rank = []
    for y, v in enumerate(verts):
        members = bucket.setdefault(lm[v], [])
        rank.append(len(members))
        members.append(y)
    blocks = [bucket[lm[u]] for u in verts]
    start = list(accumulate(map(len, blocks), initial=0))  # start[-1] counts the pairs
    a_succ, a_pred = _rows_by_label(lg, range(len(verts)))
    b_succ, b_pred = _rows_by_label(lg, rank)

    def degrees(a_rows, b_rows) -> list[int]:
        columns: dict[tuple[str, str], list[int]] = {}  # (bucket, label) -> counts
        out: list[int] = []
        for u, block, row in zip(verts, blocks, a_rows):
            deg = [0] * len(block)
            for s, xs in row.items():
                col = columns.get((lm[u], s))
                if col is None:
                    col = columns[lm[u], s] = [len(b_rows[y].get(s, ())) for y in block]
                n = len(xs)
                deg = [d + n * c for d, c in zip(deg, col)]
            out.extend(deg)
        return out

    outdeg, indeg = degrees(a_succ, b_succ), degrees(a_pred, b_pred)
    alive = [o > 0 and d > 0 for o, d in zip(outdeg, indeg)]
    dead = [
        (p, i) for i in range(len(blocks)) for p in range(start[i], start[i + 1]) if not alive[p]
    ]
    while dead:
        p, i = dead.pop()
        # a dead pair's count on one side is 0: no live neighbour there
        if indeg[p]:
            a_rows, b_rows, deg = a_pred, b_pred, outdeg
        elif outdeg[p]:
            a_rows, b_rows, deg = a_succ, b_succ, indeg
        else:
            continue
        brow = b_rows[blocks[i][p - start[i]]]
        for s, js in a_rows[i].items():
            rs = brow.get(s)
            if not rs:
                continue
            for j in js:
                x = start[j]
                for r in rs:
                    q = x + r
                    if alive[q]:
                        deg[q] -= 1
                        if deg[q] == 0:
                            alive[q] = False
                            dead.append((q, j))
    kept = {
        p: (i, y)
        for i, block in enumerate(blocks)
        for p, y in enumerate(block, start[i])
        if alive[p]
    }
    coords = {p: (verts[i], verts[y]) for p, (i, y) in kept.items()}
    names = {p: f"{u}|{v}" for p, (u, v) in coords.items()}
    edges = sorted(
        (names[p], names[q])
        for p, (i, y) in kept.items()
        for s, js in a_succ[i].items()
        for r in b_succ[y].get(s, ())
        for q in (start[j] + r for j in js)
        if alive[q]
    )
    return ProductGraph(
        tuple(names.values()),
        tuple(edges),
        tuple(f"e{k}" for k in range(len(edges))),
        tuples=tuple(coords.values()),
    )


def prune_to_biinfinite(g: FiniteGraph) -> FiniteGraph:
    """Largest subgraph in which every vertex has a predecessor and successor."""
    idx = g.index()
    alive = _biinfinite([[w for w, _ in row] for row in idx.succ])
    return g.induced(v for v in g.vertices if alive[idx.pos[v]])


@dataclass(frozen=True)
class InjectivityReport:
    injective: bool
    # pair of distinct equal-label vertex paths in the domain; when periodic
    # they close up into genuinely periodic points with the same image
    witness: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None
    periodic: bool = False


def _find_cycle_through(idx: GraphIndex, comp: list[int], start: int) -> Optional[list[int]]:
    """A directed cycle start -> ... -> start inside start's component."""
    stack = [(start, [start])]
    seen = set()
    while stack:
        v, path = stack.pop()
        for w, _ in idx.succ[v]:
            if w == start:
                return path
            if comp[w] == comp[start] and w not in seen:
                seen.add(w)
                stack.append((w, path + [w]))
    return None


def _path_to_cycle(rows, start: int) -> list[int]:
    """Follow each row's first entry until a position repeats; every pruned
    vertex reaches a cycle."""
    path = [start]
    seen = {start}
    while True:
        v = rows[path[-1]][0][0]
        path.append(v)
        if v in seen:
            return path
        seen.add(v)


def _unzip(prod: ProductGraph, path: list[int]) -> tuple[tuple[str, ...], ...]:
    """The coordinate paths of a path of product positions."""
    coords = dict(zip(prod.vertices, prod.tuples))
    order = prod.index().order
    return tuple(zip(*(coords[order[i]] for i in path)))


def check_injective(code: BlockCode) -> InjectivityReport:
    prod = label_fiber_product(code)
    idx = prod.index()
    off = [idx.pos[p] for p, (u, v) in zip(prod.vertices, prod.tuples) if u != v]
    if not off:
        return InjectivityReport(True)
    comp, _ = _component_ids(idx)
    # a pair with a successor in its own component lies on a cycle
    cyclic = [i for i in off if any(comp[j] == comp[i] for j, _ in idx.succ[i])]
    if cyclic:
        start = min(cyclic, key=comp.__getitem__)
        cyc = _find_cycle_through(idx, comp, start)
        return InjectivityReport(False, _unzip(prod, cyc), periodic=True)
    # off-diagonal pair that only joins diagonal behavior on both sides
    back = _path_to_cycle(idx.pred, off[0])
    fwd = _path_to_cycle(idx.succ, off[0])
    return InjectivityReport(False, _unzip(prod, back[::-1] + fwd[1:]), periodic=False)


@dataclass(frozen=True)
class FiniteToOneReport:
    finite_to_one: bool
    # a diamond: two distinct equal-label paths with common endpoints
    diamond: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None


def _reach(rows, seeds: list[int]) -> dict:
    """BFS tree along `rows`: position -> its parent on a path from the seeds."""
    parent = dict.fromkeys(seeds)
    frontier = seeds
    while frontier:
        nxt = []
        for v in frontier:
            for w, _ in rows[v]:
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return parent


def check_finite_to_one(code: BlockCode) -> FiniteToOneReport:
    prod = label_fiber_product(code)
    idx = prod.index()
    at = [idx.pos[p] for p in prod.vertices]
    diag = [i for i, (u, v) in zip(at, prod.tuples) if u == v]
    fwd = _reach(idx.succ, diag)
    bwd = _reach(idx.pred, diag)
    for i, (u, v) in zip(at, prod.tuples):
        if u != v and i in fwd and i in bwd:
            left = _trace(fwd, i)  # diagonal ... -> i
            right = _trace(bwd, i)[::-1]  # i -> ... diagonal
            return FiniteToOneReport(False, _unzip(prod, left + right[1:]))
    return FiniteToOneReport(True)


def _trace(parent: dict, v: int) -> list[int]:
    out = [v]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def _pruned_symbols(code: BlockCode) -> tuple[GraphIndex, list[str]]:
    """The index of the bi-infinite part of the labeled domain and the symbol
    at each position."""
    lg = code.labeled()
    idx = prune_to_biinfinite(lg.domain).index()
    return idx, [lg.label(v) for v in idx.order]


def image_words(code: BlockCode, length: int) -> set[tuple[str, ...]]:
    """All label words of the given length occurring in the image."""
    if length == 0:
        return {()}
    idx, sym = _pruned_symbols(code)
    words = set()
    stack = [((s,), v) for v, s in enumerate(sym)]
    while stack:
        w, v = stack.pop()
        if len(w) == length:
            words.add(w)
            continue
        for u, _ in idx.succ[v]:
            stack.append((w + (sym[u],), u))
    return words


def image_entropy(code: BlockCode) -> ExtendedEntropy:
    """Entropy of the sofic image, via the determinized label automaton."""
    idx, sym = _pruned_symbols(code)
    if not sym:
        return ZERO_ENTROPY
    seeds: dict[str, set[int]] = {}
    for v, s in enumerate(sym):
        seeds.setdefault(s, set()).add(v)
    subsets = {frozenset(s) for s in seeds.values()}
    frontier = list(subsets)
    edges = []
    while frontier:
        s = frontier.pop()
        succ_by_symbol: dict[str, set[int]] = {}
        for v in s:
            for w, _ in idx.succ[v]:
                succ_by_symbol.setdefault(sym[w], set()).add(w)
        for t in succ_by_symbol.values():
            ft = frozenset(t)
            edges.append((s, ft))
            if ft not in subsets:
                subsets.add(ft)
                frontier.append(ft)
        if len(subsets) > 1 << 16:
            raise ArithmeticError("determinization exceeded the subset budget")
    # positions are in name order, so sorting subsets by position sorts them by name
    names = {s: f"s{i}" for i, s in enumerate(sorted(subsets, key=sorted))}
    dfa = FiniteGraph.from_edges([(names[a], names[b]) for a, b in edges])
    values = [perron_entropy(comp) for _, comp in irreducible_components(dfa)]
    if not values:
        return ZERO_ENTROPY
    return max_entropy(values, DEFAULT_TOL)


# --- compatibility relations and m-fold fibered products ---


@dataclass(frozen=True)
class SymbolRelation:
    """Binary relation on domain vertices (edge names in edge mode)."""

    pairs: frozenset

    @staticmethod
    def of(pairs) -> "SymbolRelation":
        return SymbolRelation(frozenset(tuple(p) for p in pairs))

    def holds(self, u: str, v: str) -> bool:
        return (u, v) in self.pairs

    def members(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.pairs))


def minimal_relation(code: BlockCode) -> SymbolRelation:
    """Pairs jointly extendable to equal-label bi-infinite paths."""
    return SymbolRelation.of(label_fiber_product(code).tuples)


@dataclass(frozen=True)
class BowenReport:
    holds: bool
    complete: bool  # every jointly extendable pair is related
    label_equal: bool  # related pairs have equal labels
    symmetric: bool
    reflexive: bool
    failures: tuple[str, ...] = ()


def verify_bowen_relation(code: BlockCode, rel: SymbolRelation) -> BowenReport:
    lm = code.labeled()._label_map
    prod = label_fiber_product(code)
    alive = {v for t in prod.tuples for v in t}
    failures = []
    complete = True
    for u, v in prod.tuples:
        if not rel.holds(u, v):
            complete = False
            failures.append(f"missing extendable pair ({u},{v})")
    label_equal = True
    symmetric = True
    reflexive = all(rel.holds(v, v) for v in alive)
    if not reflexive:
        failures.append("relation not reflexive on surviving vertices")
    for u, v in rel.members():
        if u not in lm or v not in lm:
            label_equal = False
            failures.append(f"pair ({u},{v}) mentions unknown vertices")
        elif lm[u] != lm[v]:
            label_equal = False
            failures.append(f"related pair ({u},{v}) has labels {lm[u]} != {lm[v]}")
        if not rel.holds(v, u):
            symmetric = False
            failures.append(f"pair ({u},{v}) present without ({v},{u})")
    holds = complete and label_equal and symmetric and reflexive
    return BowenReport(holds, complete, label_equal, symmetric, reflexive, tuple(failures))


def _related_tuples(idx: GraphIndex, rel: SymbolRelation, m: int, distinct: bool):
    """Ordered m-tuples of positions whose entries are pairwise related both
    ways (distinct entries only, with `distinct`).

    Raises BudgetExhausted before the tuples of any length pass TUPLE_CAP.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    pos = idx.pos
    partners: list[set[int]] = [set() for _ in idx.order]
    for u, v in rel.pairs:
        if u in pos and v in pos and (v, u) in rel.pairs:
            partners[pos[u]].add(pos[v])
    out: list[tuple[int, ...]] = [()]
    for k in range(1, m + 1):
        nxt = []
        for t in out:
            for v in partners[t[0]] if t else range(len(idx.order)):
                if all(v in partners[u] for u in t) and not (distinct and v in t):
                    if len(nxt) == TUPLE_CAP:
                        raise BudgetExhausted(
                            f"more than TUPLE_CAP = {TUPLE_CAP} mutually related {k}-tuples"
                        )
                    nxt.append(t + (v,))
        out = nxt
    return out


def build_fibered_product_Fm(code: BlockCode, rel: SymbolRelation, m: int) -> ProductGraph:
    """Graph on mutually related ordered m-tuples with componentwise edges."""
    idx = code.labeled().domain.index()
    return _tuple_product(idx, _related_tuples(idx, rel, m, False), m, False)


def extract_tilde_Xm(code: BlockCode, rel: SymbolRelation, m: int) -> ProductGraph:
    """Distinct-entry m-tuples with exact wiring, pruned to the bi-infinite
    part: an edge between tuples needs the base edge a_i -> b_j to exist
    precisely when i = j."""
    idx = code.labeled().domain.index()
    return _tuple_product(idx, _related_tuples(idx, rel, m, True), m, True)


@dataclass(frozen=True)
class ResolvingReport:
    right_resolving: bool
    left_resolving: bool
    fibers_complete: bool  # every surviving m-set carries all m! orderings
    preimage_count: Optional[int]  # m! when everything holds
    failures: tuple[str, ...] = ()


def _lifts_resolve(order, rows, image, kind: str, failures: list) -> bool:
    """Each tuple's neighbors along `rows` lie over distinct m-sets, and they
    cover every m-set that its own m-set's tuples reach."""
    reach: dict[frozenset, set] = {}
    for v, row in enumerate(rows):
        reach.setdefault(image[v], set()).update(image[w] for w, _ in row)
    ok = True
    for v, row in enumerate(rows):
        seen: set = set()
        for w, _ in row:
            if image[w] in seen:
                ok = False
                failures.append(
                    f"tuple {order[v]} has two {kind}s over set-image {sorted(image[w])}"
                )
            seen.add(image[w])
        if seen != reach[image[v]]:
            ok = False
            failures.append(f"tuple {order[v]} misses a set-{kind} lift")
    return ok


def quotient_psi(xm: ProductGraph, m: int) -> ResolvingReport:
    """Check the quotient of the distinct-entry product `xm`, as
    `extract_tilde_Xm` builds it for this `m`, onto unordered m-sets."""
    failures: list[str] = []
    if not xm.vertices:
        return ResolvingReport(True, True, False, None, ("empty distinct-entry product",))
    # vertices are sorted by name, so they are also the index positions
    image = [frozenset(t) for t in xm.tuples]
    fibers_complete = True
    for s, count in Counter(image).items():
        if count != factorial(m):
            fibers_complete = False
            failures.append(f"set {{{','.join(sorted(s))}}} carries {count} orderings")
    idx = xm.index()
    right = _lifts_resolve(idx.order, idx.succ, image, "successor", failures)
    left = _lifts_resolve(idx.order, idx.pred, image, "predecessor", failures)
    count = factorial(m) if (right and left and fibers_complete) else None
    return ResolvingReport(right, left, fibers_complete, count, tuple(failures))


# --- document formats ---


def parse_code(text: str) -> BlockCode:
    """Code document: 'code vertex|edge', a graph body, then 'map <key> <sym>'."""
    header_mode = None
    body = []  # (line number, tokens) of the vertex and edge lines
    mapping = []
    for i, toks in _content_lines(text):
        if header_mode is None:
            if toks[0] != "code" or len(toks) != 2:
                raise ParseError(i, "expected 'code vertex' or 'code edge' header")
            header_mode, header_line = toks[1], i
            continue
        if toks[0] == "map":
            if len(toks) != 3:
                raise ParseError(i, "map line is 'map <key> <symbol>'")
            mapping.append((toks[1], toks[2]))
        elif toks[0] in ("vertex", "edge"):
            body.append((i, toks))
        elif toks[0] == "graph":
            continue
        else:
            raise ParseError(i, f"unexpected {toks[0]!r} in code document")
    if header_mode is None:
        raise ParseError(1, "empty code document")
    g = _parse_graph_body(body, header_line)
    try:
        return BlockCode(g, tuple(mapping), header_mode)
    except ValueError as exc:
        raise ParseError(header_line, str(exc)) from None


def format_code(code: BlockCode) -> str:
    lines = [f"code {code.mode}"]
    lines.extend(format_presentation(code.domain).strip().splitlines())
    for k, s in code.mapping:
        lines.append(f"map {k} {s}")
    return "\n".join(lines) + "\n"


def parse_relation(text: str) -> SymbolRelation:
    pairs = []
    seen = False
    for i, toks in _content_lines(text):
        if toks[0] == "relation":
            seen = True
            continue
        if toks[0] != "pair" or len(toks) != 3:
            raise ParseError(i, "relation line is 'pair <u> <v>'")
        seen = True
        pairs.append((toks[1], toks[2]))
    if not seen:
        raise ParseError(1, "empty relation document")
    return SymbolRelation.of(pairs)


def format_relation(rel: SymbolRelation) -> str:
    lines = ["relation"]
    for u, v in rel.members():
        lines.append(f"pair {u} {v}")
    return "\n".join(lines) + "\n"
