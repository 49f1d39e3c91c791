"""One-block factor codes on finite presentations, with constructive checks.

A code labels either the vertices of a simple graph or the edges of a
multigraph; edge mode is normalized to vertex mode on the line graph.  All
decision procedures work on the label fiber product: pairs of vertices with
equal labels and componentwise edges, pruned to the part lying on bi-infinite
paths.

  injective      <=>  the label fiber product is contained in the diagonal
  finite-to-one  <=>  no diamond: no off-diagonal pair both reachable from
                      and co-reachable to the diagonal (domain irreducible)

The compatibility relation of a code is the vertex set of its label fiber
product.  From a relation the m-fold fibered product F_m (mutually related
ordered m-tuples, componentwise edges) and its distinct-entry part with exact
wiring carry a quotient map onto unordered m-sets; when the wiring condition
holds that quotient is left and right resolving with exactly m! preimages per
point.

The label fiber product's candidates are rectangles (each vertex of one
graph against the bucket of its label in the other), so a pair's code is
arithmetic and its degrees are sums of products of per-label neighbour
counts; its degree-count prune lists a pair's neighbours only when it dies,
and only the survivors are named `u|v`.  F_m and X̃_m start from relation-
filtered tuples instead and share `_tuple_product`, which builds successor
rows on `GraphIndex` positions and prunes them with `_biinfinite`.  Every
product keeps its vertices' coordinates in `tuples`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress
from math import factorial
from typing import Optional

from .entropy import DEFAULT_TOL, ExtendedEntropy, ZERO_ENTROPY, max_entropy, perron_entropy
from .graphs import is_single_cycle, irreducible_components
from .presentations import FiniteGraph, GraphIndex, ParseError

# Most mutually related tuples (of any length up to m) that F_m and the
# distinct-entry product may enumerate.  F_m can grow exponentially in m (the
# even-shift code has 2^m + 1 states); past the cap the products raise
# BudgetExhausted instead of allocating more.
TUPLE_CAP = 100_000


class BudgetExhausted(RuntimeError):
    """A documented size cap was reached before an answer was certified."""


@dataclass(frozen=True)
class LabeledGraph:
    """Simple graph with a symbol on each vertex; presents a sofic image."""

    graph: FiniteGraph
    labels: tuple[tuple[str, str], ...]  # (vertex, symbol), in vertex order

    def __post_init__(self):
        if self.graph.has_parallel_edges():
            raise ValueError("labeled graph must be simple; use edge mode upstream")
        lv = [v for v, _ in self.labels]
        if sorted(lv) != sorted(self.graph.vertices):
            raise ValueError("labels must cover the vertices exactly once")

    def label(self, v: str) -> str:
        return self._label_map[v]

    @property
    def _label_map(self) -> dict:
        cached = getattr(self, "_lm_cache", None)
        if cached is None:
            cached = dict(self.labels)
            object.__setattr__(self, "_lm_cache", cached)
        return cached

    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({s for _, s in self.labels}))


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

    def labeled(self) -> LabeledGraph:
        """Vertex-mode normal form (line graph for edge mode), built on first
        use and cached, so every check on this code shares one line graph.

        In edge mode, edge e -> f when head(e) = tail(f), ordered by e and then
        by f in the domain's edge order.
        """
        try:
            return self._labeled
        except AttributeError:
            pass
        if self.mode == "vertex":
            lg = LabeledGraph(self.domain, self.mapping)
        else:
            g = self.domain
            leaving: dict[str, list[str]] = {}
            for name, (u, _) in zip(g.edge_names, g.edges):
                leaving.setdefault(u, []).append(name)
            edges = tuple(
                (e, f) for e, (_, w) in zip(g.edge_names, g.edges) for f in leaving.get(w, ())
            )
            lm = dict(self.mapping)
            lg = LabeledGraph(
                FiniteGraph(g.edge_names, edges), tuple((v, lm[v]) for v in g.edge_names)
            )
        object.__setattr__(self, "_labeled", lg)
        return lg


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
    idxs: tuple[GraphIndex, ...],
    tuples: list[tuple[int, ...]],
    sep: str,
    *,
    prune: bool,
    wired: bool = False,
) -> ProductGraph:
    """Graph on `tuples` (entry k a position of `idxs[k]`), componentwise edges.

    Successors are products of the coordinates' successor rows, extended one
    coordinate at a time through prefixes of `tuples` and looked up in one
    tuple -> code dict.  `wired` keeps a -> b only if no a_i -> b_j with
    i != j is an edge (coordinates in `idxs[0]`); `prune` keeps the
    bi-infinite part.  Names join coordinate names with `sep`, and vertices
    are sorted by name.  Edges are sorted and called `e<k>` by rank among all
    the tuples' edges, as `FiniteGraph.induced` keeps them.  Serves F_m and
    X̃_m; the label fiber product has its own path.
    """
    m = len(idxs)
    code = {t: i for i, t in enumerate(tuples)}
    prefixes = {t[:k] for t in tuples for k in range(1, m)}
    rows = [[[w for w, _ in row] for row in idx.succ] for idx in idxs]
    adj = [set(row) for row in rows[0]] if wired else None
    succ = []
    for t in tuples:
        partial = [()]
        for k, p in enumerate(t):
            known = code if k == m - 1 else prefixes
            partial = [q for r in partial for w in rows[k][p] if (q := r + (w,)) in known]
        if wired:
            partial = [
                q for q in partial
                if not any(q[j] in adj[a] for i, a in enumerate(t) for j in range(m) if i != j)
            ]
        succ.append([code[q] for q in partial])
    alive = _biinfinite(succ) if prune else [True] * len(tuples)
    coords = [tuple(idx.order[p] for idx, p in zip(idxs, t)) for t in tuples]
    names = [sep.join(c) for c in coords]
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


def _rows_by_label(lg: LabeledGraph, key: list[int]) -> tuple[list[dict], list[dict]]:
    """Successors and predecessors of each vertex (by index in vertex order),
    grouped by label, each neighbour w stored as `key[w]`."""
    at = {v: i for i, v in enumerate(lg.graph.vertices)}
    lm = lg._label_map
    succ: list[dict[str, list[int]]] = [{} for _ in at]
    pred: list[dict[str, list[int]]] = [{} for _ in at]
    for u, w in lg.graph.edges:
        i, j = at[u], at[w]
        succ[i].setdefault(lm[w], []).append(key[j])
        pred[j].setdefault(lm[u], []).append(key[i])
    return succ, pred


def label_fiber_product(a: LabeledGraph, b: LabeledGraph) -> ProductGraph:
    """Label-equal vertex pairs with componentwise edges, pruned to the part
    on bi-infinite paths.

    The candidates are rectangles: each vertex u of `a` meets the bucket of
    `b`'s vertices with u's label, in `b`'s vertex order.  Pair (u, v) has
    the code `start[u] + rank[v]`: `start[u]` is the offset of u's block in
    `a`'s vertex order and `rank[v]` is v's index in its bucket, so no pair
    is stored.  Neighbours are grouped by label once, as `start` values for
    `a` and `rank` values for `b`.  The out-degree of (u, v) is the sum over
    labels s of |succ_s(u)|·|succ_s(v)|, the in-degree the same sum over
    predecessors, and a pair's neighbours are the sums `x + r`.  The
    worklist prune of `_biinfinite` runs on these counts; a dead pair lists
    its neighbours only on the side where it still had live ones.  Survivors
    keep the code order and are named `u|v`; their edges are sorted and
    called `e<k>`.  The other products use `_tuple_product`.
    """
    la, lb = a._label_map, b._label_map
    bucket: dict[str, list[int]] = {}
    rank = []
    for y, v in enumerate(b.graph.vertices):
        members = bucket.setdefault(lb[v], [])
        rank.append(len(members))
        members.append(y)
    blocks = [bucket.get(la[u], []) for u in a.graph.vertices]
    start = list(accumulate(map(len, blocks), initial=0))  # start[-1] counts the pairs
    a_succ, a_pred = _rows_by_label(a, start)
    b_succ, b_pred = _rows_by_label(b, rank)

    def degrees(a_rows, b_rows) -> list[int]:
        columns: dict[tuple[str, str], list[int]] = {}  # (bucket, label) -> counts
        out: list[int] = []
        for u, block, row in zip(a.graph.vertices, blocks, a_rows):
            deg = [0] * len(block)
            for s, xs in row.items():
                col = columns.get((la[u], s))
                if col is None:
                    col = columns[la[u], s] = [len(b_rows[y].get(s, ())) for y in block]
                n = len(xs)
                deg = [d + n * c for d, c in zip(deg, col)]
            out.extend(deg)
        return out

    def locate(p: int) -> tuple[int, int]:
        i = bisect_right(start, p) - 1
        return i, blocks[i][p - start[i]]

    outdeg, indeg = degrees(a_succ, b_succ), degrees(a_pred, b_pred)
    alive = [o > 0 and d > 0 for o, d in zip(outdeg, indeg)]
    dead = [p for p, ok in enumerate(alive) if not ok]
    while dead:
        p = dead.pop()
        # a dead pair's count on one side is 0: no live neighbour there
        if indeg[p]:
            a_rows, b_rows, deg = a_pred, b_pred, outdeg
        elif outdeg[p]:
            a_rows, b_rows, deg = a_succ, b_succ, indeg
        else:
            continue
        i, y = locate(p)
        brow = b_rows[y]
        for s, xs in a_rows[i].items():
            for r in brow.get(s, ()):
                for x in xs:
                    q = x + r
                    if alive[q]:
                        deg[q] -= 1
                        if deg[q] == 0:
                            alive[q] = False
                            dead.append(q)
    kept = {p: locate(p) for p in compress(range(len(alive)), alive)}
    coords = {p: (a.graph.vertices[i], b.graph.vertices[y]) for p, (i, y) in kept.items()}
    names = {p: f"{u}|{v}" for p, (u, v) in coords.items()}
    edges = sorted(
        (names[p], names[x + r])
        for p, (i, y) in kept.items()
        for s, xs in a_succ[i].items()
        for r in b_succ[y].get(s, ())
        for x in xs
        if alive[x + r]
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


def _find_cycle_through(g: FiniteGraph, start: str) -> Optional[list[str]]:
    """A directed cycle start -> ... -> start, if one exists."""
    stack = [(start, [start])]
    seen = set()
    while stack:
        v, path = stack.pop()
        for w in g.successors(v):
            if w == start:
                return path
            if w not in seen:
                seen.add(w)
                stack.append((w, path + [w]))
    return None


def _path_to_cycle(g: FiniteGraph, start: str, forward: bool) -> list[str]:
    """Walk until a vertex repeats; every pruned vertex reaches a cycle."""
    path = [start]
    seen = {start: 0}
    v = start
    while True:
        nxt = g.successors(v) if forward else g.predecessors(v)
        v = nxt[0]
        if v in seen:
            path.append(v)
            return path
        seen[v] = len(path)
        path.append(v)


def _unzip(prod: ProductGraph, path: list[str]) -> tuple[tuple[str, ...], ...]:
    """The coordinate paths of a path of product vertices."""
    coords = dict(zip(prod.vertices, prod.tuples))
    return tuple(zip(*(coords[q] for q in path)))


def check_injective(code: BlockCode) -> InjectivityReport:
    lg = code.labeled()
    prod = label_fiber_product(lg, lg)
    off = [p for p, (u, v) in zip(prod.vertices, prod.tuples) if u != v]
    if not off:
        return InjectivityReport(True)
    off_set = set(off)
    for cid, comp in irreducible_components(prod):
        cyclic_off = [p for p in comp.vertices if p in off_set]
        if cyclic_off:
            cyc = _find_cycle_through(comp, cyclic_off[0])
            return InjectivityReport(False, _unzip(prod, cyc), periodic=True)
    # off-diagonal pair that only joins diagonal behavior on both sides
    p = off[0]
    back = _path_to_cycle(prod, p, forward=False)
    fwd = _path_to_cycle(prod, p, forward=True)
    spine = list(reversed(back)) + fwd[1:]
    return InjectivityReport(False, _unzip(prod, spine), periodic=False)


@dataclass(frozen=True)
class FiniteToOneReport:
    finite_to_one: bool
    # a diamond: two distinct equal-label paths with common endpoints
    diamond: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None


def _reach(g: FiniteGraph, seeds, forward: bool) -> dict:
    """BFS tree: vertex -> predecessor on a path from/to the seed set."""
    parent = {s: None for s in seeds}
    frontier = list(seeds)
    while frontier:
        nxt = []
        for v in frontier:
            for w in (g.successors(v) if forward else g.predecessors(v)):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return parent


def check_finite_to_one(code: BlockCode) -> FiniteToOneReport:
    lg = code.labeled()
    prod = label_fiber_product(lg, lg)
    diag = [p for p, (u, v) in zip(prod.vertices, prod.tuples) if u == v]
    fwd = _reach(prod, diag, forward=True)
    bwd = _reach(prod, diag, forward=False)
    for p, (u, v) in zip(prod.vertices, prod.tuples):
        if u != v and p in fwd and p in bwd:
            left = _trace(fwd, p)  # diagonal ... -> p
            right = list(reversed(_trace(bwd, p)))  # p -> ... diagonal
            return FiniteToOneReport(False, _unzip(prod, left + right[1:]))
    return FiniteToOneReport(True)


def _trace(parent: dict, v: str) -> list[str]:
    out = [v]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return list(reversed(out))


def image_words(code: BlockCode, length: int) -> set[tuple[str, ...]]:
    """All label words of the given length occurring in the image."""
    lg = code.labeled()
    g = prune_to_biinfinite(lg.graph)
    lm = lg._label_map
    if length == 0:
        return {()}
    words = set()
    stack = [((lm[v],), v) for v in g.vertices]
    while stack:
        w, v = stack.pop()
        if len(w) == length:
            words.add(w)
            continue
        for u in g.successors(v):
            stack.append((w + (lm[u],), u))
    return words


def image_entropy(code: BlockCode) -> ExtendedEntropy:
    """Entropy of the sofic image, via the determinized label automaton."""
    lg = code.labeled()
    g = prune_to_biinfinite(lg.graph)
    if not g.vertices:
        return ZERO_ENTROPY
    lm = lg._label_map
    seeds = {}
    for v in g.vertices:
        seeds.setdefault(lm[v], set()).add(v)
    subsets = {frozenset(s) for s in seeds.values()}
    frontier = list(subsets)
    edges = []
    while frontier:
        s = frontier.pop()
        succ_by_symbol: dict[str, set] = {}
        for v in s:
            for w in g.successors(v):
                succ_by_symbol.setdefault(lm[w], set()).add(w)
        for t in succ_by_symbol.values():
            ft = frozenset(t)
            edges.append((s, ft))
            if ft not in subsets:
                subsets.add(ft)
                frontier.append(ft)
        if len(subsets) > 1 << 16:
            raise ArithmeticError("determinization exceeded the subset budget")
    names = {s: f"s{i}" for i, s in enumerate(sorted(subsets, key=sorted))}
    dfa = FiniteGraph.from_edges([(names[a], names[b]) for a, b in edges])
    values = []
    for _, comp in irreducible_components(dfa):
        values.append(ZERO_ENTROPY if is_single_cycle(comp) else perron_entropy(comp))
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
    lg = code.labeled()
    return SymbolRelation.of(label_fiber_product(lg, lg).tuples)


@dataclass(frozen=True)
class BowenReport:
    holds: bool
    complete: bool  # every jointly extendable pair is related
    label_equal: bool  # related pairs have equal labels
    symmetric: bool
    reflexive: bool
    failures: tuple[str, ...] = ()


def verify_bowen_relation(code: BlockCode, rel: SymbolRelation) -> BowenReport:
    lg = code.labeled()
    lm = lg._label_map
    prod = label_fiber_product(lg, lg)
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
    for (u, v) in rel.pairs:
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
    idx = code.labeled().graph.index()
    tuples = _related_tuples(idx, rel, m, distinct=False)
    return _tuple_product((idx,) * m, tuples, ",", prune=False)


def extract_tilde_Xm(code: BlockCode, rel: SymbolRelation, m: int) -> ProductGraph:
    """Distinct-entry m-tuples with exact wiring, pruned to the bi-infinite
    part: an edge between tuples needs the base edge a_i -> b_j to exist
    precisely when i = j."""
    idx = code.labeled().graph.index()
    tuples = _related_tuples(idx, rel, m, distinct=True)
    return _tuple_product((idx,) * m, tuples, ",", prune=True, wired=True)


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
    graph_lines = ["graph"]
    mapping = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if header_mode is None:
            if toks[0] != "code" or len(toks) != 2:
                raise ParseError(i, "expected 'code vertex' or 'code edge' header")
            header_mode = toks[1]
            continue
        if toks[0] == "map":
            if len(toks) != 3:
                raise ParseError(i, "map line is 'map <key> <symbol>'")
            mapping.append((toks[1], toks[2]))
        elif toks[0] in ("vertex", "edge"):
            graph_lines.append(" ".join(toks))
        elif toks[0] == "graph":
            continue
        else:
            raise ParseError(i, f"unexpected {toks[0]!r} in code document")
    if header_mode is None:
        raise ParseError(1, "empty code document")
    from .presentations import parse_presentation

    g = parse_presentation("\n".join(graph_lines))
    try:
        return BlockCode(g, tuple(mapping), header_mode)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None


def format_code(code: BlockCode) -> str:
    from .presentations import format_presentation

    lines = [f"code {code.mode}"]
    lines.extend(format_presentation(code.domain).strip().splitlines())
    for k, s in code.mapping:
        lines.append(f"map {k} {s}")
    return "\n".join(lines) + "\n"


def parse_relation(text: str) -> SymbolRelation:
    pairs = []
    seen = False
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
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
