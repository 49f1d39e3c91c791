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

The label fiber product is the code's self product.  It builds only the
label-equal pairs reachable from a pair whose first coordinate lies in a rome
of the labeled domain (`graphs.rome`, a vertex set meeting every cycle):
behind a pair on a bi-infinite path lies a product cycle, whose first
coordinate meets the rome, so no survivor is missed, and on an injective
certificate the reached pairs are a small part of all label-equal pairs.  F_m
and X̃_m start from relation-filtered tuples instead and share
`_tuple_product`.  All three build successor rows on `GraphIndex` positions,
and one prune, `_biinfinite`, serves them and `prune_to_biinfinite`.  Every
product keeps its vertices' coordinates in `tuples`.  The checks walk
`GraphIndex` positions too; names appear only in what they return.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import factorial
from typing import NamedTuple, Optional

from .entropy import DEFAULT_TOL, ExtendedEntropy, ZERO_ENTROPY, max_entropy, perron_entropy
from .graphs import _component_ids, _walk, irreducible_components, rome
from .presentations import (
    FiniteGraph,
    GraphIndex,
    Inconclusive,
    ParseError,
    Record,
    _content_lines,
    _parse_graph_body,
    format_presentation,
)

# Most mutually related tuples (of any length up to m) that F_m and the
# distinct-entry product may enumerate.  F_m can grow exponentially in m (the
# even-shift code has 2^m + 1 states); past the cap the products raise
# BudgetExhausted instead of allocating more.
TUPLE_CAP = 100_000
# Longest tuples F_m and the distinct-entry product may build.  TUPLE_CAP
# bounds how many tuples there are, not how long: without this cap a relation
# that does not branch keeps F_m small while its prefixes grow as m^2.
M_CAP = 64


class BudgetExhausted(Inconclusive):
    """A documented size cap was reached before an answer was certified."""


class BlockCode(Record):
    """1-block code from a finite presentation onto its sofic image."""

    _fields = ("domain", "mapping", "mode")

    def __init__(self, domain: FiniteGraph, mapping: tuple[tuple[str, str], ...],
                 mode: str = "vertex"):  # or "edge"
        if mode not in ("vertex", "edge"):
            raise ValueError("mode must be 'vertex' or 'edge'")
        keys = sorted(k for k, _ in mapping)
        if mode == "vertex":
            if domain.has_parallel_edges():
                raise ValueError("vertex-mode code needs a simple domain graph")
            want = sorted(domain.vertices)
        else:
            want = sorted(domain.edge_names)
        if keys != want:
            raise ValueError(f"mapping must cover every {mode} exactly once")
        super().__init__(domain, mapping, mode)

    def labeled(self) -> "BlockCode":
        """Vertex-mode normal form: the code itself in vertex mode, else the
        vertex-mode code on the line graph, built on first use and cached, so
        every check on this code shares one line graph.

        In edge mode, edge e -> f when head(e) = tail(f), ordered by e and then
        by f in the domain's edge order.
        """
        return self if self.mode == "vertex" else self._line_code

    @cached_property
    def _line_code(self) -> "BlockCode":
        g = self.domain
        leaving: dict[str, list[str]] = {}
        for name, (u, _) in zip(g.edge_names, g.edges):
            leaving.setdefault(u, []).append(name)
        edges = tuple(
            (e, f) for e, (_, w) in zip(g.edge_names, g.edges) for f in leaving.get(w, ())
        )
        lm = self._label_map
        return BlockCode(FiniteGraph(g.edge_names, edges), tuple((v, lm[v]) for v in g.edge_names))

    def label(self, key: str) -> str:
        return self._label_map[key]

    @cached_property
    def _label_map(self) -> dict:
        return dict(self.mapping)

    @cached_property
    def _fiber_product(self) -> "ProductGraph":
        return _build_label_fiber_product(self)

    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({s for _, s in self.mapping}))


class ProductGraph(FiniteGraph):
    """Product graph; `tuples[i]` holds the coordinate names of `vertices[i]`."""

    def __init__(self, vertices, edges, edge_names=(), tuples=()):
        super().__init__(vertices, edges, edge_names)
        self.tuples = tuples


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


def _rows_by_label(idx: GraphIndex, sym: list[str]) -> list[dict[str, list[int]]]:
    """The successors of each position of `idx`, grouped by their symbol."""
    rows: list[dict[str, list[int]]] = [{} for _ in sym]
    for row, succ in zip(rows, idx.succ):
        for w, _ in succ:
            row.setdefault(sym[w], []).append(w)
    return rows


def label_fiber_product(code: BlockCode) -> ProductGraph:
    """Label-equal vertex pairs of the code's `labeled()` form with
    componentwise edges, pruned to the part on bi-infinite paths.

    Built on the first call and cached on the code, as its line graph is, so
    every check on one code reads one product (_build_label_fiber_product).
    """
    return code._fiber_product


def _build_label_fiber_product(code: BlockCode) -> ProductGraph:
    """The label fiber product of `code`, built.

    Only the pairs reachable from a seed are built, where a seed is a pair
    (r, y) with r in a rome of the labeled domain (`graphs.rome`) and y of
    r's label.  That is exact.  A pair on a bi-infinite product path has a
    product cycle behind it, whose first coordinate is a closed walk of the
    domain and so meets the rome: every survivor is reached.  Every
    successor of a reached pair is reached too, so the reached pairs carry
    all their successor rows, and `_biinfinite` on them keeps exactly the
    survivors.  Neighbours are grouped by label once, on `GraphIndex`
    positions, and a pair's successors are the pairs of equally labeled
    successors.  Survivors are ordered by the domain's vertex order of the
    first coordinate and then of the second and named `u|v`; their edges
    are sorted and called `e<k>`.  The other products use `_tuple_product`.
    """
    lg = code.labeled()
    idx = lg.domain.index()
    n = len(idx.order)
    sym = [lg.label(v) for v in idx.order]
    rows = _rows_by_label(idx, sym)
    bucket: dict[str, list[int]] = {}
    for p, s in enumerate(sym):
        bucket.setdefault(s, []).append(p)
    pairs = [(r, y) for r in rome(idx) for y in bucket[sym[r]]]
    seen = {r * n + y: k for k, (r, y) in enumerate(pairs)}
    succ = []
    for p, q in pairs:  # the list grows behind the scan
        out = []
        row = rows[q]
        for s, ws in rows[p].items():
            xs = row.get(s, ())
            for w in ws:
                for x in xs:
                    key = w * n + x
                    k = seen.get(key)
                    if k is None:
                        k = seen[key] = len(pairs)
                        pairs.append((w, x))
                    out.append(k)
        succ.append(out)
    alive = _biinfinite(succ)
    at = {v: i for i, v in enumerate(lg.domain.vertices)}
    rank = [at[v] for v in idx.order]
    kept = sorted(
        (k for k, ok in enumerate(alive) if ok),
        key=lambda k: (rank[pairs[k][0]], rank[pairs[k][1]]),
    )
    coords = [(idx.order[pairs[k][0]], idx.order[pairs[k][1]]) for k in kept]
    names = {k: "|".join(c) for k, c in zip(kept, coords)}
    edges = sorted((names[k], names[j]) for k in kept for j in succ[k] if alive[j])
    return ProductGraph(
        tuple(names.values()),
        tuple(edges),
        tuple(f"e{k}" for k in range(len(edges))),
        tuples=tuple(coords),
    )


def prune_to_biinfinite(g: FiniteGraph) -> FiniteGraph:
    """Largest subgraph in which every vertex has a predecessor and successor."""
    idx = g.index()
    alive = _biinfinite([[w for w, _ in row] for row in idx.succ])
    return g.induced(v for v in g.vertices if alive[idx.pos[v]])


class InjectivityReport(NamedTuple):
    injective: bool
    # pair of distinct equal-label vertex paths in the domain; when periodic
    # they close up into genuinely periodic points with the same image
    witness: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None
    periodic: bool = False


def _find_cycle_through(idx: GraphIndex, comp: list[int], start: int) -> Optional[list[int]]:
    """A directed cycle start -> ... -> start inside start's component, found
    depth first; each position keeps the parent that first reached it."""
    parent = [-1] * len(comp)
    stack = [start]
    while stack:
        v = stack.pop()
        for w, _ in idx.succ[v]:
            if w == start:
                return _trace(parent, v)
            if parent[w] < 0 and comp[w] == comp[start]:
                parent[w] = v
                stack.append(w)
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


class FiniteToOneReport(NamedTuple):
    finite_to_one: bool
    # a diamond: two distinct equal-label paths with common endpoints
    diamond: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None


def check_finite_to_one(code: BlockCode) -> FiniteToOneReport:
    prod = label_fiber_product(code)
    idx = prod.index()
    at = [idx.pos[p] for p in prod.vertices]
    diag = [i for i, (u, v) in zip(at, prod.tuples) if u == v]
    fdist, fwd = _walk(idx.succ, diag)
    bdist, bwd = _walk(idx.pred, diag)
    for i, (u, v) in zip(at, prod.tuples):
        if u != v and fdist[i] >= 0 and bdist[i] >= 0:
            left = _trace(fwd, i)  # diagonal ... -> i
            right = _trace(bwd, i)[::-1]  # i -> ... diagonal
            return FiniteToOneReport(False, _unzip(prod, left + right[1:]))
    return FiniteToOneReport(True)


def _trace(parent: list[int], v: int) -> list[int]:
    """The path from the root of v's parent chain (parent -1) to v."""
    out = [v]
    while parent[out[-1]] >= 0:
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
            raise BudgetExhausted("determinization exceeded the subset budget")
    # positions are in name order, so sorting subsets by position sorts them by name
    names = {s: f"s{i}" for i, s in enumerate(sorted(subsets, key=sorted))}
    dfa = FiniteGraph.from_edges([(names[a], names[b]) for a, b in edges])
    values = [perron_entropy(comp) for _, comp in irreducible_components(dfa)]
    if not values:
        return ZERO_ENTROPY
    return max_entropy(values, DEFAULT_TOL)


# --- compatibility relations and m-fold fibered products ---


class SymbolRelation(NamedTuple):
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


class BowenReport(NamedTuple):
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

    Raises BudgetExhausted for m above M_CAP, before anything is built, and
    before the tuples of any length pass TUPLE_CAP.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > M_CAP:
        raise BudgetExhausted(f"m = {m} is above M_CAP = {M_CAP}")
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


class ResolvingReport(NamedTuple):
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
