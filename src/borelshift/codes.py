"""One-block factor codes on finite presentations, with constructive checks.

A code labels either the vertices of a simple graph or the edges of a
multigraph; edge mode is normalized to vertex mode on the line graph.  All
decision procedures work on the label fiber product: pairs of vertices with
equal labels, pruned to the part lying on bi-infinite paths.

  injective      <=>  pruned self-product is contained in the diagonal
  finite-to-one  <=>  no diamond: no off-diagonal pair both reachable from
                      and co-reachable to the diagonal (domain irreducible)

The compatibility relation of a code is the vertex set of its pruned
self-product.  From a relation the m-fold fibered product F_m (mutually
related ordered m-tuples, componentwise edges) and its distinct-entry part
with exact wiring carry a quotient map onto unordered m-sets; when the wiring
condition holds that quotient is left and right resolving with exactly m!
preimages per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .entropy import ExtendedEntropy, ZERO_ENTROPY, max_entropy, perron_entropy
from .graphs import is_single_cycle, irreducible_components
from .presentations import FiniteGraph, ParseError

PAIR_SEP = "|"


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

    def symbol(self, key: str) -> str:
        return dict(self.mapping)[key]

    def labeled(self) -> LabeledGraph:
        """Vertex-mode normal form (line graph for edge mode)."""
        if self.mode == "vertex":
            return LabeledGraph(self.domain, self.mapping)
        g = self.domain
        heads = {}
        tails = {}
        for name, (u, w) in zip(g.edge_names, g.edges):
            tails[name] = u
            heads[name] = w
        verts = tuple(g.edge_names)
        edges = tuple(
            (e, f) for e in verts for f in verts if heads[e] == tails[f]
        )
        line = FiniteGraph(verts, edges)
        lm = dict(self.mapping)
        return LabeledGraph(line, tuple((v, lm[v]) for v in verts))


def pair_name(u: str, v: str) -> str:
    return f"{u}{PAIR_SEP}{v}"


def split_pair(name: str) -> tuple[str, str]:
    u, v = name.split(PAIR_SEP)
    return u, v


def label_fiber_product(a: LabeledGraph, b: LabeledGraph) -> FiniteGraph:
    """Graph on label-equal vertex pairs with componentwise edges."""
    la, lb = a._label_map, b._label_map
    by_label: dict[str, list[str]] = {}
    for v in b.graph.vertices:
        by_label.setdefault(lb[v], []).append(v)
    verts = [
        pair_name(u, v)
        for u in a.graph.vertices
        for v in by_label.get(la[u], ())
    ]
    vset = set(verts)
    succ_b = {v: b.graph.successors(v) for v in b.graph.vertices}
    edges = []
    for u in a.graph.vertices:
        succ_u = a.graph.successors(u)
        for v in by_label.get(la[u], ()):
            for u2 in succ_u:
                for v2 in succ_b[v]:
                    if la[u2] == lb[v2]:
                        edges.append((pair_name(u, v), pair_name(u2, v2)))
    edges = [(p, q) for p, q in edges if p in vset and q in vset]
    return FiniteGraph(tuple(verts), tuple(sorted(set(edges))))


def prune_to_biinfinite(g: FiniteGraph) -> FiniteGraph:
    """Largest subgraph in which every vertex has a predecessor and successor."""
    idx = g.index()
    outdeg = [len(row) for row in idx.succ]
    indeg = [len(row) for row in idx.pred]
    alive = [o > 0 and i > 0 for o, i in zip(outdeg, indeg)]
    dead = [v for v, ok in enumerate(alive) if not ok]
    while dead:
        v = dead.pop()
        for w, _ in idx.pred[v]:
            if alive[w]:
                outdeg[w] -= 1
                if outdeg[w] == 0:
                    alive[w] = False
                    dead.append(w)
        for w, _ in idx.succ[v]:
            if alive[w]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    alive[w] = False
                    dead.append(w)
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


def check_injective(code: BlockCode) -> InjectivityReport:
    lg = code.labeled()
    prod = prune_to_biinfinite(label_fiber_product(lg, lg))
    off = [p for p in prod.vertices if len(set(split_pair(p))) == 2]
    if not off:
        return InjectivityReport(True)
    off_set = set(off)
    for cid, comp in irreducible_components(prod):
        cyclic_off = [p for p in comp.vertices if p in off_set]
        if cyclic_off:
            cyc = _find_cycle_through(comp, cyclic_off[0])
            first = tuple(split_pair(q)[0] for q in cyc)
            second = tuple(split_pair(q)[1] for q in cyc)
            return InjectivityReport(False, (first, second), periodic=True)
    # off-diagonal pair that only joins diagonal behavior on both sides
    p = off[0]
    back = _path_to_cycle(prod, p, forward=False)
    fwd = _path_to_cycle(prod, p, forward=True)
    spine = list(reversed(back)) + fwd[1:]
    first = tuple(split_pair(q)[0] for q in spine)
    second = tuple(split_pair(q)[1] for q in spine)
    return InjectivityReport(False, (first, second), periodic=False)


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
    prod = prune_to_biinfinite(label_fiber_product(lg, lg))
    diag = [p for p in prod.vertices if len(set(split_pair(p))) == 1]
    fwd = _reach(prod, diag, forward=True)
    bwd = _reach(prod, diag, forward=False)
    for p in prod.vertices:
        if len(set(split_pair(p))) == 2 and p in fwd and p in bwd:
            left = _trace(fwd, p)  # diagonal ... -> p
            right = list(reversed(_trace(bwd, p)))  # p -> ... diagonal
            spine = left + right[1:]
            first = tuple(split_pair(q)[0] for q in spine)
            second = tuple(split_pair(q)[1] for q in spine)
            return FiniteToOneReport(False, (first, second))
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
    from .entropy import DEFAULT_TOL

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
    prod = prune_to_biinfinite(label_fiber_product(lg, lg))
    return SymbolRelation.of(split_pair(p) for p in prod.vertices)


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
    prod = prune_to_biinfinite(label_fiber_product(lg, lg))
    alive = {v for p in prod.vertices for v in split_pair(p)}
    failures = []
    complete = True
    for p in prod.vertices:
        u, v = split_pair(p)
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


def tuple_name(t) -> str:
    return ",".join(t)


def split_tuple(name: str) -> tuple[str, ...]:
    return tuple(name.split(","))


def build_fibered_product_Fm(code: BlockCode, rel: SymbolRelation, m: int) -> FiniteGraph:
    """Graph on mutually related ordered m-tuples with componentwise edges."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lg = code.labeled()
    g = lg.graph
    verts = [
        t
        for t in _mutually_related_tuples(g.vertices, rel, m)
    ]
    vset = {tuple_name(t) for t in verts}
    succ = {v: g.successors(v) for v in g.vertices}
    edges = []
    for t in verts:
        for nxt in _tuple_successors(t, succ):
            q = tuple_name(nxt)
            if q in vset:
                edges.append((tuple_name(t), q))
    return FiniteGraph(tuple(sorted(vset)), tuple(sorted(set(edges))))


def _mutually_related_tuples(vertices, rel: SymbolRelation, m: int):
    out = [()]
    for _ in range(m):
        nxt = []
        for t in out:
            for v in vertices:
                if all(rel.holds(u, v) and rel.holds(v, u) for u in t):
                    nxt.append(t + (v,))
        out = nxt
    return out


def _tuple_successors(t, succ):
    choices = [succ[v] for v in t]
    out = [()]
    for ch in choices:
        out = [p + (w,) for p in out for w in ch]
    return out


def extract_tilde_Xm(code: BlockCode, rel: SymbolRelation, m: int) -> FiniteGraph:
    """Distinct-entry m-tuples with exact wiring: an edge between tuples needs
    the base edge a_i -> b_j to exist precisely when i = j."""
    lg = code.labeled()
    g = lg.graph
    has_edge = set(g.edges)
    verts = [
        t
        for t in _mutually_related_tuples(g.vertices, rel, m)
        if len(set(t)) == m
    ]
    vset = {tuple_name(t) for t in verts}
    edges = []
    for a in verts:
        for b in verts:
            ok = all(
                ((a[i], b[j]) in has_edge) == (i == j)
                for i in range(m)
                for j in range(m)
            )
            if ok:
                edges.append((tuple_name(a), tuple_name(b)))
    g2 = FiniteGraph(tuple(sorted(vset)), tuple(sorted(set(edges))))
    return prune_to_biinfinite(g2)


@dataclass(frozen=True)
class ResolvingReport:
    right_resolving: bool
    left_resolving: bool
    fibers_complete: bool  # every surviving m-set carries all m! orderings
    preimage_count: Optional[int]  # m! when everything holds
    failures: tuple[str, ...] = ()


def quotient_psi(code: BlockCode, rel: SymbolRelation, m: int) -> ResolvingReport:
    """Check the quotient of the distinct-entry product onto unordered m-sets."""
    from math import factorial

    xm = extract_tilde_Xm(code, rel, m)
    failures = []
    if not xm.vertices:
        return ResolvingReport(True, True, False, None, ("empty distinct-entry product",))
    sets = {}
    for v in xm.vertices:
        sets.setdefault(frozenset(split_tuple(v)), []).append(v)
    fibers_complete = True
    for s, tuples in sets.items():
        if len(tuples) != factorial(m):
            fibers_complete = False
            failures.append(
                f"set {{{','.join(sorted(s))}}} carries {len(tuples)} orderings"
            )
    # the quotient graph on sets
    succ_sets = {}
    for v in xm.vertices:
        sv = frozenset(split_tuple(v))
        for w in xm.successors(v):
            succ_sets.setdefault(sv, set()).add(frozenset(split_tuple(w)))
    right = True
    left = True
    for v in xm.vertices:
        seen = {}
        for w in xm.successors(v):
            sw = frozenset(split_tuple(w))
            if sw in seen:
                right = False
                failures.append(f"tuple {v} has two successors over set-image {sorted(sw)}")
            seen[sw] = w
        want = succ_sets.get(frozenset(split_tuple(v)), set())
        if set(seen) != want:
            right = False
            failures.append(f"tuple {v} misses a set-successor lift")
    pred_sets = {}
    for v in xm.vertices:
        sv = frozenset(split_tuple(v))
        for w in xm.predecessors(v):
            pred_sets.setdefault(sv, set()).add(frozenset(split_tuple(w)))
    for v in xm.vertices:
        seen = {}
        for w in xm.predecessors(v):
            sw = frozenset(split_tuple(w))
            if sw in seen:
                left = False
                failures.append(f"tuple {v} has two predecessors over set-image {sorted(sw)}")
            seen[sw] = w
        want = pred_sets.get(frozenset(split_tuple(v)), set())
        if set(seen) != want:
            left = False
            failures.append(f"tuple {v} misses a set-predecessor lift")
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
