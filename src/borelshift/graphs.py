"""Irreducible components, periods, cyclic classes, and loop counting.

Everything here walks a graph through its compiled integer index
(`FiniteGraph.index()`): vertex positions in sorted name order and sparse
successor and predecessor rows of (position, multiplicity).  One Tarjan pass
gives every vertex a component id, so splitting a graph into its irreducible
components is linear in vertices plus edges however many components it has.
"""

from __future__ import annotations

import math
from typing import Union

from .presentations import FiniteGraph, GraphIndex, LoopSchema, ShiftPresentation


def _component_ids(idx: GraphIndex) -> tuple[list[int], int]:
    """Tarjan's algorithm, iterative, on the integer index.

    Returns the component id of every vertex position and the number of
    components; ids are numbered by each component's smallest position.
    """
    n = len(idx.order)
    succ = idx.succ
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    found = [-1] * n  # completion number of each vertex's component
    done = 0
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w, _ in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    found[w] = done
                    if w == v:
                        break
                done += 1
    # scanning positions upward meets each component first at its smallest member
    first: dict[int, int] = {}
    return [first.setdefault(c, len(first)) for c in found], done


def strongly_connected_components(graph: FiniteGraph) -> list[list[str]]:
    """Vertex sets of the strongly connected components, each sorted, sorted by
    smallest member."""
    idx = graph.index()
    comp, count = _component_ids(idx)
    out: list[list[str]] = [[] for _ in range(count)]
    for i, v in enumerate(idx.order):
        out[comp[i]].append(v)
    return out


def is_strongly_connected(graph: FiniteGraph) -> bool:
    """One component, and it carries an edge (so a single vertex needs a loop)."""
    return bool(graph.edges) and _component_ids(graph.index())[1] == 1


def component_has_cycle(graph: FiniteGraph, comp: list[str]) -> bool:
    """True iff some edge of `graph` has both ends in the component `comp`."""
    idx = graph.index()
    inside = {idx.pos[v] for v in comp}
    return any(j in inside for i in inside for j, _ in idx.succ[i])


def irreducible_components(p: ShiftPresentation) -> list[tuple[str, ShiftPresentation]]:
    """Irreducible components with stable ids; loop schemas are their own component.

    A component is a strongly connected component with at least one internal
    edge, induced in the original vertex order, edge order and edge names;
    ids c0, c1, ... follow the components' smallest vertex names.
    """
    if isinstance(p, LoopSchema):
        return [("c0", p)]
    idx = p.index()
    comp, count = _component_ids(idx)
    pos = idx.pos
    verts: list[list[str]] = [[] for _ in range(count)]
    edges: list[list[tuple[str, str]]] = [[] for _ in range(count)]
    names: list[list[str]] = [[] for _ in range(count)]
    for v in p.vertices:
        verts[comp[pos[v]]].append(v)
    for e, name in zip(p.edges, p.edge_names):
        c = comp[pos[e[0]]]
        if c == comp[pos[e[1]]]:
            edges[c].append(e)
            names[c].append(name)
    out = []
    for c in range(count):
        if edges[c]:
            sub = FiniteGraph(tuple(verts[c]), tuple(edges[c]), tuple(names[c]))
            out.append((f"c{len(out)}", sub))
    return out


def _distances(idx: GraphIndex) -> list[int]:
    """Breadth-first distance of every position from position 0 (-1: unreached)."""
    dist = [-1] * len(idx.order)
    dist[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for v in queue:
            for w, _ in idx.succ[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        queue = nxt
    return dist


def period_of_component(c: Union[FiniteGraph, LoopSchema]) -> int:
    """gcd of all cycle lengths of an irreducible presentation."""
    if isinstance(c, LoopSchema):
        return schema_period(c)
    if not is_strongly_connected(c):
        raise ValueError("period is defined for strongly connected graphs only")
    idx = c.index()
    dist = _distances(idx)
    g = 0
    for v, row in enumerate(idx.succ):
        for w, _ in row:
            g = math.gcd(g, dist[v] + 1 - dist[w])
    return g


def schema_period(schema: LoopSchema) -> int:
    """gcd of the loop-length support, tail included.

    A tail's support is n0, n0 + s, ... with s the stride, and its counts are
    eventually positive.  Two consecutive positive points n and n + s have
    gcd(n, s) = gcd(n0, s), which divides every support point, so the tail
    adds gcd(n0, s) to the gcd of the explicit positive lengths.
    """
    g = 0
    for n, c in schema.counts:
        if c > 0:
            g = math.gcd(g, n)
    t = schema.tail
    if t is not None:
        g = math.gcd(g, t.n0, t.stride)
    if g == 0:
        raise ValueError("schema with no positive count")
    return g


def cyclic_classes(c: FiniteGraph, period: int | None = None) -> list[list[str]]:
    """Partition D_0..D_{p-1} with every edge moving one class forward."""
    p = period if period is not None else period_of_component(c)
    idx = c.index()
    dist = _distances(idx)
    if min(dist) < 0:
        raise ValueError("cyclic classes are defined for strongly connected graphs only")
    classes = [[] for _ in range(p)]
    for i, v in enumerate(idx.order):
        classes[dist[i] % p].append(v)
    for v, row in enumerate(idx.succ):
        for w, _ in row:
            if (dist[v] + 1) % p != dist[w] % p:
                raise AssertionError("cyclic class consistency violated")
    return classes


def is_single_cycle(c: FiniteGraph) -> bool:
    """True iff the component is one periodic orbit (every degree exactly 1)."""
    idx = c.index()
    return all(len(r) == 1 and r[0][1] == 1 for r in idx.succ) and all(
        len(r) == 1 and r[0][1] == 1 for r in idx.pred
    )


def first_return_counts(c: FiniteGraph, base: str, limit: int) -> list[int]:
    """f[n] = number of length-n loops at `base` avoiding `base` in between.

    Multigraph edges count with multiplicity, i.e. loops are edge paths.
    """
    if base not in c.vertices:
        raise ValueError(f"base {base!r} not a vertex")
    idx = c.index()
    b = idx.pos[base]
    f = [0] * (limit + 1)
    # weight[v] = number of paths base -> v of current length avoiding base in between
    weight = {b: 1}
    for step in range(1, limit + 1):
        new: dict[int, int] = {}
        for v, wv in weight.items():
            for w, mult in idx.succ[v]:
                new[w] = new.get(w, 0) + wv * mult
        f[step] = new.pop(b, 0)
        weight = new
        if not weight:
            break
    return f


def schema_first_return_counts(schema: LoopSchema, limit: int) -> list[int]:
    return schema.counts_upto(limit)


def renewal_loop_counts(f: list[int]) -> list[int]:
    """Total loop counts from first-return counts: l_n = sum f_m * l_{n-m},
    summed over the nonzero f_m only."""
    limit = len(f) - 1
    returns = [(m, c) for m, c in enumerate(f) if m and c]
    l = [0] * (limit + 1)
    l[0] = 1
    for n in range(1, limit + 1):
        l[n] = sum(c * l[n - m] for m, c in returns if m <= n)
    return l


def entropy_by_loop_count(
    p: ShiftPresentation, base: str | None, l_max: int
) -> list[tuple[int, int, float]]:
    """(n, loop count, log(count)/n) for 1 <= n <= l_max, zero counts skipped.

    Loop counts are the renewal sums over first-return decompositions, which
    for a graph equal the diagonal entries of adjacency powers.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if isinstance(p, LoopSchema):
        f = schema_first_return_counts(p, l_max)
    else:
        b = base if base is not None else sorted(p.vertices)[0]
        comp = None
        for _, c in irreducible_components(p):
            if isinstance(c, FiniteGraph) and b in c.vertices:
                comp = c
                break
        if comp is None:
            raise ValueError(f"base {b!r} lies on no cycle")
        f = first_return_counts(comp, b, l_max)
    l = renewal_loop_counts(f)
    return [(n, l[n], math.log(l[n]) / n) for n in range(1, l_max + 1) if l[n] > 0]


def loop_entropy_estimate(seq: list[tuple[int, int, float]], period: int = 1) -> float:
    """Slope estimate log(l_n/l_{n-p})/p at the largest usable n.

    The difference quotient cancels polynomial prefactors that bias the plain
    (1/n) log l_n estimate for damped schemas.
    """
    if not seq:
        raise ValueError("empty loop count sequence")
    by_n = {n: c for n, c, _ in seq}
    ns = sorted(by_n)
    for n in reversed(ns):
        if n - period in by_n:
            return (math.log(by_n[n]) - math.log(by_n[n - period])) / period
    # single point: fall back to the plain slope
    n = ns[-1]
    return math.log(by_n[n]) / n
