"""Irreducible components, periods, cyclic classes, and loop counting.

Everything here walks a graph through its compiled integer index
(`FiniteGraph.index()`): vertex positions in sorted name order and sparse
successor rows of (position, multiplicity); predecessor rows are transposed
from them only where something reads them.  Tarjan's one depth-first pass
along the successor rows gives every vertex a component id, and each
irreducible component's successor rows are sliced from the graph's, so
splitting a graph is linear in vertices plus edges however many components
it has.  One breadth-first walk gives a component's period, `_walk` serves
the rest, and `rome` finds a vertex set meeting every cycle by greedy
reduction.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from .presentations import FiniteGraph, GraphIndex, LoopSchema, ShiftPresentation


def _component_ids(idx: GraphIndex) -> tuple[list[int], list[list[int]]]:
    """Tarjan's algorithm (SIAM J. Comput. 1972), iterative, on the integer
    index: one depth-first search along `succ` keeps every position of an
    unclosed component on a stack, numbered by the stack depth it was pushed
    at, with the lowest depth it reaches back to.  A position that reaches
    nothing below itself closes its component: itself and everything above it
    on the stack.  Returns every position's component id, numbered by the
    components' smallest positions, and each component's positions."""
    succ = idx.succ
    n = len(succ)
    depth = [-1] * n  # -1 unvisited; n once its component is closed
    low = [0] * n
    found = [0] * n
    stack = [0] * n  # stack[:top]; never resized, so it leaves no freed blocks behind
    top = done = 0
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = low[root] = 0  # every earlier root has closed its components
        stack[0], top = root, 1
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w, _ in it:
                d = depth[w]
                if d < 0:
                    depth[w] = low[w] = top
                    stack[top] = w
                    top += 1
                    work.append((w, iter(succ[w])))
                    break
                if d < low[v]:
                    low[v] = d
            else:
                work.pop()
                d = depth[v]
                if low[v] == d:
                    for k in range(d, top):
                        w = stack[k]
                        depth[w] = n
                        found[w] = done
                    top = d
                    done += 1
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    # scanning positions upward meets each component first at its smallest member
    first: dict[int, int] = {}
    comp = [first.setdefault(c, len(first)) for c in found]
    groups: list[list[int]] = [[] for _ in range(done)]
    for i, c in enumerate(comp):
        groups[c].append(i)
    return comp, groups


def strongly_connected_components(graph: FiniteGraph) -> list[list[str]]:
    """Vertex sets of the strongly connected components, each sorted, sorted by
    smallest member."""
    idx = graph.index()
    return [[idx.order[i] for i in group] for group in _component_ids(idx)[1]]


def is_strongly_connected(graph: FiniteGraph) -> bool:
    """One component, and it carries an edge (so a single vertex needs a loop)."""
    return _levels(graph) is not None


def component_has_cycle(graph: FiniteGraph, comp: list[str]) -> bool:
    """True iff some edge of `graph` has both ends in the component `comp`."""
    idx = graph.index()
    inside = {idx.pos[v] for v in comp}
    return any(j in inside for i in inside for j, _ in idx.succ[i])


def irreducible_components(p: ShiftPresentation) -> list[tuple[str, ShiftPresentation]]:
    """Irreducible components with stable ids; loop schemas are their own component.

    A component is a strongly connected component with at least one internal
    edge, induced in the original vertex order, edge order and edge names;
    ids c0, c1, ... follow the components' smallest vertex names.  Its index
    is sliced from p's successor rows, as compiling it would give, and its
    names are built from p's when first read.
    """
    if isinstance(p, LoopSchema):
        return [("c0", p)]
    idx = p.index()
    comp, groups = _component_ids(idx)
    local = [0] * len(comp)  # each position's rank in its component
    out = []
    for c, ms in enumerate(groups):
        if len(ms) == 1 and ms[0] not in dict(idx.succ[ms[0]]):
            continue  # one position without a loop carries no cycle
        if len(ms) == len(comp):  # one component holds every position
            sub = idx
        else:
            for k, i in enumerate(ms):
                local[i] = k
            order = tuple(map(idx.order.__getitem__, ms))
            succ = [tuple([(local[j], m) for j, m in idx.succ[i] if comp[j] == c]) for i in ms]
            sub = GraphIndex(order, dict(zip(order, range(len(ms)))), succ)
        part = FiniteGraph.from_columns(lambda order=sub.order: p.induced(order).columns)
        part._index, part.irreducible = sub, True
        out.append((f"c{len(out)}", part))
    return out


def _walk(rows, seeds: list[int]) -> tuple[list[int], list[int]]:
    """Breadth-first walk from the seed positions along the sparse rows,
    successor or predecessor: every position's distance from the seeds and
    its parent on a shortest path (-1 for both when unreached, parent -1 at a
    seed).  Each level is scanned in the order it was reached."""
    dist = [-1] * len(rows)
    parent = [-1] * len(rows)
    for s in seeds:
        dist[s] = 0
    queue = list(seeds)
    for v in queue:  # the queue grows behind the scan
        d = dist[v] + 1
        for w, _ in rows[v]:
            if dist[w] < 0:
                dist[w] = d
                parent[w] = v
                queue.append(w)
    return dist, parent


def rome(idx: GraphIndex) -> list[int]:
    """A rome: positions whose removal leaves the graph acyclic, ascending.

    Greedy reduction on sets of the successor rows, multiplicities dropped,
    and of their transpose, so the index's `pred` stays unbuilt.  A vertex
    with a self-loop joins the rome and is removed; a source or a sink is
    removed; a vertex whose one in-edge is u -> v and one out-edge v -> w is
    bypassed by u -> w.  These keep every cycle of the rest of the graph,
    shortened past bypassed vertices, so the rome of the reduced graph is one
    of the original.  When none applies, the vertex with the largest
    in-degree times out-degree (the smallest position on ties) joins the
    rome.  Every changed vertex is looked at again; the heap holds stale
    entries, skipped when their product is no longer the vertex's.
    """
    from heapq import heappop, heappush  # only the code verbs need a rome

    succ = [{w for w, _ in row} for row in idx.succ]
    pred: list[set[int]] = [set() for _ in succ]
    for v, row in enumerate(idx.succ):  # tails ascending, as `pred` would list them
        for w, _ in row:
            pred[w].add(v)
    alive = [True] * len(succ)
    work = list(range(len(succ) - 1, -1, -1))
    heap: list[tuple[int, int]] = []
    out = []

    def remove(v: int) -> None:
        alive[v] = False
        for w in succ[v]:
            pred[w].discard(v)
            work.append(w)
        for u in pred[v]:
            succ[u].discard(v)
            work.append(u)

    while True:
        while work:
            v = work.pop()
            if not alive[v]:
                continue
            s, p = succ[v], pred[v]
            if v in s:
                out.append(v)
                remove(v)
            elif not s or not p:
                remove(v)
            elif len(s) == 1 and len(p) == 1:
                (w,), (u,) = s, p
                remove(v)
                succ[u].add(w)
                pred[w].add(u)
            else:
                heappush(heap, (-len(s) * len(p), v))
        while heap:
            key, v = heappop(heap)
            if alive[v] and key == -len(succ[v]) * len(pred[v]):
                break
        else:
            return sorted(out)
        out.append(v)
        remove(v)


def _levels(c: FiniteGraph) -> Optional[tuple[list[int], int]]:
    """For a strongly connected `c`, the distances from position 0 along
    `succ` and the gcd of dist(v) + 1 - dist(w) over its edges v -> w, its
    period (Lind & Marcus 4.5), from one walk; else None.  A graph that is
    not an irreducible component is also walked along `pred`."""
    idx = c.index()
    succ = idx.succ
    if not any(succ):
        return None
    dist = [-1] * len(succ)
    dist[0] = g = 0
    queue = [0]
    for v in queue:  # the queue grows behind the scan
        for w, _ in succ[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            g = math.gcd(g, dist[v] + 1 - dist[w])
    if len(queue) < len(succ) or not (c.irreducible or min(_walk(idx.pred, [0])[0]) >= 0):
        return None
    return dist, g


def period_of_component(c: Union[FiniteGraph, LoopSchema]) -> int:
    """gcd of all cycle lengths of an irreducible presentation."""
    if isinstance(c, LoopSchema):
        return schema_period(c)
    levels = _levels(c)
    if levels is None:
        raise ValueError("period is defined for strongly connected graphs only")
    return levels[1]


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


def cyclic_classes(c: FiniteGraph) -> list[list[str]]:
    """Partition D_0..D_{p-1} with every edge moving one class forward."""
    levels = _levels(c)
    if levels is None:
        raise ValueError("cyclic classes are defined for strongly connected graphs only")
    dist, p = levels
    classes = [[] for _ in range(p)]
    for i, v in enumerate(c.index().order):
        classes[dist[i] % p].append(v)
    return classes


def is_single_cycle(c: FiniteGraph) -> bool:
    """True iff the graph is one periodic orbit: strongly connected, with one
    multiplicity-1 out-edge per vertex.  Such a graph has as many edges as
    vertices, each of which has an in-edge, so every in-degree is 1 too."""
    return all(len(r) == 1 and r[0][1] == 1 for r in c.index().succ) and (
        c.irreducible or _levels(c) is not None
    )


def first_return_counts(c: FiniteGraph, base: str, limit: int) -> list[int]:
    """f[n] = number of length-n loops at `base` avoiding `base` in between.

    Multigraph edges count with multiplicity, i.e. loops are edge paths.
    """
    idx = c.index()
    if base not in idx.pos:
        raise ValueError(f"base {base!r} not a vertex")
    succ = idx.succ

    def step(weight: dict[int, int]) -> dict[int, int]:
        new: dict[int, int] = {}
        for v, wv in weight.items():
            for w, mult in succ[v]:
                new[w] = new.get(w, 0) + wv * mult
        return new

    return first_returns_by_step(step, idx.pos[base], limit)


def first_returns_by_step(
    step: Callable[[dict[int, int]], dict[int, int]], b: int, limit: int
) -> list[int]:
    """`first_return_counts` at position b of a graph given by its frontier
    step: `step` maps path counts per end position to the counts of the paths
    one edge longer, edges counted with multiplicity."""
    f = [0] * (limit + 1)
    # weight[v] = number of paths b -> v of current length avoiding b in between
    weight = {b: 1}
    for n in range(1, limit + 1):
        weight = step(weight)
        f[n] = weight.pop(b, 0)
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
        comp = next((c for _, c in irreducible_components(p) if b in c.index().pos), None)
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
