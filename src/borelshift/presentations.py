"""Presentations of countable-state Markov shifts at desk scale.

Two concrete carriers: finite directed multigraphs (vertex or edge shifts)
and loop schemas, which present the loop shift of a single irreducible
component by its first-return loop counts at a base vertex.  Both round-trip
through a line-oriented document format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union


# Largest loop length, tail start n0, tail stride or damped exponent d that a
# loops document may state.  Bisecting Phi(x) = 1 builds a coefficient list
# as long as the longest loop, and a tail's integrality check computes k^n0,
# so larger values would be allocations, not answers.  Counts are not capped.
LENGTH_CAP = 100_000

# Largest bits(k) * n that a tail may reach, with bits(k) the bits of k's
# numerator plus those of its denominator.  A geometric tail builds k^n0 (its
# integrality check) and (kx)^stride, so n = max(n0, stride) there.  A
# damped-tail enclosure sums its first DAMPED_FIRST_TERMS terms before it can
# stop, building k^n and den(x)^n up to n = n0 + DAMPED_FIRST_TERMS * stride.
# LENGTH_CAP bounds n0 and stride but not the size of k, so this bounds the
# integers those powers make.
TAIL_BITS_CAP = 10_000_000
DAMPED_FIRST_TERMS = 64

# Most decimal digits that the numerator or the denominator of a rational
# token may have, counted as the token writes them: `p/q` has those of p and
# of q; a decimal `i.fEx` is the integer `if` times 10^(x - len(f)), so its
# numerator is `if` (leading zeros dropped, trailing ones moved into the
# power) times the power when that is positive, and its denominator is the
# power when it is negative.  str() writes no integer of more than 4300
# digits, so a larger number could be read but not written out; and
# Fraction builds 10^x first, so parse_rational checks the cap on the text.
NUMBER_DIGITS_CAP = 4000

# a superset of the syntax Fraction accepts, for reading the sizes only
_RATIONAL = re.compile(r"\s*[-+]?([\d_]*)(?:/([\d_]+)|(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?)\s*")


class ParseError(ValueError):
    """Document syntax or validation error, tagged with a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        self.message = message
        super().__init__(f"line {lineno}: {message}")


@dataclass(frozen=True)
class GeometricTail:
    """Tail family c_n = a * k^n on n = n0, n0+stride, ... (k integer >= 2)."""

    a: Fraction
    k: int
    n0: int
    stride: int = 1

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("geometric tail ratio k must be an integer >= 2")
        if self.n0 < 1 or self.stride < 1:
            raise ValueError("geometric tail needs n0 >= 1 and stride >= 1")
        if self.a <= 0:
            raise ValueError("geometric tail coefficient a must be positive")
        # counts must be integers along the whole support: a k^n0 is, and k
        # is an integer, so every a k^(n0 + j stride) is too
        if (self.a * Fraction(self.k) ** self.n0).denominator != 1:
            raise ValueError("geometric tail produces non-integer counts")

    def count(self, n: int) -> int:
        if n < self.n0 or (n - self.n0) % self.stride:
            return 0
        return int(self.a * Fraction(self.k) ** n)


@dataclass(frozen=True)
class DampedTail:
    """Tail family c_n = floor(a * k^n / n^d) on n = n0, n0+stride, ...

    k may be any rational > 1; the radius of convergence of the loop
    generating function is exactly 1/k regardless of a and d.
    """

    a: Fraction
    k: Fraction
    d: int
    n0: int
    stride: int = 1

    def __post_init__(self):
        if Fraction(self.k) <= 1:
            raise ValueError("damped tail ratio k must be > 1")
        if self.d < 1:
            raise ValueError("damped tail exponent d must be >= 1")
        if self.n0 < 1 or self.stride < 1:
            raise ValueError("damped tail needs n0 >= 1 and stride >= 1")
        if self.a <= 0:
            raise ValueError("damped tail coefficient a must be positive")

    def count(self, n: int) -> int:
        if n < self.n0 or (n - self.n0) % self.stride:
            return 0
        return int(self.a * Fraction(self.k) ** n // Fraction(n) ** self.d)


Tail = Union[GeometricTail, DampedTail]


@dataclass(frozen=True)
class LoopSchema:
    """First-return loop counts at a distinguished base vertex.

    `counts` lists explicit (length, count) pairs; `tail` optionally extends
    them by one of the two parametric families.  Explicit lengths and tail
    support may not overlap.
    """

    counts: tuple[tuple[int, int], ...]
    tail: Optional[Tail] = None
    base: str = "0"

    def __post_init__(self):
        seen = set()
        for n, c in self.counts:
            if n < 1:
                raise ValueError(f"loop length {n} < 1")
            if c < 0:
                raise ValueError(f"negative loop count at length {n}")
            if n in seen:
                raise ValueError(f"duplicate explicit count at length {n}")
            seen.add(n)
        if self.tail is not None:
            for n in seen:
                if n >= self.tail.n0 and (n - self.tail.n0) % self.tail.stride == 0:
                    raise ValueError(f"explicit count at length {n} overlaps tail support")
        if not self.has_loop():
            raise ValueError("schema has no loop at all (some c_n >= 1 required)")

    def has_loop(self) -> bool:
        # a tail's counts grow without bound (damped ones too: a*k^n/n^d), so
        # some count is eventually >= 1
        return self.tail is not None or any(c >= 1 for _, c in self.counts)

    def counts_upto(self, limit: int) -> list[int]:
        """c_1..c_limit as a list indexed by length (index 0 unused)."""
        out = [0] * (limit + 1)
        for n, c in self.counts:
            if n <= limit:
                out[n] = c
        if self.tail is not None:
            n = self.tail.n0
            while n <= limit:
                out[n] += self.tail.count(n)
                n += self.tail.stride
        return out

    def max_explicit_length(self) -> int:
        return max((n for n, c in self.counts if c > 0), default=0)


class GraphIndex(NamedTuple):
    """Integer form of a FiniteGraph: the one index its algorithms walk.

    `order` is the sorted vertex tuple and `pos` maps a name to its position,
    so integer order is name order.  `succ[i]` and `pred[i]` list
    (j, multiplicity) for the distinct edges i -> j and j -> i, j ascending.
    """

    order: tuple[str, ...]
    pos: dict[str, int]
    succ: list[tuple[tuple[int, int], ...]]
    pred: list[tuple[tuple[int, int], ...]]

    @staticmethod
    def compile(vertices, edges) -> "GraphIndex":
        order = tuple(sorted(vertices))
        n = len(order)
        pos = {v: i for i, v in enumerate(order)}
        unit = [(i, 1) for i in pos.values()]  # one shared entry per multiplicity-1 target

        def rows(codes: list[int]) -> list[tuple[tuple[int, int], ...]]:
            # codes are i * n + j, one per edge; equal codes are parallel edges
            out: list[tuple[tuple[int, int], ...]] = [()] * n
            row: list[tuple[int, int]] = []
            last_i = last = -1
            for c in sorted(codes):
                if c == last:
                    row[-1] = (row[-1][0], row[-1][1] + 1)
                    continue
                i, j = divmod(c, n)
                if i != last_i:
                    if row:
                        out[last_i] = tuple(row)
                    row = []
                    last_i = i
                row.append(unit[j])
                last = c
            if row:
                out[last_i] = tuple(row)
            return out

        succ = rows([pos[v] * n + pos[w] for v, w in edges])
        pred = rows([pos[w] * n + pos[v] for v, w in edges])
        return GraphIndex(order, pos, succ, pred)


@dataclass(frozen=True)
class FiniteGraph:
    """Finite directed multigraph; repeated edges carry multiplicity.

    With all multiplicities 1 this presents the vertex shift; parallel edges
    make sense only for the edge shift, and entropy is always computed on the
    adjacency matrix that counts parallel edges.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    edge_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex name")
        for v, w in self.edges:
            if v not in vset or w not in vset:
                raise ValueError(f"edge ({v}, {w}) uses undeclared vertex")
        if self.edge_names:
            if len(self.edge_names) != len(self.edges):
                raise ValueError("edge_names length mismatch")
            if len(set(self.edge_names)) != len(self.edge_names):
                raise ValueError("duplicate edge name")
        else:
            object.__setattr__(self, "edge_names", tuple(f"e{i}" for i in range(len(self.edges))))

    @staticmethod
    def from_edges(edges, extra_vertices=()) -> "FiniteGraph":
        edges = tuple(edges)
        vs = dict.fromkeys(u for e in edges for u in e)
        vs.update(dict.fromkeys(extra_vertices))
        return FiniteGraph(tuple(sorted(vs)), edges)

    def index(self) -> GraphIndex:
        """The compiled integer index, built on first use and cached."""
        try:
            return self._index
        except AttributeError:
            idx = GraphIndex.compile(self.vertices, self.edges)
            object.__setattr__(self, "_index", idx)
            return idx

    def has_parallel_edges(self) -> bool:
        return len(set(self.edges)) != len(self.edges)

    def induced(self, keep) -> "FiniteGraph":
        keep = set(keep)
        verts = tuple(v for v in self.vertices if v in keep)
        pairs = [
            (e, name)
            for e, name in zip(self.edges, self.edge_names)
            if e[0] in keep and e[1] in keep
        ]
        return FiniteGraph(verts, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


ShiftPresentation = Union[FiniteGraph, LoopSchema]


def parse_rational(text: str) -> Fraction:
    """Fraction(text), for every rational that a document or a flag states.

    A number whose numerator or denominator, as written, has more than
    NUMBER_DIGITS_CAP digits raises ValueError before any Fraction or power
    of ten is built; so does text that Fraction refuses, a zero denominator
    included, with the message `bad rational ...`.
    """
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"bad rational {text!r}")
    whole, den, frac, exp = (g.replace("_", "") if g else "" for g in m.groups())
    if den:
        sizes = [len(whole.lstrip("0")), len(den.lstrip("0"))]
    elif len(exp.lstrip("+-").lstrip("0")) > len(str(len(text) + NUMBER_DIGITS_CAP)):
        sizes = [NUMBER_DIGITS_CAP + 1]  # |x| - len(f) is above the cap: no int(x) needed
    else:
        digits = (whole + frac).lstrip("0")
        trimmed = digits.rstrip("0")
        e = int(exp or 0) - len(frac) + len(digits) - len(trimmed)
        sizes = [len(trimmed) + max(e, 0), 1 + max(-e, 0)]
    if max(sizes) > NUMBER_DIGITS_CAP:
        raise ValueError(f"number {text!r} has more than {NUMBER_DIGITS_CAP} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {text!r}") from None


def _parse_fraction(tok: str, lineno: int) -> Fraction:
    try:
        return parse_rational(tok)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def _parse_int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"bad integer {tok!r}") from None


def _parse_capped(tok: str, lineno: int) -> int:
    n = _parse_int(tok, lineno)
    if n > LENGTH_CAP:
        raise ParseError(lineno, f"{n} is above the length cap {LENGTH_CAP}")
    return n


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def parse_document(text: str) -> tuple[ShiftPresentation, ...]:
    """Parse a document of one or more presentation sections.

    Each section opens with a "graph" or "loops" header line; a shift with
    several disjoint pieces is the union of its sections.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty document")
    sections: list[tuple[int, list]] = []
    for lineno, toks in lines:
        if toks[0] in ("graph", "loops"):
            sections.append((lineno, [toks[0]]))
        elif not sections:
            raise ParseError(lineno, f"expected 'graph' or 'loops' header, got {toks[0]!r}")
        else:
            sections[-1][1].append((lineno, toks))
    parts = []
    for lineno, body in sections:
        kind = body[0]
        if kind == "graph":
            parts.append(_parse_graph_body(body[1:], lineno))
        else:
            parts.append(_parse_loops_body(body[1:], lineno))
    return tuple(parts)


def parse_presentation(text: str) -> ShiftPresentation:
    """Parse a single-section presentation document."""
    parts = parse_document(text)
    if len(parts) != 1:
        raise ParseError(1, f"expected a single section, found {len(parts)}")
    return parts[0]


def _parse_graph_body(lines, header_line) -> FiniteGraph:
    vertices: dict[str, None] = {}  # insertion-ordered set
    edges: list[tuple[str, str]] = []
    names: list[Optional[str]] = []

    def declare(v: str):
        vertices.setdefault(v, None)

    for lineno, toks in lines:
        if toks[0] == "vertex":
            if len(toks) != 2:
                raise ParseError(lineno, "vertex line needs exactly one name")
            _check_symbol(toks[1], lineno)
            declare(toks[1])
        elif toks[0] == "edge":
            if len(toks) not in (3, 4):
                raise ParseError(lineno, "edge line is 'edge <v> <w> [name]'")
            _check_symbol(toks[1], lineno)
            _check_symbol(toks[2], lineno)
            declare(toks[1])
            declare(toks[2])
            edges.append((toks[1], toks[2]))
            names.append(toks[3] if len(toks) == 4 else None)
        else:
            raise ParseError(lineno, f"unexpected {toks[0]!r} in graph body")
    if not vertices:
        raise ParseError(header_line, "graph with no vertices")
    auto = 0
    used = {n for n in names if n is not None}
    final_names = []
    for n in names:
        if n is None:
            while f"e{auto}" in used:
                auto += 1
            n = f"e{auto}"
            used.add(n)
        final_names.append(n)
    try:
        return FiniteGraph(tuple(vertices), tuple(edges), tuple(final_names))
    except ValueError as exc:
        raise ParseError(header_line, str(exc)) from None


def _check_symbol(tok: str, lineno: int):
    if "|" in tok or "," in tok:
        raise ParseError(lineno, f"symbol {tok!r} may not contain '|' or ','")


def _parse_loops_body(lines, header_line) -> LoopSchema:
    base = "0"
    counts: list[tuple[int, int]] = []
    tail: Optional[Tail] = None
    for lineno, toks in lines:
        if toks[0] == "at":
            if len(toks) != 2:
                raise ParseError(lineno, "at line is 'at <base>'")
            base = toks[1]
        elif toks[0] == "count":
            if len(toks) != 3:
                raise ParseError(lineno, "count line is 'count <n> <c>'")
            counts.append((_parse_capped(toks[1], lineno), _parse_int(toks[2], lineno)))
        elif toks[0] == "tail":
            if tail is not None:
                raise ParseError(lineno, "second tail line")
            tail = _parse_tail(toks, lineno)
        else:
            raise ParseError(lineno, f"unexpected {toks[0]!r} in loops body")
    try:
        # in length order, as format_presentation writes them
        return LoopSchema(tuple(sorted(counts)), tail, base)
    except ValueError as exc:
        raise ParseError(header_line, str(exc)) from None


def _parse_tail(toks, lineno) -> Tail:
    stride = 1
    if len(toks) >= 3 and toks[-2] == "stride":
        stride = _parse_capped(toks[-1], lineno)
        toks = toks[:-2]
    if len(toks) < 2:
        raise ParseError(lineno, "tail line needs a family: 'geometric' or 'damped'")
    if toks[1] == "geometric":
        # tail geometric <a> <k> from <n0>
        if len(toks) != 6 or toks[4] != "from":
            raise ParseError(lineno, "tail line is 'tail geometric <a> <k> from <n0>'")
        a = _parse_fraction(toks[2], lineno)
        k = _parse_int(toks[3], lineno)
        n0 = _parse_capped(toks[5], lineno)
        _check_tail_size(k, max(n0, stride), lineno)
        try:
            return GeometricTail(a, k, n0, stride)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if toks[1] == "damped":
        # tail damped <a> <k> <d> from <n0>
        if len(toks) != 7 or toks[5] != "from":
            raise ParseError(lineno, "tail line is 'tail damped <a> <k> <d> from <n0>'")
        a = _parse_fraction(toks[2], lineno)
        k = _parse_fraction(toks[3], lineno)
        d = _parse_capped(toks[4], lineno)
        n0 = _parse_capped(toks[6], lineno)
        _check_tail_size(k, n0 + DAMPED_FIRST_TERMS * stride, lineno)
        try:
            return DampedTail(a, k, d, n0, stride)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    raise ParseError(lineno, f"unknown tail family {toks[1]!r}")


def _check_tail_size(k: Union[int, Fraction], n: int, lineno: int) -> None:
    bits = k.numerator.bit_length() + k.denominator.bit_length()
    if bits * n > TAIL_BITS_CAP:
        raise ParseError(
            lineno,
            f"tail ratio of {bits} bits to the power {n} is above "
            f"the size cap {TAIL_BITS_CAP} bits",
        )


def format_document(parts) -> str:
    """Canonical multi-section document text."""
    return "\n\n".join(format_presentation(p).rstrip("\n") for p in parts) + "\n"


def format_presentation(p: ShiftPresentation) -> str:
    """Canonical document text; parse(format(p)) reproduces p."""
    if isinstance(p, FiniteGraph):
        # explicit vertex lines pin the vertex order, so parsing the output
        # reproduces the exact value, not just an isomorphic copy
        out = ["graph"]
        for v in p.vertices:
            out.append(f"vertex {v}")
        default_names = all(n == f"e{i}" for i, n in enumerate(p.edge_names))
        for (v, w), name in zip(p.edges, p.edge_names):
            out.append(f"edge {v} {w}" if default_names else f"edge {v} {w} {name}")
        return "\n".join(out) + "\n"
    out = ["loops", f"at {p.base}"]
    for n, c in sorted(p.counts):
        out.append(f"count {n} {c}")
    t = p.tail
    if isinstance(t, GeometricTail):
        line = f"tail geometric {t.a} {t.k} from {t.n0}"
        if t.stride != 1:
            line += f" stride {t.stride}"
        out.append(line)
    elif isinstance(t, DampedTail):
        line = f"tail damped {t.a} {t.k} {t.d} from {t.n0}"
        if t.stride != 1:
            line += f" stride {t.stride}"
        out.append(line)
    return "\n".join(out) + "\n"


def golden_mean_graph() -> FiniteGraph:
    """Two vertices, edges a->a, a->b, b->a (no bb)."""
    return FiniteGraph.from_edges([("a", "a"), ("a", "b"), ("b", "a")])


def full_shift_graph(symbols) -> FiniteGraph:
    """Complete graph with self-loops on the given symbols."""
    symbols = list(symbols)
    return FiniteGraph.from_edges([(v, w) for v in symbols for w in symbols])


def cycle_graph(length: int, prefix: str = "v") -> FiniteGraph:
    vs = [f"{prefix}{i}" for i in range(length)]
    return FiniteGraph.from_edges([(vs[i], vs[(i + 1) % length]) for i in range(length)])
