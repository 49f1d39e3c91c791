"""Presentations of countable-state Markov shifts at desk scale.

Two concrete carriers: finite directed multigraphs (vertex or edge shifts)
and loop schemas, which present the loop shift of a single irreducible
component by its first-return loop counts at a base vertex, explicit or from
one Tail record of either family, geometric or damped.  Both round-trip
through a line-oriented document format.  A graph is read line by line into
integer columns, which its one integer index is compiled from.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import count
from fractions import Fraction
from typing import Iterator, Optional, Union


# Largest loop length, tail start n0, tail stride or damped exponent d that a
# loops document may state.  Bisecting Phi(x) = 1 builds a coefficient list
# as long as the longest loop, and a tail's integrality check computes k^n0,
# so larger values would be allocations, not answers.  Counts are not capped.
LENGTH_CAP = 100_000

# Largest bits(k) * n that a tail may reach, with bits(k) the bits of k's
# numerator plus those of its denominator.  A geometric tail builds k^n0 (its
# integrality check) and (kx)^stride, so n = max(n0, stride) there.  A
# damped-tail enclosure sums its first DAMPED_FIRST_TERMS terms before it can
# stop, up to n = n0 + DAMPED_FIRST_TERMS * stride.  It carries k^n in fixed
# point, but builds k^n exactly for a count whose floor its bounds leave
# open, and Tail.count builds it too.  LENGTH_CAP bounds n0 and stride
# but not the size of k, so this bounds the integers those powers make.
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

# a superset of the syntax Fraction accepts, for reading the sizes only; a
# pattern string, which re's own cache compiles when a rational is first read
_RATIONAL = r"\s*[-+]?([\d_]*)(?:/([\d_]+)|(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?)\s*"


# The three ways a verb stops short of an answer, each with its own exit
# status (cli): every exception a verb raises on purpose subclasses one.
class ParseError(ValueError):
    """Document syntax or validation error, tagged with a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        self.message = message
        super().__init__(f"line {lineno}: {message}")


class Unsatisfiable(ValueError):
    """A well-formed request that no object satisfies: a refused construction."""


class Inconclusive(ArithmeticError):
    """No certified answer within a tolerance, precision or size budget."""


class Record:
    """Base of the immutable value records that check their arguments.

    A subclass names its compared fields in `_fields`, and its __init__ runs
    the checks, then hands the values, in field order, to Record.__init__,
    which stores them.  Records are equal when they are of one class and
    their fields are equal, hash as the tuple of those fields, and refuse
    assignment; the instance __dict__ also holds what a cached_property
    caches.  A plain result is a NamedTuple.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        # a store per field keeps the class's shared-key layout; vars(self).update would not
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Singleton:
    """Base of a class with one instance, made by its first call and returned by every call."""

    def __new__(cls):
        if "_instance" not in vars(cls):
            cls._instance = super().__new__(cls)
        return cls._instance


class Tail(Record):
    """Tail family c_n = floor(a * k^n / n^d) on n = n0, n0+stride, ...

    d = 0 is the geometric family: k an integer >= 2 and a k^n0 an integer,
    so every count a k^n is one.  d >= 1 is the damped family, for any
    rational k > 1.  The radius of convergence of the loop generating
    function is exactly 1/k regardless of a and d.
    """

    _fields = ("a", "k", "d", "n0", "stride")

    def __init__(self, a: Fraction, k: Union[int, Fraction], d: int, n0: int, stride: int = 1):
        family = "damped" if d else "geometric"
        if not d and k < 2:
            raise ValueError("geometric tail ratio k must be an integer >= 2")
        if d and Fraction(k) <= 1:
            raise ValueError("damped tail ratio k must be > 1")
        if d < 0:
            raise ValueError("damped tail exponent d must be >= 1")
        if n0 < 1 or stride < 1:
            raise ValueError(f"{family} tail needs n0 >= 1 and stride >= 1")
        if a <= 0:
            raise ValueError(f"{family} tail coefficient a must be positive")
        # counts must be integers along the whole support: a k^n0 is, and k
        # is an integer, so every a k^(n0 + j stride) is too
        if not d and (a * Fraction(k) ** n0).denominator != 1:
            raise ValueError("geometric tail produces non-integer counts")
        super().__init__(a, k, d, n0, stride)

    def count(self, n: int) -> int:
        if n < self.n0 or (n - self.n0) % self.stride:
            return 0
        return self.a * Fraction(self.k) ** n // n**self.d


class LoopSchema(Record):
    """First-return loop counts at a distinguished base vertex.

    `counts` lists explicit (length, count) pairs; `tail` optionally extends
    them by a Tail of either family.  Explicit lengths and tail
    support may not overlap.
    """

    _fields = ("counts", "tail", "base")

    def __init__(
        self, counts: tuple[tuple[int, int], ...], tail: Optional[Tail] = None, base: str = "0"
    ):
        seen = set()
        for n, c in counts:
            if n < 1:
                raise ValueError(f"loop length {n} < 1")
            if c < 0:
                raise ValueError(f"negative loop count at length {n}")
            if n in seen:
                raise ValueError(f"duplicate explicit count at length {n}")
            seen.add(n)
        if tail is not None:
            for n in seen:
                if n >= tail.n0 and (n - tail.n0) % tail.stride == 0:
                    raise ValueError(f"explicit count at length {n} overlaps tail support")
        super().__init__(counts, tail, base)
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


class GraphIndex(Record):
    """Integer form of a FiniteGraph: the one index its algorithms walk.

    `order` is the sorted vertex tuple and `pos` maps a name to its position,
    so integer order is name order.  `succ[i]` lists (j, multiplicity) for the
    distinct edges i -> j, j ascending.  `pred[i]` lists them for the edges
    j -> i; it is transposed from `succ` the first time it is read, since
    splitting a graph and most of what runs on its components walk `succ`
    alone.
    """

    _fields = ("order", "pos", "succ")

    def __init__(self, order: tuple[str, ...], pos: dict[str, int],
                 succ: list[tuple[tuple[int, int], ...]]):
        super().__init__(order, pos, succ)

    @cached_property
    def pred(self) -> list[tuple[tuple[int, int], ...]]:
        # scanning tails upward appends each row's entries in ascending order
        rows: list[list[tuple[int, int]]] = [[] for _ in self.succ]
        for i, row in enumerate(self.succ):
            unit = (i, 1)  # one shared entry per multiplicity-1 tail
            for j, m in row:
                rows[j].append(unit if m == 1 else (i, m))
        return list(map(tuple, rows))

    @staticmethod
    def compile(vertices, tails, heads) -> "GraphIndex":
        """The index of the edges vertices[tails[k]] -> vertices[heads[k]]."""
        order = tuple(sorted(vertices))
        n = len(order)
        pos = dict(zip(order, range(n)))
        rank = [pos[v] for v in vertices]
        unit = [(i, 1) for i in range(n)]  # one shared entry per multiplicity-1 target
        # codes are i * n + j, one per edge; equal codes are parallel edges
        succ: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        last = -1
        for c in sorted([rank[t] * n + rank[h] for t, h in zip(tails, heads)]):
            row = succ[c // n]
            if c == last:
                row[-1] = (row[-1][0], row[-1][1] + 1)
            else:
                row.append(unit[c % n])
            last = c
        return GraphIndex(order, pos, list(map(tuple, succ)))


class FiniteGraph:
    """Finite directed multigraph; repeated edges carry multiplicity.

    With all multiplicities 1 this presents the vertex shift; parallel edges
    make sense only for the edge shift, and entropy is always computed on the
    adjacency matrix that counts parallel edges.

    `columns` holds it as (vertices, tails, heads, names): edge ends as
    positions in `vertices`, and all edge names in a tuple, or the explicit
    ones by edge position in a dict with e0, e1, ... past them for the rest.
    A parsed graph builds `edges` and `edge_names` only when they are read.
    """

    irreducible = False  # set on the components of graphs.irreducible_components

    def __init__(self, vertices, edges, edge_names=()):
        vertices, edges, edge_names = tuple(vertices), tuple(edges), tuple(edge_names)
        pos = dict(zip(vertices, range(len(vertices))))
        if len(pos) != len(vertices):
            raise ValueError("duplicate vertex name")
        try:
            tails, heads = [pos[v] for v, _ in edges], [pos[w] for _, w in edges]
        except KeyError as exc:
            raise ValueError(f"edge uses undeclared vertex {exc}") from None
        if edge_names and len(edge_names) != len(edges):
            raise ValueError("edge_names length mismatch")
        if len(set(edge_names)) != len(edge_names):
            raise ValueError("duplicate edge name")
        self.columns, self.edges = (vertices, tails, heads, edge_names or {}), edges

    @classmethod
    def from_columns(cls, columns) -> "FiniteGraph":
        """The graph of `columns`, or of `columns()` called on first read."""
        g = cls.__new__(cls)
        g.__dict__["columns" if isinstance(columns, tuple) else "_source"] = columns
        return g

    @cached_property
    def columns(self) -> tuple:
        return self._source()

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return self.columns[0]

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        vs, tails, heads, _ = self.columns
        return tuple(zip(map(vs.__getitem__, tails), map(vs.__getitem__, heads)))

    @cached_property
    def edge_names(self) -> tuple[str, ...]:
        _, tails, _, named = self.columns
        if isinstance(named, tuple):
            return named
        used = set(named.values())
        auto = (f"e{k}" for k in count() if f"e{k}" not in used)
        return tuple(named[k] if k in named else next(auto) for k in range(len(tails)))

    def index(self) -> GraphIndex:
        """The compiled integer index, built on first use and cached."""
        if "_index" not in self.__dict__:
            self._index = GraphIndex.compile(*self.columns[:3])
        return self._index

    def __eq__(self, other):
        key = (self.vertices, self.edges, self.edge_names)
        return type(other) is type(self) and key == (other.vertices, other.edges, other.edge_names)

    def __hash__(self):
        return hash((self.vertices, self.edges, self.edge_names))

    @staticmethod
    def from_edges(edges) -> "FiniteGraph":
        edges = tuple(edges)
        return FiniteGraph(tuple(sorted({u for e in edges for u in e})), edges)

    def has_parallel_edges(self) -> bool:
        return len(set(self.edges)) != len(self.edges)

    def induced(self, keep) -> "FiniteGraph":
        keep = set(keep)
        pairs = [(e, n) for e, n in zip(self.edges, self.edge_names) if keep.issuperset(e)]
        verts = [v for v in self.vertices if v in keep]
        return FiniteGraph(verts, [e for e, _ in pairs], [n for _, n in pairs])


ShiftPresentation = Union[FiniteGraph, LoopSchema]


def parse_rational(text: str) -> Fraction:
    """Fraction(text), for every rational that a document or a flag states.

    A number whose numerator or denominator, as written, has more than
    NUMBER_DIGITS_CAP digits raises ValueError before any Fraction or power
    of ten is built; so does text that Fraction refuses, a zero denominator
    included, with the message `bad rational ...`.
    """
    m = re.fullmatch(_RATIONAL, text)
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
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if toks:
            yield i, toks


def parse_document(text: str) -> tuple[ShiftPresentation, ...]:
    """Parse a document of one or more presentation sections.

    Each section opens with a "graph" or "loops" header line; a shift with
    several disjoint pieces is the union of its sections.  Lines are read as
    each section's parser asks for them.
    """
    lines = _content_lines(text)
    head = next(lines, None)
    if head is None:
        raise ParseError(1, "empty document")

    def body():  # the lines up to the next header, which is left in `head`
        nonlocal head
        for line in lines:
            if line[1][0] in ("graph", "loops"):
                head = line
                return
            yield line

    parts = []
    while head is not None:
        lineno, toks = head
        head = None
        if toks[0] not in ("graph", "loops"):
            raise ParseError(lineno, f"expected 'graph' or 'loops' header, got {toks[0]!r}")
        parse = _parse_graph_body if toks[0] == "graph" else _parse_loops_body
        parts.append(parse(body(), lineno))
    return tuple(parts)


def parse_presentation(text: str) -> ShiftPresentation:
    """Parse a single-section presentation document."""
    parts = parse_document(text)
    if len(parts) != 1:
        raise ParseError(1, f"expected a single section, found {len(parts)}")
    return parts[0]


def _parse_graph_body(lines, header_line) -> FiniteGraph:
    """The graph of the body lines as columns, a name checked where first named."""
    ids: dict[str, int] = {}
    tails: list[int] = []
    heads: list[int] = []
    named: dict[int, str] = {}  # explicit names by edge position

    def declare(v: str, lineno: int) -> int:
        if "|" in v or "," in v:
            raise ParseError(lineno, f"symbol {v!r} may not contain '|' or ','")
        ids[v] = len(ids)
        return ids[v]

    for lineno, toks in lines:
        key = toks[0]
        if key == "edge":
            if len(toks) not in (3, 4):
                raise ParseError(lineno, "edge line is 'edge <v> <w> [name]'")
            tails.append(ids[toks[1]] if toks[1] in ids else declare(toks[1], lineno))
            heads.append(ids[toks[2]] if toks[2] in ids else declare(toks[2], lineno))
            if len(toks) == 4:
                named[len(tails) - 1] = toks[3]
        elif key == "vertex":
            if len(toks) != 2:
                raise ParseError(lineno, "vertex line needs exactly one name")
            if toks[1] not in ids:
                declare(toks[1], lineno)
        else:
            raise ParseError(lineno, f"unexpected {key!r} in graph body")
    if not ids:
        raise ParseError(header_line, "graph with no vertices")
    if len(set(named.values())) != len(named):
        raise ParseError(header_line, "duplicate edge name")
    return FiniteGraph.from_columns((tuple(ids), tails, heads, named))


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
    # tail geometric <a> <k> from <n0>, or tail damped <a> <k> <d> from <n0>
    stride = 1
    if len(toks) >= 3 and toks[-2] == "stride":
        stride = _parse_capped(toks[-1], lineno)
        toks = toks[:-2]
    if len(toks) < 2:
        raise ParseError(lineno, "tail line needs a family: 'geometric' or 'damped'")
    if toks[1] not in ("geometric", "damped"):
        raise ParseError(lineno, f"unknown tail family {toks[1]!r}")
    damped = toks[1] == "damped"
    if len(toks) != 6 + damped or toks[-2] != "from":
        form = f"tail {toks[1]} <a> <k> {'<d> ' * damped}from <n0>"
        raise ParseError(lineno, f"tail line is '{form}'")
    a = _parse_fraction(toks[2], lineno)
    k = _parse_fraction(toks[3], lineno) if damped else _parse_int(toks[3], lineno)
    d = _parse_capped(toks[4], lineno) if damped else 0
    n0 = _parse_capped(toks[-1], lineno)
    _check_tail_size(k, n0 + DAMPED_FIRST_TERMS * stride if damped else max(n0, stride), lineno)
    try:
        # a damped line's d = 0 is refused as every d < 1 is: Tail reads 0 as geometric
        return Tail(a, k, d if d or not damped else -1, n0, stride)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def tail_bits(k: Union[int, Fraction]) -> int:
    """bits(k), which TAIL_BITS_CAP bounds times the largest power of k."""
    return k.numerator.bit_length() + k.denominator.bit_length()


def _check_tail_size(k: Union[int, Fraction], n: int, lineno: int) -> None:
    bits = tail_bits(k)
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
    if t is not None:
        family = f"damped {t.a} {t.k} {t.d}" if t.d else f"geometric {t.a} {t.k}"
        out.append(f"tail {family} from {t.n0}" + (f" stride {t.stride}" if t.stride != 1 else ""))
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
