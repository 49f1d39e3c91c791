"""The value records: frozen dataclass semantics without the dataclass machinery.

Each record class, a presentations.Record or a NamedTuple, is checked against
a reference frozen dataclass with the same fields, defaults and checks, on
seeded random arguments: the signature, equality, hashing, repr, refused
assignment, and the ValueError text of every check.
"""

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import pytest

from borelshift import (
    ComponentSummary,
    ExactAlgebraic,
    Generator,
    IntervalApprox,
    InvariantPair,
    IsoVerdict,
    LoopSchema,
    RatInterval,
    UNATTAINED,
    Tail,
    ZERO_ENTROPY,
    summarize_components,
)
from borelshift import invariants, recurrence
from borelshift.codes import (
    BlockCode,
    BowenReport,
    FiniteToOneReport,
    InjectivityReport,
    ResolvingReport,
    SymbolRelation,
)
from borelshift.invariants import AdmissibilityReport
from borelshift.markers import EmbeddingCertificate, MarkerParams
from borelshift.pathology import MARK, PathologyReport, PathologySpec
from borelshift.presentations import FiniteGraph, Record
from borelshift.realize import FamilySchema, Realization


# the reference: each record as the frozen dataclass it replaces, checks included
@dataclass(frozen=True)
class RefTail:
    a: Fraction
    k: Fraction
    d: int
    n0: int
    stride: int = 1

    def __post_init__(self):
        if self.d == 0:  # the geometric family's checks
            if self.k < 2:
                raise ValueError("geometric tail ratio k must be an integer >= 2")
            if self.n0 < 1 or self.stride < 1:
                raise ValueError("geometric tail needs n0 >= 1 and stride >= 1")
            if self.a <= 0:
                raise ValueError("geometric tail coefficient a must be positive")
            if (self.a * Fraction(self.k) ** self.n0).denominator != 1:
                raise ValueError("geometric tail produces non-integer counts")
        else:  # the damped family's
            if Fraction(self.k) <= 1:
                raise ValueError("damped tail ratio k must be > 1")
            if self.d < 1:
                raise ValueError("damped tail exponent d must be >= 1")
            if self.n0 < 1 or self.stride < 1:
                raise ValueError("damped tail needs n0 >= 1 and stride >= 1")
            if self.a <= 0:
                raise ValueError("damped tail coefficient a must be positive")


@dataclass(frozen=True)
class RefLoopSchema:
    counts: tuple
    tail: object = None
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
        if self.tail is None and not any(c >= 1 for _, c in self.counts):
            raise ValueError("schema has no loop at all (some c_n >= 1 required)")


@dataclass(frozen=True)
class RefExactAlgebraic:
    poly: tuple
    root_lo: Fraction
    root_hi: Fraction
    minimal: bool = field(default=True, compare=False, repr=False)

    def __post_init__(self):
        if len(self.poly) < 2 or self.poly[-1] <= 0:
            raise ValueError("minpoly must be nonconstant with positive leading coefficient")
        if self.root_lo > self.root_hi or self.root_hi <= 0:
            raise ValueError("isolating interval must be nonempty and positive")


@dataclass(frozen=True)
class RefIntervalApprox:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty entropy interval")


@dataclass(frozen=True)
class RefRatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class RefGenerator:
    period: int
    entropy: object
    count: object

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("generator period must be >= 1")
        if isinstance(self.count, int) and self.count < 0:
            raise ValueError("generator count must be >= 0")


@dataclass(frozen=True)
class RefInvariantPair:
    generators: tuple


@dataclass(frozen=True)
class RefAdmissibilityReport:
    admissible: bool
    violations: tuple


@dataclass(frozen=True)
class RefIsoVerdict:
    isomorphic: bool
    witness_period: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True)
class RefComponentSummary:
    period: int
    entropy: object
    mme: bool
    recurrence: str
    source: str = ""


@dataclass(frozen=True)
class RefBlockCode:
    domain: object
    mapping: tuple
    mode: str = "vertex"

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


@dataclass(frozen=True)
class RefPathologySpec:
    base: object
    M: int
    m_seq: tuple

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


# the plain results and parameters, which check nothing
@dataclass(frozen=True)
class RefInjectivityReport:
    injective: bool
    witness: object = None
    periodic: bool = False


@dataclass(frozen=True)
class RefFiniteToOneReport:
    finite_to_one: bool
    diamond: object = None


@dataclass(frozen=True)
class RefSymbolRelation:
    pairs: frozenset


@dataclass(frozen=True)
class RefBowenReport:
    holds: bool
    complete: bool
    label_equal: bool
    symmetric: bool
    reflexive: bool
    failures: tuple = ()


@dataclass(frozen=True)
class RefResolvingReport:
    right_resolving: bool
    left_resolving: bool
    fibers_complete: bool
    preimage_count: Optional[int]
    failures: tuple = ()


@dataclass(frozen=True)
class RefMarkerParams:
    base: str
    ell: tuple
    ell_tilde: tuple
    A: int
    C: int
    N: int
    K: int


@dataclass(frozen=True)
class RefEmbeddingCertificate:
    tier: str
    presentation: object
    symbol_map: tuple
    entropy: object
    params: object = None


@dataclass(frozen=True)
class RefPathologyReport:
    spec: object
    return_counts_match: bool
    window: int
    states: int
    loop_rows: tuple
    estimate: float
    estimate_below_eps: bool
    hidden_entropy: object
    gap_certified: bool
    bordered_checked: int
    bordered_unique: bool
    bordered_failures: tuple
    ambiguous_witness: Optional[tuple]
    witness_lifts: int


@dataclass(frozen=True)
class RefFamilySchema:
    period: int
    entropy: object


@dataclass(frozen=True)
class RefRealization:
    components: tuple
    families: tuple


def _frac(rng, lo=-3, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def _interval(rng):
    lo, hi = sorted((_frac(rng), _frac(rng)))
    return (lo, hi) if rng.random() < 0.9 else (hi, lo)


def _geometric(rng):
    k, n0 = rng.randint(1, 4), rng.randint(0, 4)
    return (Fraction(rng.randint(-1, 5), k ** rng.randint(0, 3)), k, 0, n0, rng.randint(0, 3))


def _damped(rng):
    # d = 0 reads as geometric, with a rational k; d < 0 is a refused damped tail
    return (_frac(rng), _frac(rng, 1, 12), rng.randint(-1, 3), rng.randint(0, 4), rng.randint(0, 3))


def _valid_tail(rng):
    while True:
        args = _geometric(rng)
        try:
            return Tail(*args)
        except ValueError:
            pass


def _schema(rng):
    counts = tuple((rng.randint(0, 6), rng.randint(-1, 3)) for _ in range(rng.randint(0, 3)))
    tail = _valid_tail(rng) if rng.random() < 0.5 else None
    return (counts, tail, rng.choice("0ab"))


def _exact(rng):
    poly = (*(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))), rng.randint(-1, 3))
    return (poly, *_interval(rng), rng.random() < 0.5)


def _entropy(rng):
    return rng.choice([ZERO_ENTROPY, IntervalApprox(Fraction(1, 2), Fraction(2, 3)),
                       IntervalApprox(Fraction(1, 3), Fraction(1, 2))])


def _generator(rng):
    return (rng.randint(0, 4), _entropy(rng), rng.choice([UNATTAINED, -1, 0, 1, 2]))


def _pair(rng):
    gens = [Generator(rng.randint(1, 3), _entropy(rng), rng.randint(0, 2))
            for _ in range(rng.randint(0, 2))]
    return (tuple(gens),)


def _admissibility(rng):
    return (rng.random() < 0.5, tuple(rng.sample(range(1, 5), rng.randint(0, 2))))


def _verdict(rng):
    return (rng.random() < 0.5, rng.choice([None, 1, 2]), rng.choice(["", "u(1) differs"]))


def _summary(rng):
    return (rng.randint(1, 3), _entropy(rng), rng.random() < 0.5,
            rng.choice([invariants.POSITIVE_RECURRENT, invariants.TRANSIENT]),
            rng.choice(["", "c0", "p1.loops"]))


GOLDEN = FiniteGraph(("0", "1"), (("0", "0"), ("0", "1"), ("1", "0")))


def _graph(rng):
    """A graph on one to three vertices, sometimes with parallel edges."""
    names = ("a", "b", "c")[:rng.randint(1, 3)]
    return FiniteGraph(names, [(rng.choice(names), rng.choice(names))
                               for _ in range(rng.randint(1, 4))])


def _block_code(rng):
    g = _graph(rng)
    mode = rng.choice(["vertex", "edge", "edge", "label"])
    keys = g.edge_names if mode == "edge" else g.vertices
    mapping = tuple((k, rng.choice("01")) for k in keys)
    if rng.random() < 0.15:
        mapping = mapping[1:]  # a symbol left unmapped
    return (g, mapping, mode)


def _pathology_spec(rng):
    base = rng.choice([GOLDEN] * 6 + [FiniteGraph((MARK, "0"), ((MARK, "0"), ("0", MARK))),
                                      FiniteGraph(("0",), (("0", "0"), ("0", "0")))])
    m_seq = tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 3)))
    return (base, rng.choice([0, 2, 3, 5, 7]), m_seq)


_VALUES = [None, 0, 1, 2, True, False, "", "x", (), ("a", "b"), Fraction(1, 3),
           frozenset({("a", "b")})]


def _plain(n):
    """A draw of n field values for a record that checks nothing."""
    return lambda rng: tuple(rng.choice(_VALUES) for _ in range(n))


# record, its reference, a draw of positional arguments (valid or not)
RECORDS = [
    (Tail, RefTail, _geometric),
    (Tail, RefTail, _damped),
    (LoopSchema, RefLoopSchema, _schema),
    (ExactAlgebraic, RefExactAlgebraic, _exact),
    (IntervalApprox, RefIntervalApprox, _interval),
    (RatInterval, RefRatInterval, _interval),
    (Generator, RefGenerator, _generator),
    (InvariantPair, RefInvariantPair, _pair),
    (AdmissibilityReport, RefAdmissibilityReport, _admissibility),
    (IsoVerdict, RefIsoVerdict, _verdict),
    (ComponentSummary, RefComponentSummary, _summary),
    (BlockCode, RefBlockCode, _block_code),
    (PathologySpec, RefPathologySpec, _pathology_spec),
    (InjectivityReport, RefInjectivityReport, _plain(3)),
    (FiniteToOneReport, RefFiniteToOneReport, _plain(2)),
    (SymbolRelation, RefSymbolRelation, _plain(1)),
    (BowenReport, RefBowenReport, _plain(6)),
    (ResolvingReport, RefResolvingReport, _plain(5)),
    (MarkerParams, RefMarkerParams, _plain(7)),
    (EmbeddingCertificate, RefEmbeddingCertificate, _plain(5)),
    (PathologyReport, RefPathologyReport, _plain(14)),
    (FamilySchema, RefFamilySchema, _plain(2)),
    (Realization, RefRealization, _plain(2)),
]
# a tail's rows are named by the family they draw
IDS = [f"{draw.__name__[1:].title()}Tail" if cls is Tail else cls.__name__
       for cls, _, draw in RECORDS]


def _build(cls, args):
    """(record, None), or (None, the ValueError text)."""
    try:
        return cls(*args), None
    except ValueError as exc:
        return None, str(exc)


def _compared(ref_cls):
    return [f for f in ref_cls.__dataclass_fields__.values() if f.compare]


@pytest.mark.parametrize("cls, ref_cls, draw", RECORDS, ids=IDS)
def test_records_match_their_frozen_dataclass_reference(cls, ref_cls, draw, request):
    rng = random.Random(f"records-{request.node.callspec.id}")
    names = list(ref_cls.__dataclass_fields__)
    # the same parameters, in the same order, with the same defaults, and
    # the compared fields in field order
    params = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert params == [(p.name, p.default) for p in inspect.signature(ref_cls).parameters.values()]
    assert cls._fields == tuple(f.name for f in _compared(ref_cls))
    built = 0
    for _ in range(250):
        args, other = draw(rng), draw(rng)
        rec, err = _build(cls, args)
        ref, ref_err = _build(ref_cls, args)
        assert err == ref_err, args  # the same check fails, with the same text
        if rec is None:
            continue
        built += 1
        # equal arguments: equal objects, equal hashes, the dataclass's hash
        twin = cls(*args)
        assert twin == rec and not twin != rec and hash(twin) == hash(rec)
        assert hash(rec) == hash(ref)
        assert hash(rec) == hash(tuple(getattr(rec, f.name) for f in _compared(ref_cls)))
        if not issubclass(cls, Record) or "__repr__" not in vars(cls):  # the dataclass repr
            assert repr(rec) == repr(ref).replace("Ref", "", 1)
        # keywords bind as the dataclass's parameters do
        assert cls(**dict(zip(names, args))) == rec
        # a changed field breaks equality exactly when the dataclass compares it
        for i, f in enumerate(ref_cls.__dataclass_fields__.values()):
            changed = (*args[:i], other[i], *args[i + 1:])
            rec2, _ = _build(cls, changed)
            ref2, _ = _build(ref_cls, changed)
            if rec2 is None:
                continue
            assert (rec2 == rec) == (ref2 == ref), (f.name, args, changed)
            if f.compare and args[i] != other[i]:
                assert rec2 != rec
        # assignment and deletion are refused, as frozen dataclasses refuse them
        for name in names:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
            with pytest.raises(AttributeError):
                delattr(rec, name)
    assert built >= 40


def test_records_of_different_classes_with_equal_fields_are_unequal():
    rng = random.Random("records-cross")
    for _ in range(200):
        lo, hi = sorted((_frac(rng), _frac(rng)))
        a, b = IntervalApprox(lo, hi), RatInterval(lo, hi)
        assert a != b and b != a
        assert a != (lo, hi) and b != (lo, hi)
        g = Generator(rng.randint(1, 3), a, rng.randint(0, 2))
        s = ComponentSummary(g.period, a, True, invariants.POSITIVE_RECURRENT)
        assert g != (g.period, a, g.count) and s != g
        verdict = IsoVerdict(True, 1, "x")
        assert verdict != (True, 1, "x")
        assert AdmissibilityReport(True, ()) != IsoVerdict(True, (), "")


def test_exact_algebraic_minimal_is_not_compared_and_its_caches_work():
    x = ExactAlgebraic((-1, -1, 1), Fraction(3, 2), Fraction(2))
    y = ExactAlgebraic((-1, -1, 1), Fraction(3, 2), Fraction(2), minimal=False)
    assert x == y and hash(x) == hash(y)
    assert (x.minimal, y.minimal) == (True, False)
    assert y.minpoly == (-1, -1, 1) and "minpoly" in vars(y)  # a cached_property
    assert abs(float(x) - 0.48121182506) < 1e-10 and "_float" in vars(x)
    assert x.log_enclosure() is x.log_enclosure()  # the per-width cache
    i = IntervalApprox(Fraction(1, 3), Fraction(1, 2))
    assert float(i) == float(Fraction(5, 12))


def test_equal_tails_of_separate_schemas_hit_one_summary_key(monkeypatch):
    rng = random.Random("records-tails")
    calls = []
    classify_recurrence = recurrence.classify_recurrence

    def counting(schema):
        calls.append(schema)
        return classify_recurrence(schema)

    monkeypatch.setattr(recurrence, "classify_recurrence", counting)
    for _ in range(20):
        calls.clear()
        tail_args = [Fraction(rng.randint(1, 4), 2), 2, 0, rng.randint(2, 5)]
        counts = ((1, rng.randint(1, 3)),)
        # two schemas, each with its own tail object built from its own Fractions
        first = LoopSchema(counts, Tail(*tail_args))
        second = LoopSchema(tuple(counts), Tail(Fraction(tail_args[0]), *tail_args[1:]))
        assert first.tail is not second.tail and first.tail == second.tail
        summaries = summarize_components([first, second])
        assert len(calls) == 1
        assert [s.source for s in summaries] == ["p0.loops", "p1.loops"]
        assert summaries[0].entropy is summaries[1].entropy


# every check's text, as the dataclasses' __post_init__ raised it
INVALID = [
    (Tail, (Fraction(1), 1, 0, 1), "geometric tail ratio k must be an integer >= 2"),
    (Tail, (Fraction(1), 2, 0, 0), "geometric tail needs n0 >= 1 and stride >= 1"),
    (Tail, (Fraction(1), 2, 0, 1, 0), "geometric tail needs n0 >= 1 and stride >= 1"),
    (Tail, (Fraction(0), 2, 0, 1), "geometric tail coefficient a must be positive"),
    (Tail, (Fraction(1, 8), 2, 0, 2), "geometric tail produces non-integer counts"),
    (Tail, (Fraction(1), Fraction(1), 1, 1), "damped tail ratio k must be > 1"),
    (Tail, (Fraction(1), Fraction(2), -1, 1), "damped tail exponent d must be >= 1"),
    (Tail, (Fraction(1), Fraction(2), 1, 0), "damped tail needs n0 >= 1 and stride >= 1"),
    (Tail, (Fraction(1), Fraction(2), 1, 1, 0), "damped tail needs n0 >= 1 and stride >= 1"),
    (Tail, (Fraction(-1), Fraction(2), 1, 1), "damped tail coefficient a must be positive"),
    (LoopSchema, (((0, 1),),), "loop length 0 < 1"),
    (LoopSchema, (((2, -1),),), "negative loop count at length 2"),
    (LoopSchema, (((2, 1), (2, 3)),), "duplicate explicit count at length 2"),
    (LoopSchema, (((3, 1),), Tail(Fraction(1), 2, 0, 1)),
     "explicit count at length 3 overlaps tail support"),
    (LoopSchema, (((1, 0),),), "schema has no loop at all (some c_n >= 1 required)"),
    (ExactAlgebraic, ((1,), Fraction(1), Fraction(2)),
     "minpoly must be nonconstant with positive leading coefficient"),
    (ExactAlgebraic, ((1, -1), Fraction(1), Fraction(2)),
     "minpoly must be nonconstant with positive leading coefficient"),
    (ExactAlgebraic, ((-2, 1), Fraction(3), Fraction(2)),
     "isolating interval must be nonempty and positive"),
    (ExactAlgebraic, ((1, 1), Fraction(-2), Fraction(0)),
     "isolating interval must be nonempty and positive"),
    (IntervalApprox, (Fraction(1), Fraction(0)), "empty entropy interval"),
    (RatInterval, (Fraction(1), Fraction(1, 2)), "empty interval [1, 1/2]"),
    (Generator, (0, ZERO_ENTROPY, 1), "generator period must be >= 1"),
    (Generator, (1, ZERO_ENTROPY, -1), "generator count must be >= 0"),
    (BlockCode, (GOLDEN, (("0", "1"), ("1", "0")), "label"), "mode must be 'vertex' or 'edge'"),
    (BlockCode, (FiniteGraph(("0",), (("0", "0"), ("0", "0"))), (("0", "1"),)),
     "vertex-mode code needs a simple domain graph"),
    (BlockCode, (GOLDEN, (("0", "1"),)), "mapping must cover every vertex exactly once"),
    (BlockCode, (GOLDEN, (("e0", "1"), ("e1", "0")), "edge"),
     "mapping must cover every edge exactly once"),
    (PathologySpec, (GOLDEN, 0, (1,)), "root loop length M must be >= 1"),
    (PathologySpec, (GOLDEN, 2, ()), "need at least one level"),
    (PathologySpec, (GOLDEN, 2, (3, 4)), "connector lengths must avoid multiples of M"),
    (PathologySpec, (GOLDEN, 3, (4, 2)), "return lengths must be pairwise distinct"),
    (PathologySpec, (GOLDEN, 6, (4,)), "return lengths must be pairwise distinct"),
    (PathologySpec, (FiniteGraph((MARK,), ((MARK, MARK),)), 2, (1,)),
     "base alphabet may not contain '2'"),
    (PathologySpec, (FiniteGraph(("0",), (("0", "0"), ("0", "0"))), 2, (1,)),
     "base must be a simple vertex-shift graph"),
]


def _invalid_id(i, cls, args, message):
    # pytest's own id for the row, with a tail's rows named by family
    name = f"{'Damped' if args[2] else 'Geometric'}Tail" if cls is Tail else cls.__name__
    return f"{name}-args{i}-{message}"


@pytest.mark.parametrize("cls, args, message", INVALID,
                         ids=[_invalid_id(i, *row) for i, row in enumerate(INVALID)])
def test_invalid_records_raise_the_dataclass_text(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message


def test_checked_code_records_are_not_their_field_tuples_and_keep_one_line_code():
    edge = BlockCode(GOLDEN, (("e0", "1"), ("e1", "0"), ("e2", "0")), "edge")
    assert edge != (GOLDEN, edge.mapping, "edge")
    spec = PathologySpec(GOLDEN, 5, (7, 8))
    assert spec != (GOLDEN, 5, (7, 8)) and spec != edge and spec.depth == 2
    # the line-graph code is built once and shared by every check on the code
    line = edge.labeled()
    assert line.mode == "vertex" and edge.labeled() is line and line.labeled() is line
    assert "_line_code" in vars(edge) and line.domain.vertices == ("e0", "e1", "e2")
    # the tracer wraps labeled through the class namespace
    assert "labeled" in vars(BlockCode)
