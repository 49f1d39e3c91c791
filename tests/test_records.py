"""The value records: frozen dataclass semantics without the dataclass machinery.

Each record class is checked against a reference frozen dataclass with the
same fields, defaults and checks, on seeded random arguments: equality,
hashing, repr, refused assignment, and the ValueError text of every check.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import pytest

from borelshift import (
    ComponentSummary,
    DampedTail,
    ExactAlgebraic,
    GeometricTail,
    Generator,
    IntervalApprox,
    InvariantPair,
    IsoVerdict,
    LoopSchema,
    RatInterval,
    UNATTAINED,
    ZERO_ENTROPY,
    summarize_components,
)
from borelshift import invariants, recurrence
from borelshift.invariants import AdmissibilityReport


# the reference: each record as the frozen dataclass it replaces, checks included
@dataclass(frozen=True)
class RefGeometricTail:
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
        if (self.a * Fraction(self.k) ** self.n0).denominator != 1:
            raise ValueError("geometric tail produces non-integer counts")


@dataclass(frozen=True)
class RefDampedTail:
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


def _frac(rng, lo=-3, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def _interval(rng):
    lo, hi = sorted((_frac(rng), _frac(rng)))
    return (lo, hi) if rng.random() < 0.9 else (hi, lo)


def _geometric(rng):
    k, n0 = rng.randint(1, 4), rng.randint(0, 4)
    return (Fraction(rng.randint(-1, 5), k ** rng.randint(0, 3)), k, n0, rng.randint(0, 3))


def _damped(rng):
    return (_frac(rng), _frac(rng, 1, 12), rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 3))


def _valid_tail(rng):
    while True:
        args = _geometric(rng)
        try:
            return GeometricTail(*args)
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


# record, its reference, a draw of positional arguments (valid or not)
RECORDS = [
    (GeometricTail, RefGeometricTail, _geometric),
    (DampedTail, RefDampedTail, _damped),
    (LoopSchema, RefLoopSchema, _schema),
    (ExactAlgebraic, RefExactAlgebraic, _exact),
    (IntervalApprox, RefIntervalApprox, _interval),
    (RatInterval, RefRatInterval, _interval),
    (Generator, RefGenerator, _generator),
    (InvariantPair, RefInvariantPair, _pair),
    (AdmissibilityReport, RefAdmissibilityReport, _admissibility),
    (IsoVerdict, RefIsoVerdict, _verdict),
    (ComponentSummary, RefComponentSummary, _summary),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _build(cls, args):
    """(record, None), or (None, the ValueError text)."""
    try:
        return cls(*args), None
    except ValueError as exc:
        return None, str(exc)


def _compared(ref_cls):
    return [f for f in ref_cls.__dataclass_fields__.values() if f.compare]


@pytest.mark.parametrize("cls, ref_cls, draw", RECORDS, ids=IDS)
def test_records_match_their_frozen_dataclass_reference(cls, ref_cls, draw):
    rng = random.Random(f"records-{cls.__name__}")
    names = list(ref_cls.__dataclass_fields__)
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
        if "__repr__" not in vars(cls):  # the classes without a repr of their own
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
        tail_args = [Fraction(rng.randint(1, 4), 2), 2, rng.randint(2, 5)]
        counts = ((1, rng.randint(1, 3)),)
        # two schemas, each with its own tail object built from its own Fractions
        first = LoopSchema(counts, GeometricTail(*tail_args))
        second = LoopSchema(tuple(counts), GeometricTail(Fraction(tail_args[0]), *tail_args[1:]))
        assert first.tail is not second.tail and first.tail == second.tail
        summaries = summarize_components([first, second])
        assert len(calls) == 1
        assert [s.source for s in summaries] == ["p0.loops", "p1.loops"]
        assert summaries[0].entropy is summaries[1].entropy


# every check's text, as the dataclasses' __post_init__ raised it
INVALID = [
    (GeometricTail, (Fraction(1), 1, 1), "geometric tail ratio k must be an integer >= 2"),
    (GeometricTail, (Fraction(1), 2, 0), "geometric tail needs n0 >= 1 and stride >= 1"),
    (GeometricTail, (Fraction(1), 2, 1, 0), "geometric tail needs n0 >= 1 and stride >= 1"),
    (GeometricTail, (Fraction(0), 2, 1), "geometric tail coefficient a must be positive"),
    (GeometricTail, (Fraction(1, 8), 2, 2), "geometric tail produces non-integer counts"),
    (DampedTail, (Fraction(1), Fraction(1), 1, 1), "damped tail ratio k must be > 1"),
    (DampedTail, (Fraction(1), Fraction(2), 0, 1), "damped tail exponent d must be >= 1"),
    (DampedTail, (Fraction(1), Fraction(2), 1, 0), "damped tail needs n0 >= 1 and stride >= 1"),
    (DampedTail, (Fraction(1), Fraction(2), 1, 1, 0),
     "damped tail needs n0 >= 1 and stride >= 1"),
    (DampedTail, (Fraction(-1), Fraction(2), 1, 1), "damped tail coefficient a must be positive"),
    (LoopSchema, (((0, 1),),), "loop length 0 < 1"),
    (LoopSchema, (((2, -1),),), "negative loop count at length 2"),
    (LoopSchema, (((2, 1), (2, 3)),), "duplicate explicit count at length 2"),
    (LoopSchema, (((3, 1),), GeometricTail(Fraction(1), 2, 1)),
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
]


@pytest.mark.parametrize("cls, args, message", INVALID)
def test_invalid_records_raise_the_dataclass_text(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message
