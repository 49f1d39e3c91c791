"""Vere-Jones trichotomy with certified enclosures, against hand-solved schemas."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest

from borelshift import (
    DampedTail,
    ExactAlgebraic,
    GeometricTail,
    IntervalApprox,
    LoopSchema,
    MarkerParams,
    NULL_RECURRENT,
    POSITIVE_RECURRENT,
    TRANSIENT,
    UndecidableAtTolerance,
    ZERO_ENTROPY,
    choose_pathology_parameters,
    classify_recurrence,
    compare_entropy,
    control_parameters,
    golden_mean_graph,
    perron_entropy,
    summarize_components,
)
from borelshift import recurrence
from borelshift.recurrence import schema_radius

from helpers import LOG2, damped_enclosure_reference, loop_series_bounds


# === generating function evaluation ===

def _tail_enclosure(t: DampedTail, x: Fraction, width: Fraction):
    """The first round of the tail's enclosures within `width`, else the
    last one; math.inf where the series diverges."""
    got = math.inf
    for got in recurrence._damped_tail_enclosures(t, x):
        if got[1] - got[0] <= width:
            break
    return got


def test_loop_gf_point_values_finite_schema():
    # Phi(1/2) = 3/4 for f_1 = f_2 = 1, below 1; f_1 = 2 puts Phi(1/2) at 1
    s = LoopSchema(((1, 1), (2, 1)))
    assert loop_series_bounds(s.counts, None, Fraction(1, 2)) == (Fraction(3, 4),) * 2
    assert _side(s)(Fraction(1, 2)) == -1
    assert _side(LoopSchema(((1, 2),)))(Fraction(1, 2)) == 0


def test_loop_gf_geometric_closed_form():
    # c_n = 2^(n-1): Phi(x) = x / (1 - 2x) for x < 1/2, divergent at 1/2
    s = LoopSchema((), GeometricTail(Fraction(1, 2), 2, 1))
    tail = ("geometric", Fraction(1, 2), 2, 1, 1)
    assert loop_series_bounds((), tail, Fraction(1, 4), terms=0)[1] == Fraction(1, 2)
    side = _side(s)
    assert (side(Fraction(1, 4)), side(Fraction(1, 3)), side(Fraction(1, 2))) == (-1, 0, 1)


def test_loop_gf_damped_enclosure_brackets_truth():
    t = DampedTail(Fraction(1), Fraction(2), 2, 1)
    x = Fraction(1, 3)
    brute = sum(t.count(n) * x**n for n in range(1, 400))
    # every round up to the first within 10^-12 sums fewer than 400 terms
    for lo, hi in recurrence._damped_tail_enclosures(t, x):
        assert lo <= brute <= hi
        if hi - lo <= Fraction(1, 10**12):
            break
    assert hi - lo <= Fraction(1, 10**12)


def test_phi_sign_matches_term_by_term_sums():
    # seeded schemas of each kind, zero counts included, at points below the
    # radius: the sign of Phi(x) - 1 agrees with the term-by-term sums, and
    # each damped round meets them
    rng = random.Random(12)
    for case in range(60):
        lengths = rng.sample(range(1, 12), rng.randint(1, 4))
        counts = tuple(sorted((n, rng.randint(0, 9) if i else rng.randint(1, 9))
                              for i, n in enumerate(lengths)))
        n0, s = rng.randint(12, 16), rng.randint(1, 3)
        kind = ("finite", "geometric", "damped")[case % 3]
        if kind == "finite":
            tail, data = None, None
            x = Fraction(rng.randint(1, 9), 10)
        else:
            if kind == "geometric":
                k = rng.randint(2, 4)
                a = Fraction(rng.randint(1, 5), k**n0)
                tail, data = GeometricTail(a, k, n0, s), ("geometric", a, k, n0, s)
            else:
                den = rng.randint(2, 3)
                k = Fraction(rng.randint(den + 1, 3 * den), den)
                a, d = Fraction(rng.randint(1, 9), rng.randint(1, 4)), rng.randint(1, 3)
                tail, data = DampedTail(a, k, d, n0, s), ("damped", a, k, d, n0, s)
            m = rng.randint(1, 3)
            x = Fraction(m, m + 1) / k
        schema = LoopSchema(counts, tail)
        lo, hi = loop_series_bounds(counts, data, x)
        sign = _side(schema)(x)
        if kind == "damped":
            explicit = loop_series_bounds(counts, None, x)[0]
            for t_lo, t_hi in recurrence._damped_tail_enclosures(tail, x):
                assert explicit + t_lo <= hi and lo <= explicit + t_hi
                if t_hi - t_lo <= Fraction(1, 10**17):
                    break
            assert t_hi - t_lo <= Fraction(1, 10**17)
            assert sign == (lo > 1) - (hi < 1) != 0
        else:
            assert sign == (hi > 1) - (hi < 1)


def test_damped_enclosure_equals_fraction_reference():
    # the integer sum returns the term-by-term Fraction enclosure exactly:
    # at the radius (capped or divergent), at dyadic points below it, and
    # above it, with rational ratios, strides and every certification width;
    # the enclosure asked for a width is the first round within it, or the last
    widths = (Fraction(1, 8), Fraction(1, 10**9), Fraction(1, 10**18), Fraction(1, 10**30))
    rng = random.Random(17)
    cases = [
        # the term cap at the radius
        (Fraction(1, 2), Fraction(2), 2, 3, 1, Fraction(1, 2), widths[3]),
        (Fraction(5, 3), Fraction(3), 3, 1, 1, Fraction(1, 3), widths[2]),
    ]
    for case in range(78):
        den = rng.randint(1, 5)
        k = Fraction(rng.randint(den + 1, 3 * den + 1), den)
        a = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        d, n0, s = rng.randint(1, 4), rng.randint(1, 40), rng.randint(1, 7)
        w = widths[case % 4]
        kind = case % 6
        if kind == 0:
            # smaller widths at the radius run to the cap: seconds per case in Fractions
            x, w = 1 / k, widths[0]
        elif kind == 5:
            x = Fraction(rng.randint(2**8 + 1, 2**9), 2**8) / k
        else:
            j = rng.randint(2, 8)
            x = Fraction(rng.randint(1, 3 * 2 ** (j - 2)), 2**j) / k
        cases.append((a, k, d, n0, s, x, w))
    for a, k, d, n0, s, x, w in cases:
        got = _tail_enclosure(DampedTail(a, k, d, n0, s), x, w)
        want = damped_enclosure_reference(a, k, d, n0, s, x, w)
        if k * x > 1 or (k * x == 1 and d == 1):
            assert got == want == math.inf
        else:
            assert got == want


def test_schema_radius():
    assert schema_radius(LoopSchema(((3, 5),))) == math.inf
    assert schema_radius(LoopSchema((), GeometricTail(Fraction(1, 2), 2, 1))) == Fraction(1, 2)
    assert schema_radius(LoopSchema((), DampedTail(Fraction(1), Fraction(3, 2), 1, 1))) == Fraction(2, 3)


# === finite schemas ===

def test_single_loop_is_zero_entropy_pr():
    rep = classify_recurrence(LoopSchema(((5, 1),)))
    assert rep.recurrence == POSITIVE_RECURRENT
    assert rep.entropy is ZERO_ENTROPY
    assert rep.period == 5
    assert not rep.mme


def test_full_shift_schema_exact_log2():
    # f_1 = 2: the loop equation 2x = 1 pins entropy at exactly log 2
    rep = classify_recurrence(LoopSchema(((1, 2),)))
    assert rep.recurrence == POSITIVE_RECURRENT
    assert isinstance(rep.entropy, ExactAlgebraic)
    assert rep.entropy.rational_root() == 2
    assert rep.mme


def test_golden_schema_matches_golden_graph():
    rep = classify_recurrence(LoopSchema(((1, 1), (2, 1))))
    assert rep.recurrence == POSITIVE_RECURRENT
    assert compare_entropy(rep.entropy, perron_entropy(golden_mean_graph())) == "eq"
    assert rep.period == 1


def test_finite_schema_period_two():
    rep = classify_recurrence(LoopSchema(((2, 4),)))
    assert rep.period == 2
    # 4x^2 = 1 at x = 1/2: entropy log 2
    assert rep.entropy.rational_root() == 2


# === geometric tails ===

def test_geometric_tail_log3_anchor():
    # c_n = 2^(n-1): root of x/(1-2x) = 1 is 1/3, entropy exactly log 3
    s = LoopSchema((), GeometricTail(Fraction(1, 2), 2, 1))
    rep = classify_recurrence(s)
    assert rep.recurrence == POSITIVE_RECURRENT
    assert rep.mme
    assert isinstance(rep.entropy, ExactAlgebraic)
    assert rep.entropy.rational_root() == 3
    assert schema_radius(s) == Fraction(1, 2)
    # Phi diverges at the radius
    assert _side(s)(schema_radius(s)) == 1


def test_geometric_tail_with_explicit_head():
    # f_1 = 1 plus c_n = 2^n for n >= 2: Phi(x) = x + 4x^2/(1-2x)
    # Phi(x) = 1 at 6x^2 + ... solve: x + 4x^2/(1-2x) = 1 -> x+4x^2-2x^2 = 1-2x... check numerically
    s = LoopSchema(((1, 1),), GeometricTail(Fraction(1), 2, 2))
    rep = classify_recurrence(s)
    assert rep.recurrence == POSITIVE_RECURRENT
    r = _bisect(s, schema_radius(s))
    phi = partial(loop_series_bounds, s.counts, ("geometric", Fraction(1), 2, 2, 1))
    assert phi(r.lo)[1] <= 1 <= phi(r.hi)[1]


def test_geometric_tail_strided_period():
    s = LoopSchema((), GeometricTail(Fraction(1, 9), 3, 2, stride=2))
    rep = classify_recurrence(s)
    assert rep.period == 2
    assert rep.recurrence == POSITIVE_RECURRENT


# === damped tails ===

def test_damped_tail_transient_log2_anchor():
    # floor(2^n / (3 n^2)): Phi(1/2) <= zeta(2)/3 < 1, entropy exactly log 2
    s = LoopSchema((), DampedTail(Fraction(1, 3), Fraction(2), 2, 1))
    rep = classify_recurrence(s)
    assert rep.recurrence == TRANSIENT
    assert isinstance(rep.entropy, ExactAlgebraic)
    assert rep.entropy.rational_root() == 2
    assert not rep.mme
    at_radius = damped_enclosure_reference(Fraction(1, 3), 2, 2, 1, 1, Fraction(1, 2), Fraction(1, 8))
    assert at_radius[1] < 1


def test_damped_tail_transient_larger_coefficient():
    rep = classify_recurrence(LoopSchema((), DampedTail(Fraction(19), Fraction(2), 2, 20)))
    assert rep.recurrence == TRANSIENT
    assert abs(float(rep.entropy) - LOG2) < 1e-12


def test_damped_tail_positive_recurrent_when_root_inside():
    # a = 4 pushes Phi past 1 well inside the disc; the root is certified
    s = LoopSchema((), DampedTail(Fraction(4), Fraction(2), 2, 1))
    rep = classify_recurrence(s)
    assert rep.recurrence == POSITIVE_RECURRENT
    assert rep.mme
    assert isinstance(rep.entropy, IntervalApprox)
    assert _bisect(s, schema_radius(s)).hi < Fraction(1, 2)
    # entropy above log 2: strictly more loops than the bare ratio suggests
    assert float(rep.entropy) > LOG2


def test_damped_tail_rational_ratio():
    rep = classify_recurrence(LoopSchema((), DampedTail(Fraction(1, 3), Fraction(3, 2), 2, 1)))
    assert rep.recurrence == TRANSIENT
    assert abs(float(rep.entropy) - math.log(1.5)) < 1e-12


def test_near_critical_damped_tail_is_undecidable():
    # coefficient tuned so Phi(R) sits inside the best certifiable enclosure
    # of 1; an honest classifier must refuse rather than guess
    s = LoopSchema((), DampedTail(Fraction(107681, 5503), Fraction(2), 2, 20))
    with pytest.raises(UndecidableAtTolerance):
        classify_recurrence(s)


def test_near_critical_sign_walks_the_rounds_once(monkeypatch):
    # at the radius no round of this schema's enclosure excludes 1: one sign
    # test walks the rounds once, 64 terms doubled up to the 4,096-term cap,
    # and returns 0
    s = LoopSchema((), DampedTail(Fraction(107681, 5503), Fraction(2), 2, 20))
    walks, rounds = [], []
    enclose = recurrence._damped_tail_enclosures

    def spy(t, x):
        walks.append(x)
        for r in enclose(t, x):
            rounds.append(r)
            yield r

    monkeypatch.setattr(recurrence, "_damped_tail_enclosures", spy)
    assert recurrence._phi_versus_one(s, schema_radius(s)) == 0
    assert walks == [schema_radius(s)]
    assert len(rounds) == 7
    assert all(lo < 1 < hi for lo, hi in rounds)


def test_null_recurrent_label_reserved():
    # no enclosure of Phi(R) is ever the point 1, so criticality, and with it
    # null recurrence, is never certified (the undecidable case above); the
    # label stays distinct so the trichotomy keeps three values
    assert NULL_RECURRENT not in (POSITIVE_RECURRENT, TRANSIENT)


# === the sign-test root bracket ===

REL = Fraction(1, 2 * 10**13)


def _side(schema: LoopSchema):
    """The sign of Phi(x) - 1 that classify_recurrence bisects on."""
    coeffs = recurrence._phi_polynomial(schema)
    if coeffs is None:
        return partial(recurrence._phi_versus_one, schema)
    return partial(recurrence._sign_at, coeffs)


def _bisect(schema: LoopSchema, hi: Fraction):
    return recurrence._bracket_and_bisect_root(_side(schema), hi, REL)


def _seeded_schemas(rng: random.Random, n: int):
    """Finite and geometric-tailed schemas whose root lies below the radius."""
    out = []
    while len(out) < n:
        lengths = rng.sample(range(1, 40), rng.randint(1, 6))
        counts = tuple(sorted((m, rng.randint(1, 10 ** rng.randint(0, 8))) for m in lengths))
        tail = None
        if len(out) % 2:
            k = rng.randint(2, 5)
            n0 = max(lengths) + rng.randint(1, 5)
            tail = GeometricTail(Fraction(rng.randint(1, 3), k**n0), k, n0, rng.randint(1, 3))
        s = LoopSchema(counts, tail)
        if tail is None:
            if sum(c for _, c in counts) >= 2:
                out.append((s, Fraction(1)))
        else:
            # a geometric Phi diverges at the radius
            out.append((s, schema_radius(s)))
    return out


def _library_schemas():
    """Finite schemas the library bisects: marker block returns {B1: G, B2: G}
    and pathology first returns, hidden and control."""
    out = []
    for N, K, gallery in ((2, 1, 3), (3, 2, 5), (4, 3, 486)):
        params = MarkerParams("e0", ("e0",), ("e0", "e1", "e2"), A=2, C=1, N=N, K=K)
        b1, b2, big = params.block_structure(gallery)
        assert b1 != b2
        out.append(LoopSchema(((b1, big), (b2, big))))
    for depth in (1, 4, 8):
        for spec in (
            choose_pathology_parameters(golden_mean_graph(), Fraction(3, 10), depth),
            control_parameters(golden_mean_graph(), depth),
        ):
            out.append(LoopSchema(tuple(spec.return_lengths())))
    return [(s, Fraction(1)) for s in out]


def _plain_side(schema: LoopSchema, x: Fraction) -> int:
    """Sign of Phi(x) - 1 from the closed-form sum of helpers, below the
    radius of a finite or geometric-tailed schema."""
    t = schema.tail
    data = None if t is None else ("geometric", t.a, t.k, t.n0, t.stride)
    value = loop_series_bounds(schema.counts, data, x, terms=0)[1]
    return (value > 1) - (value < 1)


def test_seeded_bracket_equals_plain_bisection():
    # the exact sign of _phi_polynomial and the value of Phi take the same
    # steps, so they return the same interval
    rng = random.Random(9)
    cases = _seeded_schemas(rng, 40) + _library_schemas()
    signed = [_bisect(s, hi) for s, hi in cases]
    plain = [
        recurrence._bracket_and_bisect_root(partial(_plain_side, s), hi, REL)
        for s, hi in cases
    ]
    assert signed == plain


def _finest_first_side(schema: LoopSchema, x: Fraction) -> int:
    """Sign of Phi(x) - 1 asking the tail's enclosure for width 10^-18
    first, then three refinements of 10^-12 of the last width reached: the
    reference that the round loop must agree with."""
    explicit = loop_series_bounds(schema.counts, None, x)[0]
    width = Fraction(1, 10**18)
    for _ in range(4):
        val = _tail_enclosure(schema.tail, x, width)
        if val == math.inf or explicit + val[0] > 1:
            return 1
        if explicit + val[1] < 1:
            return -1
        if val[1] - val[0] > width:
            return 0
        width = (val[1] - val[0]) / Fraction(10**12)
    return 0


def test_coarse_first_damped_bisection_equals_finest_first():
    # an enclosure with more terms lies inside one with fewer, so the first
    # round that separates Phi(x) from 1 decides every point as the finest
    # width does: on positive-recurrent damped schemas with rational ratios
    # and strides, on transient ones, and on d = 1 tails, divergent at R
    rng = random.Random(18)
    for case in range(56):
        den = rng.randint(1, 3)
        k = Fraction(rng.randint(den + 1, 3 * den), den)
        stride = rng.randint(1, 3)
        a = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        if case < 40:
            tail = DampedTail(a, k, rng.randint(1, 3), rng.randint(2, 5), stride)
            # c loops of length 1 with c > k put Phi(R) >= c / k above 1
            s = LoopSchema(((1, math.floor(k) + rng.randint(1, 3)),), tail)
        elif case < 48:
            # a <= 4 and d >= 3 from n0 >= 2: Phi(R) <= 4 (zeta(3) - 1) < 1
            s = LoopSchema((), DampedTail(a, k, rng.randint(3, 4), rng.randint(2, 5), stride))
        else:
            # 4 a + 4 >= 5 keeps the root well inside the disc, so the rounds stay short
            s = LoopSchema((), DampedTail(4 * a + 4, k, 1, rng.randint(2, 3), stride))
        hi = schema_radius(s)
        sign = recurrence._phi_versus_one(s, hi)
        assert sign == _finest_first_side(s, hi) == (-1 if 40 <= case < 48 else 1)
        if sign < 0:
            assert classify_recurrence(s).recurrence == TRANSIENT
            continue
        got = recurrence._bracket_and_bisect_root(
            partial(recurrence._phi_versus_one, s), hi, REL)
        want = recurrence._bracket_and_bisect_root(partial(_finest_first_side, s), hi, REL)
        assert got == want


def test_bisection_nudges_a_midpoint_at_the_root(monkeypatch):
    # Phi(x) = x / (1 - 3x) is exactly 1 at 1/4, the first midpoint of
    # [1/6, 1/3]: the sign there is 0 and the bisection nudges
    s = LoopSchema((), GeometricTail(Fraction(1, 3), 3, 1))
    seen = []
    sign_at = recurrence._sign_at

    def spy(coeffs, x):
        answer = sign_at(coeffs, x)
        seen.append((x, answer))
        return answer

    monkeypatch.setattr(recurrence, "_sign_at", spy)
    rep = classify_recurrence(s)
    assert (Fraction(1, 4), 0) in seen
    assert rep.recurrence == POSITIVE_RECURRENT
    assert rep.entropy.minpoly == (-4, 1)
    assert rep.entropy.rational_root() == 4


def _banded_side(lo: Fraction, hi: Fraction, x: Fraction) -> int:
    """-1 below lo, 0 on [lo, hi], 1 above: a damped enclosure that
    straddles 1 across a whole band."""
    return (x > hi) - (x < lo)


def test_bisection_refuses_a_wide_undecided_band():
    # the midpoint 5/8 of [1/4, 1] and its nudge 151/256 both give 0
    side = partial(_banded_side, Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(UndecidableAtTolerance):
        recurrence._bracket_and_bisect_root(side, Fraction(1), REL)
    # a band far narrower than the width target is stepped over by the nudge
    band = Fraction(1, 10**20)
    side = partial(_banded_side, Fraction(5, 8) - band, Fraction(5, 8) + band)
    root = recurrence._bracket_and_bisect_root(side, Fraction(1), REL)
    assert root.lo <= Fraction(5, 8) <= root.hi and root.width <= REL * root.lo


def test_float_overflow_takes_the_exact_path():
    # 10^310 loops of length 1 overflow a float; the root is about 1e-310
    s = LoopSchema(((1, 10**310), (2, 1)))
    rep = classify_recurrence(s)
    assert rep.recurrence == POSITIVE_RECURRENT
    root = _bisect(s, Fraction(1))
    phi = partial(loop_series_bounds, s.counts, None)
    assert phi(root.lo)[0] < 1 < phi(root.hi)[0]
    assert root.width <= REL * root.lo
    assert rep.entropy.minpoly == (-1, -(10**310), 1)
    assert abs(float(rep.entropy) - 310 * math.log(10)) < 1e-9


def test_damped_positive_recurrent_takes_the_exact_path():
    s = LoopSchema((), DampedTail(Fraction(4), Fraction(2), 2, 1))
    assert classify_recurrence(s).recurrence == POSITIVE_RECURRENT
    root = _bisect(s, Fraction(1, 2))
    phi = partial(loop_series_bounds, (), ("damped", Fraction(4), 2, 2, 1, 1))
    assert phi(root.lo)[1] < 1 < phi(root.hi)[0]


# === summaries ===

def test_component_summary_source_comes_from_summarize_components():
    schema = LoopSchema(((1, 2),))
    rep = classify_recurrence(schema)
    assert rep.source == ""
    s = summarize_components((LoopSchema(((2, 4),)), schema))[1]
    assert s.source == "p1.loops"
    assert s.mme
    assert s.recurrence == POSITIVE_RECURRENT
    assert s.period == 1
    assert abs(float(s.entropy) - LOG2) < 1e-12
    assert (s.period, s.entropy, s.mme, s.recurrence) == (
        rep.period, rep.entropy, rep.mme, rep.recurrence
    )
