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
from borelshift.recurrence import loop_gf_eval, schema_radius

from helpers import LOG2, damped_enclosure_reference, loop_series_bounds


# === generating function evaluation ===

def test_loop_gf_point_values_finite_schema():
    s = LoopSchema(((1, 1), (2, 1)))
    val = loop_gf_eval(s, Fraction(1, 2))
    assert val.lo == val.hi == Fraction(3, 4)


def test_loop_gf_geometric_closed_form():
    # c_n = 2^(n-1): Phi(x) = x / (1 - 2x) for x < 1/2, divergent at 1/2
    s = LoopSchema((), GeometricTail(Fraction(1, 2), 2, 1))
    val = loop_gf_eval(s, Fraction(1, 4))
    assert val.lo == val.hi == Fraction(1, 2)
    assert loop_gf_eval(s, Fraction(1, 2)) == math.inf


def test_loop_gf_damped_enclosure_brackets_truth():
    t = DampedTail(Fraction(1), Fraction(2), 2, 1)
    s = LoopSchema((), t)
    x = Fraction(1, 3)
    val = loop_gf_eval(s, x, Fraction(1, 10**12))
    brute = sum(t.count(n) * x**n for n in range(1, 400))
    assert val.lo <= brute <= val.hi
    assert val.width <= Fraction(1, 10**11)


def test_loop_gf_eval_matches_term_by_term_sums():
    # seeded schemas of each kind, zero counts included, at points below the
    # radius: finite and geometric values are exact, damped ones enclosures
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
        val = loop_gf_eval(schema, x)
        if kind == "damped":
            assert val.lo <= hi and lo <= val.hi
            assert val.width <= Fraction(1, 10**17)
        else:
            assert val.lo == val.hi == hi


def test_damped_enclosure_equals_fraction_reference():
    # the integer sum returns the term-by-term Fraction enclosure exactly:
    # at the radius (capped or divergent), at dyadic points below it, and
    # above it, with rational ratios, strides and every certification width
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
        got = recurrence._damped_tail_enclosure(DampedTail(a, k, d, n0, s), x, w)
        want = damped_enclosure_reference(a, k, d, n0, s, x, w)
        if k * x > 1 or (k * x == 1 and d == 1):
            assert got == want == math.inf
        else:
            assert (got.lo, got.hi) == want


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
    assert loop_gf_eval(s, schema_radius(s)) == math.inf


def test_geometric_tail_with_explicit_head():
    # f_1 = 1 plus c_n = 2^n for n >= 2: Phi(x) = x + 4x^2/(1-2x)
    # Phi(x) = 1 at 6x^2 + ... solve: x + 4x^2/(1-2x) = 1 -> x+4x^2-2x^2 = 1-2x... check numerically
    s = LoopSchema(((1, 1),), GeometricTail(Fraction(1), 2, 2))
    rep = classify_recurrence(s)
    assert rep.recurrence == POSITIVE_RECURRENT
    r = _bisect(s, schema_radius(s))
    val = loop_gf_eval(s, r.lo)
    assert val.lo <= 1
    val = loop_gf_eval(s, r.hi)
    assert val.hi >= 1


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
    assert loop_gf_eval(s, schema_radius(s), Fraction(1, 8)).hi < 1


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


def test_capped_enclosure_is_not_recomputed(monkeypatch):
    # at the radius this schema's enclosure hits the term cap at width 10^-3,
    # and every smaller width would return the same interval again, both in
    # classify_recurrence and in a direct sign test
    s = LoopSchema((), DampedTail(Fraction(107681, 5503), Fraction(2), 2, 20))
    widths = []
    enclose = recurrence._damped_tail_enclosure

    def spy(t, x, max_width):
        widths.append(max_width)
        return enclose(t, x, max_width)

    monkeypatch.setattr(recurrence, "_damped_tail_enclosure", spy)
    with pytest.raises(UndecidableAtTolerance):
        classify_recurrence(s)
    assert widths == [Fraction(1, 8), Fraction(1, 10**3)]
    widths.clear()
    assert recurrence._phi_versus_one(s, schema_radius(s)) == 0
    assert widths == [Fraction(1, 8), Fraction(1, 10**3)]


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
            continue
        at_radius = loop_gf_eval(s, schema_radius(s))
        if at_radius == math.inf or at_radius.lo > 1:
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


def test_seeded_bracket_equals_plain_bisection():
    # the exact sign of _phi_polynomial and the enclosures of Phi take the
    # same steps, so they return the same interval
    rng = random.Random(9)
    cases = _seeded_schemas(rng, 40) + _library_schemas()
    signed = [_bisect(s, hi) for s, hi in cases]
    plain = [
        recurrence._bracket_and_bisect_root(partial(recurrence._phi_versus_one, s), hi, REL)
        for s, hi in cases
    ]
    assert signed == plain


def _finest_first_side(schema: LoopSchema, x: Fraction) -> int:
    """Sign of Phi(x) - 1 asking the enclosure for width 10^-18 first, then
    three refinements of 10^-12 of the last width returned: the reference
    that the coarse-first schedule must agree with."""
    width = Fraction(1, 10**18)
    for _ in range(4):
        val = loop_gf_eval(schema, x, width)
        if val == math.inf or val.lo > 1:
            return 1
        if val.hi < 1:
            return -1
        if val.width > width:
            return 0
        width = val.width / Fraction(10**12)
    return 0


def test_coarse_first_damped_bisection_equals_finest_first():
    # an enclosure with more terms lies inside one with fewer, so coarse
    # widths that separate Phi(x) from 1 decide every point as the finest
    # width does, on positive-recurrent damped schemas with rational ratios
    # and strides
    rng = random.Random(18)
    for _ in range(40):
        den = rng.randint(1, 3)
        k = Fraction(rng.randint(den + 1, 3 * den), den)
        stride = rng.randint(1, 3)
        tail = DampedTail(Fraction(rng.randint(1, 4), rng.randint(1, 4)), k,
                          rng.randint(1, 3), rng.randint(2, 5), stride)
        # c loops of length 1 with c > k put Phi(R) >= c / k above 1
        s = LoopSchema(((1, math.floor(k) + rng.randint(1, 3)),), tail)
        hi = schema_radius(s)
        assert recurrence._phi_versus_one(s, hi) == _finest_first_side(s, hi) == 1
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


def test_float_overflow_takes_the_exact_path():
    # 10^310 loops of length 1 overflow a float; the root is about 1e-310
    s = LoopSchema(((1, 10**310), (2, 1)))
    rep = classify_recurrence(s)
    assert rep.recurrence == POSITIVE_RECURRENT
    root = _bisect(s, Fraction(1))
    assert loop_gf_eval(s, root.lo).hi < 1 < loop_gf_eval(s, root.hi).lo
    assert root.width <= REL * root.lo
    assert rep.entropy.minpoly == (-1, -(10**310), 1)
    assert abs(float(rep.entropy) - 310 * math.log(10)) < 1e-9


def test_damped_positive_recurrent_takes_the_exact_path():
    s = LoopSchema((), DampedTail(Fraction(4), Fraction(2), 2, 1))
    assert classify_recurrence(s).recurrence == POSITIVE_RECURRENT
    root = _bisect(s, Fraction(1, 2))
    lo_val = loop_gf_eval(s, root.lo, Fraction(1, 10**18))
    hi_val = loop_gf_eval(s, root.hi, Fraction(1, 10**18))
    assert lo_val.hi < 1 < hi_val.lo


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
