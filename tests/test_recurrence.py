"""Vere-Jones trichotomy with certified enclosures, against hand-solved schemas."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest

from borelshift import (
    ExactAlgebraic,
    IntervalApprox,
    LoopSchema,
    MarkerParams,
    NULL_RECURRENT,
    POSITIVE_RECURRENT,
    TRANSIENT,
    Tail,
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
from borelshift.intervals import RatInterval
from borelshift.recurrence import schema_radius

from helpers import LOG2, damped_enclosure_reference, loop_series_bounds, root_brackets_one


# === generating function evaluation ===

def _tail_enclosure(t: Tail, x: Fraction, width: Fraction):
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
    s = LoopSchema((), Tail(Fraction(1, 2), 2, 0, 1))
    tail = ("geometric", Fraction(1, 2), 2, 1, 1)
    assert loop_series_bounds((), tail, Fraction(1, 4), terms=0)[1] == Fraction(1, 2)
    side = _side(s)
    assert (side(Fraction(1, 4)), side(Fraction(1, 3)), side(Fraction(1, 2))) == (-1, 0, 1)


def test_loop_gf_damped_enclosure_brackets_truth():
    t = Tail(Fraction(1), Fraction(2), 2, 1)
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
                tail, data = Tail(a, k, 0, n0, s), ("geometric", a, k, n0, s)
            else:
                den = rng.randint(2, 3)
                k = Fraction(rng.randint(den + 1, 3 * den), den)
                a, d = Fraction(rng.randint(1, 9), rng.randint(1, 4)), rng.randint(1, 3)
                tail, data = Tail(a, k, d, n0, s), ("damped", a, k, d, n0, s)
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
    # the fixed-point sum holds the term-by-term Fraction enclosure, each end
    # within 2^-(P - 16) of it, P = FIXED_POINT_BITS: each round is rounded
    # outward from the exact round with the same terms.  At the radius
    # (capped or divergent), at dyadic points below it, and above it, with
    # rational ratios, strides and every certification width; the enclosure
    # asked for a width is the first round within it, or the last
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
    slack = Fraction(1, 2 ** (recurrence.FIXED_POINT_BITS - 16))
    for a, k, d, n0, s, x, w in cases:
        got = _tail_enclosure(Tail(a, k, d, n0, s), x, w)
        want = damped_enclosure_reference(a, k, d, n0, s, x, w)
        if k * x > 1 or (k * x == 1 and d == 1):
            assert got == want == math.inf
        else:
            assert got[0] <= want[0] <= want[1] <= got[1]
            assert want[0] - got[0] <= slack and got[1] - want[1] <= slack


def test_damped_enclosure_counts_an_integer_value_exactly(monkeypatch):
    # a = c n1^d / k^n1 makes a k^n1 / n1^d the integer c at a support point
    # past n0, reached by products with bounds on k^s that are not exact, so
    # its two floors differ by 1.  The count there is computed exactly, so
    # the first round stays within 2^-(P - 16) of the reference.  At P = 20
    # and 12, where most terms are past x^n >= 2^-P, the first round still
    # holds the reference's
    rng = random.Random(35)
    cases = []
    for _ in range(24):
        den = rng.randint(2, 4)
        k = Fraction(rng.randint(den + 1, 3 * den), den)
        d, s, n0 = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 4)
        n1 = n0 + s * rng.randint(1, 6)
        a = rng.randint(1, 9) * Fraction(n1) ** d / k**n1
        j = rng.randint(2, 6)
        cases.append((a, k, d, n0, s, Fraction(rng.randint(1, 2**j - 1), 2**j) / k))
    bits = recurrence.FIXED_POINT_BITS
    for p in (bits, 20, 12):
        monkeypatch.setattr(recurrence, "FIXED_POINT_BITS", p)
        for a, k, d, n0, s, x in cases:
            got = next(recurrence._damped_tail_enclosures(Tail(a, k, d, n0, s), x))
            # a width this large returns the reference's first, 64-term round
            want = damped_enclosure_reference(a, k, d, n0, s, x, Fraction(10**9))
            assert got[0] <= want[0] <= want[1] <= got[1]
            if p == bits:
                slack = Fraction(1, 2 ** (bits - 16))
                assert want[0] - got[0] <= slack and got[1] - want[1] <= slack


# (a, k, d, n0, s, x, P): first rounds whose lower end the floors' loss
# x^n of the terms past x^n < 2^-P decides: without it, lower lies above
# the reference's lower end at these precisions
FAR_LOSS_CASES = [
    (Fraction(5, 2), Fraction(4), 3, 1, 2, Fraction(3, 32), 10),
    (Fraction(7, 2), Fraction(4), 3, 3, 3, Fraction(5, 64), 10),
    (Fraction(29, 5), Fraction(4, 3), 2, 1, 2, Fraction(3, 32), 10),
    (Fraction(7, 4), Fraction(5, 2), 3, 4, 2, Fraction(7, 40), 10),
    (Fraction(3, 2), Fraction(4), 2, 3, 2, Fraction(3, 32), 10),
    (Fraction(5), Fraction(3), 2, 2, 2, Fraction(1, 48), 10),
    (Fraction(9, 4), Fraction(7, 2), 3, 2, 1, Fraction(1, 56), 10),
    (Fraction(1), Fraction(7, 3), 2, 5, 3, Fraction(3, 16), 12),
    (Fraction(2), Fraction(2), 2, 3, 2, Fraction(7, 32), 6),
    (Fraction(21), Fraction(9, 4), 3, 1, 2, Fraction(1, 18), 12),
    (Fraction(5, 6), Fraction(4), 3, 4, 3, Fraction(3, 32), 12),
]


def test_damped_enclosure_holds_the_reference_at_low_precision(monkeypatch):
    for a, k, d, n0, s, x, p in FAR_LOSS_CASES:
        monkeypatch.setattr(recurrence, "FIXED_POINT_BITS", p)
        got = next(recurrence._damped_tail_enclosures(Tail(a, k, d, n0, s), x))
        want = damped_enclosure_reference(a, k, d, n0, s, x, Fraction(10**9))
        assert got[0] <= want[0] <= want[1] <= got[1], (a, k, d, n0, s, x, p)


def test_schema_radius():
    assert schema_radius(LoopSchema(((3, 5),))) == math.inf
    assert schema_radius(LoopSchema((), Tail(Fraction(1, 2), 2, 0, 1))) == Fraction(1, 2)
    assert schema_radius(LoopSchema((), Tail(Fraction(1), Fraction(3, 2), 1, 1))) == Fraction(2, 3)


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
    s = LoopSchema((), Tail(Fraction(1, 2), 2, 0, 1))
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
    s = LoopSchema(((1, 1),), Tail(Fraction(1), 2, 0, 2))
    rep = classify_recurrence(s)
    assert rep.recurrence == POSITIVE_RECURRENT
    r = _bisect(s, schema_radius(s))
    phi = partial(loop_series_bounds, s.counts, ("geometric", Fraction(1), 2, 2, 1))
    assert phi(r.lo)[1] <= 1 <= phi(r.hi)[1]


def test_geometric_tail_strided_period():
    s = LoopSchema((), Tail(Fraction(1, 9), 3, 0, 2, stride=2))
    rep = classify_recurrence(s)
    assert rep.period == 2
    assert rep.recurrence == POSITIVE_RECURRENT


# === damped tails ===

def test_damped_tail_transient_log2_anchor():
    # floor(2^n / (3 n^2)): Phi(1/2) <= zeta(2)/3 < 1, entropy exactly log 2
    s = LoopSchema((), Tail(Fraction(1, 3), Fraction(2), 2, 1))
    rep = classify_recurrence(s)
    assert rep.recurrence == TRANSIENT
    assert isinstance(rep.entropy, ExactAlgebraic)
    assert rep.entropy.rational_root() == 2
    assert not rep.mme
    at_radius = damped_enclosure_reference(Fraction(1, 3), 2, 2, 1, 1, Fraction(1, 2), Fraction(1, 8))
    assert at_radius[1] < 1


def test_damped_tail_transient_larger_coefficient():
    rep = classify_recurrence(LoopSchema((), Tail(Fraction(19), Fraction(2), 2, 20)))
    assert rep.recurrence == TRANSIENT
    assert abs(float(rep.entropy) - LOG2) < 1e-12


def test_damped_tail_positive_recurrent_when_root_inside():
    # a = 4 pushes Phi past 1 well inside the disc; the root is certified
    s = LoopSchema((), Tail(Fraction(4), Fraction(2), 2, 1))
    rep = classify_recurrence(s)
    assert rep.recurrence == POSITIVE_RECURRENT
    assert rep.mme
    assert isinstance(rep.entropy, IntervalApprox)
    assert _bisect(s, schema_radius(s)).hi < Fraction(1, 2)
    # entropy above log 2: strictly more loops than the bare ratio suggests
    assert float(rep.entropy) > LOG2


def test_damped_tail_rational_ratio():
    rep = classify_recurrence(LoopSchema((), Tail(Fraction(1, 3), Fraction(3, 2), 2, 1)))
    assert rep.recurrence == TRANSIENT
    assert abs(float(rep.entropy) - math.log(1.5)) < 1e-12


def test_near_critical_damped_tail_is_undecidable():
    # coefficient tuned so Phi(R) sits inside the best certifiable enclosure
    # of 1; an honest classifier must refuse rather than guess
    s = LoopSchema((), Tail(Fraction(107681, 5503), Fraction(2), 2, 20))
    with pytest.raises(UndecidableAtTolerance):
        classify_recurrence(s)


def test_near_critical_sign_walks_the_rounds_once(monkeypatch):
    # at the radius no round of this schema's enclosure excludes 1: one sign
    # test walks the rounds once, 64 terms doubled up to the 4,096-term cap,
    # and returns 0
    s = LoopSchema((), Tail(Fraction(107681, 5503), Fraction(2), 2, 20))
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
            tail = Tail(Fraction(rng.randint(1, 3), k**n0), k, 0, n0, rng.randint(1, 3))
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


def _plain_side(schema: LoopSchema, p, q: int = 1) -> int:
    """Sign of Phi(p / q) - 1 from the closed-form sum of helpers, below the
    radius of a finite or geometric-tailed schema."""
    x = Fraction(p, q)
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


def test_phi_polynomial_coefficients_are_ints():
    # a ratio given as Fraction(k), as a caller may build a tail, still gives
    # plain ints, which the integer gcd of the squarefree part needs
    rng = random.Random(12)
    cases = [s for s, _ in _seeded_schemas(rng, 40)]
    cases += [
        LoopSchema(s.counts, Tail(s.tail.a, Fraction(s.tail.k), 0, s.tail.n0, s.tail.stride))
        for s in cases
        if s.tail is not None
    ]
    assert sum(s.tail is not None for s in cases) == 40
    for s in cases:
        coeffs = recurrence._phi_polynomial(s)
        assert all(type(c) is int for c in coeffs), (s, coeffs)


def _finest_first_side(schema: LoopSchema, p, q: int = 1) -> int:
    """Sign of Phi(p / q) - 1 asking the tail's enclosure for width 10^-18
    first, then three refinements of 10^-12 of the last width reached: the
    reference that the round loop must agree with."""
    x = Fraction(p, q)
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
            tail = Tail(a, k, rng.randint(1, 3), rng.randint(2, 5), stride)
            # c loops of length 1 with c > k put Phi(R) >= c / k above 1
            s = LoopSchema(((1, math.floor(k) + rng.randint(1, 3)),), tail)
        elif case < 48:
            # a <= 4 and d >= 3 from n0 >= 2: Phi(R) <= 4 (zeta(3) - 1) < 1
            s = LoopSchema((), Tail(a, k, rng.randint(3, 4), rng.randint(2, 5), stride))
        else:
            # 4 a + 4 >= 5 keeps the root well inside the disc, so the rounds stay short
            s = LoopSchema((), Tail(4 * a + 4, k, 1, rng.randint(2, 3), stride))
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
    s = LoopSchema((), Tail(Fraction(1, 3), 3, 0, 1))
    seen = []
    sign_at = recurrence._sign_at

    def spy(coeffs, p, q=1):
        answer = sign_at(coeffs, p, q)
        seen.append((Fraction(p, q), answer))
        return answer

    monkeypatch.setattr(recurrence, "_sign_at", spy)
    rep = classify_recurrence(s)
    assert (Fraction(1, 4), 0) in seen
    assert rep.recurrence == POSITIVE_RECURRENT
    assert rep.entropy.minpoly == (-4, 1)
    assert rep.entropy.rational_root() == 4


def _banded_side(lo: Fraction, hi: Fraction, p: int, q: int) -> int:
    """-1 below lo, 0 on [lo, hi], 1 above, at p / q: a damped enclosure
    that straddles 1 across a whole band."""
    x = Fraction(p, q)
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


def _fraction_bisection(side, hi: Fraction, rel_width: Fraction, nudges: list):
    """The root bracket in Fractions: halve hi until side < 0, then bisect,
    moving a midpoint of sign 0 to lo + (hi - lo) 29/64 (recorded in
    `nudges`).  side takes a Fraction."""
    lo = hi / 2
    while side(lo) >= 0:
        lo /= 2
    while hi - lo > rel_width * lo:
        mid = (lo + hi) / 2
        sign = side(mid)
        if sign == 0:
            nudges.append(mid)
            mid = lo + (hi - lo) * Fraction(29, 64)
            sign = side(mid)
            assert sign != 0
        if sign < 0:
            lo = mid
        else:
            hi = mid
    return RatInterval(lo, hi)


def _tail_data(t):
    if t is None:
        return None
    if t.d == 0:
        return ("geometric", t.a, t.k, t.n0, t.stride)
    return ("damped", t.a, t.k, t.d, t.n0, t.stride)


def test_integer_bisection_equals_fraction_bisection():
    # the bisection on integer numerators returns the RatInterval that
    # bisecting in Fractions returns, on 25 finite (9 of them the library's
    # marker and pathology returns), 24 geometric (8 of them with the root at
    # a dyadic midpoint, so that the nudge is taken) and 16 damped schemas; every interval holds the root by the oracle of helpers,
    # and on damped schemas the Fraction reference shows it too
    rng = random.Random(34)
    cases = _seeded_schemas(rng, 32) + _library_schemas()
    for _ in range(8):
        # Phi(x) = a k x / (1 - k x) is 1 at x = hi j / 2^e, hi = 1/k, with
        # a = 2^e / j - 1 and j | k, so that a k is an integer
        e = rng.randint(2, 9)
        j = rng.randrange(2 ** (e - 1) + 1, 2**e, 2)
        k = j * rng.randint(1, 3)
        s = LoopSchema((), Tail(Fraction(2**e - j, j), k, 0, 1))
        cases.append((s, schema_radius(s)))
    for case in range(16):
        den = rng.randint(1, 3)
        k = Fraction(rng.randint(den + 1, 3 * den), den)
        tail = Tail(Fraction(rng.randint(1, 4), rng.randint(1, 4)), k,
                    rng.randint(1, 3), rng.randint(2, 5), rng.randint(1, 3))
        # c loops of length 1 with c > k put Phi(R) >= c / k above 1
        s = LoopSchema(((1, math.floor(k) + rng.randint(1, 3)),), tail)
        cases.append((s, schema_radius(s)))
    kinds = [s.tail and min(s.tail.d, 1) for s, _ in cases]  # None, 0 (geometric) or 1 (damped)
    assert (kinds.count(None), kinds.count(0), kinds.count(1)) == (25, 24, 16)
    nudged = 0
    for s, hi in cases:
        side = _side(s)
        nudges = []
        want = _fraction_bisection(lambda x: side(x.numerator, x.denominator), hi, REL, nudges)
        got = recurrence._bracket_and_bisect_root(side, hi, REL)
        assert got == want, s
        nudged += bool(nudges)
        assert root_brackets_one(s.counts, _tail_data(s.tail), got.lo, got.hi), s
        if s.tail is not None and s.tail.d:
            t = s.tail
            explicit = loop_series_bounds(s.counts, None, got.lo)[0]
            below = damped_enclosure_reference(t.a, t.k, t.d, t.n0, t.stride, got.lo, Fraction(1, 10**20))
            assert explicit + below[1] < 1, s
            explicit = loop_series_bounds(s.counts, None, got.hi)[0]
            above = damped_enclosure_reference(t.a, t.k, t.d, t.n0, t.stride, got.hi, Fraction(1, 10**20))
            assert explicit + above[0] > 1, s
    assert nudged >= 8


def test_polynomial_bisection_builds_only_its_two_ends(monkeypatch):
    # on finite and geometric schemas every point of the bisection is an
    # integer pair: the only Fractions built are the returned interval's ends
    cases = _seeded_schemas(random.Random(9), 40) + _library_schemas()
    sides = [(_side(s), hi) for s, hi in cases]
    made = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    for side, hi in sides:
        recurrence._bracket_and_bisect_root(side, hi, REL)
    monkeypatch.undo()
    assert len(made) == 2 * len(cases)


def test_damped_positive_recurrent_takes_the_exact_path():
    s = LoopSchema((), Tail(Fraction(4), Fraction(2), 2, 1))
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
