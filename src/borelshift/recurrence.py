"""Recurrence trichotomy for loop schemas via the first-return generating function.

Phi(x) = sum c_n x^n with radius of convergence R (Vere-Jones 1967).
Transient iff Phi(R) < 1; recurrent iff Phi(r) = 1 for some r <= R; positive
vs null recurrent by finiteness of r * Phi'(r).  A root r < R makes r Phi'(r)
finite, so positive recurrence needs no mean-return enclosure.
Entropy is -log r for the root, else -log R.  Every bound is an exact
rational enclosure, and a verdict that would need to distinguish Phi(R) from
1 below certification width is reported as undecidable rather than coerced.
No enclosure of Phi(R) is ever the point 1, so a schema at criticality is
undecidable too: null recurrence is never certified.

One side function per schema gives the sign of Phi(x) - 1, and it decides
both the upper end (R, or 1 for a finite schema) and every point of the
exact rational bisection of Phi(x) = 1.  For finite and geometric-tailed
schemas it is entropy._sign_at on the integer polynomial _phi_polynomial,
which has that sign on (0, R] (at R, where a geometric Phi diverges, it is
a > 0).  Damped tails have no closed form; _phi_versus_one walks the
rounds of the tail's enclosure until one of them decides the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator, Optional, Union

from .entropy import (
    ENCLOSURE_WIDTH,
    ExtendedEntropy,
    IntervalApprox,
    ZERO_ENTROPY,
    _sign_at,
    entropy_from_log_value,
    identify_algebraic,
)
from .graphs import schema_period
from .intervals import RatInterval, log_interval
from .presentations import DAMPED_FIRST_TERMS, DampedTail, LoopSchema

POSITIVE_RECURRENT = "positive-recurrent"
NULL_RECURRENT = "null-recurrent"
TRANSIENT = "transient"

EXACT_DEGREE_CAP = 64


class UndecidableAtTolerance(ArithmeticError):
    """Phi cannot be separated from 1 at certification width."""


@dataclass(frozen=True)
class ComponentSummary:
    """One irreducible component: (period, entropy, has an MME?, recurrence)."""

    period: int
    entropy: ExtendedEntropy
    mme: bool
    recurrence: str
    source: str = ""


def schema_radius(schema: LoopSchema) -> Union[Fraction, float]:
    """Radius of convergence of Phi; 1/k for a tail of ratio k, else math.inf."""
    t = schema.tail
    if t is None:
        return math.inf
    return Fraction(1) / Fraction(t.k)


def _damped_tail_enclosures(t: DampedTail, x: Fraction) -> Iterator[tuple[Fraction, Fraction]]:
    """Enclosures (lower, upper) of sum floor(a k^n / n^d) x^n over the tail,
    one per round; none where the series diverges.

    The terms are summed in integers, DAMPED_FIRST_TERMS in the first round
    and twice as many in each next one: with x^n = xn/xd and k^n = kn/kd,
    each count is the floor division (a.num kn) // (a.den kd n^d), and the
    partial sum is one integer over xd, so no term takes a gcd.  Fractions
    are built once per round, to bound the rest from the first uncomputed
    support point.  Each round lies inside the one before.

    At x = 1/k the remainder shrinks only polynomially, so the rounds stop
    at 4,096 terms there and at 16,384 below.
    """
    k = Fraction(t.k)
    q = k * x
    if q > 1 or (q == 1 and t.d <= 1):
        # at q == 1, sum a/n^d diverges for d <= 1 and the floor correction converges
        return
    s = t.stride
    cap = 4096 if q == 1 else 16384
    xs = x**s
    n = t.n0
    an, ad = t.a.numerator, t.a.denominator
    kn, kd = k.numerator**n, k.denominator**n
    xn, xd = x.numerator**n, x.denominator**n
    kns, kds = k.numerator**s, k.denominator**s
    xns, xds = x.numerator**s, x.denominator**s
    num = 0  # the partial sum is num / xd
    done = 0
    terms = DAMPED_FIRST_TERMS
    while True:
        while done < terms:
            num = (num + an * kn // (ad * kd * n**t.d) * xn) * xds
            n += s
            xn *= xns
            xd *= xds
            kn *= kns
            kd *= kds
            done += 1
        partial = Fraction(num, xd)
        xp = Fraction(xn, xd)
        m = n  # first uncomputed support point
        if q < 1:
            upper_main = t.a * q**m / (1 - q**s) / Fraction(m) ** t.d
        else:
            # q == 1, d >= 2: integral bound on sum over n^{-d}
            upper_main = t.a * (
                Fraction(m) ** (-t.d) + Fraction(m) ** (1 - t.d) / (s * (t.d - 1))
            )
        floor_loss = xp / (1 - xs)
        yield (
            partial + max(Fraction(0), t.a * q**m / Fraction(m) ** t.d - floor_loss),
            partial + upper_main,
        )
        if terms >= cap:
            return
        terms *= 2


def _phi_versus_one(schema: LoopSchema, x: Fraction) -> int:
    """Sign of Phi(x) - 1 for a damped schema: 1 where the tail diverges,
    else the side of 1 - E(x), E the explicit part, on which the first round
    of the tail's enclosures that excludes it lies; 0 when the rounds reach
    their term cap without excluding it.  The rounds nest, so the first that
    separates decides the same sign as every later one."""
    gap = 1 - sum(c * x**n for n, c in schema.counts if c)
    lower = None
    for lower, upper in _damped_tail_enclosures(schema.tail, x):
        if lower > gap:
            return 1
        if upper < gap:
            return -1
    return 1 if lower is None else 0


def _bracket_and_bisect_root(side, hi: Fraction, rel_width: Fraction) -> RatInterval:
    """Root of Phi(x) = 1 in (0, hi), certified, where side(x) is the sign of
    Phi(x) - 1 and side(hi) > 0.  A root below 10^-400 raises
    UndecidableAtTolerance; the floor bounds the lower walk at about 1,330
    halvings.

    Phi increases on (0, R), so the signs bracket the root.  A sign of 0 at
    a midpoint (the root itself, or a damped enclosure that straddles 1)
    nudges the midpoint; a sign of 0 there too leaves the interval wider
    than rel_width and raises UndecidableAtTolerance.  Phi - 1 of a finite
    or geometric schema has one root, so only damped enclosures get there.
    """
    lo = hi / 2
    while side(lo) >= 0:
        lo /= 2
        if lo < Fraction(1, 10**400):
            raise UndecidableAtTolerance(
                "cannot bracket the root of Phi(x) = 1 from below: "
                "Phi is not certified below 1 above 10^-400"
            )
    while hi - lo > rel_width * lo:
        mid = (lo + hi) / 2
        side_mid = side(mid)
        if side_mid == 0:
            # midpoint collides with the root; nudge off-center
            mid = lo + (hi - lo) * Fraction(29, 64)
            side_mid = side(mid)
            if side_mid == 0:
                raise UndecidableAtTolerance(
                    "the sign of Phi(x) - 1 is not certified near its root: "
                    f"the root interval stays above relative width {rel_width}"
                )
        if side_mid < 0:
            lo = mid
        else:
            hi = mid
    return RatInterval(lo, hi)


def _entropy_from_root(
    coeffs: Optional[tuple[int, ...]], root: RatInterval
) -> ExtendedEntropy:
    """Entropy -log r, exact algebraic when the closed-form polynomial
    coeffs (_phi_polynomial's, None for a damped schema) is small.

    1/r is the largest real root of the reversed _phi_polynomial, as
    identify_algebraic requires: Phi increases on (0, R), so every other real
    root is negative or at least R, and its reciprocal below 0 or at most 1/R.
    """
    lam = RatInterval(1 / root.hi, 1 / root.lo)
    if coeffs is not None and len(coeffs) - 1 <= EXACT_DEGREE_CAP:
        return identify_algebraic(tuple(reversed(coeffs)), lam)
    h = log_interval(lam, ENCLOSURE_WIDTH)
    return IntervalApprox(h.lo, h.hi)


def _phi_polynomial(schema: LoopSchema) -> Optional[tuple[int, ...]]:
    """Integer polynomial (ascending) with the sign of Phi(x) - 1 on (0, R),
    available for finite and geometric-tailed schemas: E(x) - 1 for the
    explicit part E, and (E(x) - 1)(1 - (kx)^s) + a k^n0 x^n0 with a
    geometric tail, whose factor 1 - (kx)^s is positive below R.  Its
    coefficients are integers, because k and a k^n0 are."""
    t = schema.tail
    if isinstance(t, DampedTail):
        return None
    base = [-1] + [0] * schema.max_explicit_length()
    for n, c in schema.counts:
        if c:
            base[n] += c
    if t is None:
        return tuple(base)
    s, ks = t.stride, int(t.k) ** t.stride
    out = base + [0] * max(s, t.n0 + 1 - len(base))
    for i, b in enumerate(base):
        out[i + s] -= b * ks
    out[t.n0] += int(t.a * t.k**t.n0)
    while out[-1] == 0:
        out.pop()
    return tuple(out)


def classify_recurrence(schema: LoopSchema) -> ComponentSummary:
    """Vere-Jones trichotomy with certified enclosures throughout.

    One side function gives the sign of Phi(x) - 1, at the upper end hi (R
    for a tailed schema, 1 for a finite one) and at every bisection point:
    _sign_at on _phi_polynomial for finite and geometric-tailed schemas,
    whose polynomial is total - 1 > 0 at 1 and exactly a > 0 at R, and
    _phi_versus_one for damped ones.  A positive side(hi) puts the root
    strictly inside the disc of convergence, so the schema is positive
    recurrent and the root is bisected; a negative one is transient.
    Phi(R) = 1 exactly, where null recurrence lives, is never certified: a
    geometric tail diverges at R, a finite schema is not evaluated there, and
    a damped-tail enclosure always has positive width.  A side of 0 therefore
    raises UndecidableAtTolerance, and NULL_RECURRENT is the reserved third
    label that no summary carries.
    """
    period = schema_period(schema)
    if schema.tail is None:
        if sum(c for _, c in schema.counts) == 1:
            return ComponentSummary(period, ZERO_ENTROPY, False, POSITIVE_RECURRENT)
        hi = Fraction(1)
    else:
        hi = schema_radius(schema)
    coeffs = _phi_polynomial(schema)
    if coeffs is None:
        side = partial(_phi_versus_one, schema)
    else:
        side = partial(_sign_at, coeffs)
    sign = side(hi)
    if sign > 0:
        root = _bracket_and_bisect_root(side, hi, Fraction(1, 2 * 10**13))
        return ComponentSummary(period, _entropy_from_root(coeffs, root), True, POSITIVE_RECURRENT)
    if sign < 0:
        return ComponentSummary(period, entropy_from_log_value(1 / hi), False, TRANSIENT)
    raise UndecidableAtTolerance("Phi(R) is not separated from 1 at certification width")
