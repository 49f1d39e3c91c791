"""Recurrence trichotomy for loop schemas via the first-return generating function.

Phi(x) = sum c_n x^n with radius of convergence R (Vere-Jones 1967).
Transient iff Phi(R) < 1; recurrent iff Phi(r) = 1 for some r <= R; positive
vs null recurrent by finiteness of r * Phi'(r).  A root r < R makes r Phi'(r)
finite, so positive recurrence needs no mean-return enclosure.
Entropy is -log r for the root, else -log R.  Every bound is a certified
rational enclosure, and a verdict that would need to distinguish Phi(R) from
1 below certification width is reported as undecidable rather than coerced.
No enclosure of Phi(R) is ever the point 1, so a schema at criticality is
undecidable too: null recurrence is never certified.

One side function per schema gives the sign of Phi(p/q) - 1 for integers p
and q, and it decides both the upper end (R, or 1 for a finite schema) and
every point of the bisection of Phi(x) = 1 (polynomials._bisect_root).  For
finite and geometric-tailed schemas the side is polynomials._sign_at on the
integer polynomial _phi_polynomial, which has
that sign on (0, R] (at R, where a geometric Phi diverges, it is a > 0), and
every sign is exact.  Damped tails have no closed form; _phi_versus_one
walks the rounds of the tail's enclosure until one of them decides the sign.
The rounds are summed in fixed point, each term and each power rounded
outward, so a round holds the exact round with the same terms and a decided
sign is a fact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Iterator, Optional, Union

from .entropy import (
    ENCLOSURE_WIDTH,
    ExtendedEntropy,
    IntervalApprox,
    ZERO_ENTROPY,
    entropy_from_log_value,
    identify_algebraic,
)
from .graphs import schema_period
from .intervals import RatInterval, log_interval
# invariants builds the summaries, so the record and its classes live there
from .invariants import NULL_RECURRENT, POSITIVE_RECURRENT, TRANSIENT, ComponentSummary
from .polynomials import _bisect_root, _sign_at
from .presentations import DAMPED_FIRST_TERMS, Inconclusive, LoopSchema, Tail

EXACT_DEGREE_CAP = 64
# the lower bracket walk of Phi(x) = 1 gives up below 10^-BRACKET_FLOOR_DIGITS
BRACKET_FLOOR_DIGITS = 400


class UndecidableAtTolerance(Inconclusive):
    """Phi cannot be separated from 1 at certification width."""


def schema_radius(schema: LoopSchema) -> Union[Fraction, float]:
    """Radius of convergence of Phi; 1/k for a tail of ratio k, else math.inf."""
    t = schema.tail
    if t is None:
        return math.inf
    return Fraction(1) / Fraction(t.k)


# Fractional bits of a damped-tail enclosure: each term, and the bound on
# the rest, is rounded outward to a multiple of 2^-FIXED_POINT_BITS.
FIXED_POINT_BITS = 192


def _trim(b: tuple[int, int, int], w: int) -> tuple[int, int, int]:
    """Bounds (lo, hi, e) on v, lo 2^e <= v <= hi 2^e, cut to w bits: lo
    rounded down and hi up, so that they still hold v.  Nothing moves while
    hi has at most w bits, or where the bits cut are zero."""
    lo, hi, e = b
    cut = hi.bit_length() - w
    if cut <= 0:
        return b
    return lo >> cut, -(-hi >> cut), e + cut


def _power(base: int, n: int, w: int) -> tuple[int, int, int]:
    """Bounds on base^n by squaring on w-bit bounds; exact while base^n has
    at most w bits."""
    if n * base.bit_length() <= w:
        v = base**n
        return v, v, 0
    out, sq = (1, 1, 0), _trim((base, base, 0), w)
    while True:
        if n & 1:
            out = _trim((out[0] * sq[0], out[1] * sq[1], out[2] + sq[2]), w)
        n >>= 1
        if not n:
            return out
        sq = _trim((sq[0] * sq[0], sq[1] * sq[1], 2 * sq[2]), w)


def _ratio_power(num: int, den: int, n: int, w: int, cn: int = 1, cd: int = 1):
    """Bounds (lo, hi, e) on (cn / cd) (num / den)^n to w relative bits; exact
    where the value has at most w significant bits."""
    nl, nh, ne = _power(num, n, w)
    dl, dh, de = _power(den, n, w)
    nl, nh, dl, dh = nl * cn, nh * cn, dl * cd, dh * cd
    g = max(0, w + dh.bit_length() - nl.bit_length())
    return _trim(((nl << g) // dh, -(-(nh << g) // dl), ne - de - g), w)


def _fixed(m: int, e: int, up: bool = False) -> int:
    """m 2^e rounded down to an integer, or up when `up`."""
    if e >= 0:
        return m << e
    return -(-m >> -e) if up else m >> -e


def _scaled(m: int, e: int) -> Fraction:
    """m 2^e as a Fraction."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _one_minus(b: tuple[int, int, int], v) -> Fraction:
    """A positive lower bound on 1 - v from bounds b on v < 1; 1 - v(), the
    exact value, where b's upper end is not below 1."""
    gap = 1 - _scaled(b[1], b[2])
    return gap if gap > 0 else 1 - v()


def _damped_tail_enclosures(t: Tail, x: Fraction) -> Iterator[tuple[Fraction, Fraction]]:
    """Enclosures (lower, upper) of sum floor(a k^n / n^d) x^n over the tail,
    one per round; none where the series diverges.

    Each round sums DAMPED_FIRST_TERMS more terms than the first, then twice
    as many, in integers counting units of 2^-P, P = FIXED_POINT_BITS.  Every
    term and the bound on the rest is rounded outward, so each round holds
    the exact round with the same terms, which holds the sum.  Powers are
    carried as floor and ceiling integers:
      - while x^n >= 2^-P, a k^n and x^n to w = P + 64 + bits(a) relative
        bits.  The count floor(a k^n / n^d) then has at most P + bits(a)
        bits; where its two bounds floor to different integers, it is
        computed exactly, which only a count within 2^(P - w) of an integer
        needs, such as an integer a k^n / n^d;
      - past that, with z = k x, a z^n in units of 2^-(P + 32).  A term lies in
        [a z^n / n^d - x^n, a z^n / n^d], and the x^n are at most
        x^m / (1 - x^s) together from the first such point m, taken once
        off the lower sum.
    So no term builds k^n or x^n exactly, and a term costs a few products of
    about w bits.  The rest, from the first uncomputed support point m, is
    at most a z^m / m^d / (1 - z^s) below the radius and a (m^-d +
    m^(1-d) / (s (d - 1))) at it, and at least a z^m / m^d less the floors'
    loss.

    At x = 1/k the remainder shrinks only polynomially, so the rounds stop
    at 4,096 terms there and at 16,384 below.
    """
    k = Fraction(t.k)
    kn, kd = k.numerator, k.denominator
    xn, xd = x.numerator, x.denominator
    zn, zd = kn * xn, kd * xd
    if zn > zd or (zn == zd and t.d <= 1):
        # at z == 1, sum a/n^d diverges for d <= 1 and the floor correction converges
        return
    P, F = FIXED_POINT_BITS, FIXED_POINT_BITS + 32
    a, d, s, n = t.a, t.d, t.stride, t.n0
    an, ad = a.numerator, a.denominator
    w = P + 64 + an.bit_length()
    al, ah, ea = _ratio_power(kn, kd, n, w, an, ad)
    ksl, ksh, eks = _ratio_power(kn, kd, s, w)
    xl, xh, ex = _ratio_power(xn, xd, n, w)
    xsl, xsh, exs = xs = _ratio_power(xn, xd, s, w)
    zs = _ratio_power(zn, zd, s, w)
    one_minus_xs = _one_minus(xs, lambda: x**s)
    one_minus_zs = None if zn == zd else _one_minus(zs, lambda: Fraction(zn, zd) ** s)
    cap = 4096 if zn == zd else 16384
    lo = hi = 0  # the partial sum lies in [lo, hi] 2^-P
    far = False  # once x^n < 2^-P: a z^n in [zl, zh] 2^-F and z^s in [zsl, zsh] 2^-F
    done = 0
    terms = DAMPED_FIRST_TERMS
    while True:
        while done < terms:
            nd = n**d
            if not far and xh.bit_length() + ex <= -P:
                far = True
                zl, zh, ez = _ratio_power(zn, zd, n, w, an, ad)
                zl, zh = _fixed(zl, ez + F), _fixed(zh, ez + F, True)
                zsl, zsh = _fixed(zs[0], zs[2] + F), _fixed(zs[1], zs[2] + F, True)
                lo -= math.ceil(_scaled(xh, ex + P) / one_minus_xs)
            if not far:
                cl = _fixed(al, ea) // nd
                ch = _fixed(ah, ea) // nd
                if cl != ch:
                    cl = ch = an * kn**n // (ad * kd**n * nd)
                lo += _fixed(cl * xl, ex + P)
                hi += _fixed(ch * xh, ex + P, True)
                al, ah, ea = _trim((al * ksl, ah * ksh, ea + eks), w)
                xl, xh, ex = _trim((xl * xsl, xh * xsh, ex + exs), w)
            else:
                lo += zl // (nd << (F - P))
                hi += -(-zh // (nd << (F - P)))
                zl, zh = zl * zsl >> F, -(-(zh * zsh) >> F)
            n += s
            done += 1
        md = n**d  # n is the first uncomputed support point
        if not far:
            az_lo, az_hi = _scaled(al * xl, ea + ex), _scaled(ah * xh, ea + ex)
            loss = _scaled(xh, ex) / one_minus_xs
        else:
            # the loss of every term from the first past 2^-P is already off lo
            az_lo, az_hi, loss = Fraction(zl, 1 << F), Fraction(zh, 1 << F), 0
        if one_minus_zs is None:
            # z == 1, d >= 2: integral bound on sum over n^{-d}
            upper = a * (1 + Fraction(n, s * (d - 1))) / md
        else:
            upper = az_hi / md / one_minus_zs
        lower = max(Fraction(0), az_lo / md - loss)
        yield (
            Fraction(lo + math.floor(lower * (1 << P)), 1 << P),
            Fraction(hi + math.ceil(upper * (1 << P)), 1 << P),
        )
        if terms >= cap:
            return
        terms *= 2


def _phi_versus_one(schema: LoopSchema, x, q: int = 1) -> int:
    """Sign of Phi(x / q) - 1 for a damped schema, x an int or a Fraction:
    1 where the tail diverges, else the side of 1 - E, E the explicit part,
    on which the first round of the tail's enclosures that excludes it lies;
    0 when the rounds reach their term cap without excluding it.  Each round
    holds the sum, so the first that separates decides the true sign."""
    x = Fraction(x, q)
    gap = 1 - sum(c * x**n for n, c in schema.counts if c)
    lower = None
    for lower, upper in _damped_tail_enclosures(schema.tail, x):
        if lower > gap:
            return 1
        if upper < gap:
            return -1
    return 1 if lower is None else 0


def _bracket_and_bisect_root(side, hi: Fraction, rel_width: Fraction) -> RatInterval:
    """Root of Phi(x) = 1 in (0, hi), certified, where side(p, q) is the sign
    of Phi(p / q) - 1 for integers p and q, and side(hi) > 0.  A root below
    10^-BRACKET_FLOOR_DIGITS raises UndecidableAtTolerance; the floor bounds
    the lower walk at about 1,330 halvings.

    The walk halves hi to hi / 2^e, and _bisect_root bisects (hi / 2^e, hi):
    Phi increases on (0, R), so the signs bracket the root.  A midpoint of
    sign 0 (the root, or a damped enclosure that straddles 1) is nudged; a
    sign of 0 there too raises UndecidableAtTolerance, which only damped
    enclosures reach, since Phi - 1 of any other schema has one root.
    """
    hn, hd = hi.numerator, hi.denominator
    wn, wd = rel_width.numerator, rel_width.denominator
    # hi / 2^e < 10^-BRACKET_FLOOR_DIGITS exactly when bottom < hd 2^e
    bottom = hn * 10**BRACKET_FLOOR_DIGITS
    e = 1
    while side(hn, hd << e) >= 0:
        e += 1
        if bottom < hd << e:
            raise UndecidableAtTolerance(
                "cannot bracket the root of Phi(x) = 1 from below: "
                f"Phi is not certified below 1 above 10^-{BRACKET_FLOOR_DIGITS}"
            )
    root = _bisect_root(side, hn, hn << e, lambda a, b, d: (b - a) * wd > wn * a, hd << e)
    if root is None:
        raise UndecidableAtTolerance(
            "the sign of Phi(x) - 1 is not certified near its root: "
            f"the root interval stays above relative width {rel_width}"
        )
    return RatInterval(*root)


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
    available for finite schemas and tails with d = 0: E(x) - 1 for the
    explicit part E, and (E(x) - 1)(1 - (kx)^s) + a k^n0 x^n0 with a
    geometric tail, whose factor 1 - (kx)^s is positive below R.  Its
    coefficients are integers, because k and a k^n0 are."""
    t = schema.tail
    if t is not None and t.d:
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
    sign = side(hi.numerator, hi.denominator)
    if sign > 0:
        root = _bracket_and_bisect_root(side, hi, Fraction(1, 2 * 10**13))
        return ComponentSummary(period, _entropy_from_root(coeffs, root), True, POSITIVE_RECURRENT)
    if sign < 0:
        return ComponentSummary(period, entropy_from_log_value(1 / hi), False, TRANSIENT)
    raise UndecidableAtTolerance("Phi(R) is not separated from 1 at certification width")
