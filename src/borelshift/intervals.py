"""Exact rational interval arithmetic with certified log/exp enclosures.

Fractions keep every bound exact.  log or exp of a rational f is enclosed by
[floor_P(g(floor_P f)), ceil_P(g(ceil_P f))] at P = prec + max(bits(num),
bits(den)) bits, prec = 64, 128, ...: each end is the exact directed rounding.
Series in plain integers (Brent & Zimmermann, Modern Computer Arithmetic,
2010, 4.4) bracket g at scale 2^w with proved loss bounds, and a Ziv loop
widens w until both ends of the bracket round alike, which ends because log
and exp of a rational other than 1 and 0 are irrational (Lindemann).  An
enclosure that misses its width by prec = 2^15 raises PrecisionExhausted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .presentations import Inconclusive, Record


class PrecisionExhausted(Inconclusive):
    """A certified enclosure missed its promised width within its budget."""


def to_float(x: Fraction) -> float:
    """float(x), or +-inf beyond the float range, as float("1e999") is."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class RatInterval(Record):
    """Closed interval [lo, hi] with exact rational endpoints."""

    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        super().__init__(lo, hi)

    @staticmethod
    def point(value) -> "RatInterval":
        v = Fraction(value)
        return RatInterval(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]~{to_float(self.mid):.12g}"


def _round(n: int, d: int, s: int, p: int, up: bool) -> tuple[int, int]:
    """(m, e) with m 2^e the p-bit rounding of n/d 2^s, up or down; d > 0."""
    if n == 0:
        return 0, 0
    a = abs(n)
    t = a.bit_length() - d.bit_length() - p  # a / (d 2^t) in [2^(p-1), 2^(p+1))
    m, r = divmod(a << -t, d) if t < 0 else divmod(a, d << t)
    if m >> p:
        m, r, t = m >> 1, r or m & 1, t + 1
    if r and up != (n < 0):
        m += 1
        if m >> p:
            m, t = m >> 1, t + 1
    return (-m if n < 0 else m), t + s


def _atanh(u: int, v: int, w: int) -> tuple[int, int]:
    """(a, err): a <= 2^w atanh(s) <= a + err for 0 <= s = u/v <= 1/3.  a sums
    floor(t_j / (2j+1)), t_0 = floor(2^w s), t_j = floor(t_(j-1) x / 2^w) with
    x = floor(2^w s^2), until t_J = 0.  t_j falls short of 2^w s^(2j+1) by
    under 1 at j = 0, then by under s^2 d_(j-1) + s^(2j-1) + 1 < 3/2 (the middle
    term is what x loses); so term 0 loses under 1, later terms under 1/2 + 1,
    and the tail past J under (3/2)(9/8)/3 (9/8 when J = 0)."""
    x = (u * u << w) // (v * v)
    a, j, t = 0, 0, (u << w) // v
    while t:
        a += t // (2 * j + 1)
        t = t * x >> w
        j += 1
    return a, 3 * j // 2 + 2


@lru_cache(maxsize=128)
def _ln2(w: int) -> tuple[int, int]:
    """lo <= 2^w ln 2 <= hi: _atanh(1, 3, w + 1), each t_j = t_(j-1) // 9 exactly."""
    a, j, t = 0, 0, (2 << w) // 3
    while t:
        a += t // (2 * j + 1)
        t //= 9
        j += 1
    return a, a + 3 * j // 2 + 2


def _exp_series(r: int, w: int) -> tuple[int, int]:
    """(a, err): a <= 2^w exp(r / 2^w) <= a + err for 0 <= r < 2^w.  a sums
    t_0 = 2^w and t_j = floor(t_(j-1) r / (j 2^w)) until t_J = 0.  t_1 = r is
    exact, t_2 falls short by d_2 < 1 and later t_j by d_j < d_(j-1)/j + 1 <= 3/2;
    the tail past J falls by ratios under 1/2, so it is under 2 d_J."""
    a = t = 1 << w
    j = 0
    while t:
        j += 1
        t = (t * r >> w) // j
        a += t
    return a, 3 * j // 2


def _log_ends(m: int, e: int, w: int):
    """(n, d, s) triples whose n/d 2^s bracket log(m 2^e), m > 0: m 2^e = 2^k t
    with t = m / 2^c in [1/sqrt 2, sqrt 2), at scale 2^w."""
    c = m.bit_length() - (2 * m * m < 1 << 2 * m.bit_length())
    u = m - (1 << c)
    a, err = _atanh(abs(u), m + (1 << c), w + 1) if u else (0, 0)
    if u < 0:
        a = -a - err
    k = e + c
    lo2, hi2 = _ln2(w)[::1 if k >= 0 else -1]
    return (a + k * lo2, 1, -w), (a + err + k * hi2, 1, -w)


def _exp_ends(m: int, e: int, w: int):
    """(n, d, s) triples bracketing exp(m 2^e).  k = floor(2^w |x| / hi2) against
    the upper bound of 2^w ln 2 leaves 2^w r in [r, r + d], r >= 0; w passes
    bits(k), so d < 2^w and exp(d / 2^w) <= 1 + 2d / 2^w."""
    if m == 0:
        return (1, 1, 0), (1, 1, 0)
    w += max(0, abs(m).bit_length() + e)
    x = abs(m) << e + w if e + w >= 0 else abs(m) >> -(e + w)
    lo2, hi2 = _ln2(w)
    k = x // hi2
    a, err = _exp_series(x - k * hi2, w)
    hi = a + err - (-(a + err) * 2 * (1 + k * (hi2 - lo2)) >> w)
    return ((a, 1, k - w), (hi, 1, k - w)) if m > 0 else ((1, hi, w - k), (1, a, w - k))


def _ziv(ends, x: tuple[int, int], p: int, up: bool) -> tuple[int, int]:
    """p-bit rounding of the value ends(*x, w) brackets, doubling w until both ends agree."""
    w = p + 32  # guard bits: a second round is then rare
    while True:
        lo, hi = (_round(*end, p, up) for end in ends(*x, w))
        if lo == hi:
            return lo
        w *= 2


def _certified_unary(name: str, ends, f: Fraction, max_width: Fraction) -> RatInterval:
    """Enclosure of width <= max_width.  The precision starts 64 bits past the
    operand's size and doubles; past 2^14 bits of it, PrecisionExhausted is
    raised, and at once if the last round cannot meet the width either, or if
    the value is too near zero for its ends to be written as fractions."""
    prec = 64
    n, d = f.numerator, f.denominator
    extra = max(n.bit_length(), d.bit_length())
    span = (1 << 15) + extra
    cap = span + max_width.numerator.bit_length() - max_width.denominator.bit_length()
    while True:
        p = prec + extra
        lo, hi = (_ziv(ends, _round(n, d, 0, p, up), p, up) for up in (False, True))
        # distinct ends of the last round straddle a unit in the last place of a value
        # no nearer zero than this round's nearer end m 2^e: 2^(e + p - 2^15 - extra);
        # below 2^-span, the ends' denominators 2^-e would outgrow the span
        m, e = lo if lo[0] > 0 else hi
        if lo != hi and (max_width <= 0 or e + p > cap or e + p < -span):
            break
        out = RatInterval(*(Fraction(m << max(e, 0), 1 << max(-e, 0)) for m, e in (lo, hi)))
        if out.width <= max_width:
            return out
        if prec > 1 << 14:
            break
        prec *= 2
    raise PrecisionExhausted(f"{name}({f}) not enclosed to width {max_width}")


def log_fraction(f: Fraction, max_width: Fraction = Fraction(1, 10**15)) -> RatInterval:
    """Certified enclosure of log(f) for rational f > 0."""
    if f <= 0:
        raise ValueError("log of nonpositive rational")
    return _certified_unary("log", _log_ends, f, max_width)


def exp_fraction(f: Fraction, max_width: Fraction = Fraction(1, 10**15)) -> RatInterval:
    """Certified enclosure of exp(f) for rational f."""
    return _certified_unary("exp", _exp_ends, f, max_width)


def log_interval(x: RatInterval, max_width: Fraction = Fraction(1, 10**15)) -> RatInterval:
    """Certified enclosure of {log t : t in x}; requires x.lo > 0."""
    per = max_width / 2
    return RatInterval(log_fraction(x.lo, per).lo, log_fraction(x.hi, per).hi)


APPROX_EXP_DIGITS = 30


def approx_exp(x: Fraction) -> Fraction:
    """Non-certified rational approximation of e^x, good to ~APPROX_EXP_DIGITS
    places; a value below about 10^-(APPROX_EXP_DIGITS+1) falls to 0 or
    10^-(APPROX_EXP_DIGITS+1).

    Used only to seed constructions; certification always reruns through the
    interval routines on the emitted object.
    """
    enc = exp_fraction(x, Fraction(1, 10 ** (APPROX_EXP_DIGITS + 2)))
    return enc.mid.limit_denominator(10 ** (APPROX_EXP_DIGITS + 1))
