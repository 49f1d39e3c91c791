"""Exact rational interval arithmetic with certified log/exp enclosures.

Fractions keep every bound exact; mpmath's interval context supplies
outward-rounded enclosures for the transcendental steps, converted back to
rationals through the raw mantissa/exponent representation so no float
round-trip can leak.  An enclosure that cannot reach its requested width
within the precision budget raises PrecisionExhausted rather than coming back
wider than asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath


class PrecisionExhausted(ArithmeticError):
    """A certified enclosure missed its promised width within its budget."""


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

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
        return f"[{self.lo}, {self.hi}]~{float(self.mid):.12g}"


def _raw_to_fraction(raw) -> Fraction:
    """Convert an mpmath raw mpf tuple (sign, man, exp, bc) exactly."""
    sign, man, exp, _ = raw
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise OverflowError("non-finite mpf endpoint")
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


def _iv_to_interval(x) -> RatInterval:
    lo_raw, hi_raw = x._mpi_
    return RatInterval(_raw_to_fraction(lo_raw), _raw_to_fraction(hi_raw))


def _frac_to_iv(f: Fraction, ctx):
    return ctx.mpf(f.numerator) / ctx.mpf(f.denominator)


def _certified_unary(fn_name: str, f: Fraction, max_width: Fraction) -> RatInterval:
    """Enclosure of fn(f) of width <= max_width.  The working precision starts
    64 bits past the operand's size and doubles; past 2^14 bits of it,
    PrecisionExhausted is raised."""
    prec = 64
    extra = max(f.numerator.bit_length(), f.denominator.bit_length())
    while True:
        ctx = mpmath.iv
        old = ctx.prec
        try:
            ctx.prec = prec + extra
            val = getattr(ctx, fn_name)(_frac_to_iv(f, ctx))
            out = _iv_to_interval(val)
        finally:
            ctx.prec = old
        if out.width <= max_width:
            return out
        if prec > 1 << 14:
            raise PrecisionExhausted(f"{fn_name}({f}) not enclosed to width {max_width}")
        prec *= 2


def log_fraction(f: Fraction, max_width: Fraction = Fraction(1, 10**15)) -> RatInterval:
    """Certified enclosure of log(f) for rational f > 0."""
    if f <= 0:
        raise ValueError("log of nonpositive rational")
    return _certified_unary("log", f, max_width)


def exp_fraction(f: Fraction, max_width: Fraction = Fraction(1, 10**15)) -> RatInterval:
    """Certified enclosure of exp(f) for rational f."""
    return _certified_unary("exp", f, max_width)


def log_interval(x: RatInterval, max_width: Fraction = Fraction(1, 10**15)) -> RatInterval:
    """Certified enclosure of {log t : t in x}; requires x.lo > 0."""
    per = max_width / 2
    return RatInterval(log_fraction(x.lo, per).lo, log_fraction(x.hi, per).hi)


def approx_exp(x: Fraction, digits: int = 30) -> Fraction:
    """Non-certified rational approximation of e^x, good to ~`digits` places.

    Used only to seed constructions; certification always reruns through the
    interval routines on the emitted object.
    """
    enc = exp_fraction(x, Fraction(1, 10 ** (digits + 2)))
    return enc.mid.limit_denominator(10 ** (digits + 1))
