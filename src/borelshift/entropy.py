"""Gurevich entropy values: exact algebraic where possible, certified intervals otherwise.

An entropy is log(lambda) for the Perron-like growth rate lambda.  The exact
form stores the minimal polynomial of lambda with an isolating rational
interval; the approximate form stores a certified rational enclosure of the
entropy itself.  Zero and Infinity are explicit so that degenerate components
and unattained suprema never masquerade as numeric values.

The Perron root of a component of period p is enclosed through lambda^p, by
Collatz-Wielandt bounds min/max (A^p v)_i / v_i, which hold for every
positive vector v (Lind & Marcus, Symbolic Dynamics and Coding, 4.2).  Floats
only choose v: a float power iteration finds it, its entries become integers
that keep their 53 significant bits, and the bounds are computed exactly.
The float iteration runs on A^p unshifted while that contracts fast, and on
A^p + I once it does not (a second eigenvalue near -lambda, as in a nearly
bipartite graph), rescaling once per check of four steps (_float_seed).  Only
when the bounds miss the width target does an exact integer iteration of
A^p + I continue from that vector; it also finishes the job when the Perron
vector spans more than floats can hold (entries that underflow become 1).
The exact iteration running out of its budget above the target raises
PrecisionExhausted; no wider enclosure is returned.  A^p is block diagonal
with primitive blocks of Perron root lambda^p, so the iteration converges at
the rate of those blocks; iterating A + I instead contracts by only
|lambda e^{2 pi i/p} + 1| / (lambda + 1) per step, which for long periods is a
factor close to 1 (Lind & Marcus 4.5).  Both iterations take whole-vector
products: per group of rows of one length, one itemgetter gather and one
map(add) per column, added left to right as sum() adds on Python 3.11 (3.12
compensates), so every Python prints the same interval.  A step costs time
linear in the edges; so does each vertex that Berkowitz's division-free method
adds to the characteristic polynomial, at EXACT_VERTEX_CAP vertices or fewer,
in plain integers with no dense matrix (_charpoly_coeffs).

identify_algebraic turns an enclosure of the largest real root of an integer
polynomial (a Perron root, by Perron-Frobenius; 1/r for the reversed
first-return polynomial of a loop schema) into an isolating interval: one root
inside, no equal nonzero signs at the ends (isolates_one_root).  It works on
the squarefree part f / gcd(f, f'), which has the same roots; the gcd is the
heuristic integer gcd GCDHEU, which draws points until a candidate passes
exact division, and needs no fallback (_poly_gcd).  The roots inside [lo, hi]
are counted locally, in exact integers, by Descartes' rule of signs after the
Moebius map of (lo, hi) onto (0, inf), halving while the count is not yet 0
or 1 (Collins & Akritas 1976).  The work depends on the roots near [lo, hi],
not on all the real roots of the polynomial.  A rational root is found by its
denominator, which divides the leading coefficient, and becomes a linear
polynomial.  Nothing is factored: the minimal polynomial is needed only where
a `poly` line is written, and ExactAlgebraic.minpoly splits it off on first
read (_minimal_factor).  Most such polynomials are irreducible once x, x - 1
and x + 1 are divided out, and a degree sieve modulo a few small primes
proves it (Musser 1978) with no lifting.  Its distinct-degree split takes one
gcd per block of about sqrt(n) degrees, splitting a block only when that gcd
is not 1 (Kaltofen & Shoup 1998), and holds each residue modulo the
polynomial as one integer with a fixed-width slot per coefficient (Kronecker
substitution), so that a Frobenius step or a product modulo the polynomial
is a few integer operations (_Residues).  Only where the sieve cannot decide
is the polynomial factored over Z, by Zassenhaus's method in plain integers:
split modulo the sieve's prime with the fewest factors (Cantor-Zassenhaus,
drawing from a generator seeded by the prime, so one polynomial takes the same
work on every run), Hensel lifting, and recombination (_zassenhaus).  All of
this is plain integer arithmetic: the package needs no computer algebra
system.  Two isolating intervals of one polynomial hold the same root exactly
when it changes sign across, or vanishes on, their overlap.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, combinations, groupby, repeat
from operator import add, itemgetter, mul, truediv

from .graphs import is_single_cycle, period_of_component
from .intervals import PrecisionExhausted, RatInterval, log_fraction, log_interval
from .presentations import FiniteGraph, Inconclusive

DEFAULT_TOL = Fraction(1, 10**9)
ENCLOSURE_WIDTH = Fraction(1, 10**12)
EXACT_VERTEX_CAP = 60
SIEVE_PRIME_BUDGET = 10  # usable primes the degree sieve tries before factoring

# enough odd primes that SIEVE_PRIME_BUDGET of them divide neither the
# leading coefficient nor the discriminant of any polynomial met in practice
_SIEVE_PRIMES = tuple(
    p for p in range(3, 200, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)


class ExtendedEntropy:
    """Base class; concrete values are ExactAlgebraic, IntervalApprox, Zero, Infinity."""

    def is_finite(self) -> bool:
        return True

    def log_enclosure(self, max_width: Fraction = ENCLOSURE_WIDTH) -> RatInterval:
        raise NotImplementedError

    def __float__(self) -> float:
        return self._float

    @cached_property
    def _float(self) -> float:
        # once per value: sort keys and printing call float() on one value many times
        mid = self.log_enclosure().mid
        try:
            return float(mid)
        except OverflowError:  # beyond the float range, as float("1e999") is
            return math.inf if mid > 0 else -math.inf


class ZeroEntropy(ExtendedEntropy):
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def log_enclosure(self, max_width: Fraction = ENCLOSURE_WIDTH) -> RatInterval:
        return RatInterval.point(0)

    def __repr__(self):
        return "Entropy(0)"


class InfiniteEntropy(ExtendedEntropy):
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def is_finite(self) -> bool:
        return False

    def log_enclosure(self, max_width: Fraction = ENCLOSURE_WIDTH) -> RatInterval:
        raise ValueError("infinite entropy has no finite enclosure")

    def __float__(self) -> float:
        return math.inf

    def __repr__(self):
        return "Entropy(inf)"


ZERO_ENTROPY = ZeroEntropy()
INFINITE_ENTROPY = InfiniteEntropy()


@dataclass(frozen=True)
class ExactAlgebraic(ExtendedEntropy):
    """Entropy log(lambda) for the root lambda of `poly` in [root_lo, root_hi].

    `poly` is an ascending integer coefficient tuple with positive leading
    coefficient.  The interval [root_lo, root_hi] holds exactly one real root
    of poly, and poly does not take the same nonzero sign at both ends (a
    point interval when the root is pinned).  From identify_algebraic, poly
    is a squarefree polynomial, linear exactly when lambda is rational;
    parsed from a document, it is the document's polynomial, which stands as
    the minimal polynomial.  Either way poly is the minimal polynomial times
    a factor with no root in the interval, so every sign, bisection step and
    enclosure is the same on both.

    `minpoly`, the minimal polynomial (primitive, positive leading
    coefficient), is split off poly on first read and kept; with `minimal`
    set, as by the parser, it is poly itself.  Only printing reads it.
    """

    poly: tuple[int, ...]
    root_lo: Fraction
    root_hi: Fraction
    minimal: bool = field(default=True, compare=False, repr=False)

    def __post_init__(self):
        if len(self.poly) < 2 or self.poly[-1] <= 0:
            raise ValueError("minpoly must be nonconstant with positive leading coefficient")
        if self.root_lo > self.root_hi or self.root_hi <= 0:
            raise ValueError("isolating interval must be nonempty and positive")
        object.__setattr__(self, "_logs", {})  # log_enclosure by width

    @cached_property
    def minpoly(self) -> tuple[int, ...]:
        if self.minimal or len(self.poly) == 2:
            return self.poly
        return _minimal_factor(self.poly, self.root_lo, self.root_hi)

    def rational_root(self) -> Fraction | None:
        if len(self.poly) == 2:
            c0, c1 = self.poly
            return Fraction(-c0, c1)
        return None

    def lambda_enclosure(self, max_width: Fraction = ENCLOSURE_WIDTH) -> RatInterval:
        r = self.rational_root()
        if r is not None:
            return RatInterval.point(r)
        lo, hi = self.root_lo, self.root_hi
        while hi - lo > max_width:
            lo, hi = _bisect_simple_root(self.poly, lo, hi)
        return RatInterval(lo, hi)

    def log_enclosure(self, max_width: Fraction = ENCLOSURE_WIDTH) -> RatInterval:
        enc = self._logs.get(max_width)  # comparisons ask for a few widths many times
        if enc is None:
            r = self.rational_root()
            if r is not None:
                enc = log_fraction(r, max_width)
            else:
                enc = log_interval(self.lambda_enclosure(max_width / 4), max_width)
            self._logs[max_width] = enc
        return enc

    def __repr__(self):
        return f"Entropy(log root of {self.minpoly} in [{self.root_lo},{self.root_hi}])"


@dataclass(frozen=True)
class IntervalApprox(ExtendedEntropy):
    """Certified enclosure [lo, hi] of the entropy value itself."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty entropy interval")

    def log_enclosure(self, max_width: Fraction = ENCLOSURE_WIDTH) -> RatInterval:
        return RatInterval(self.lo, self.hi)

    def __repr__(self):
        return f"Entropy[{float(self.lo):.12g}, {float(self.hi):.12g}]"


def _sign_at(coeffs, x, q: int = 1) -> int:
    """Sign (-1, 0 or 1) of the integer polynomial `coeffs` (ascending) at
    the rational x / q = p / q' (x an int or a Fraction, q a positive int,
    so that a bisection on integers builds no Fraction): the sign of the
    integer sum c_i p^i q'^(d - i), which is q'^d > 0 times the value.
    Horner's rule in integers steps from one nonzero coefficient to the
    next, so a long sparse polynomial, such as a loop schema's, costs a few
    powers, not one product per degree."""
    p, q = x.numerator, x.denominator * q
    acc, qk, prev = 0, 1, len(coeffs) - 1
    for i in range(prev, -1, -1):
        if coeffs[i]:
            gap = prev - i
            qk *= q**gap
            acc = acc * p**gap + coeffs[i] * qk
            prev = i
    acc *= p**prev
    return (acc > 0) - (acc < 0)


def _bisect_simple_root(coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """One bisection step; requires a sign change across [lo, hi] or a root at lo."""
    flo = _sign_at(coeffs, lo)
    if flo == 0:
        return lo, lo
    mid = (lo + hi) / 2
    fmid = _sign_at(coeffs, mid)
    if fmid == 0:
        return mid, mid
    if flo != fmid:
        return lo, mid
    return mid, hi


def _brackets_root(coeffs, lo: Fraction, hi: Fraction) -> bool:
    """coeffs does not take the same nonzero sign at lo and at hi."""
    return _sign_at(coeffs, lo) * _sign_at(coeffs, hi) <= 0


def _taylor_shift(coeffs: list[int], a: int) -> list[int]:
    """Ascending coefficients of p(x + a), by repeated synthetic division:
    pass i runs Horner's rule c[j] += a c[j + 1] from the top down to j = i."""
    c = list(coeffs)
    step = None if a == 1 else (lambda acc, x: acc * a + x)
    for i in range(len(c) - 1):
        c[i:] = reversed(list(accumulate(reversed(c[i:]), step)))
    return c


def _sign_variations(coeffs: list[int]) -> int:
    changes, last = 0, 0
    for c in coeffs:
        if c:
            if last and (c > 0) != (last > 0):
                changes += 1
            last = c
    return changes


def _roots_in_unit(q: list[int]) -> int:
    """Roots of the squarefree integer polynomial q in the open interval (0, 1).

    Descartes' rule bounds them by the sign variations of (1 + t)^d q(1/(1 + t)),
    the reversal of q shifted by 1; a bound of 0 or 1 is exact.  Otherwise
    (0, 1) is halved: 2^d q(y/2) carries the left half onto (0, 1), and its
    shift by 1 the right half, whose constant term vanishes at a root at 1/2.
    A squarefree q needs finitely many halvings (the two-circle theorem);
    close roots need many, so the pieces wait on a list, not on the stack.
    """
    count, todo = 0, [q]
    while todo:
        q = todo.pop()
        bound = _sign_variations(_taylor_shift(q[::-1], 1))
        if bound <= 1:
            count += bound
            continue
        d = len(q) - 1
        left = [c << (d - i) for i, c in enumerate(q)]
        right = _taylor_shift(left, 1)
        count += right[0] == 0
        todo += (left, right)
    return count


def _roots_in(coeffs: tuple[int, ...], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in the closed interval [lo, hi] of the squarefree
    integer polynomial `coeffs` (ascending, nonzero leading coefficient).

    With lo = A/D and hi - lo = B/D, q(y) = D^d p((A + B y)/D) is an integer
    polynomial whose roots in [0, 1] are those of p in [lo, hi]: scale by D,
    Taylor-shift by A, scale by B.  The endpoints are tested exactly and the
    open interval is counted by _roots_in_unit.  A repeated root would keep
    the sign-variation count above 1 forever, hence the squarefree input.
    """
    if lo >= hi:
        return int(lo == hi and _sign_at(coeffs, lo) == 0)
    d = len(coeffs) - 1
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = int(lo * den), int((hi - lo) * den)
    q = _taylor_shift([c * den ** (d - i) for i, c in enumerate(coeffs)], a)
    q = [c * b**i for i, c in enumerate(q)]
    return (q[0] == 0) + (sum(q) == 0) + _roots_in_unit(q)


def _primitive(f) -> tuple[int, ...]:
    """The nonzero integer polynomial f (ascending) divided by its content,
    with a positive leading coefficient."""
    c = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return tuple(a // c for a in f)


def _squarefree(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive squarefree part, with positive leading coefficient: the
    same roots, each simple.  It is f / gcd(f, f') for the nonconstant f."""
    f = _primitive(coeffs)
    return _primitive(_exact_quotient(f, _poly_gcd(f, [i * c for i, c in enumerate(f)][1:])))


def _poly_gcd(f, g) -> tuple[int, ...]:
    """Greatest common divisor of the nonzero integer polynomials f and g
    (ascending), primitive, with a positive leading coefficient.

    The heuristic gcd GCDHEU (B. W. Char, K. O. Geddes and G. H. Gonnet,
    J. Symbolic Comput. 7, 1989), with sympy's start point and update rule
    for the evaluation point xi (_gcd_candidates).  A candidate that divides
    both f and g is the gcd: the start point has xi > 2 (1 + |f|/lc(f)) for
    f or for g, so every root of that polynomial has modulus below xi/2, and
    every nonconstant k dividing it has |k(xi)| > xi/2, more than any
    balanced base-xi digit, which a candidate missing k would need.  Points
    are drawn until a candidate divides both, and one does: with f = h fb
    and g = h gb for the gcd h, gcd(f(xi), g(xi)) = |h(xi)| delta, where
    delta divides the resultant R = u fb + v gb of fb and gb.  Once xi > 2
    |R| |h|_inf is no root of f g, the balanced digits are those of +-delta
    h, whose primitive part is h; each point has a quarter more bits.
    """
    f, g = _primitive(f), _primitive(g)
    if len(f) == 1 or len(g) == 1:
        return (1,)
    nf, ng = max(map(abs, f)), max(map(abs, g))
    b = 2 * min(nf, ng) + 29
    xi = max(min(b, 99 * math.isqrt(b)), 2 * min(nf // f[-1], ng // g[-1]) + 4)
    while True:
        for h in _gcd_candidates(f, g, xi):
            if h is not None:
                h = _primitive(h)
                if _exact_quotient(f, h) is not None and _exact_quotient(g, h) is not None:
                    return h
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011


def _gcd_candidates(f, g, xi: int):
    """GCDHEU's candidates for gcd(f, g) from the values at xi, none when
    one of them is 0: the balanced base-xi digits of gamma = gcd(f(xi),
    g(xi)), then f and g divided by the digits of their cofactors f(xi) /
    gamma and g(xi) / gamma (None where that division is not exact)."""
    ff, gg = _value_at(f, xi), _value_at(g, xi)
    if ff and gg:
        gamma = math.gcd(ff, gg)
        yield _balanced_digits(gamma, xi)
        yield _exact_quotient(f, _balanced_digits(ff // gamma, xi))
        yield _exact_quotient(g, _balanced_digits(gg // gamma, xi))


def _value_at(f, x: int) -> int:
    """f(x) for the integer x, by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _balanced_digits(v: int, xi: int) -> list[int]:
    """Ascending digits of v in base xi, each in (-xi/2, xi/2]: the integer
    polynomial with value v at xi whose coefficients are smallest."""
    out = []
    while v:
        v, d = divmod(v, xi)
        if d > xi // 2:
            d -= xi
            v += 1
        out.append(d)
    return out


def _exact_quotient(a, b) -> list[int] | None:
    """a / b for integer polynomials (ascending, b with a nonzero leading
    coefficient), or None when b does not divide a in Z[x]."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    quo = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c, r = divmod(a[i], lead)
        if r:
            return None
        if c:
            quo[i - db] = c
            a[i - db : i] = [x - c * y for x, y in zip(a[i - db : i], b)]
    return None if any(a[:db]) else quo


def isolates_one_root(coeffs: tuple[int, ...], lo: Fraction, hi: Fraction) -> bool:
    """The isolating-interval rule: [lo, hi] holds exactly one real root of
    coeffs, and coeffs does not take the same nonzero sign at both ends.
    Roots are counted on the squarefree part, which has the same roots."""
    return _roots_in(_squarefree(coeffs), lo, hi) == 1 and _brackets_root(coeffs, lo, hi)


def identify_algebraic(coeffs: tuple[int, ...], enclosure: RatInterval) -> ExactAlgebraic:
    """Isolating interval of the largest real root of `coeffs`, which
    `enclosure` must contain: the Perron root of a characteristic polynomial
    (Perron-Frobenius), or 1/r for the reversed first-return polynomial
    (recurrence._entropy_from_root).

    Halves the enclosure while it holds more than one root of the squarefree
    part, keeping the upper half whenever that holds a root; the roots of the
    squarefree part are those of all the irreducible factors, so these are
    the intervals a split into factors would give.  A rational root comes
    back with its linear minimal polynomial (_rational_root), any other with
    the squarefree part, whose minimal factor ExactAlgebraic.minpoly splits
    off only when it is read.  An enclosure that holds no root raises
    ArithmeticError.
    """
    sqf = _squarefree(coeffs)
    lo, hi = enclosure.lo, enclosure.hi
    while (n := _roots_in(sqf, lo, hi)) != 1:
        if n == 0:
            raise ArithmeticError("no root of the polynomial lies in the enclosure")
        mid = (lo + hi) / 2
        if _roots_in(sqf, mid, hi):
            lo = mid
        else:
            hi = mid
    r = _rational_root(sqf, lo, hi)
    if r is not None:
        return ExactAlgebraic((-r.numerator, r.denominator), lo, hi)
    return ExactAlgebraic(sqf, lo, hi, minimal=False)


def _rational_root(coeffs: tuple[int, ...], lo: Fraction, hi: Fraction) -> Fraction | None:
    """The one root of the squarefree `coeffs` in [lo, hi], if it is rational.

    A rational root p/q in lowest terms has q dividing the leading
    coefficient l (Gauss's lemma), so it is m/l for an integer m.  A copy of
    the interval is bisected until it is shorter than 1/l; then it holds at
    most one such m/l, and one exact sign test decides.
    """
    lead = coeffs[-1]
    while (hi - lo) * lead >= 1:
        lo, hi = _bisect_simple_root(coeffs, lo, hi)
    m = math.ceil(lo * lead)
    if m <= hi * lead and _sign_at(coeffs, Fraction(m, lead)) == 0:
        return Fraction(m, lead)
    return None


def _minimal_factor(coeffs: tuple[int, ...], lo: Fraction, hi: Fraction) -> tuple[int, ...]:
    """The irreducible factor of `coeffs` with the root in [lo, hi], for a
    primitive squarefree `coeffs` with positive leading coefficient (as
    ExactAlgebraic.poly is); it comes back the same way.  This is the only
    factorization in the package, and most of its calls need no factoring.

    The factors x, x - 1 and x + 1 are divided out by exact tests; a root at
    0 or +-1 inside [lo, hi] is the answer itself.  By Gauss's lemma the
    quotient of a primitive polynomial by a monic one is primitive, and it
    keeps the root.  What is left is certified irreducible when it can be
    (_certify_irreducible), by Musser's degree sieve (D. R. Musser, On the
    efficiency of a polynomial irreducibility test, J. ACM 25, 1978): a
    prime p that does not divide the leading coefficient keeps the degree
    of every factor over Z, so that degree is a sum of degrees of the
    irreducible factors modulo p.  When, for at most SIEVE_PRIME_BUDGET
    usable primes, no degree strictly between 0 and the degree of the
    polynomial is such a sum for all of them, the polynomial is its own
    minimal factor.  Otherwise it is factored over Z, in plain integers
    (_zassenhaus).
    """
    f = list(coeffs)
    for r in (0, 1, -1):
        if _sign_at(f, r) == 0:
            if lo <= r <= hi:
                return (-r, 1)
            f = _exact_quotient(f, (-r, 1))
    splits = []
    if len(f) == 2 or (len(f) > 2 and _certify_irreducible(f, splits)):
        return tuple(f)
    return _zassenhaus(f, lo, hi, splits)


def _certify_irreducible(f: list[int], splits: list | None = None) -> bool:
    """True when the degree sieve proves the squarefree integer polynomial f
    (ascending, degree n >= 2) irreducible over Q; False when it cannot.

    A bitmask holds the degrees a factor of f may still have.  Each usable
    prime p (p does not divide the leading coefficient and f is squarefree
    modulo p) ANDs in the subset sums of the degrees of f's irreducible
    factors modulo p; f is certified once no degree strictly between 0 and n
    is left, and the sieve gives up after SIEVE_PRIME_BUDGET usable primes.
    When f(x) = g(x^k) with g certified irreducible, every factor of f has a
    degree that is a multiple of deg g (a root a of f has a^k a root of g,
    and Q(a^k) lies in Q(a)), so the mask starts from those multiples.
    Each usable prime's distinct-degree split is appended to `splits`, when
    given, as (p, parts), for _zassenhaus to choose from.
    """
    n = len(f) - 1
    k = math.gcd(*(i for i, c in enumerate(f) if c))
    allowed = (1 << (n + 1)) - 1
    if k > 1 and _certify_irreducible(f[::k]):
        allowed = sum(1 << i for i in range(0, n + 1, n // k))
    inner = (1 << n) - 2  # degrees 1 .. n - 1
    used = 0
    for p in _SIEVE_PRIMES:
        if not allowed & inner or used == SIEVE_PRIME_BUDGET:
            break
        parts = _distinct_degree_mod(f, p)
        if parts is not None:
            allowed &= _degree_sums(parts)
            used += 1
            if splits is not None:
                splits.append((p, parts))
    return not allowed & inner


def _degree_sums(parts: list[tuple[int, list[int]]]) -> int:
    """Bitmask of the subset sums of the degrees of the irreducible factors
    modulo p, from their distinct-degree split (_distinct_degree_mod)."""
    mask = 1
    for d, g in parts:
        for _ in range((len(g) - 1) // d):
            mask |= mask << d
    return mask


def _distinct_degree_mod(f: list[int], p: int) -> list[tuple[int, list[int]]] | None:
    """Pairs (d, g): g is the monic product of the irreducible factors of
    degree d of f modulo the odd prime p, one pair for each d that occurs;
    None when p divides the leading coefficient or f is not squarefree
    modulo p.

    Distinct-degree factorization with one gcd per block of degrees (E.
    Kaltofen and V. Shoup, Math. Comp. 67, 1998): h_d = x^(p^d) mod f comes
    from h_(d-1) by the Frobenius rows x^(pj) mod f (over F_p, h(x)^p =
    h(x^p)), and h_d - x is divisible by exactly the factors whose degree
    divides d.  The factors h_d - x of a block of degrees are multiplied
    modulo f, and one gcd of rest with that product (valid modulo f, since
    rest divides f) holds every factor of rest with a degree in the block,
    all smaller degrees being gone.  Only when it is not 1 is it split
    degree by degree, ascending, one gcd each; the last degree takes what
    is left, and so does any degree e once what is left has degree below
    2e (it is then one irreducible factor).  A block is ceil(sqrt(deg
    rest)) degrees long and stops at half of deg rest; what is left of rest
    after the last block is irreducible.  Residues modulo f are packed
    integers (_Residues): a Frobenius apply h <- sum h_j row_j is one packed
    sum and one unpack, and a product modulo f one integer product and one
    packed reduction.  The split is unique, so any order of work gives the
    same pairs.
    """
    fp = [c % p for c in f]
    if not fp[-1]:
        return None
    if len(_gcd_mod(fp, _trim([i * c % p for i, c in enumerate(fp)][1:]), p)) > 1:
        return None
    parts, rest, d = [], fp, 0
    if len(fp) > 2:  # degree 2 or more: the loop below runs
        ring, h = _Residues(fp, p), [0, 1] + [0] * (len(fp) - 3)
    while 2 * (d + 1) < len(rest):
        # degrees d + 1 .. last: about sqrt(deg rest) of them, at most deg rest / 2
        last = min(d + math.isqrt(len(rest) - 2) + 1, (len(rest) - 1) // 2)
        block, product = [], None
        for e in range(d + 1, last + 1):
            h = ring.frobenius(h)
            hx = [h[0], (h[1] - 1) % p, *h[2:]]
            block.append((e, hx))
            packed = ring.pack(hx)
            product = packed if product is None else ring.mul(product, packed)
        d = last
        g = _gcd_mod(rest, _trim(ring.unpack(product)), p)
        for e, hx in block:
            if len(g) == 1:
                break
            # every factor of g has degree e or more: below 2e, g is one of them
            if 2 * e > len(g) - 1:
                e, ge = len(g) - 1, g
            else:
                ge = g if e == last else _gcd_mod(g, _trim(hx), p)
            if len(ge) > 1:
                parts.append((e, _monic_mod(ge, p)))
                rest = _divmod_mod(rest, ge, p)[0]
                g = _divmod_mod(g, ge, p)[0]
    if len(rest) > 1:
        parts.append((len(rest) - 1, _monic_mod(rest, p)))
    return parts


class _Residues:
    """F_p[x] modulo f, for f of degree n >= 2 whose leading coefficient is
    a unit modulo p, on packed integers (Kronecker substitution; J. von zur
    Gathen and J. Gerhard, Modern Computer Algebra, 8.4).

    A residue, a polynomial of degree below n with coefficients in [0, p),
    is one int: coefficient i in bits [iw, (i + 1)w), w the bit width of the
    array typecode `code`.  Packing goes through array(...).tobytes() and
    int.from_bytes, unpacking through int.to_bytes and memoryview.cast, in
    native byte order (with the items reversed on a big-endian host).  The
    widest slot needed is a coefficient of a product of two residues with
    its high half folded back, at most (2n - 1)(p - 1)^2, more than the sum
    of n residues times coefficients in a Frobenius apply: w holds it, so
    no slot carries into the next.

    `high[i]` is x^(n + i) mod f for i < n - 1, and a product reduces as its
    low n slots plus one packed sum of its high coefficients times `high`.
    `rows[j]` is x^(pj) mod f: below degree 2n - 1 a monomial or a `high`
    row, above it the row before times x^p mod f.
    """

    def __init__(self, f: list[int], p: int):
        n = self.n = len(f) - 1
        self.p = p
        bound = (2 * n - 1) * (p - 1) ** 2
        self.code = next(c for c in "BHIQ" if bound < 256 ** array(c).itemsize)
        self.size = array(self.code).itemsize
        self.step = 1 if sys.byteorder == "little" else -1
        self.width = n * 8 * self.size  # bits of a residue
        inv = pow(f[-1], -1, p)
        xn = [-c * inv % p for c in f[:-1]]
        powers, r = [], xn  # x^k mod f for k = n, ..., max(2n - 2, p)
        for _ in range(max(n - 1, p - n + 1)):
            powers.append(r)
            top = r[-1]
            r = [0] + r[:-1]
            if top:
                r = [(a + top * b) % p for a, b in zip(r, xn)]
        self.high = [self.pack(r) for r in powers[: n - 1]]
        small = [1 << (8 * self.size * k) for k in range(n)] + self.high  # x^k, k <= 2n - 2
        xp = small[p] if p < len(small) else self.pack(powers[p - n])
        self.rows = [1]
        for j in range(p, p * n, p):
            self.rows.append(small[j] if j < len(small) else self.mul(self.rows[-1], xp))

    def pack(self, a: list[int]) -> int:
        return int.from_bytes(array(self.code, a[:: self.step]).tobytes(), sys.byteorder)

    def unpack(self, v: int, slots: int | None = None) -> list[int]:
        """The coefficients of v, `slots` of them (n by default), modulo p."""
        data = v.to_bytes((slots or self.n) * self.size, sys.byteorder)
        p = self.p
        return [c % p for c in memoryview(data).cast(self.code)[:: self.step]]

    def mul(self, a: int, b: int) -> int:
        """a b mod f, for packed residues."""
        c = a * b
        high = self.unpack(c >> self.width, self.n - 1)
        low = c & ((1 << self.width) - 1)
        return self.pack(self.unpack(sum(map(mul, high, self.high), low)))

    def frobenius(self, h: list[int]) -> list[int]:
        """h^p mod f = h(x^p) mod f, for the coefficients h of a residue."""
        return self.unpack(sum(map(mul, h, self.rows)))


def _zassenhaus(f: list[int], lo: Fraction, hi: Fraction, splits) -> tuple[int, ...]:
    """The irreducible factor of f with the root in [lo, hi], by Zassenhaus's
    method, for a primitive squarefree f (ascending) with positive leading
    coefficient l and f(0) != 0; it comes back primitive with positive
    leading coefficient.

    `splits` holds pairs (p, _distinct_degree_mod(f, p)) for the primes the
    degree sieve used; the prime with the fewest irreducible factors is
    taken.  f is split modulo p (_equal_degree_mod), the monic factors are
    lifted to f = l g_1 ... g_r modulo p^k (_hensel_lift), and p^k is more than
    twice l 2^n |f|_2, a bound on l / lc(g) times any factor g of f over Z
    (Mignotte).  Recombination tries the products l g_S of subsets S of the
    lifted factors, smallest first: one whose balanced residues form a
    polynomial dividing f is a factor over Z, and no smaller subset gives
    one, so it is irreducible.  The first with the root is the answer; a
    factor without it is divided out, and what is left when no subset of at
    most half the factors divides it is irreducible.  A candidate is first
    checked on its constant term, which must divide l f(0).  With no usable
    prime below 200, PrecisionExhausted is raised and nothing is factored.
    """
    if not splits:
        raise PrecisionExhausted("no usable prime below 200 for the minimal polynomial")
    _, p, parts = min((sum((len(g) - 1) // d for d, g in parts), p, parts) for p, parts in splits)
    rng = random.Random(p)  # seeded: the same splitting on every run
    factors = [g for d, part in parts for g in _equal_degree_mod(part, d, p, rng)]
    bound = 2 * f[-1] * (math.isqrt(sum(c * c for c in f)) + 1) << (len(f) - 1)
    k = 1
    while p**k <= bound:
        k += 1
    m = p**k
    factors = _hensel_lift(f, factors, p, k)
    f, s = list(f), 1
    while 2 * s <= len(factors):
        for subset in combinations(range(len(factors)), s):
            lead = f[-1]
            c0 = lead
            for i in subset:
                c0 = c0 * factors[i][0] % m
            c0 = c0 - m if 2 * c0 > m else c0
            if not c0 or lead * f[0] % c0:
                continue
            h = [lead]
            for i in subset:
                h = _mul_mod(h, factors[i], m)
            g = _primitive([c - m if 2 * c > m else c for c in h])
            q = _exact_quotient(f, g)
            if q is None:
                continue
            if _roots_in(g, lo, hi):
                return g
            f = q
            factors = [a for i, a in enumerate(factors) if i not in subset]
            break
        else:
            s += 1
    return tuple(f)


def _equal_degree_mod(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors of g over F_p, for the odd prime p and a
    monic squarefree g whose irreducible factors all have degree d.

    Cantor-Zassenhaus splitting: for a polynomial a drawn from rng,
    a^((p^d - 1)/2) is 1 modulo about half of the factors and not modulo the
    rest, so gcd(g, a^((p^d - 1)/2) - 1) splits g with probability about 1/2.
    """
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b, e = [1], (p**d - 1) // 2
        while e:  # b = a^e mod g, by squaring
            if e & 1:
                b = _divmod_mod(_mul_mod(b, a, p), g, p)[1]
            a = _divmod_mod(_mul_mod(a, a, p), g, p)[1]
            e >>= 1
        b[0] = (b[0] - 1) % p  # b is not 0: g is squarefree and does not divide a
        h = _gcd_mod(g, _trim(b), p)
        if 1 < len(h) < len(g):
            h = _monic_mod(h, p)
            rest = _divmod_mod(g, h, p)[0]
            return _equal_degree_mod(h, d, p, rng) + _equal_degree_mod(rest, d, p, rng)


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Monic G_i with G_i = g_i modulo p and f = lc(f) G_1 ... G_r modulo
    p^k, from the pairwise coprime monic factors g_i of f modulo p (lc(f)
    a unit modulo p).

    Multifactor lifting on a balanced tree, as in sympy's
    dup_zz_hensel_lift: f = g h with g = lc(f) times the first half of the
    factors and h the product of the rest is lifted by quadratic steps to a
    modulus at least p^k (_hensel_step), and each half is lifted the same
    way from its part of f.
    """
    m = p**k
    if len(factors) == 1:
        inv = pow(f[-1], -1, m)
        return [[c * inv % m for c in f]]
    half = len(factors) // 2
    g = [f[-1] % p]
    for a in factors[:half]:
        g = _mul_mod(g, a, p)
    h = [1]
    for a in factors[half:]:
        h = _mul_mod(h, a, p)
    s, t = _gcdex_mod(g, h, p)
    q = p
    while q < m:
        g, h, s, t = _hensel_step(q, f, g, h, s, t)
        q *= q
    return _hensel_lift(g, factors[:half], p, k) + _hensel_lift(h, factors[half:], p, k)


def _hensel_step(m: int, f, g, h, s, t):
    """From f = g h and s g + t h = 1 modulo m, with h monic, the same
    equations modulo m^2, h still monic and of the same degree (J. von zur
    Gathen and J. Gerhard, Modern Computer Algebra, Algorithm 15.10)."""
    mm = m * m
    e = _sub_mod(f, _mul_mod(g, h, mm), mm)
    q, r = _divmod_mod(_mul_mod(s, e, mm), h, mm)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, mm), _mul_mod(q, g, mm), mm), mm)
    h = _add_mod(h, r, mm)
    b = _sub_mod(_add_mod(_mul_mod(s, g, mm), _mul_mod(t, h, mm), mm), [1], mm)
    c, d = _divmod_mod(_mul_mod(s, b, mm), h, mm)
    s = _sub_mod(s, d, mm)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, mm), _mul_mod(c, g, mm), mm), mm)
    return g, h, s, t


def _trim(a: list[int]) -> list[int]:
    """a without its zero leading coefficients, trimmed in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo p (ascending lists, b with a
    leading coefficient invertible modulo p), each step scaled by b's leading
    inverse.  p is prime, or any modulus when b is monic (_hensel_step)."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quo = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            quo[i - db] = c
            a[i - db : i] = [(x - c * y) % p for x, y in zip(a[i - db : i], b)]
    return quo, _trim(a[:db])


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """A greatest common divisor of a and b over F_p, by Euclid."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return a


def _gcdex_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s and t with s a + t b = 1 over F_p, for coprime a and b, by the
    extended Euclidean algorithm."""
    s0, s1, t0, t1 = [1], [], [], [1]
    while b:
        q, r = _divmod_mod(a, b, p)
        a, b = b, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _monic_mod(a: list[int], p: int) -> list[int]:
    """a divided by its leading coefficient over F_p."""
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """The product of a and b modulo m (ascending lists, [] for 0)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _trim([c % m for c in out])


def _add_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """a + b modulo m."""
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + y) % m for x, y in zip(a, b)] + [x % m for x in a[len(b) :]])


def _sub_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """a - b modulo m."""
    return _add_mod(a, [-y for y in b], m)


def _charpoly_coeffs(rows) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - A), ascending, of the integer
    matrix A with sparse rows of (j, A[i][j]), j ascending.

    Berkowitz's division-free method (S. J. Berkowitz, Inf. Process. Lett.
    18, 1984), in plain integers.  The leading block A_k grows one vertex at
    a time.  With a the new diagonal entry and r and c the new row and column
    inside the block, det(xI - A_(k+1)) is, in descending coefficients, the
    first k + 2 of the product of det(xI - A_k) with the Toeplitz column
    1, -a, -r c, -r A_k c, ..., -r A_k^(k-1) c.  The row vectors r A_k^m
    read the sparse rows, so a step of the block costs its edges, not k^2.
    """
    n = len(rows)
    cols = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, m in row:
            cols[j].append((i, m))
    poly = [1]  # descending coefficients of det(xI - A_k)
    for k in range(n):
        t = [1, -sum(m for j, m in rows[k] if j == k)]
        c = [(i, m) for i, m in cols[k] if i < k]
        u = [0] * k  # r A_k^m
        for j, m in rows[k]:
            if j < k:
                u[j] = m
        while c and any(u):
            t.append(-sum(m * u[i] for i, m in c))
            if len(t) == k + 2:
                break
            w = [0] * k
            for i, ui in enumerate(u):
                if ui:
                    for j, m in rows[i]:
                        if j >= k:
                            break
                        w[j] += ui * m
            u = w
        t += [0] * (k + 2 - len(t))
        poly = [
            sum(t[i - j] * poly[j] for j in range(min(i, k) + 1))
            for i in range(k + 2)
        ]
    return tuple(reversed(poly))


def _gather_plan(rows) -> tuple[list[int], list]:
    """Rows of A grouped by length, for whole-vector products (_product).

    Each row becomes its column list, column j repeated A[i][j] times, one
    entry per edge.  Rows are renumbered so that each length group is
    contiguous; `order[k]` is the row at plan position k.  A group is (size,
    gathers): gather t picks, as a tuple, the t-th column of each of its rows.
    """
    cols = [[j for j, m in row for _ in range(m)] for row in rows]
    order = sorted(range(len(rows)), key=lambda i: len(cols[i]))
    pos = {i: k for k, i in enumerate(order)}
    groups = []
    for _, members in groupby(order, key=lambda i: len(cols[i])):
        at = [[pos[j] for j in cols[i]] for i in members]
        # itemgetter of one index returns the item, not a 1-tuple
        gathers = [itemgetter(*t) if len(t) > 1 else (lambda v, i=t[0]: (v[i],)) for t in zip(*at)]
        groups.append((len(at), gathers))
    return order, groups


def _product(groups, vec: list, plus: list | None = None) -> list:
    """A vec, or A vec + plus, in plan order.  Each entry adds its row's
    columns left to right, then plus, one map(add) per column of a group:
    as sum() adds floats on Python 3.11 (3.12 compensates).  The lazy chain
    becomes a list every 256 columns, which bounds its depth."""
    out, start = [], 0
    for size, gathers in groups:
        terms = [g(vec) for g in gathers]
        if plus is not None:
            terms.append(plus[start : start + size])
        start += size
        acc = terms[0] if terms else repeat(0, size)  # an empty row sums to 0
        for k, t in enumerate(terms[1:], 1):
            acc = map(add, acc, t) if k % 256 else list(map(add, acc, t))
        out.extend(acc)
    return out


def _float_seed(groups, period: int, target: float, max_iters: int) -> list[int]:
    """Positive integer vector, in plan order, from a float power iteration
    of A^p in whole-vector products (_product): unshifted while it converges
    fast, then of A^p + I.

    A check is 4 applications of A^p followed by the float Collatz-Wielandt
    spread max/min of (A^p x)_i / x_i - 1 over the last one.  Unshifted, the
    iteration contracts by |lambda_2| / lambda per application, but not at
    all where another eigenvalue of A^p has modulus near lambda^p (a nearly
    bipartite graph); adding I mends that at the price of the slower
    (|lambda_2| + 1) / (lambda + 1) (Golub & Van Loan, Matrix Computations,
    7.3).  So the iteration starts unshifted and stays so while each check
    at least halves the spread; after two slow checks in a row it goes on
    from the same vector with A^p + I, which stops on the target or once the
    spread stops shrinking (the float noise floor, or a stalled transient;
    an underflowed entry makes it infinite), as does `max_iters` products
    with A.  A matrix with an empty row starts with A^p + I: the row's ratio
    is 0 unshifted.

    The vector is normalised by its maximum once per check: entries grow by
    at most (R + 1)^(4p) in a check, R the largest row sum, which stays far
    from overflow unless 4p log2(R + 1) >= 900, where it is normalised after
    every product with A instead.  Entries may underflow to 0.  The floats
    become integers that keep all 53 significant bits of every entry, scaled
    by the smallest entry's exponent; an underflowed entry becomes 1.
    """
    each = 4 * period * math.log2(len(groups[-1][1]) + 1 if groups else 1) >= 900
    x = [1.0] * sum(size for size, _ in groups)
    shifted = not all(gathers for _, gathers in groups)
    slow = 0  # checks in a row that did not halve the spread
    spread = math.inf
    done = 0
    while done < max_iters:
        for k in range(4):
            prev, w, scale = x, x, 1.0
            for _ in range(period - 1):
                w = _product(groups, w)
                if each:
                    top = max(w)
                    w, scale = list(map(truediv, w, repeat(top))), scale * top
            w = _product(groups, w)  # A^p x / scale
            if shifted:
                x = list(map(add, w, prev if scale == 1.0 else map(truediv, prev, repeat(scale))))
            else:
                x = w
            if each or k == 3:
                top = max(x)
                x = list(map(truediv, x, repeat(top)))
        done += 4 * period
        last = spread
        spread = math.inf
        if 0.0 not in prev:
            ratios = list(map(truediv, w, prev))
            low = min(ratios)
            if low > 0.0:
                spread = max(ratios) / low - 1.0
        if spread <= target:
            break
        if shifted:
            if spread >= last:
                break
        else:
            slow = 0 if spread <= last / 2 else slow + 1
            if slow == 2:  # the shifted iteration's first check cannot stall
                shifted, spread = True, math.inf
    emin = min(math.frexp(t)[1] for t in x if t > 0.0)
    return [int(math.ldexp(m, 53)) << (e - emin) if m else 1 for m, e in map(math.frexp, x)]


def collatz_wielandt_enclosure(rows, max_iters: int = 60000, period: int = 1) -> RatInterval:
    """Certified enclosure of rho(A)^period for an irreducible nonnegative
    integer matrix A via min/max of (A^p v)_i / v_i over a positive vector v.

    A is given by its sparse rows: rows[i] lists (j, A[i][j]) for the nonzero
    entries, as in FiniteGraph.index().succ.  The bounds hold for any
    positive integer v and any p >= 1 (rho(A^p) = rho(A)^p; Lind & Marcus
    4.2), so floats only choose v and a period other than the true one costs
    speed, never correctness.  A float power iteration of A^p, unshifted
    while each check halves its spread and then of A^p + I, seeds v
    (_float_seed); the bounds are then computed exactly, the least and
    greatest ratio found by cross-multiplying integers.  Only if they miss
    the relative width period * 10^-13, the relative target 10^-13 on
    rho(A), does an exact integer iteration of A^p + I continue from v,
    doubling its batches up to 1024 products.  Both iterations take
    whole-vector products in one plan order of the rows (_gather_plan).
    `max_iters` counts products with A, for the float seed and again for the
    exact iteration; the exact budget running out above the target raises
    PrecisionExhausted rather than returning wider bounds.  A float seed
    whose entries underflow (a Perron vector spanning more than 2^1074) or
    whose spread stalls leaves the exact iteration to finish.
    """
    target = period * Fraction(1, 10**13)
    groups = _gather_plan(rows)[1]
    v = _float_seed(groups, period, float(target), max_iters)

    def step(vec):
        w = vec
        for _ in range(period - 1):
            w = _product(groups, w)
        return _product(groups, w, vec)

    def bounds(vec):
        w = vec
        for _ in range(period):
            w = _product(groups, w)
        lo = hi = 0
        for i in range(1, len(w)):
            if w[i] * vec[lo] < w[lo] * vec[i]:
                lo = i
            elif w[i] * vec[hi] > w[hi] * vec[i]:
                hi = i
        return Fraction(w[lo], vec[lo]), Fraction(w[hi], vec[hi])

    batch = 4
    done = 0
    lo, hi = bounds(v)
    while hi - lo > target * lo:
        if done >= max_iters:
            raise PrecisionExhausted(
                f"Collatz-Wielandt bounds above relative width {target} "
                f"after {max_iters} products"
            )
        steps = max(1, batch // period)
        for _ in range(steps):
            v = step(v)
        done += steps * period
        top = max(v).bit_length()
        if top > 4096:
            shift = top - 1024
            v = [max(1, x >> shift) for x in v]
        lo, hi = bounds(v)
        batch = min(batch * 2, 1024)
    return RatInterval(lo, hi)


def _root_enclosure(enc: RatInterval, p: int) -> RatInterval:
    """Outward enclosure of {t^(1/p) : t in enc} for 0 < enc.lo, in exact rationals.

    Float p-th roots seed the endpoints, which are then widened until
    lo^p <= enc.lo and hi^p >= enc.hi hold exactly.
    """
    if p == 1:
        return enc

    def outward(x: Fraction, sign: int) -> Fraction:
        # x = m 2^(qp + r) with m in (1/2, 2): no float overflow for any size of x
        e = x.numerator.bit_length() - x.denominator.bit_length()
        q, r = divmod(e, p)
        m = float(x / Fraction(2) ** e)
        root = Fraction(math.ldexp(math.exp((math.log(m) + r * math.log(2)) / p), q))
        step = root / 2**50
        while sign * (root**p - x) < 0:
            root += sign * step
            step *= 2
        return root

    return RatInterval(outward(enc.lo, -1), outward(enc.hi, 1))


def perron_entropy(c: FiniteGraph, *, _period: int | None = None) -> ExtendedEntropy:
    """Entropy log(Perron root) of a strongly connected multigraph.

    ZERO_ENTROPY for a single cycle, and only for one.  Otherwise exact
    algebraic whenever the characteristic polynomial is within reach (vertex
    count <= EXACT_VERTEX_CAP), else a certified interval of width <=
    ENCLOSURE_WIDTH.  Either way the Perron root is enclosed through
    lambda^p, p the period of the component, by exact Collatz-Wielandt
    bounds on a float-seeded vector (collatz_wielandt_enclosure).  A
    certificate that cannot meet its width within its budget raises
    PrecisionExhausted; no wider interval is returned.

    `_period` is for callers in this package that have already computed
    period_of_component(c), strong-connectivity check included.
    """
    p = period_of_component(c) if _period is None else _period
    if is_single_cycle(c):
        return ZERO_ENTROPY
    rows = c.index().succ
    lam_p = collatz_wielandt_enclosure(rows, period=p)
    if len(rows) <= EXACT_VERTEX_CAP:
        coeffs = _charpoly_coeffs(rows)
        return identify_algebraic(coeffs, _root_enclosure(lam_p, p))
    # log(lambda) = log(lambda^p) / p: exact division keeps the width target.
    # log(hi) - log(lo) <= (hi - lo) / lo, so the log rounding gets the rest.
    spread = lam_p.width / lam_p.lo
    h = log_interval(lam_p, p * ENCLOSURE_WIDTH - spread)
    return IntervalApprox(h.lo / p, h.hi / p)


def compare_entropy(a: ExtendedEntropy, b: ExtendedEntropy, tol: Fraction = DEFAULT_TOL) -> str:
    """Compare at tolerance: 'eq' | 'lt' | 'gt' | 'unknown'.

    'eq' certifies |a-b| <= tol, 'lt'/'gt' certify |a-b| > tol with the given
    order.  A value equals itself, however wide its enclosure; zero and
    infinity are single objects, so two of either are one value.  Exact
    algebraic pairs of one polynomial short-circuit when their intervals hold
    the same root; 'unknown' survives only when the true difference straddles
    the tolerance beyond refinement reach.
    """
    if a is b:
        return "eq"
    if not a.is_finite():
        return "gt"
    if not b.is_finite():
        return "lt"
    if _same_algebraic(a, b):
        return "eq"
    width = min(tol / 8, ENCLOSURE_WIDTH)
    for _ in range(6):
        ia = a.log_enclosure(width)
        ib = b.log_enclosure(width)
        diff_lo = ia.lo - ib.hi
        diff_hi = ia.hi - ib.lo
        if -tol <= diff_lo and diff_hi <= tol:
            return "eq"
        if diff_hi < -tol:
            return "lt"
        if diff_lo > tol:
            return "gt"
        refinable = isinstance(a, (ExactAlgebraic, ZeroEntropy)) or isinstance(
            b, (ExactAlgebraic, ZeroEntropy)
        )
        if not refinable:
            return "unknown"
        width /= 1024
    return "unknown"


def _same_algebraic(a: ExtendedEntropy, b: ExtendedEntropy) -> bool:
    if not (isinstance(a, ExactAlgebraic) and isinstance(b, ExactAlgebraic)):
        return False
    if a.poly != b.poly:
        return False
    # each interval isolates one root, so they hold the same root exactly when
    # the polynomial has a root in their overlap
    lo, hi = max(a.root_lo, b.root_lo), min(a.root_hi, b.root_hi)
    return lo <= hi and _brackets_root(a.poly, lo, hi)


def entropy_from_log_value(value: Fraction) -> ExtendedEntropy:
    """Entropy equal to log(value) for rational value >= 1, in exact form."""
    v = Fraction(value)
    if v == 1:
        return ZERO_ENTROPY
    return ExactAlgebraic((-v.numerator, v.denominator), v, v)


def max_entropy(values, tol: Fraction = DEFAULT_TOL) -> ExtendedEntropy:
    """Maximum under compare_entropy; 'unknown' comparisons raise."""
    best = None
    for v in values:
        if best is None:
            best = v
            continue
        c = compare_entropy(v, best, tol)
        if c == "unknown":
            raise Inconclusive("entropy maximum inconclusive at tolerance")
        if c == "gt":
            best = v
    if best is None:
        return ZERO_ENTROPY
    return best
