"""Gurevich entropy values: exact algebraic where possible, certified intervals otherwise.

An entropy is log(lambda) for the Perron-like growth rate lambda.  The exact
form stores the minimal polynomial of lambda with an isolating rational
interval; the approximate form stores a certified rational enclosure of the
entropy itself.  Zero and Infinity are explicit so that degenerate components
and unattained suprema never masquerade as numeric values.

The Perron root of a component of period p is enclosed through lambda^p, by
Collatz-Wielandt bounds min/max (A^p v)_i / v_i, which hold for every
positive vector v (Lind & Marcus, Symbolic Dynamics and Coding, 4.2).  Floats
only choose v: a float power iteration of A^p + I finds it, its entries
become integers that keep their 53 significant bits, and the bounds are
computed exactly.  Only when they miss the width target does an exact integer
iteration of A^p + I continue from that vector; it also finishes the job when
the Perron vector spans more than floats can hold (entries that underflow
become 1).  The exact iteration running out of its budget above the target
raises PrecisionExhausted; no wider enclosure is returned.  A^p is block
diagonal with primitive blocks of Perron root lambda^p, so the iteration
converges at the rate of those blocks; iterating A + I instead contracts by
only |lambda e^{2 pi i/p} + 1| / (lambda + 1) per step, which for long periods
is a factor close to 1 (Lind & Marcus 4.5).  Both iterations read the sparse
successor rows of the graph's integer index, so a step costs time linear in
the edges; the dense adjacency matrix is built only for the characteristic
polynomial, at EXACT_VERTEX_CAP vertices or fewer.

identify_algebraic turns an enclosure of the largest real root of an integer
polynomial (a Perron root, by Perron-Frobenius; 1/r for the reversed
first-return polynomial of a loop schema) into an isolating interval: one root
inside, no equal nonzero signs at the ends (isolates_one_root).  It works on
the squarefree part, which has the same roots: the roots inside [lo, hi] are
counted locally, in exact integers, by Descartes' rule of signs after the
Moebius map of (lo, hi) onto (0, inf), halving while the count is not yet 0
or 1 (Collins & Akritas 1976).  The work depends on the roots near [lo, hi],
not on all the real roots of the polynomial.  A rational root is found by its
denominator, which divides the leading coefficient, and becomes a linear
polynomial.  Nothing is factored: the minimal polynomial is needed only where
a `poly` line is written, and ExactAlgebraic.minpoly splits it off on first
read (_minimal_factor).  Most such polynomials are irreducible once x, x - 1
and x + 1 are divided out, and a degree sieve modulo a few small primes
proves it (Musser 1978) with no lifting.  Only where the sieve cannot decide
does sympy factor over Z, splitting modulo p by Berlekamp's method, which is
deterministic; its default, Cantor-Zassenhaus, draws random polynomials, so
its time on one polynomial differs from run to run.  Two isolating intervals
of one polynomial hold the same root exactly when it changes sign across, or
vanishes on, their overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from operator import mul, truediv

import sympy
from sympy.polys.polyconfig import using

from .graphs import is_single_cycle, period_of_component
from .intervals import PrecisionExhausted, RatInterval, log_fraction, log_interval
from .presentations import FiniteGraph

DEFAULT_TOL = Fraction(1, 10**9)
ENCLOSURE_WIDTH = Fraction(1, 10**12)
EXACT_VERTEX_CAP = 60
SIEVE_PRIME_BUDGET = 10  # usable primes the degree sieve tries before sympy factors

# enough odd primes that SIEVE_PRIME_BUDGET of them divide neither the
# leading coefficient nor the discriminant of any polynomial met in practice
_SIEVE_PRIMES = tuple(
    p for p in range(3, 200, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)

_X = sympy.symbols("x")


class ExtendedEntropy:
    """Base class; concrete values are ExactAlgebraic, IntervalApprox, Zero, Infinity."""

    def is_finite(self) -> bool:
        return True

    def log_enclosure(self, max_width: Fraction = ENCLOSURE_WIDTH) -> RatInterval:
        raise NotImplementedError

    def __float__(self) -> float:
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
        r = self.rational_root()
        if r is not None:
            return log_fraction(r, max_width)
        lam = self.lambda_enclosure(max_width / 4)
        return log_interval(lam, max_width)

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


def _sign_at(coeffs, x: Fraction) -> int:
    """Sign (-1, 0 or 1) of the integer polynomial `coeffs` (ascending) at
    the rational x = p/q: the sign of the integer sum c_i p^i q^(d - i),
    which is q^d > 0 times the value.  Horner's rule in integers steps from
    one nonzero coefficient to the next, so a long sparse polynomial, such
    as a loop schema's, costs a few powers, not one product per degree."""
    p, q = x.numerator, x.denominator
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


def _int_coeffs(poly: sympy.Poly) -> tuple[int, ...]:
    """Ascending coefficients of a sympy polynomial with integer coefficients."""
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def _squarefree(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive squarefree part, with positive leading coefficient: the
    same roots, each simple."""
    sqf = _int_coeffs(sympy.Poly(list(reversed(coeffs)), _X, domain="ZZ").sqf_part())
    return sqf if sqf[-1] > 0 else tuple(-c for c in sqf)


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
    minimal factor.  Otherwise sympy factors it over Z (Berlekamp modulo p,
    which is deterministic, then Hensel lifting and recombination).
    """
    f = list(coeffs)
    for r in (0, 1, -1):
        if _sign_at(f, r) == 0:
            if lo <= r <= hi:
                return (-r, 1)
            f = list(accumulate(reversed(f), lambda acc, c: acc * r + c))[-2::-1]
    if len(f) == 2 or (len(f) > 2 and _certify_irreducible(f)):
        return tuple(f)
    poly = sympy.Poly(list(reversed(f)), _X, domain="QQ")
    with using(gf_factor_method="berlekamp"):
        _, factors = poly.factor_list()
    for g, _ in factors:
        cs = _int_coeffs(g)
        if len(cs) > 1 and _roots_in(cs, lo, hi):
            return cs if cs[-1] > 0 else tuple(-c for c in cs)
    raise ArithmeticError("no factor of the polynomial has a root in the interval")


def _certify_irreducible(f: list[int]) -> bool:
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
        mask = _degree_sums_mod(f, p)
        if mask is not None:
            allowed &= mask
            used += 1
    return not allowed & inner


def _degree_sums_mod(f: list[int], p: int) -> int | None:
    """Bitmask of the subset sums of the degrees of the irreducible factors
    of f modulo the odd prime p; None when p divides the leading coefficient
    or f is not squarefree modulo p.

    Distinct-degree factorization on plain integer lists: h = x^(p^d) mod f
    comes from the one before through the Frobenius matrix, whose row j is
    x^(pj) mod f (over F_p, h(x)^p = h(x^p)), and gcd(rest, h - x) is the
    product of the factors of degree d still in rest.
    """
    n = len(f) - 1
    fp = [c % p for c in f]
    if not fp[-1]:
        return None
    if len(_gcd_mod(fp, _trim([i * c % p for i, c in enumerate(fp)][1:]), p)) > 1:
        return None
    inv = pow(fp[-1], -1, p)
    xn = [-c * inv % p for c in fp[:-1]]  # x^n = sum xn[i] x^i mod f
    rows, r = [], [1] + [0] * (n - 1)
    for i in range(p * (n - 1) + 1):
        if i % p == 0:
            rows.append(r)
        top = r[-1]
        r = [0] + r[:-1]
        if top:
            r = [(a + top * b) % p for a, b in zip(r, xn)]
    cols = list(zip(*rows))
    mask, rest, h, d = 1, fp, [0, 1] + [0] * (n - 2), 0
    while 2 * (d + 1) < len(rest):
        d += 1
        h = [sum(map(mul, h, col)) % p for col in cols]
        g = _gcd_mod(rest, _trim([h[0], (h[1] - 1) % p, *h[2:]]), p)
        if len(g) > 1:
            for _ in range((len(g) - 1) // d):
                mask |= mask << d
            rest = _divmod_mod(rest, g, p)[0]
    if len(rest) > 1:
        mask |= mask << (len(rest) - 1)
    return mask


def _trim(a: list[int]) -> list[int]:
    """a without its zero leading coefficients, trimmed in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p (ascending lists, b with a
    nonzero leading coefficient), each step scaled by b's leading inverse."""
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


def _charpoly_coeffs(rows) -> tuple[int, ...]:
    """Characteristic polynomial of the matrix with sparse rows of (j, A[i][j])."""
    mat = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, m in row:
            mat[i][j] = m
    cp = sympy.Matrix(mat).charpoly(_X)
    return tuple(int(c) for c in reversed(cp.all_coeffs()))  # ascending


def _float_seed(rows, period: int, target: float, max_iters: int) -> list[int]:
    """Positive integer vector from a float power iteration of A^p + I.

    Each row becomes its column list with column j repeated A[i][j] times,
    one entry per edge of a graph, so a product is a plain sum per row.  The
    vector is normalised by its maximum after every product with A, so it
    never overflows; entries may underflow to 0.  Every 4 steps the float
    Collatz-Wielandt spread max/min of (A^p x)_i / x_i - 1 is taken, and the
    iteration stops when it reaches `target`, when it stops shrinking (the
    float noise floor, or a stalled transient; an underflowed entry makes it
    infinite), or once `max_iters` products with A are done.  The floats
    become integers that keep all 53 significant bits of every entry, scaled
    by the smallest entry's exponent; an underflowed entry becomes 1.
    """
    cols = [[j for j, m in row for _ in range(m)] for row in rows]

    def apply(vec):
        get = vec.__getitem__
        return [sum(map(get, c)) for c in cols]

    x = [1.0] * len(rows)
    spread = math.inf
    done = 0
    while done < max_iters:
        for _ in range(4):
            w, scale = apply(x), 1.0  # A^p x / scale
            for _ in range(period - 1):
                top = max(w)
                w, scale = apply([t / top for t in w]), scale * top
            prev = x
            y = [a + b / scale for a, b in zip(w, x)]
            top = max(y)
            x = [t / top for t in y]
        done += 4 * period
        last = spread
        spread = math.inf
        if 0.0 not in prev:
            ratios = list(map(truediv, w, prev))
            low = min(ratios)
            if low > 0.0:
                spread = max(ratios) / low - 1.0
        if spread <= target or spread >= last:
            break
    emin = min(math.frexp(t)[1] for t in x if t > 0.0)
    return [int(math.ldexp(m, 53)) << (e - emin) if m else 1 for m, e in map(math.frexp, x)]


def collatz_wielandt_enclosure(rows, max_iters: int = 60000, period: int = 1) -> RatInterval:
    """Certified enclosure of rho(A)^period for an irreducible nonnegative
    integer matrix A via min/max of (A^p v)_i / v_i over a positive vector v.

    A is given by its sparse rows: rows[i] lists (j, A[i][j]) for the nonzero
    entries, as in FiniteGraph.index().succ.  The bounds hold for any
    positive integer v and any p >= 1 (rho(A^p) = rho(A)^p; Lind & Marcus
    4.2), so floats only choose v and a period other than the true one costs
    speed, never correctness.  A float power iteration of A^p + I seeds v
    (_float_seed); the bounds are then computed exactly in integers and
    fractions.  Only if they miss the relative width period * 10^-13, the
    relative target 10^-13 on rho(A), does an exact integer iteration of
    A^p + I continue from v, doubling its batches up to 1024 products.
    `max_iters` counts products with A, for the float seed and again for the
    exact iteration; the exact budget running out above the target raises
    PrecisionExhausted rather than returning wider bounds.  A float seed
    whose entries underflow (a Perron vector spanning more than 2^1074) or
    whose spread stalls leaves the exact iteration to finish.
    """
    n = len(rows)
    target = period * Fraction(1, 10**13)
    v = _float_seed(rows, period, float(target), max_iters)

    def apply(vec):
        return [sum(m * vec[j] for j, m in rows[i]) for i in range(n)]

    def step(vec):
        w = vec
        for _ in range(period - 1):
            w = apply(w)
        return [vec[i] + sum(m * w[j] for j, m in rows[i]) for i in range(n)]

    def bounds(vec):
        w = vec
        for _ in range(period):
            w = apply(w)
        lo = hi = None
        for i in range(n):
            q = Fraction(w[i], vec[i])
            lo = q if lo is None or q < lo else lo
            hi = q if hi is None or q > hi else hi
        return lo, hi

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


def perron_entropy(c: FiniteGraph) -> ExtendedEntropy:
    """Entropy log(Perron root) of a strongly connected multigraph.

    ZERO_ENTROPY for a single cycle, and only for one.  Otherwise exact
    algebraic whenever the characteristic polynomial is within reach (vertex
    count <= EXACT_VERTEX_CAP), else a certified interval of width <=
    ENCLOSURE_WIDTH.  Either way the Perron root is enclosed through
    lambda^p, p the period of the component, by exact Collatz-Wielandt
    bounds on a float-seeded vector (collatz_wielandt_enclosure).  A
    certificate that cannot meet its width within its budget raises
    PrecisionExhausted; no wider interval is returned.
    """
    p = period_of_component(c)  # raises ValueError unless strongly connected
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
    order.  Exact algebraic pairs of one polynomial short-circuit when their
    intervals hold the same root; 'unknown' survives only when the true
    difference straddles the tolerance beyond refinement reach.
    """
    a_inf = not a.is_finite()
    b_inf = not b.is_finite()
    if a_inf or b_inf:
        if a_inf and b_inf:
            return "eq"
        return "gt" if a_inf else "lt"
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
    if isinstance(a, ZeroEntropy) and isinstance(b, ZeroEntropy):
        return True
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
            raise ArithmeticError("entropy maximum inconclusive at tolerance")
        if c == "gt":
            best = v
    if best is None:
        return ZERO_ENTROPY
    return best
