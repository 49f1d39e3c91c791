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
linear in the edges.  At EXACT_VERTEX_CAP vertices or fewer, 2n - 1 exact
steps give the path counts 1^T A^i 1, whose least annihilator, found modulo
a Mersenne prime and checked in integers, has the Perron root as a root
(_path_count_annihilator).

identify_algebraic turns an enclosure of the largest real root of an integer
polynomial (a Perron root, by Perron-Frobenius; 1/r for the reversed
first-return polynomial of a loop schema) into an isolating interval: one root
inside, no equal nonzero signs at the ends (isolates_one_root).  It counts
roots on the squarefree part, a rational root becomes a linear polynomial,
and nothing is factored until ExactAlgebraic.minpoly is read; the arithmetic
is in polynomials.py.  Two isolating intervals of one polynomial hold the
same root exactly when it changes sign across, or vanishes on, their overlap.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from fractions import Fraction
from itertools import chain, groupby, repeat
from operator import add, itemgetter, mul, truediv

from .graphs import is_single_cycle, period_of_component
from .intervals import PrecisionExhausted, RatInterval, log_fraction, log_interval, to_float
from .polynomials import (
    _berlekamp_massey, _bisect_root, _brackets_root, _minimal_factor, _rational_root, _roots_in,
    _sign_at, _squarefree,
)
from .presentations import FiniteGraph, Inconclusive, Record, Singleton

DEFAULT_TOL = Fraction(1, 10**9)
ENCLOSURE_WIDTH = Fraction(1, 10**12)
EXACT_VERTEX_CAP = 60


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
        return to_float(self.log_enclosure().mid)


class ZeroEntropy(ExtendedEntropy, Singleton):
    def log_enclosure(self, max_width: Fraction = ENCLOSURE_WIDTH) -> RatInterval:
        return RatInterval.point(0)

    def __repr__(self):
        return "Entropy(0)"


class InfiniteEntropy(ExtendedEntropy, Singleton):
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


class ExactAlgebraic(ExtendedEntropy, Record):
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
    set, as by the parser, it is poly itself.  Only printing a document
    reads it; the repr shows poly.
    """

    _fields = ("poly", "root_lo", "root_hi")  # `minimal` is neither compared nor hashed

    def __init__(
        self, poly: tuple[int, ...], root_lo: Fraction, root_hi: Fraction, minimal: bool = True
    ):
        if len(poly) < 2 or poly[-1] <= 0:
            raise ValueError("minpoly must be nonconstant with positive leading coefficient")
        if root_lo > root_hi or root_hi <= 0:
            raise ValueError("isolating interval must be nonempty and positive")
        super().__init__(poly, root_lo, root_hi)
        object.__setattr__(self, "minimal", minimal)
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
        wn, wd = max_width.numerator, max_width.denominator
        sign = partial(_sign_at, self.poly)
        lo, hi = self.root_lo, self.root_hi
        return RatInterval(*_bisect_root(sign, lo, hi, lambda a, b, d: (b - a) * wd > wn * d))

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
        # poly, not minpoly: an error message must not factor a polynomial
        return f"Entropy(log root of {self.poly} in [{self.root_lo},{self.root_hi}])"


class IntervalApprox(ExtendedEntropy, Record):
    """Certified enclosure [lo, hi] of the entropy value itself."""

    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("empty entropy interval")
        super().__init__(lo, hi)

    def log_enclosure(self, max_width: Fraction = ENCLOSURE_WIDTH) -> RatInterval:
        return RatInterval(self.lo, self.hi)

    def __repr__(self):
        return f"Entropy[{to_float(self.lo):.12g}, {to_float(self.hi):.12g}]"


def identify_algebraic(coeffs: tuple[int, ...], enclosure: RatInterval) -> ExactAlgebraic:
    """Isolating interval of the largest real root of `coeffs`, which
    `enclosure` must contain: the Perron root of a path-count annihilator
    (_path_count_annihilator), or 1/r for the reversed first-return polynomial
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



def _gather_plan(rows, weighted: bool = False) -> tuple[list[int], list]:
    """Rows of A grouped by length, for whole-vector products (_product).

    Each row becomes its column list, column j repeated A[i][j] times, one
    entry per edge; with `weighted`, column j once, its gather scaled by the
    weight A[i][j].  Rows are renumbered so that each length group is
    contiguous; `order[k]` is the row at plan position k.  A group is (size,
    gathers): gather t picks, as a tuple, the t-th column of each of its
    rows, times its weights if any is not 1.
    """
    if weighted:
        cols = [[j for j, _ in row] for row in rows]
    else:
        cols = [[j for j, m in row for _ in range(m)] for row in rows]
    order = sorted(range(len(rows)), key=lambda i: len(cols[i]))
    pos = {i: k for k, i in enumerate(order)}
    groups = []
    for _, members in groupby(order, key=lambda i: len(cols[i])):
        members = list(members)
        at = [[pos[j] for j in cols[i]] for i in members]
        # itemgetter of one index returns the item, not a 1-tuple
        gathers = [itemgetter(*t) if len(t) > 1 else (lambda v, i=t[0]: (v[i],)) for t in zip(*at)]
        if weighted:
            for t, w in enumerate(zip(*([m for _, m in rows[i]] for i in members))):
                if w.count(1) < len(w):
                    gathers[t] = lambda v, g=gathers[t], w=w: map(mul, w, g(v))
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


# exponents e of the Mersenne primes 2^e - 1 that _path_count_annihilator tries
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937,
)


def _path_count_annihilator(rows) -> tuple[int, ...]:
    """The least monic integer polynomial q (ascending) that annihilates the
    path counts s_i = 1^T A^i 1 of the nonnegative integer matrix A with
    these sparse rows: sum_k q_k s_(i+k) = 0 for every i.

    q divides the minimal polynomial of A, so its roots are eigenvalues.  For
    an irreducible A the Perron root lambda is a simple root of q, as both
    Perron vectors are positive, and so the largest real one, as
    identify_algebraic needs.  This is Wiedemann's method (IEEE Trans. Inf.
    Theory 32, 1986) on the vector 1: O(nE + n^2) steps, not the O(n^2 E) of
    a characteristic polynomial.

    s_0 .. s_(2n-1) come from exact whole-vector products that weigh each
    column by its multiplicity (_gather_plan).  Berlekamp-Massey modulo a
    Mersenne prime gives a candidate of degree L (_berlekamp_massey), at most
    the degree of q, whose reduction annihilates the reduced counts.  It is
    returned only if sum_k q_k s_(i+k) = 0 holds exactly for i < n; then it
    holds for every i, as 1^T A^i q(A) 1 satisfies the characteristic
    recurrence of order n, so the candidate is q.  The moduli are 2^61 - 1,
    then the Mersenne primes above 2B, B = 2^n sqrt(n + 1) (1 + R)^n the
    Mignotte bound on the coefficients of a factor of det(xI - A), whose own
    are at most (1 + R)^n, R the largest row sum; PrecisionExhausted when
    none passes.
    """
    n = len(rows)
    groups = _gather_plan(rows, weighted=True)[1]
    v = [1] * n
    counts = [n]
    for _ in range(2 * n - 1):
        v = _product(groups, v)
        counts.append(sum(v))
    r = max(sum(m for _, m in row) for row in rows)
    bound = 4 ** (n + 1) * (n + 1) * (1 + r) ** (2 * n)  # (2B)^2
    first, *rest = _MERSENNE_EXPONENTS
    for e in chain((first,), (e for e in rest if (2**e - 1) ** 2 > bound)):
        q = _berlekamp_massey(counts, 2**e - 1)
        ell = len(q) - 1
        if 0 < ell <= n and not any(sum(map(mul, q, counts[i : i + ell + 1])) for i in range(n)):
            return tuple(q)
    raise PrecisionExhausted("no path-count recurrence passed its exact check")


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
    algebraic at EXACT_VERTEX_CAP vertices or fewer, a root of the least
    annihilator of the path counts (_path_count_annihilator), else a
    certified interval of width <= ENCLOSURE_WIDTH.  Either way the Perron
    root is enclosed through lambda^p, p the period of the component, by
    exact Collatz-Wielandt bounds on a float-seeded vector
    (collatz_wielandt_enclosure).  A certificate that cannot meet its width
    within its budget raises PrecisionExhausted; no wider interval is
    returned.

    `_period` is for callers in this package that have already computed
    period_of_component(c), strong-connectivity check included.
    """
    p = period_of_component(c) if _period is None else _period
    if is_single_cycle(c):
        return ZERO_ENTROPY
    rows = c.index().succ
    lam_p = collatz_wielandt_enclosure(rows, period=p)
    if len(rows) <= EXACT_VERTEX_CAP:
        coeffs = _path_count_annihilator(rows)
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
    if not (isinstance(a, ExactAlgebraic) and isinstance(b, ExactAlgebraic) and a.poly == b.poly):
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
