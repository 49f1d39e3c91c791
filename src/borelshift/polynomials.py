"""Integer polynomials in plain integers: signs, root bisection and counting,
gcds, factors and linear recurrences; no computer algebra system.

A polynomial is a tuple or list of int coefficients, ascending.  Every sign
bisection, of a polynomial or of a loop schema's Phi(x) - 1, is _bisect_root.
One root in [lo, hi] is proved by a sign change and a bound on f'' that
keeps f' from vanishing (_one_root_by_slope), in O(d) integer steps; where
that cannot tell, roots are counted by Descartes' rule after a Moebius map
(Collins & Akritas 1976) on the squarefree part f / gcd(f, f'), the gcd
being the heuristic GCDHEU (_poly_gcd).  A minimal polynomial is split off
only where it is read (_minimal_factor): a degree sieve modulo small primes
(Musser 1978), with blocked distinct-degree splits (Kaltofen & Shoup 1998)
on packed residues (_Residues) that stop at the largest degree the sieve
still allows, proves most irreducible, and Zassenhaus's method factors the
rest.  The least recurrence of an integer sequence modulo a prime comes from
Berlekamp-Massey (_berlekamp_massey); entropy._path_count_annihilator runs
it on a matrix's path counts and checks the lift in exact integers.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, combinations, islice, zip_longest
from operator import mul

from .intervals import PrecisionExhausted

SIEVE_PRIME_BUDGET = 10  # usable primes the degree sieve tries before factoring

# enough odd primes that SIEVE_PRIME_BUDGET of them divide neither the
# leading coefficient nor the discriminant of any polynomial met in practice
_SIEVE_PRIMES = tuple(
    p for p in range(3, 200, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)


def _sign_at(coeffs, x, q: int = 1) -> int:
    """Sign (-1, 0 or 1) of the integer polynomial `coeffs` (ascending) at
    the rational x / q = p / q' (x an int or a Fraction, q a positive int,
    so that a bisection on integers builds no Fraction): the sign of
    _homogeneous(coeffs, p, q'), which is q'^d > 0 times the value."""
    v = _homogeneous(coeffs, x.numerator, x.denominator * q)
    return (v > 0) - (v < 0)


def _homogeneous(coeffs, p: int, q: int) -> int:
    """The integer sum c_i p^i q^(d - i), d = len(coeffs) - 1: q^d times the
    value of `coeffs` (ascending) at p / q.  Horner's rule in integers steps
    from one nonzero coefficient to the next, so a long sparse polynomial,
    such as a loop schema's, costs a few powers, not one product per
    degree."""
    acc, qk, prev = 0, 1, len(coeffs) - 1
    for i in range(prev, -1, -1):
        if coeffs[i]:
            gap = prev - i
            qk *= q**gap
            acc = acc * p**gap + coeffs[i] * qk
            prev = i
    return acc and acc * p**prev


def _bisect_root(sign, lo, hi, wide, q: int = 1):
    """[lo / q, hi / q] (lo and hi ints or Fractions, as for _sign_at) halved
    around its one sign change while wide(l, h, d) holds for the interval
    [l / d, h / d] reached; None when a midpoint and its nudge have sign 0.

    sign(p, d) is the sign at p / d, for integers p and d, of a function
    whose sign left of the change is its sign at lo (0 when lo is the root:
    every step then keeps the left half).  Every point is lo + (hi - lo) j /
    2^e, the ends integers l and h over one denominator d: the midpoint is
    (l + h) / 2d, nudged to (64 l + 29 (h - l)) / 64d when its sign is 0.
    A midpoint depends only on its interval's ends, so these are the
    intervals that bisecting in Fractions reaches, and only the two ends
    returned are Fractions.
    """
    d = math.lcm(lo.denominator, hi.denominator)
    lo, hi, d = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d * q
    below = sign(lo, d) if wide(lo, hi, d) else 0
    while wide(lo, hi, d):
        mid, shift = lo + hi, 1
        side = sign(mid, d << 1)
        if side == 0:
            mid, shift = (lo << 6) + 29 * (hi - lo), 6
            side = sign(mid, d << 6)
            if side == 0:
                return None
        d <<= shift
        if side == below:
            lo, hi = mid, hi << shift
        else:
            lo, hi = lo << shift, mid
    return Fraction(lo, d), Fraction(hi, d)


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
    signs = [c > 0 for c in coeffs if c]
    return sum(map(bool.__ne__, signs, signs[1:]))


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

    The slope test (_one_root_by_slope) proves one root, in O(d) integer
    steps, where it holds; an isolating interval of a simple root, once
    narrow enough, passes it.  Otherwise, with lo = A/D and hi - lo = B/D,
    q(y) = D^d p((A + B y)/D) is an integer polynomial whose roots in [0, 1]
    are those of p in [lo, hi]: scale by D, Taylor-shift by A, scale by B.
    The endpoints are tested exactly and the open interval is counted by
    _roots_in_unit.  A repeated root would keep the sign-variation count
    above 1 forever, hence the squarefree input.
    """
    if lo >= hi:
        return int(lo == hi and _sign_at(coeffs, lo) == 0)
    if _one_root_by_slope(coeffs, lo, hi):
        return 1
    d = len(coeffs) - 1
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = int(lo * den), int((hi - lo) * den)
    q = _taylor_shift([c * den ** (d - i) for i, c in enumerate(coeffs)], a)
    q = [c * b**i for i, c in enumerate(q)]
    return (q[0] == 0) + (sum(q) == 0) + _roots_in_unit(q)


def _one_root_by_slope(f, lo: Fraction, hi: Fraction) -> bool:
    """True when the integer polynomial f (ascending) provably has exactly
    one root in [lo, hi], a simple one; False when this test cannot tell.

    f takes strictly opposite signs at lo and hi, and |f'(m)| > r sum i (i -
    1) |f_i| R^(i - 2), m the midpoint, r the radius and R = max(|lo|, |hi|):
    the sum bounds |f''| on [lo, hi], so f' has no zero there.  Both sides
    are scaled by (2D)^(d - 1), D the ends' common denominator, and summed
    in integers (_homogeneous).
    """
    if lo >= hi or _sign_at(f, lo) * _sign_at(f, hi) >= 0:
        return False
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    df = [i * c for i, c in enumerate(f)][1:]
    bound = [i * abs(c) for i, c in enumerate(df)][1:]  # i (i - 1) |f_i|, at i - 2
    slope = abs(_homogeneous(df, a + b, 2 * den))
    return slope > (b - a) * _homogeneous(bound, 2 * max(-a, b), 2 * den)


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
    The slope test on coeffs itself proves both at once (_one_root_by_slope);
    where it cannot tell, roots are counted on the squarefree part, which has
    the same roots."""
    return _one_root_by_slope(coeffs, lo, hi) or (
        _roots_in(_squarefree(coeffs), lo, hi) == 1 and _brackets_root(coeffs, lo, hi)
    )


def _rational_root(coeffs: tuple[int, ...], lo: Fraction, hi: Fraction) -> Fraction | None:
    """The one root of the squarefree `coeffs` in [lo, hi], if it is rational.

    A rational root p/q in lowest terms has q dividing the leading
    coefficient l (Gauss's lemma), so it is m/l for an integer m.  A copy of
    the interval is bisected until it is shorter than 1/l; then it holds at
    most one such m/l, and one exact sign test decides.
    """
    lead = coeffs[-1]
    lo, hi = _bisect_root(partial(_sign_at, coeffs), lo, hi, lambda a, b, d: (b - a) * lead >= d)
    m = math.ceil(lo * lead)
    if m <= hi * lead and _sign_at(coeffs, m, lead) == 0:
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
    if len(f) == 2 or (len(f) > 2 and _certify_irreducible(f)):
        return tuple(f)
    return _zassenhaus(f, lo, hi)


def _certify_irreducible(f: list[int]) -> bool:
    """True when the degree sieve proves the squarefree integer polynomial f
    (ascending, degree n >= 2) irreducible over Q; False when it cannot.

    A bitmask holds the degrees e <= n/2 that a factor of f may still have;
    the cofactor takes n - e, so no factor of degree strictly between 0 and
    n is left once only e = 0 is.  Each usable prime p (p does not divide
    the leading coefficient and f is squarefree modulo p) ANDs in the subset
    sums of the degrees of f's irreducible factors modulo p, and the sieve
    gives up after SIEVE_PRIME_BUDGET usable primes.  With cap the largest
    degree left, a sum e <= cap is a sum of the factors of degree e or less,
    so the distinct-degree split stops after degree cap: once the mask is
    down to a pair such as {6, 42}, a prime costs a few Frobenius steps, not
    a full split.  When f(x) = g(x^k) with g certified irreducible, every
    factor of f has a degree that is a multiple of deg g (a root a of f has
    a^k a root of g, and Q(a^k) lies in Q(a)), so the mask starts from those
    multiples.
    """
    n = len(f) - 1
    k = math.gcd(*(i for i, c in enumerate(f) if c))
    allowed = (2 << n // 2) - 1  # degrees 0 .. n/2
    if k > 1 and _certify_irreducible(f[::k]):
        allowed = sum(1 << i for i in range(0, n // 2 + 1, n // k))
    used = 0
    for p in _SIEVE_PRIMES:
        cap = allowed.bit_length() - 1
        if cap == 0 or used == SIEVE_PRIME_BUDGET:
            break
        parts = _distinct_degree_mod(f, p, cap)
        if parts is not None:
            allowed &= _degree_sums(parts)
            used += 1
    return allowed == 1


def _degree_sums(parts: list[tuple[int, list[int]]]) -> int:
    """Bitmask of the subset sums of the degrees of the irreducible factors
    modulo p, from their distinct-degree split (_distinct_degree_mod)."""
    mask = 1
    for d, g in parts:
        for _ in range((len(g) - 1) // d):
            mask |= mask << d
    return mask


def _distinct_degree_mod(
    f: list[int], p: int, cap: float = math.inf
) -> list[tuple[int, list[int]]] | None:
    """Pairs (d, g): g is the monic product of the irreducible factors of
    degree d of f modulo the odd prime p, one pair for each d that occurs;
    None when p divides the leading coefficient or f is not squarefree
    modulo p.  With `cap`, the split may stop once every degree up to cap
    is done: the pairs with d <= cap are all there, and what is left, all
    of degree above cap, may be missing.

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
    rest)) degrees long and stops at half of deg rest, or at cap; what is
    left of rest after the half is irreducible.  Residues modulo f are
    packed integers (_Residues): a Frobenius apply h <- sum h_j row_j is one
    packed sum and one unpack, and a product modulo f one integer product
    and one packed reduction.  The split is unique, so any order of work
    gives the same pairs.
    """
    fp = [c % p for c in f]
    if not fp[-1]:
        return None
    if len(_gcd_mod(fp, _trim([i * c % p for i, c in enumerate(fp)][1:]), p)) > 1:
        return None
    parts, rest, d = [], fp, 0
    if len(fp) > 2:  # degree 2 or more: the loop below runs
        ring, h = _Residues(fp, p), [0, 1] + [0] * (len(fp) - 3)
    while 2 * (d + 1) < len(rest) and d < cap:
        # degrees d + 1 .. last: about sqrt(deg rest) of them, at most deg rest / 2 and cap
        last = min(d + math.isqrt(len(rest) - 2) + 1, (len(rest) - 1) // 2, cap)
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
    if 1 < len(rest) <= 2 * (d + 1):  # not cut at cap: rest is irreducible
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


def _zassenhaus(f: list[int], lo: Fraction, hi: Fraction) -> tuple[int, ...]:
    """The irreducible factor of f with the root in [lo, hi], by Zassenhaus's
    method, for a primitive squarefree f (ascending) with positive leading
    coefficient l and f(0) != 0; it comes back primitive with positive
    leading coefficient.

    The distinct-degree splits of f modulo the first SIEVE_PRIME_BUDGET
    usable primes, those the degree sieve used, are done whole, and the
    prime with the fewest irreducible factors is taken, the smaller on a
    tie.  f is split modulo p (_equal_degree_mod), the monic factors are
    lifted to f = l g_1 ... g_r modulo p^k (_hensel_lift), and p^k is more
    than twice l 2^n |f|_2, a bound on l / lc(g) times any factor g of f
    over Z (Mignotte).  Recombination tries the products l g_S of subsets S
    of the lifted factors, smallest first: one whose balanced residues form
    a polynomial dividing f is a factor over Z, and no smaller subset gives
    one, so it is irreducible.  The first with the root is the answer; a
    factor without it is divided out, and what is left when no subset of at
    most half the factors divides it is irreducible.  A candidate is first
    checked on its constant term, which must divide l f(0).  With no usable
    prime below 200, PrecisionExhausted is raised and nothing is factored.
    """
    splits = ((p, _distinct_degree_mod(f, p)) for p in _SIEVE_PRIMES)
    usable = list(islice(((p, s) for p, s in splits if s is not None), SIEVE_PRIME_BUDGET))
    if not usable:
        raise PrecisionExhausted("no usable prime below 200 for the minimal polynomial")
    # the fewest irreducible factors, the smaller prime on a tie
    p, parts = min(usable, key=lambda u: (sum((len(g) - 1) // d for d, g in u[1]), u[0]))
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
    g = reduce(lambda g, a: _mul_mod(g, a, p), factors[:half], [f[-1] % p])
    h = reduce(lambda h, a: _mul_mod(h, a, p), factors[half:], [1])
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
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _trim([c % m for c in out])


def _add_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """a + b modulo m."""
    return _trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _sub_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """a - b modulo m."""
    return _add_mod(a, [-y for y in b], m)


def _berlekamp_massey(seq: list[int], p: int) -> list[int]:
    """The least monic recurrence q (ascending: sum_k q_k s_(i+k) = 0 for
    every window) of the integer sequence s reduced modulo the prime p, by
    Berlekamp-Massey (J. Massey, IEEE Trans. Inf. Theory 15, 1969), with its
    coefficients lifted to the symmetric residues, in (-p/2, p/2)."""
    s = [x % p for x in seq]
    c, b = [1], [1]  # connection polynomials, constant term 1
    ell, gap, scale = 0, 1, 1  # scale: the inverse of b's discrepancy
    for i in range(len(s)):
        end = i - len(c)
        d = sum(map(mul, c, s[i:end:-1] if end >= 0 else s[i::-1])) % p  # the discrepancy
        if not d:
            gap += 1
            continue
        coef = d * scale % p
        prev = c
        c = c + [0] * (gap + len(b) - len(c))
        c[gap : gap + len(b)] = [(x - coef * y) % p for x, y in zip(c[gap:], b)]
        if 2 * ell <= i:
            ell, b, scale, gap = i + 1 - ell, prev, pow(d, -1, p), 1
        else:
            gap += 1
    c = c[: ell + 1] + [0] * (ell + 1 - len(c))
    return [x - p if x > p >> 1 else x for x in reversed(c)]
