"""Independent oracles and generators shared by the test modules.

Everything here is deliberately naive: exhaustive enumeration, dense matrix
powers, float bisection.  The point is to check the library against code
that shares none of its machinery.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from math import gcd

import sympy

Edge = tuple[str, str]


def factor_first_isolation(coeffs, lo: Fraction, hi: Fraction):
    """(minimal polynomial, lo, hi) of the largest root of the integer
    polynomial `coeffs` (ascending) in [lo, hi], factoring first.

    sympy's factor_list splits the polynomial; each irreducible factor's
    roots in a closed interval are counted by Sturm sequences (count_roots);
    the interval is halved while more than one root of the factors lies in
    it, keeping the upper half whenever a factor has a root there.  The
    factor comes back primitive with a positive leading coefficient.  Raises
    ArithmeticError when no root lies in [lo, hi].
    """
    x = sympy.Symbol("x")
    _, pairs = sympy.Poly(list(reversed(coeffs)), x).factor_list()
    factors = [f for f, _ in pairs if f.degree() >= 1]

    def count(f, a, b):
        return f.count_roots(
            sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
        )

    while True:
        hits = [(f, n) for f in factors if (n := count(f, lo, hi))]
        if not hits:
            raise ArithmeticError("no root in the interval")
        if len(hits) == 1 and hits[0][1] == 1:
            break
        factors = [f for f, _ in hits]
        mid = (lo + hi) / 2
        if any(count(f, mid, hi) for f in factors):
            lo = mid
        else:
            hi = mid
    cs = tuple(int(c) for c in reversed(hits[0][0].all_coeffs()))
    return (cs if cs[-1] > 0 else tuple(-c for c in cs)), lo, hi


def bisection_reference(coeffs, lo: Fraction, hi: Fraction, max_width: Fraction, nudges=None):
    """[lo, hi] halved in Fractions around the one root of the integer
    polynomial `coeffs` (ascending) in it until no wider than max_width.

    A midpoint where the polynomial is 0 moves to lo + (hi - lo) 29/64 (and
    is recorded in `nudges`, when given).  The right half is kept when the
    sign at the midpoint is the sign at the first lo, else the left half;
    when lo is the root, that sign is 0 and the left half is always kept."""

    def sign(x: Fraction) -> int:
        value = sum(Fraction(c) * x**i for i, c in enumerate(coeffs))
        return (value > 0) - (value < 0)

    below = sign(lo)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        side = sign(mid)
        if side == 0:
            if nudges is not None:
                nudges.append(mid)
            mid = lo + (hi - lo) * Fraction(29, 64)
            side = sign(mid)
            assert side != 0
        if side == below:
            lo = mid
        else:
            hi = mid
    return lo, hi


def count_roots(coeffs, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the squarefree integer polynomial `coeffs`
    (ascending) in the closed interval [lo, hi], lo <= hi.

    sympy isolates every real root once (Poly.intervals, with no bounds:
    with bounds it can refine for minutes near close roots): a point (r, r),
    or an open interval (s, t) holding one root r, whose ends may be other
    roots.  f has one sign sigma on (s, r), that of f(s), or of f'(s) when s
    is a root, so a bound b in (s, t) is r when f(b) = 0 and lies below r
    exactly when f(b) has the sign sigma.  Up to degree 12 the count must
    equal sympy's count_roots, by a Sturm sequence, which is too slow to
    use at degree 64.
    """
    poly, isolating = real_root_intervals(tuple(coeffs))

    def sign(p, v: Fraction) -> int:
        return int(sympy.sign(p.eval(sympy.Rational(v.numerator, v.denominator))))

    count = 0
    for s, t in isolating:
        if s == t or t <= lo or s >= hi or lo <= s < t <= hi:
            count += lo <= s and t <= hi
            continue
        sigma = sign(poly, s) or sign(poly.diff(), s)
        above_lo = lo <= s or (lo < t and sign(poly, lo) != -sigma)
        below_hi = hi >= t or (hi > s and sign(poly, hi) != sigma)
        count += above_lo and below_hi
    rational = [sympy.Rational(v.numerator, v.denominator) for v in (lo, hi)]
    assert poly.degree() > 12 or poly.count_roots(*rational) == count, (coeffs, lo, hi)
    return count


@functools.lru_cache(maxsize=64)
def real_root_intervals(coeffs: tuple[int, ...]):
    """sympy's Poly of coeffs (ascending) and the isolating intervals of its
    real roots, ascending, as Fraction pairs."""
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), domain="QQ")
    return poly, [(Fraction(int(s.p), int(s.q)), Fraction(int(t.p), int(t.q)))
                  for (s, t), _ in poly.intervals()]


def u_eta_decision(a, b) -> tuple[bool, int | None]:
    """(isomorphic, first differing period) of two generator lists, from
    u and eta evaluated at every m from 1 to the lcm of all their periods.

    A generator is (period, lam, count): its entropy is log(lam) for a
    rational lam > 1, so entropies compare as their lams do, and count is
    an int or None for `unattained`.  u(m) is the largest lam of a
    generator whose period divides m (1, entropy 0, when none does), and
    eta(m) sums the counts of the generators of period exactly m whose lam
    is u(m), an unattained one counting 0.
    """
    top = functools.reduce(math.lcm, [p for p, _, _ in a + b], 1)

    def functions(gens):
        u = [Fraction(1)] * (top + 1)
        eta = [0] * (top + 1)
        for p, lam, _ in gens:
            for m in range(p, top + 1, p):
                u[m] = max(u[m], lam)
        for p, lam, count in gens:
            if lam == u[p]:
                eta[p] += count or 0
        return u, eta

    (ua, ea), (ub, eb) = functions(a), functions(b)
    for m in range(1, top + 1):
        if ua[m] != ub[m] or ea[m] != eb[m]:
            return False, m
    return True, None


def simple_cycle_lengths(vertices: list[str], edges: list[Edge]) -> list[int]:
    """Lengths of all vertex-simple cycles, by exhaustive DFS."""
    succ = {v: sorted({w for u, w in edges if u == v}) for v in vertices}
    lengths = []
    order = {v: i for i, v in enumerate(sorted(vertices))}

    def walk(start, current, seen):
        for nxt in succ[current]:
            if nxt == start:
                lengths.append(len(seen))
            # only enumerate cycles whose smallest vertex is the start
            elif nxt not in seen and order[nxt] > order[start]:
                walk(start, nxt, seen | {nxt})

    for v in sorted(vertices):
        walk(v, v, {v})
    return sorted(lengths)


def period_by_cycles(vertices: list[str], edges: list[Edge]) -> int:
    lens = simple_cycle_lengths(vertices, edges)
    out = 0
    for n in lens:
        out = gcd(out, n)
    return out


def dense_loop_counts(
    vertices: list[str], edges: list[Edge], base: str, l_max: int
) -> list[int]:
    """Loops at base via integer matrix powers; index n holds the count."""
    order = sorted(vertices)
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    a = [[0] * n for _ in range(n)]
    for u, v in edges:
        a[idx[u]][idx[v]] += 1
    out = [0] * (l_max + 1)
    power = [row[:] for row in a]
    for step in range(1, l_max + 1):
        if step > 1:
            power = [
                [sum(row[k] * a[k][j] for k in range(n)) for j in range(n)]
                for row in power
            ]
        out[step] = power[idx[base]][idx[base]]
    return out


def first_returns_from_loops(loops: list[int]) -> list[int]:
    """Invert the renewal identity l_n = sum f_m l_{n-m} with l_0 = 1."""
    l_max = len(loops) - 1
    f = [0] * (l_max + 1)
    for n in range(1, l_max + 1):
        f[n] = loops[n] - sum(f[m] * loops[n - m] for m in range(1, n))
    return f


def loop_series_bounds(counts, tail, x: Fraction, terms: int = 300):
    """(lo, hi) around sum c_n x^n, term by term.

    `counts` lists explicit (n, c_n); `tail` is None, ("geometric", a, k, n0,
    s) with c_n = a k^n, or ("damped", a, k, d, n0, s) with c_n = floor(a k^n
    / n^d), on n = n0, n0 + s, ...  lo adds the explicit terms and the first
    `terms` tail terms one at a time.  hi adds to it a bound on the rest: with
    N the first omitted length, c_n <= a k^n / N^d for n >= N, whose series
    is geometric (sum z^j = 1/(1 - z) for z < 1).  A geometric tail has
    d = 0, so its hi is the exact sum.  Needs k x < 1.
    """
    lo = sum(c * x**n for n, c in counts)
    if tail is None:
        return lo, lo
    if tail[0] == "geometric":
        _, a, k, n0, s = tail
        d = 0
    else:
        _, a, k, d, n0, s = tail
    n = n0
    for _ in range(terms):
        lo += math.floor(a * Fraction(k) ** n / n**d) * x**n
        n += s
    z = (k * x) ** s
    return lo, lo + a * (k * x) ** n / Fraction(n) ** d / (1 - z)


def damped_enclosure_reference(a, k, d: int, n0: int, s: int, x: Fraction, max_width):
    """(lo, hi) around sum floor(a k^n / n^d) x^n on n = n0, n0 + s, ...,
    or math.inf where the series diverges, term by term in Fractions.

    The schedule is the one a damped-tail enclosure follows: 64 terms, then
    doubling until hi - lo <= max_width or the term count reaches 4096
    (at k x = 1) or 16384 (below).  With m the first omitted support point
    and z = k x: hi adds a z^m / m^d / (1 - z^s) below the radius, and the
    integral bound a (m^-d + m^(1-d) / (s (d - 1))) on it at z = 1; lo adds
    a z^m / m^d less the floors' loss x^m / (1 - x^s), when positive.
    """
    a, k = Fraction(a), Fraction(k)
    z = k * x
    if z > 1 or (z == 1 and d <= 1):
        return math.inf
    cap = 4096 if z == 1 else 16384
    total = Fraction(0)
    n = n0
    xp, kp = x**n, k**n
    terms = 64
    done = 0
    while True:
        while done < terms:
            total += math.floor(a * kp / n**d) * xp
            n += s
            xp, kp = xp * x**s, kp * k**s
            done += 1
        if z < 1:
            rest = a * z**n / (1 - z**s) / Fraction(n) ** d
        else:
            rest = a * (Fraction(n) ** -d + Fraction(n) ** (1 - d) / (s * (d - 1)))
        head = a * z**n / Fraction(n) ** d - xp / (1 - x**s)
        lo, hi = total + max(Fraction(0), head), total + rest
        if hi - lo <= max_width or terms >= cap:
            return lo, hi
        terms *= 2


def _directed(digits: int, rounding: str) -> decimal.Context:
    return decimal.Context(prec=digits, rounding=rounding, Emin=decimal.MIN_EMIN,
                           Emax=decimal.MAX_EMAX, traps=[decimal.InvalidOperation])


def _decimal_power(ctx: decimal.Context, b: decimal.Decimal, n: int) -> decimal.Decimal:
    """b^n for b >= 0 by repeated squaring, each product rounded by ctx."""
    out = decimal.Decimal(1)
    while n:
        if n & 1:
            out = ctx.multiply(out, b)
        n >>= 1
        if n:
            b = ctx.multiply(b, b)
    return out


def damped_tail_bounds(a, k, d: int, n0: int, s: int, x: Fraction,
                       terms: int = 1 << 14, digits: int = 50):
    """(lo, hi) around sum floor(a k^n / n^d) x^n on n = n0, n0 + s, ...,
    or math.inf where the series diverges, in decimal arithmetic: lo from
    operations rounded toward -inf, hi from operations rounded toward +inf,
    each on nonnegative operands.

    With z = k x, a term lies in [a z^n / n^d - x^n, a z^n / n^d] and is
    nonnegative; while x^n >= 10^-digits both take the exact count instead.
    hi adds, after `terms` terms, the rest from the first omitted support
    point m: a z^m / m^d / (1 - z^s) below the radius, a (m^-d + m^(1-d) /
    (s (d - 1))) at it.  lo drops the rest.
    """
    a, k, x = Fraction(a), Fraction(k), Fraction(x)
    z = k * x
    if z > 1 or (z == 1 and d <= 1):
        return math.inf
    down, up = _directed(digits, decimal.ROUND_FLOOR), _directed(digits, decimal.ROUND_CEILING)
    D = decimal.Decimal

    def bounds(q: Fraction):
        return (down.divide(D(q.numerator), D(q.denominator)),
                up.divide(D(q.numerator), D(q.denominator)))

    (a_lo, a_hi), (z_lo, z_hi), (x_lo, x_hi) = bounds(a), bounds(z), bounds(x)
    zs_lo, zs_hi = _decimal_power(down, z_lo, s), _decimal_power(up, z_hi, s)
    xs_lo, xs_hi = _decimal_power(down, x_lo, s), _decimal_power(up, x_hi, s)
    zp_lo, zp_hi = _decimal_power(down, z_lo, n0), _decimal_power(up, z_hi, n0)
    xp_lo, xp_hi = _decimal_power(down, x_lo, n0), _decimal_power(up, x_hi, n0)
    exact = D(10) ** -digits
    lo = hi = D(0)
    n = n0
    for _ in range(terms):
        nd = D(n**d)
        if xp_hi >= exact:
            count = D(a.numerator * k.numerator**n // (a.denominator * k.denominator**n * n**d))
            lo = down.add(lo, down.multiply(count, xp_lo))
            hi = up.add(hi, up.multiply(count, xp_hi))
        else:
            term = down.subtract(down.divide(down.multiply(a_lo, zp_lo), nd), xp_hi)
            lo = down.add(lo, max(term, D(0)))
            hi = up.add(hi, up.divide(up.multiply(a_hi, zp_hi), nd))
        zp_lo, zp_hi = down.multiply(zp_lo, zs_lo), up.multiply(zp_hi, zs_hi)
        xp_lo, xp_hi = down.multiply(xp_lo, xs_lo), up.multiply(xp_hi, xs_hi)
        n += s
    md = D(n**d)
    if z == 1:
        rest = up.multiply(a_hi, up.add(up.divide(1, md), up.divide(D(n), up.multiply(md, D(s * (d - 1))))))
    else:
        gap = down.subtract(1, zs_hi)
        if gap <= 0:
            return Fraction(lo), math.inf
        rest = up.divide(up.divide(up.multiply(a_hi, zp_hi), md), gap)
    return Fraction(lo), Fraction(up.add(hi, rest))


def phi_bounds(counts, tail, x: Fraction):
    """(lo, hi) around Phi(x) = sum c_n x^n, with counts and tail as in
    loop_series_bounds: the explicit part summed in Fractions, a geometric
    tail by its closed form a z^n0 / (1 - z^s), z = k x (math.inf from the
    radius on), and a damped tail by damped_tail_bounds."""
    explicit = sum((c * x**n for n, c in counts), Fraction(0))
    if tail is None:
        return explicit, explicit
    if tail[0] == "geometric":
        _, a, k, n0, s = tail
        z = Fraction(k) * x
        value = math.inf if z >= 1 else a * z**n0 / (1 - z**s)
        return explicit + value, explicit + value
    bounds = damped_tail_bounds(*tail[1:], x)
    if bounds == math.inf:
        return math.inf, math.inf
    return explicit + bounds[0], explicit + bounds[1]


def root_brackets_one(counts, tail, lo: Fraction, hi: Fraction) -> bool:
    """Phi(lo) < 1 < Phi(hi), shown by phi_bounds: the root of Phi(x) = 1
    lies in (lo, hi), as Phi increases."""
    return phi_bounds(counts, tail, lo)[1] < 1 < phi_bounds(counts, tail, hi)[0]


def float_seed_reference(rows, period: int, max_iters: int) -> list[int]:
    """The float seed of a Collatz-Wielandt enclosure of rho(A)^period,
    computed one row at a time: a copy of the library's iteration, unshifted
    while each check of 4 applications of A^p at least halves the spread,
    then of A^p + I after two slow checks in a row (from the start when a
    row is empty), normalised once per check unless 4p log2(R + 1) >= 900.

    Each float product is one sum per row over its column list (column j
    repeated A[i][j] times).  The sums run left to right from the integer
    0, as sum() does on Python 3.11; from 3.12 on sum() of floats is
    compensated, so the sum is spelled out as reduce(add).
    """
    target = float(period * Fraction(1, 10**13))
    cols = [[j for j, m in row for _ in range(m)] for row in rows]
    each = 4 * period * math.log2(max(map(len, cols), default=0) + 1) >= 900

    def apply(vec):
        get = vec.__getitem__
        return [functools.reduce(operator.add, map(get, c), 0) for c in cols]

    x = [1.0] * len(rows)
    shifted = not all(cols)
    slow = 0
    spread = math.inf
    done = 0
    while done < max_iters:
        for k in range(4):
            w, scale = apply(x), 1.0
            for _ in range(period - 1):
                if each:
                    top = max(w)
                    w, scale = [t / top for t in w], scale * top
                w = apply(w)
            prev = x
            y = [a + b / scale for a, b in zip(w, x)] if shifted else w
            if each or k == 3:
                top = max(y)
                y = [t / top for t in y]
            x = y
        done += 4 * period
        last = spread
        spread = math.inf
        if 0.0 not in prev:
            ratios = [a / b for a, b in zip(w, prev)]
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
            if slow == 2:
                shifted, spread = True, math.inf
    emin = min(math.frexp(t)[1] for t in x if t > 0.0)
    return [int(math.ldexp(m, 53)) << (e - emin) if m else 1 for m, e in map(math.frexp, x)]


def collatz_wielandt_reference(rows, max_iters: int = 60000, period: int = 1):
    """(lo, hi): the Collatz-Wielandt bounds on rho(A)^period from the
    float seed of float_seed_reference, with the exact iteration of A^p + I
    one generator sum per row and the bounds the min and max over one
    Fraction per row, as the library computed them row at a time.  Raises
    ArithmeticError with the library's message when the exact budget runs
    out.
    """
    n = len(rows)
    target = period * Fraction(1, 10**13)

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
        ratios = [Fraction(w[i], vec[i]) for i in range(n)]
        return min(ratios), max(ratios)

    v = float_seed_reference(rows, period, max_iters)
    batch = 4
    done = 0
    lo, hi = bounds(v)
    while hi - lo > target * lo:
        if done >= max_iters:
            raise ArithmeticError(
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
    return lo, hi


def is_even_shift_word(word: str) -> bool:
    """Maximal 0-blocks lying between two 1s must have even length."""
    first = word.find("1")
    if first < 0:
        return True
    last = word.rfind("1")
    for block in word[first:last].split("1"):
        if len(block) % 2 == 1:
            return False
    return True


def two_length_growth_rate(l1: int, l2: int) -> float:
    """log of the root of x^-l1 + x^-l2 = 1, by float bisection."""
    lo, hi = 1.0, 2.0
    while lo ** -l1 + lo ** -l2 <= 1.0:
        lo *= 0.99
    while hi ** -l1 + hi ** -l2 >= 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** -l1 + mid ** -l2 > 1.0:
            lo = mid
        else:
            hi = mid
    return math.log((lo + hi) / 2)


def count_label_words(edges: list[Edge], labels: dict[Edge, str], length: int) -> set:
    """All edge-label words of paths with `length` edges (multigraph unaware:
    call with distinct edge keys when labels differ on parallel edges)."""
    words = {("", v) for v in {u for u, _ in edges} | {w for _, w in edges}}
    for _ in range(length):
        words = {
            (word + labels[(u, v)], v)
            for word, at in words
            for u, v in edges
            if u == at
        }
    return {word for word, _ in words}


def random_strongly_connected(rng: random.Random, n_max: int = 8, n_min: int = 2):
    """Simple strongly connected digraph: a full cycle plus random chords."""
    n = rng.randint(n_min, n_max)
    vs = [f"v{i}" for i in range(n)]
    shuffled = vs[:]
    rng.shuffle(shuffled)
    edges = {
        (shuffled[i], shuffled[(i + 1) % n]) for i in range(n)
    }
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.choice(vs), rng.choice(vs)
        edges.add((u, v))
    return vs, sorted(edges)


def line_graph_edges(named_edges: list[tuple[str, str, str]]) -> list[Edge]:
    """Line graph of a multigraph given as (name, tail, head): e -> f exactly
    when head(e) = tail(f), tested over all pairs, e-major in edge order."""
    return [
        (e, f)
        for e, _, head in named_edges
        for f, tail, _ in named_edges
        if head == tail
    ]


def prune_by_deletion(vertices, edges) -> list:
    """Delete vertices without a successor or a predecessor until none is left;
    the survivors keep their order in `vertices`."""
    alive = list(vertices)
    while True:
        keep = [
            v for v in alive
            if any(u == v and w in alive for u, w in edges)
            and any(w == v and u in alive for u, w in edges)
        ]
        if keep == alive:
            return alive
        alive = keep


def label_pair_product(a: tuple, b: tuple) -> tuple:
    """Pruned label fiber product of two labeled graphs, by brute force.

    Each graph is (vertices, edges, labels).  Pairs are all (u, v) with u a
    vertex of `a`, v one of `b` and equal labels, in vertex order of u and
    then of v; an edge joins every two pairs whose coordinates are both edges.
    Returns the surviving pairs in that order and the edges between them.
    """
    (va, ea, la), (vb, eb, lb) = a, b
    pairs = [(u, v) for u in va for v in vb if la[u] == lb[v]]
    sa, sb = set(ea), set(eb)
    pair_edges = [(p, q) for p in pairs for q in pairs if (p[0], q[0]) in sa and (p[1], q[1]) in sb]
    alive = prune_by_deletion(pairs, pair_edges)
    return alive, [(p, q) for p, q in pair_edges if p in alive and q in alive]


def label_pairs_by_worklist(vertices, edges, labels) -> tuple:
    """Pruned label fiber product of one labeled graph with itself, from all
    label-equal pairs, by a worklist of degree counts: linear in the pairs
    and their edges, where `label_pair_product` is quadratic in the pairs.

    A pair loses a degree when a neighbour dies, and dies when its in- or
    out-degree reaches 0.  Returns the surviving pairs in vertex order of the
    first coordinate and then of the second, and the edges between them.
    """
    succ = {v: [] for v in vertices}
    for u, w in edges:
        succ[u].append(w)
    bucket = {}
    for v in vertices:
        bucket.setdefault(labels[v], []).append(v)
    pairs = [(u, v) for u in vertices for v in bucket[labels[u]]]
    out = {p: [] for p in pairs}
    into = {p: [] for p in pairs}
    for u, v in pairs:
        for x in succ[u]:
            for y in succ[v]:
                if labels[x] == labels[y]:
                    out[u, v].append((x, y))
                    into[x, y].append((u, v))
    outdeg = {p: len(out[p]) for p in pairs}
    indeg = {p: len(into[p]) for p in pairs}
    dead = [p for p in pairs if not (outdeg[p] and indeg[p])]
    gone = set(dead)
    while dead:
        p = dead.pop()
        for nbrs, deg in ((out, indeg), (into, outdeg)):
            for q in nbrs[p]:
                deg[q] -= 1
                if deg[q] == 0 and q not in gone:
                    gone.add(q)
                    dead.append(q)
    alive = [p for p in pairs if p not in gone]
    return alive, [(p, q) for p in alive for q in out[p] if q not in gone]


def related_tuple_graph(vertices: list[str], edges: list[Edge], rel: set, m: int,
                        wired: bool = False) -> tuple:
    """F_m by brute force, or with `wired` the pruned distinct-entry product.

    F_m: all m-tuples whose entries are pairwise related both ways, with an
    edge t -> s when every t_k -> s_k is an edge.  With `wired`: distinct
    entries only, and t -> s an edge when t_i -> s_j is an edge exactly for
    i = j, tested over all pairs of tuples, then pruned by deletion.  Returns
    the tuples and the edges before pruning, and the surviving tuples.
    """
    es = set(edges)
    tuples = [
        t for t in itertools.product(vertices, repeat=m)
        if all((t[i], t[j]) in rel and (t[j], t[i]) in rel
               for i in range(m) for j in range(i + 1, m))
        and (not wired or len(set(t)) == m)
    ]

    def joined(t, s) -> bool:
        if wired:
            return all(((t[i], s[j]) in es) == (i == j) for i in range(m) for j in range(m))
        return all((t[i], s[i]) in es for i in range(m))

    tuple_edges = [(t, s) for t in tuples for s in tuples if joined(t, s)]
    alive = prune_by_deletion(tuples, tuple_edges) if wired else tuples
    return tuples, tuple_edges, alive


def quotient_flags(alive: list[tuple], tuple_edges: list) -> dict:
    """Resolving flags and fiber completeness of the map t -> set(t), over the
    surviving tuples, by brute force."""
    kept = set(alive)
    succ = {t: [s for a, s in tuple_edges if a == t and s in kept] for t in alive}
    pred = {t: [a for a, s in tuple_edges if s == t and a in kept] for t in alive}

    def resolving(nbr) -> bool:
        reach: dict = {}
        for t in alive:
            reach.setdefault(frozenset(t), set()).update(frozenset(w) for w in nbr[t])
        return all(
            len({frozenset(w) for w in nbr[t]}) == len(nbr[t])
            and {frozenset(w) for w in nbr[t]} == reach[frozenset(t)]
            for t in alive
        )

    m = len(alive[0]) if alive else 0
    orderings: dict = {}
    for t in alive:
        orderings[frozenset(t)] = orderings.get(frozenset(t), 0) + 1
    return {
        "right_resolving": resolving(succ),
        "left_resolving": resolving(pred),
        "fibers_complete": bool(alive) and all(c == math.factorial(m) for c in orderings.values()),
    }


class OverBudget(Exception):
    """Raised by marker_presentation_reference when the state cap is passed."""


def marker_presentation_reference(ell, ell_tilde, A: int, C: int, K: int, gallery,
                                  state_cap: int) -> tuple:
    """The marker presentation of X_K built copy by copy: markers
    m_a = ell^A ell~^C (ell | ell~), then K copies of the gallery's prefix
    trie, each with its own prefix dict.  States are named as they are added,
    and `len(states) > state_cap` is tested at each one (OverBudget).  Edges
    are gathered in a list, duplicates included, and deduplicated at the end.
    Returns (vertices, sorted edges, symbol map)."""
    markers = {
        "1": tuple(ell) * A + tuple(ell_tilde) * C + tuple(ell),
        "2": tuple(ell) * A + tuple(ell_tilde) * C + tuple(ell_tilde),
    }
    states: list[str] = []
    symbol: dict[str, str] = {}
    edges: list[Edge] = []

    def add(name: str, vertex: str) -> str:
        states.append(name)
        symbol[name] = vertex
        if len(states) > state_cap:
            raise OverBudget
        return name

    for a, word in markers.items():
        for i, v in enumerate(word):
            add(f"m{a}.{i}", v)
            if i:
                edges.append((f"m{a}.{i - 1}", f"m{a}.{i}"))
    copies = []
    for k in range(K):
        prefixes: dict[tuple, str] = {}
        for w in gallery:
            for i in range(1, len(w) + 1):
                if w[:i] not in prefixes:
                    prefixes[w[:i]] = add(f"g{k}.{len(prefixes)}", w[i - 1])
                if i > 1:
                    edges.append((prefixes[w[:i - 1]], prefixes[w[:i]]))
        copies.append(prefixes)
    for a, word in markers.items():
        edges += [(f"m{a}.{len(word) - 1}", copies[0][w[:1]]) for w in gallery]
    for k, prefixes in enumerate(copies):
        for w in gallery:
            if k + 1 < K:
                edges += [(prefixes[w], copies[k + 1][u[:1]]) for u in gallery]
            else:
                edges += [(prefixes[w], "m1.0"), (prefixes[w], "m2.0")]
    return tuple(states), tuple(sorted(set(edges))), symbol


GOLDEN_ENTROPY = math.log((1 + math.sqrt(5)) / 2)
LOG2 = math.log(2)
LOG3 = math.log(3)


# Seeded document mutations: a token replaced, a line deleted, duplicated,
# swapped or inserted, or the text truncated.  Token replacements stay small:
# classifying a loop near LENGTH_CAP takes seconds by design, which a
# per-input time bound would report as a hang.
TOKENS = (
    "0", "1", "2", "3", "7", "-1", "1/2", "3/2", "1/0", "x", "", "e1", "a", "b",
    "10" * 15, "1e999999", "log", "poly", "root-in", "inf", "geometric", "damped",
    "from", "stride", "edge", "vertex", "map", "pair", "count", "tail", "gen",
)
LINES = (
    "", "#", "graph", "loops", "code vertex", "relation", "vertex a", "vertex c",
    "edge a b", "edge b b e3", "map e3 0", "pair e0 e1", "count 2 1", "count 0 1",
    "tail geometric 1/8 2 from 5", "tail damped 1/4 2 2 from 6", "gen 1 log 3 0",
    "gen 0 log 2 1", "gen 1 inf 0",
)


def mutate(rng: random.Random, text: str) -> str:
    """One seeded mutation of a document's text."""
    lines = text.splitlines()
    op = rng.randrange(6)
    if op == 0 and lines:
        i = rng.randrange(len(lines))
        toks = lines[i].split(" ")
        toks[rng.randrange(len(toks))] = rng.choice(TOKENS)
        lines[i] = " ".join(toks)
    elif op == 1 and lines:
        del lines[rng.randrange(len(lines))]
    elif op == 2 and lines:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif op == 3 and len(lines) > 1:
        i, j = rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 4:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(LINES))
    else:
        return text[: rng.randrange(len(text) + 1)]
    return "\n".join(lines) + "\n"
