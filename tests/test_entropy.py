"""Exact Perron entropies, certified comparisons, and interval plumbing."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from borelshift import (
    ExactAlgebraic,
    FiniteGraph,
    INFINITE_ENTROPY,
    IntervalApprox,
    ZERO_ENTROPY,
    compare_entropy,
    cycle_graph,
    entropy_from_log_value,
    full_shift_graph,
    golden_mean_graph,
    max_entropy,
    perron_entropy,
)
from borelshift import entropy
from borelshift.entropy import (
    ENCLOSURE_WIDTH,
    EXACT_VERTEX_CAP,
    _X,
    _roots_in,
    _sign_at,
    collatz_wielandt_enclosure,
    identify_algebraic,
)
from borelshift.intervals import (
    PrecisionExhausted,
    RatInterval,
    exp_fraction,
    log_fraction,
    log_interval,
)

from helpers import GOLDEN_ENTROPY, random_strongly_connected

PHI = (1 + math.sqrt(5)) / 2


# === certified log/exp enclosures ===

def test_log_fraction_encloses_and_narrows():
    # enclosures are certified and may be far tighter than double precision,
    # so compare against floats with a float-sized slack only
    for f in (Fraction(2), Fraction(3, 2), Fraction(10, 7)):
        enc = log_fraction(f, Fraction(1, 10**12))
        assert enc.width <= Fraction(1, 10**12)
        assert abs(float(enc.mid) - math.log(f)) < 1e-12


def test_exp_fraction_inverts_log():
    x = Fraction(7, 10)
    enc = exp_fraction(x, Fraction(1, 10**12))
    assert abs(float(enc.mid) - math.exp(0.7)) < 1e-12
    back = log_interval(enc, Fraction(1, 10**9))
    assert back.lo <= x <= back.hi


def test_interval_transforms_preserve_containment():
    iv = RatInterval(Fraction(3, 2), Fraction(8, 5))
    out = log_interval(iv, Fraction(1, 10**9))
    # outward rounding both ways keeps the original interval inside
    assert exp_fraction(out.lo, Fraction(1, 10**9)).lo <= Fraction(3, 2)
    assert Fraction(8, 5) <= exp_fraction(out.hi, Fraction(1, 10**9)).hi


# === exact algebraic values ===

def test_golden_mean_minimal_polynomial():
    h = perron_entropy(golden_mean_graph())
    assert isinstance(h, ExactAlgebraic)
    assert h.minpoly == (-1, -1, 1)  # x^2 - x - 1, ascending
    assert h.rational_root() is None
    lam = h.lambda_enclosure(Fraction(1, 10**12))
    # exact containment: x^2 - x - 1 changes sign across the enclosure
    assert lam.lo**2 - lam.lo - 1 <= 0 <= lam.hi**2 - lam.hi - 1
    assert abs(float(h) - GOLDEN_ENTROPY) < 1e-11


def test_full_shift_entropies_are_rational_roots():
    for m in (2, 3, 4, 5):
        h = perron_entropy(full_shift_graph([str(i) for i in range(m)]))
        assert isinstance(h, ExactAlgebraic)
        assert h.rational_root() == m
        assert abs(float(h) - math.log(m)) < 1e-11


def test_perron_entropy_zero_on_cycles():
    assert perron_entropy(cycle_graph(7)) is ZERO_ENTROPY


def test_perron_entropy_requires_strong_connectivity():
    g = FiniteGraph.from_edges([("a", "a"), ("a", "b"), ("b", "b")])
    with pytest.raises(ValueError):
        perron_entropy(g)


def test_perron_entropy_weights_parallel_edges():
    g = FiniteGraph(("u",), (("u", "u"), ("u", "u"), ("u", "u")))
    h = perron_entropy(g)
    assert h.rational_root() == 3


def doubled_three_cycle():
    """Period 3 with lambda^3 = 2: a 3-cycle with one edge doubled."""
    return FiniteGraph(("a", "b", "c"), (("a", "b"), ("a", "b"), ("b", "c"), ("c", "a")))


def test_period_three_graph_is_exact_cube_root():
    h = perron_entropy(doubled_three_cycle())
    assert isinstance(h, ExactAlgebraic)
    assert h.minpoly == (-2, 0, 0, 1)
    assert h.root_lo**3 <= 2 <= h.root_hi**3


def test_interval_fallback_above_exact_cap(monkeypatch):
    graphs = (golden_mean_graph(), doubled_three_cycle())
    exact = [perron_entropy(g) for g in graphs]
    monkeypatch.setattr(entropy, "EXACT_VERTEX_CAP", 1)
    for g, want in zip(graphs, exact):
        h = perron_entropy(g)
        assert isinstance(h, IntervalApprox)
        assert h.hi - h.lo <= ENCLOSURE_WIDTH
        assert compare_entropy(h, want) == "eq"


def test_collatz_wielandt_enclosure_tightness():
    rows = [[(0, 1), (1, 1)], [(0, 1)]]  # the matrix [[1, 1], [1, 0]]
    iv = collatz_wielandt_enclosure(rows)
    assert iv.lo**2 - iv.lo - 1 <= 0 <= iv.hi**2 - iv.hi - 1
    assert iv.width <= Fraction(1, 10**13) * iv.lo


@pytest.mark.parametrize("period", [1, 3])
def test_collatz_wielandt_encloses_lambda_to_the_period(period):
    # the bounds enclose rho(A)^p for any p >= 1; p = 3 is the true period
    rows = doubled_three_cycle().index().succ
    iv = collatz_wielandt_enclosure(rows, period=period)
    k = 3 // period  # iv encloses lambda^period, and lambda^3 = 2
    assert iv.lo**k <= 2 <= iv.hi**k
    assert iv.width <= period * Fraction(1, 10**13) * iv.lo


def flower(petals):
    """Hub h with c parallel petals h -> ... -> h of length n per (c, n);
    a petal of length 1 is a self-loop at h."""
    edges = []
    for k, (c, n) in enumerate(petals):
        for r in range(c):
            path = ["h"] + [f"p{k}.{r}.{i}" for i in range(n - 1)] + ["h"]
            edges.extend(zip(path, path[1:]))
    vertices = sorted({v for e in edges for v in e})
    return FiniteGraph(tuple(vertices), tuple(edges))


def assert_flower_enclosure(petals, p):
    """The first returns to h are the petals, so 1/lambda is the root of
    sum c z^n = 1, and y = lambda^-p solves Psi(y) = sum c y^(n/p) = 1, an
    increasing function: an enclosure [lo, hi] of lambda^p must have
    Psi(1/hi) <= 1 <= Psi(1/lo), checked in exact rationals."""
    rows = flower(petals).index().succ
    iv = collatz_wielandt_enclosure(rows, period=p)

    def psi(y):
        return sum(c * y ** (n // p) for c, n in petals)

    assert psi(1 / iv.hi) <= 1 <= psi(1 / iv.lo)
    assert iv.width <= p * Fraction(1, 10**13) * iv.lo


@pytest.mark.parametrize("seed", range(10))
def test_collatz_wielandt_encloses_flower_roots(seed):
    # sizes alternate sides of EXACT_VERTEX_CAP; p divides every petal length
    rng = random.Random(9000 + seed)
    p = rng.choice((1, 2, 3, 4))
    goal = rng.randint(20, EXACT_VERTEX_CAP) if seed % 2 else rng.randint(EXACT_VERTEX_CAP, 390)
    petals, size = [], 1
    while size < goal:
        c = rng.randint(1, 3)
        n = p * rng.randint(1, max(1, min(40, (goal - size) // c + 1) // p))
        petals.append((c, n))
        size += c * (n - 1)
    assert_flower_enclosure(petals, p)


def test_collatz_wielandt_finishes_an_underflowed_float_seed():
    # 4096 self-loops and one petal of length 201: the Perron vector falls by
    # a factor lambda ~ 4096 along the petal, about 2^2400 end to end, which
    # no float vector holds, so the exact iteration has to finish
    assert_flower_enclosure([(4096, 1), (1, 201)], 1)


def test_collatz_wielandt_budget_exhausted_raises():
    # two cycles of coprime lengths 50 and 51 through h mix slowly: 64
    # products cannot reach the width target, and no wider bound comes back
    rows = flower([(1, 50), (1, 51)]).index().succ
    with pytest.raises(PrecisionExhausted):
        collatz_wielandt_enclosure(rows, max_iters=64)
    assert issubclass(PrecisionExhausted, ArithmeticError)


def test_log_enclosure_out_of_precision_raises():
    with pytest.raises(PrecisionExhausted):
        log_fraction(Fraction(2), Fraction(0))


def test_identify_algebraic_picks_the_perron_factor():
    # charpoly of the golden mean graph times an extra rational factor:
    # identification must isolate the factor containing the largest root
    coeffs = (1, 0, -2, 1)  # (x^2 - x - 1)(x - 1)
    h = identify_algebraic(coeffs, RatInterval(Fraction(3, 2), Fraction(17, 10)))
    assert h.minpoly == (-1, -1, 1)
    # (x^2 - x - 1)(2x - 3): the enclosure holds phi and 3/2, and the upper
    # root is kept
    h = identify_algebraic((3, 1, -5, 2), RatInterval(Fraction(7, 5), Fraction(17, 10)))
    assert h.minpoly == (-1, -1, 1)
    assert h.root_lo > Fraction(3, 2) and h.root_lo < PHI < h.root_hi
    with pytest.raises(ArithmeticError):
        identify_algebraic(coeffs, RatInterval(Fraction(2), Fraction(3)))


def _random_squarefree(rng: random.Random):
    """Squarefree integer polynomial (ascending) of degree 1-40 and its
    rational roots: distinct rational linear factors times a random integer
    polynomial, reduced to its squarefree part."""
    roots = sorted({Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(rng.randint(0, 6))})
    cs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 40 - len(roots)) + 1)]
    if not any(cs):
        cs[0] = 1
    for r in roots:  # times (q x - p) for r = p/q, in descending coefficients
        cs = [a * r.denominator - b * r.numerator for a, b in zip(cs + [0], [0] + cs)]
    poly = sympy.Poly(cs, _X, domain="ZZ").sqf_part()
    return tuple(int(c) for c in reversed(poly.all_coeffs())), roots


def test_local_root_count_matches_sympy():
    # the oracle: sympy's isolation of every real root, counted in [lo, hi]
    rng = random.Random(20261018)
    seen = {"endpoint": 0, "point": 0, "several": 0}
    for case in range(250):
        cs, rational = _random_squarefree(rng)
        if len(cs) < 2:
            continue
        kind = case % 5
        span = Fraction(rng.randint(0, 40), rng.randint(1, 12))
        if kind == 0 and rational:
            lo = rng.choice(rational)
            hi = lo + span
        elif kind == 1 and rational:
            hi = rng.choice(rational)
            lo = hi - span
        elif kind == 2:
            lo = hi = rng.choice(rational) if rational and rng.random() < 0.7 else span
        elif kind == 3:
            # around every real root at once
            bound = 1 + max(abs(Fraction(c, cs[-1])) for c in cs[:-1])
            lo, hi = -bound, bound
        else:
            lo = Fraction(rng.randint(-200, 200), rng.randint(1, 40))
            hi = lo + span
        poly = sympy.Poly(list(reversed(cs)), _X, domain="QQ")
        want = len(poly.intervals(inf=sympy.Rational(lo), sup=sympy.Rational(hi)))
        assert _roots_in(cs, lo, hi) == want, (cs, lo, hi)
        seen["endpoint"] += lo < hi and (lo in rational or hi in rational)
        seen["point"] += lo == hi and want == 1
        seen["several"] += want >= 2
    assert min(seen.values()) >= 15, seen


def test_sign_at_matches_fraction_horner():
    # the oracle: Horner's rule in Fractions, on degrees 0 to 80; about a
    # third of the points are roots, put there as factors (q x - p)
    rng = random.Random(16)
    zeros = 0
    for _ in range(300):
        roots = [
            Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(rng.randint(0, 3))
        ]
        cs = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 78))]
        for r in roots:  # times (q x - p), in ascending coefficients
            cs = [r.denominator * a - r.numerator * b for a, b in zip([0] + cs, cs + [0])]
        if roots and rng.random() < 0.5:
            x = rng.choice(roots)
        else:
            x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        value = Fraction(0)
        for c in reversed(cs):
            value = value * x + c
        want = (value > 0) - (value < 0)
        assert _sign_at(tuple(cs), x) == want, (cs, x)
        zeros += want == 0
    assert zeros >= 50


def test_entropy_from_log_value():
    h = entropy_from_log_value(Fraction(2))
    assert isinstance(h, ExactAlgebraic) and h.rational_root() == 2
    assert entropy_from_log_value(Fraction(1)) is ZERO_ENTROPY


# === comparisons ===

def test_compare_entropy_exact_cases():
    g2 = perron_entropy(full_shift_graph("ab"))
    g3 = perron_entropy(full_shift_graph("abc"))
    phi = perron_entropy(golden_mean_graph())
    assert compare_entropy(g2, g3) == "lt"
    assert compare_entropy(g3, g2) == "gt"
    assert compare_entropy(phi, phi) == "eq"
    assert compare_entropy(phi, g2) == "lt"
    assert compare_entropy(ZERO_ENTROPY, phi) == "lt"
    assert compare_entropy(INFINITE_ENTROPY, g3) == "gt"
    assert compare_entropy(INFINITE_ENTROPY, INFINITE_ENTROPY) == "eq"


def test_compare_distinct_roots_of_equal_minpoly():
    # x^2 - 3x + 1 has roots (3 +- sqrt 5)/2; the two values differ
    big = ExactAlgebraic((1, -3, 1), Fraction(2), Fraction(3))
    small = ExactAlgebraic((1, -3, 1), Fraction(1, 4), Fraction(1, 2))
    assert compare_entropy(big, small) == "gt"
    assert compare_entropy(big, big) == "eq"
    # overlapping intervals around distinct roots, and around the same root
    low = ExactAlgebraic((1, -3, 1), Fraction(3, 10), Fraction(1))
    high = ExactAlgebraic((1, -3, 1), Fraction(1, 2), Fraction(3))
    assert compare_entropy(low, high) == "lt"
    other_big = ExactAlgebraic((1, -3, 1), Fraction(5, 2), Fraction(4))
    assert compare_entropy(big, other_big) == "eq"


def test_compare_entropy_tolerance_clusters_nearby_values():
    a = IntervalApprox(Fraction(7, 10), Fraction(7, 10))
    b = IntervalApprox(Fraction(7, 10) + Fraction(1, 10**12), Fraction(7, 10) + Fraction(1, 10**12))
    assert compare_entropy(a, b, Fraction(1, 10**9)) == "eq"
    assert compare_entropy(a, b, Fraction(1, 10**13)) == "lt"


def test_compare_entropy_unknown_when_unrefinable():
    a = IntervalApprox(Fraction(1, 2), Fraction(3, 4))
    b = IntervalApprox(Fraction(5, 8), Fraction(7, 8))
    assert compare_entropy(a, b) == "unknown"


def test_compare_entropy_refines_exact_against_point():
    phi = perron_entropy(golden_mean_graph())
    # a point interval straddling nothing: exact side refines until separated
    above = IntervalApprox(
        Fraction(GOLDEN_ENTROPY).limit_denominator(10**12) + Fraction(1, 10**6),
        Fraction(GOLDEN_ENTROPY).limit_denominator(10**12) + Fraction(1, 10**6),
    )
    assert compare_entropy(phi, above) == "lt"


def test_max_entropy():
    g2 = perron_entropy(full_shift_graph("ab"))
    phi = perron_entropy(golden_mean_graph())
    assert max_entropy([phi, g2, ZERO_ENTROPY]) is g2
    assert max_entropy([]) is ZERO_ENTROPY
    assert max_entropy([ZERO_ENTROPY, INFINITE_ENTROPY]) is INFINITE_ENTROPY


def test_perron_matches_float_power_iteration():
    rng = random.Random(515)
    for _ in range(25):
        vs, edges = random_strongly_connected(rng, 5)
        g = FiniteGraph(tuple(vs), tuple(edges))
        at = {u: i for i, u in enumerate(vs)}
        mat = [[0] * len(vs) for _ in vs]
        for u, w in edges:
            mat[at[u]][at[w]] += 1
        # float power iteration on A + I (primitive, so no period oscillation)
        v = [1.0] * len(vs)
        top = 1.0
        for _ in range(600):
            w = [v[i] + sum(mat[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
            top = max(w)
            v = [x / top for x in w]
        lam = top - 1.0
        h = perron_entropy(g)
        want = 0.0 if lam <= 1.0 + 1e-9 else math.log(lam)
        assert abs(float(h) - want) < 1e-6
