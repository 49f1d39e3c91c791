"""Exact Perron entropies, certified comparisons, and interval plumbing."""

import collections
import math
import operator
import random
import time
from fractions import Fraction

import mpmath
import pytest
import sympy

from borelshift import (
    BlockCode,
    ExactAlgebraic,
    FiniteGraph,
    INFINITE_ENTROPY,
    IntervalApprox,
    PathologySpec,
    ZERO_ENTROPY,
    certify_pathology,
    classify_recurrence,
    cli,
    compare_entropy,
    cycle_graph,
    entropy,
    entropy_from_log_value,
    full_shift_graph,
    golden_mean_graph,
    image_entropy,
    intervals,
    max_entropy,
    parse_invariants,
    perron_entropy,
    polynomials,
    realize_invariants,
    synthesize_injective_subsystem,
)
from borelshift.entropy import (
    ENCLOSURE_WIDTH,
    EXACT_VERTEX_CAP,
    collatz_wielandt_enclosure,
    identify_algebraic,
)
from borelshift.graphs import period_of_component
from borelshift.intervals import (
    PrecisionExhausted,
    RatInterval,
    exp_fraction,
    log_fraction,
    log_interval,
)
from borelshift.polynomials import _roots_in, _sign_at
from borelshift.presentations import Inconclusive, LoopSchema, Tail, format_document
from borelshift.recurrence import _phi_polynomial

from helpers import (
    GOLDEN_ENTROPY,
    bisection_reference,
    collatz_wielandt_reference,
    count_roots,
    factor_first_isolation,
    float_seed_reference,
    random_strongly_connected,
    real_root_intervals,
)

PHI = (1 + math.sqrt(5)) / 2
_X = sympy.Symbol("x")


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


def _directed_oracle(fn, f, max_width):
    """mpmath's value of fn at the P-bit floor and ceiling of f, computed 700
    bits past P and rounded down and up to P bits, on the library's schedule
    P = prec + max(bits(num), bits(den)), prec = 64, 128, ..."""
    n, d = f.numerator, f.denominator
    prec = 64
    while True:
        p = prec + max(n.bit_length(), d.bit_length())
        ends = []
        for rnd in (mpmath.libmp.round_floor, mpmath.libmp.round_ceiling):
            x = mpmath.libmp.from_rational(n, d, p, rnd)
            y = mpmath.libmp.mpf_pos(fn(x, p + 700), p, rnd)
            ends.append(Fraction(*mpmath.libmp.to_rational(y)))
        if ends[1] - ends[0] <= max_width:
            return ends
        prec *= 2


def test_log_and_exp_ends_are_the_exact_directed_roundings():
    rng = random.Random(20261019)
    big = 10**300
    logs = [Fraction(rng.getrandbits(rng.randint(1, 60)) + 1, rng.getrandbits(rng.randint(1, 60)) + 1)
            for _ in range(500)]
    logs += [Fraction(rng.randrange(1, 2**rng.randint(1, 48))) for _ in range(200)]
    logs += [Fraction(2**k + s * rng.randint(1, 3), 2**k) for k in range(2, 102) for s in (-1, 1)]
    logs += [Fraction(3 * 2**k + 1, 2**k) for k in range(1, 151)]
    logs += [Fraction(big + rng.randrange(10**6), rng.randint(1, 1000)) for _ in range(50)]
    logs += [Fraction(rng.randint(1, 1000), big + rng.randrange(10**6)) for _ in range(50)]
    logs += [Fraction(90535), Fraction(1), Fraction(2), Fraction(1, 2)]
    exps = [Fraction(rng.getrandbits(40), rng.getrandbits(rng.randint(1, 40)) + 1) % 50 for _ in range(300)]
    exps += [Fraction(rng.randint(1, 700)) for _ in range(100)]
    exps += [Fraction(s, 2**k) for k in range(1, 101) for s in (-1, 1)]
    exps += [Fraction(3 * 2**k + 1, 2**k) for k in range(1, 101)]
    exps += [-x for x in exps] + [Fraction(0)]
    assert len(logs) + len(exps) >= 2000
    cases = [(log_fraction, mpmath.libmp.mpf_log, f) for f in logs]
    cases += [(exp_fraction, mpmath.libmp.mpf_exp, x) for x in exps]
    for i, (fn, oracle, f) in enumerate(cases):
        width = Fraction(1, 10 ** (15 if i % 2 else 40))
        enc = fn(f, width)
        assert [enc.lo, enc.hi] == _directed_oracle(oracle, f, width), (fn.__name__, f)
        assert enc.width <= width


def test_log_of_90535_contains_its_value():
    # mpmath's interval log, rounded from a 20-guard-bit approximation, put the
    # upper end 1.8e-30 below log 90535
    enc = log_fraction(Fraction(90535))
    mpmath.mp.prec = 700
    try:
        value = Fraction(*mpmath.libmp.to_rational(mpmath.log(90535)._mpf_))
        assert enc.lo <= value <= enc.hi
    finally:
        mpmath.mp.prec = 53


def test_exp_of_a_googol_runs_out_of_precision_quickly():
    # every round's width is decided on the (mantissa, exponent) pairs; no
    # power of two of 1.4e100 bits is built, as a numerator for e^(10^100)
    # or as a denominator for e^(-10^100), whose width alone would be met
    start = time.monotonic()
    for x in (10**100, -(10**100)):
        with pytest.raises(PrecisionExhausted):
            exp_fraction(Fraction(x))
    assert time.monotonic() - start < 1


def test_round_is_the_directed_rounding_of_a_ratio():
    rng = random.Random(3)
    for _ in range(3000):
        p = rng.randint(1, 80)
        if rng.random() < 0.3:  # exact values of p + 1 bits: the dropped bit is all that is lost
            n, d = rng.getrandbits(p) | 1 << p, 1
        else:
            n, d = rng.getrandbits(rng.randint(1, 200)) or 1, rng.getrandbits(rng.randint(1, 100)) + 1
        n *= rng.choice((-1, 1))
        s = rng.randint(-50, 50)
        for up, rnd in ((False, mpmath.libmp.round_floor), (True, mpmath.libmp.round_ceiling)):
            m, e = intervals._round(n, d, s, p, up)
            want = Fraction(*mpmath.libmp.to_rational(mpmath.libmp.from_rational(n, d, p, rnd)))
            assert m * Fraction(2) ** e == want * Fraction(2) ** s, (n, d, s, p, up)
            assert abs(m).bit_length() == p


def test_fixed_point_series_stay_within_their_loss_bounds():
    # at small scales the bounds are nearly tight: dropping any loss term
    # from err lets some true value escape [a, a + err]
    rng = random.Random(7)
    mpmath.mp.prec = 300
    try:
        for w in range(0, 40):
            for _ in range(60):
                v = rng.randint(3, 2**rng.randint(2, 50))
                u = rng.randint(0, v // 3)
                a, err = intervals._atanh(u, v, w)
                value = mpmath.atanh(mpmath.mpf(u) / v) * 2**w
                assert a <= value <= a + err, (u, v, w)
                r = rng.randrange(2**w)
                a, err = intervals._exp_series(r, w)
                value = mpmath.exp(mpmath.mpf(r) / 2**w) * 2**w
                assert a <= value <= a + err, (r, w)
        for w in range(0, 200):
            lo, hi = intervals._ln2(w)
            assert lo <= mpmath.log(2) * 2**w <= hi, w
            m, e = rng.randint(1, 2**40), rng.randint(-80, 80)
            (lo, _, s), (hi, _, _) = intervals._log_ends(m, e, w)
            assert lo <= mpmath.log(mpmath.mpf(m) * mpmath.mpf(2) ** e) * 2**-s <= hi, (m, e, w)
            m, e = rng.randint(1, 2**20), rng.randint(-30, 4)
            for m in (m, -m):
                (lo, d, s), (hi, d2, s2) = intervals._exp_ends(m, e, w + 64)
                value = mpmath.exp(mpmath.mpf(m) * mpmath.mpf(2) ** e)
                assert lo * mpmath.mpf(2) ** s / d <= value <= hi * mpmath.mpf(2) ** s2 / d2, (m, e, w)
    finally:
        mpmath.mp.prec = 53


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


def periodic_rows(rng: random.Random, p: int) -> list:
    """Sparse rows of a strongly connected multigraph whose edges all move
    one of p classes forward: a closed walk through every vertex, then
    random edges of multiplicity 1-3 (loops too when p = 1)."""
    sizes = [rng.randint(1, 5) for _ in range(p)]
    first = [sum(sizes[:c]) for c in range(p)]
    m = max(sizes)
    walk = [first[t % p] + (t // p) % sizes[t % p] for t in range(p * m)] + [0]
    mult = collections.Counter(zip(walk, walk[1:]))
    for _ in range(rng.randint(0, 2 * sum(sizes))):
        c = rng.randrange(p)
        i = first[c] + rng.randrange(sizes[c])
        j = first[(c + 1) % p] + rng.randrange(sizes[(c + 1) % p])
        mult[i, j] += rng.randint(1, 3)
    rows = [[] for _ in range(sum(sizes))]
    for (i, j), k in sorted(mult.items()):
        rows[i].append((j, k))
    return rows


def _library_seed(rows, period, max_iters):
    """entropy._float_seed's vector, moved from plan order to row order."""
    order, groups = entropy._gather_plan(rows)
    seed = entropy._float_seed(groups, period, float(period * Fraction(1, 10**13)), max_iters)
    by_row = [0] * len(rows)
    for k, i in enumerate(order):
        by_row[i] = seed[k]
    return by_row


def _outcome(fn, exhausted):
    try:
        return fn()
    except exhausted as exc:
        return "exhausted", str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)


def test_whole_vector_iterates_equal_the_row_at_a_time_reference():
    cases = []
    rng = random.Random(2600)
    for k in range(108):
        p = 1 + k % 6
        cases.append((periodic_rows(rng, p), p, 60000))
    # periods long enough that a check of 4p products could overflow
    # (4p log2(R + 1) >= 900): normalised after every product instead
    long_periods = [(periodic_rows(rng, p), p, 60000) for p in (150, 160, 230)]
    for rows, p, _ in long_periods:
        assert 4 * p * math.log2(max(sum(m for _, m in row) for row in rows) + 1) >= 900
    cases += long_periods
    # one vertex with m loops; at 100,000 columns a chain of lazy map(add)s
    # that deep would overflow the C stack
    cases += [([[(0, m)]], 1, 60000) for m in (1, 2, 3, 7, 100_000)]
    cases.append((flower([(4096, 1), (1, 201)]).index().succ, 1, 60000))  # underflow
    cases += [([[(0, 1), (1, 1)], []], 1, 64), ([[]], 1, 64), ([], 1, 64)]  # no successors
    cases.append((flower([(1, 50), (1, 51)]).index().succ, 1, 64))  # budget spent
    cases += [(rows, 1, 60000) for rows, _ in _seed_cases().values()]  # shifted mid-way
    one_row_groups = 0
    for rows, p, budget in cases:
        one_row_groups += any(size == 1 for size, _ in entropy._gather_plan(rows)[1])
        want = _outcome(lambda: float_seed_reference(rows, p, budget), ArithmeticError)
        assert _outcome(lambda: _library_seed(rows, p, budget), PrecisionExhausted) == want
        want = _outcome(lambda: collatz_wielandt_reference(rows, budget, p), ArithmeticError)
        got = _outcome(
            lambda: collatz_wielandt_enclosure(rows, budget, p), PrecisionExhausted
        )
        if isinstance(got, RatInterval):
            got = got.lo, got.hi
        assert got == want, (len(rows), p)
    assert one_row_groups >= 10


def _sparse_rows(n, edges) -> list:
    rows = [collections.Counter() for _ in range(n)]
    for i, j in edges:
        rows[i][j] += 1
    return [sorted(r.items()) for r in rows]


def near_bipartite_rows(rng: random.Random, a: int, b: int, inside: int) -> list:
    """A random bipartite digraph on sides 0..a-1 and a..a+b-1 (a closed walk
    alternating sides through every vertex, then cross edges up to 3(a + b)),
    plus `inside` edges within the first side: aperiodic, with an eigenvalue
    near -lambda."""
    left, right = list(range(a)), list(range(a, a + b))
    rng.shuffle(left)
    rng.shuffle(right)
    edges = set()
    for i in range(max(a, b)):
        edges |= {(left[i % a], right[i % b]), (right[i % b], left[(i + 1) % a])}
    while len(edges) < 3 * (a + b):
        u, v = rng.randrange(a), a + rng.randrange(b)
        edges.add((u, v) if rng.random() < 0.5 else (v, u))
    while len(edges) < 3 * (a + b) + inside:
        edges.add((rng.randrange(a), rng.randrange(a)))
    return _sparse_rows(a + b, edges)


def tripartite_plus_one_rows(rng: random.Random, t: int) -> list:
    """Three sides of t vertices, every edge one side forward, plus one edge
    within the first side: aperiodic, with eigenvalues near lambda e^(2 pi i/3)."""
    edges = set()
    for i in range(t):
        edges |= {(i, t + i), (t + i, 2 * t + i), (2 * t + i, (i + 1) % t)}
    while len(edges) < 9 * t:
        c = rng.randrange(3)
        edges.add((c * t + rng.randrange(t), (c + 1) % 3 * t + rng.randrange(t)))
    edges.add((0, 1))
    return _sparse_rows(3 * t, edges)


def cycle_plus_chords_rows(rng: random.Random, n: int) -> list:
    """Shaped like perfbench's random_graph_doc: a Hamiltonian cycle through
    a shuffled order, then distinct random edges up to 2n."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    while len(edges) < 2 * n:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return _sparse_rows(n, edges)


def _seed_cases() -> dict:
    """name -> (rows, products the float seed took when it iterated A + I
    from the start, normalised after every product)."""
    shifted = {
        "near-bipartite 0 1": 64, "near-bipartite 0 10": 60, "near-bipartite 0 60": 48,
        "near-bipartite 1 1": 52, "near-bipartite 1 10": 56, "near-bipartite 1 60": 40,
        "near-bipartite 2 1": 76, "near-bipartite 2 10": 64, "near-bipartite 2 60": 44,
        "tripartite 0": 72, "tripartite 1": 72,
        "flower (2, 3)": 28, "flower (5, 7)": 148, "flower (20, 21)": 2312,
        "random 0": 112, "random 1": 120, "random 2": 120, "random 3": 156,
    }
    rows = {}
    for seed in range(3):
        for inside in (1, 10, 60):
            rows[f"near-bipartite {seed} {inside}"] = near_bipartite_rows(
                random.Random(seed), 20, 20, inside
            )
    for seed in range(2):
        rows[f"tripartite {seed}"] = tripartite_plus_one_rows(random.Random(seed), 12)
    for lengths in ((2, 3), (5, 7), (20, 21)):
        rows[f"flower {lengths}"] = flower([(1, n) for n in lengths]).index().succ
    for seed in range(4):
        rows[f"random {seed}"] = cycle_plus_chords_rows(random.Random(seed), 100)
    return {name: (rows[name], shifted[name]) for name in rows}


def _perron_root_in(rows, lo: Fraction, hi: Fraction) -> bool:
    """sympy: the characteristic polynomial chi of A is monic with
    chi(lo) <= 0, and chi(y + hi) has no negative coefficient, so no real
    root above hi: the largest real root, the Perron root, is in [lo, hi]."""
    n = len(rows)
    mat = sympy.SparseMatrix(n, n, {(i, j): m for i, row in enumerate(rows) for j, m in row})
    chi = mat.charpoly(_X).set_domain(sympy.QQ)
    lo, hi = (sympy.Rational(q.numerator, q.denominator) for q in (lo, hi))
    return chi.eval(lo) <= 0 and min(chi.shift(hi).all_coeffs()) >= 0


def test_unshifted_float_seed_counts_products(monkeypatch):
    # the float seed iterates A unshifted while each check halves the spread:
    # fewer products on graphs shaped like the benchmark's random graphs, and
    # at most 64 more where an eigenvalue near lambda in modulus stalls it
    products = []
    product = entropy._product

    def counting(*args):
        products.append(1)
        return product(*args)

    monkeypatch.setattr(entropy, "_product", counting)
    target = float(Fraction(1, 10**13))
    for name, (rows, shifted) in _seed_cases().items():
        products.clear()
        entropy._float_seed(entropy._gather_plan(rows)[1], 1, target, 60000)
        if name.startswith("random"):
            assert len(products) < shifted, name
        else:
            assert len(products) <= shifted + 64, name
        iv = collatz_wielandt_enclosure(rows)
        assert _perron_root_in(rows, iv.lo, iv.hi), name


def test_float_of_an_entropy_is_computed_once_per_value(monkeypatch):
    # sort keys and printing call float() on one value many times
    calls = []
    for cls in (ExactAlgebraic, IntervalApprox):
        monkeypatch.setattr(
            cls, "log_enclosure",
            lambda self, *args, _f=cls.log_enclosure: calls.append(self) or _f(self, *args),
        )
    golden = ExactAlgebraic((-1, -1, 1), Fraction(1), Fraction(2))
    box = IntervalApprox(Fraction(1, 3), Fraction(1, 2))
    for _ in range(3):
        assert float(golden) == pytest.approx(math.log(PHI), abs=1e-12)
        assert float(box) == 5 / 12
    assert calls == [golden, box]


def test_log_enclosure_is_computed_once_per_value_and_width(monkeypatch):
    # comparisons ask one value for the same few widths again and again: each
    # width's enclosure is the one a fresh value gives, computed once
    widths = [ENCLOSURE_WIDTH, Fraction(1, 10**30), Fraction(1, 4), ENCLOSURE_WIDTH,
              Fraction(1, 4), Fraction(1, 10**30)]
    values = [((-1, -1, 1), Fraction(1), Fraction(2)), ((-3, 2), Fraction(3, 2), Fraction(3, 2))]
    want = {(v, w): ExactAlgebraic(*v).log_enclosure(w) for v in values for w in widths}
    calls = []
    for name in ("log_interval", "log_fraction"):
        fn = getattr(entropy, name)
        monkeypatch.setattr(entropy, name, lambda *args, _f=fn: calls.append(args) or _f(*args))
    for v in values:
        h = ExactAlgebraic(*v)
        for w in widths:
            enc = h.log_enclosure(w)
            assert enc == want[v, w] and enc.width <= w
    assert len(calls) == 2 * len(set(widths))


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


def _ascending(expr) -> tuple[int, ...]:
    return tuple(int(c) for c in reversed(sympy.Poly(expr, _X).all_coeffs()))


def _random_factor(rng: random.Random):
    """A random integer polynomial of degree 1-4, as a sympy expression."""
    cs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [rng.choice((1, 1, 2, 3))]
    return sum(c * _X**i for i, c in enumerate(cs))


def _isolation_cases(rng: random.Random):
    """Seeded (coeffs, kind) pairs; every polynomial has a positive real root."""
    special = [_X, _X - 1, _X + 1] + [sympy.cyclotomic_poly(n, _X) for n in range(3, 13)]
    for _ in range(24):
        expr = _X**2 - rng.randint(2, 12)  # a positive root is always there
        for f in [_random_factor(rng) for _ in range(rng.randint(1, 3))] + rng.sample(special, 3):
            expr *= f ** rng.choice((1, 1, 2, 3))
        yield _ascending(sympy.expand(expr)), "product"
    for _ in range(12):
        g = sympy.expand(_random_factor(rng) * _random_factor(rng))
        yield _ascending(sympy.expand((2 * _X - 3) ** rng.choice((1, 2)) * g)), "two_x_minus_3"
    for _ in range(16):
        vs, edges = random_strongly_connected(rng, 6)
        at = {v: i for i, v in enumerate(vs)}
        mat = sympy.zeros(len(vs))
        for u, v in edges:
            mat[at[u], at[v]] += 1
        yield _ascending(mat.charpoly(_X).as_expr()), "charpoly"
    for case in range(12):
        counts = {rng.randint(1, 7): rng.randint(1, 4) for _ in range(rng.randint(1, 3))}
        counts = tuple(sorted(counts.items()))
        tail = None
        if case % 2:
            k = rng.randint(2, 3)
            n0 = counts[-1][0] + rng.randint(1, 4)  # past every explicit length
            tail = Tail(Fraction(rng.randint(1, 3), k), k, 0, n0, rng.randint(1, 2))
        coeffs = _phi_polynomial(LoopSchema(counts, tail))
        yield tuple(reversed(coeffs)), "phi"


def test_identify_algebraic_equals_the_factor_first_reference():
    # the oracle factors first (tests/helpers.factor_first_isolation); the
    # library halves on the squarefree part and factors only when minpoly is read
    rng = random.Random(20261019)
    width = Fraction(1, 10**30)
    seen = {"cases": 0, "rational": 0, "repeated": 0, "lead_not_one": 0}
    for coeffs, kind in _isolation_cases(rng):
        poly = sympy.Poly(list(reversed(coeffs)), _X)
        roots = [(a, b) for (a, b), _ in poly.intervals() if a >= 0 and b > 0]
        if not roots:
            continue
        a, b = rng.choice(roots)
        if kind == "two_x_minus_3" and rng.random() < 0.6:
            a = b = sympy.Rational(3, 2)
        margin = [Fraction(rng.randint(0, 12), rng.randint(1, 8)) * rng.randint(0, 1) for _ in "lh"]
        lo = Fraction(int(a.p), int(a.q)) - margin[0]
        hi = Fraction(int(b.p), int(b.q)) + margin[1]
        h = identify_algebraic(coeffs, RatInterval(lo, hi))
        want = ExactAlgebraic(*factor_first_isolation(coeffs, lo, hi))
        assert (h.minpoly, h.root_lo, h.root_hi) == (want.minpoly, want.root_lo, want.root_hi), (
            coeffs, lo, hi)
        assert h.rational_root() == want.rational_root()
        assert h.log_enclosure(width) == want.log_enclosure(width)
        seen["cases"] += 1
        seen["rational"] += want.rational_root() is not None
        seen["repeated"] += poly.sqf_part().degree() < poly.degree()
        seen["lead_not_one"] += want.minpoly[-1] > 1
    assert seen["cases"] >= 60 and min(seen.values()) >= 5, seen


def test_only_printing_factors(monkeypatch, tmp_path, capsys):
    calls = []
    split = entropy._minimal_factor
    monkeypatch.setattr(entropy, "_minimal_factor", lambda *args: calls.append(args) or split(*args))
    # certification: realize, image entropy, pathology, the marker tier
    sqrt3 = parse_invariants("gen 1 poly -3 0 1 root-in 1 2 1\n")
    real = realize_invariants(sqrt3)
    golden = golden_mean_graph()
    even = BlockCode(golden, (("e0", "1"), ("e1", "0"), ("e2", "0")), mode="edge")
    image_entropy(even)
    certify_pathology(PathologySpec(golden, 5, (7, 8)), Fraction(3, 10), window=8)
    quarter = IntervalApprox(Fraction(1, 4), Fraction(1, 4))
    assert synthesize_injective_subsystem(even, quarter).tier == "marker"
    assert calls == []
    # analyze factors once per printed poly line: a degree-52 minimal
    # polynomial split off a degree-54 first-return polynomial
    doc = tmp_path / "realized.txt"
    doc.write_text(format_document(real.parts()))
    assert cli.main(["analyze", str(doc)]) == 0
    polys = [line for line in capsys.readouterr().out.splitlines() if " poly " in line]
    assert len(polys) == len(calls) == 1
    assert len(calls[0][0]) == 55 and len(polys[0].split("root-in")[0].split()) == 3 + 53
    # a read is kept
    calls.clear()
    h = identify_algebraic((1, -3, 0, 1), RatInterval(Fraction(1), Fraction(2)))  # x^3 - 3x + 1
    assert calls == []
    assert h.minpoly == h.minpoly == (1, -3, 0, 1)
    assert len(calls) == 1


def test_error_message_factors_nothing(monkeypatch, tmp_path, capsys):
    # the exit-2 message of an unseparated comparison prints the entropy's
    # polynomial as it is, with no minimal polynomial split off
    calls = []
    split = entropy._minimal_factor
    monkeypatch.setattr(entropy, "_minimal_factor", lambda *args: calls.append(args) or split(*args))
    doc = tmp_path / "gen.txt"
    doc.write_text("gen 1 7/10 7000000001/10000000000 1\n")
    assert cli.main(["realize", "--tol", "1e-12", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot separate entropies Entropy(log root of (")
    assert calls == []


def _sieve_cases(rng: random.Random):
    """Seeded integer polynomials for _minimal_factor: products of random
    factors, compositions g(x^k), binomials x^n - a with small primes in a
    (so that they divide the discriminant), and leading coefficients above
    1.  A polynomial with no real root is skipped by the caller."""
    # its minimal factor has degree 4; a sieve that skips a leading inverse
    # in a gcd certifies it
    yield (-1, 0, -1, -2, 0, -2, 1, -2, 1)
    special = [_X, _X - 1, _X + 1, _X**2 + 1, _X**2 + _X + 1]
    for _ in range(80):
        expr = sympy.Integer(1)
        for _ in range(rng.randint(1, 3)):
            expr *= _random_factor(rng)
        if rng.random() < 0.5:
            expr *= rng.choice(special)
        yield _ascending(sympy.expand(expr))
    for _ in range(50):
        k = rng.randint(2, 4)
        g = _random_factor(rng) * rng.choice((1, 1, _random_factor(rng)))
        yield _ascending(sympy.expand(g.subs(_X, _X**k) * rng.choice((1, 1, _X - 1, _X + 2))))
    for _ in range(40):
        a = rng.choice((2, 3, 5, 6, 7, 12, 15, 45, 105)) * rng.choice((1, 1, 4, 8, 9, 16, 27, -1))
        yield _ascending(rng.randint(1, 3) * _X ** rng.randint(2, 12) - a)
    for _ in range(60):
        n = rng.randint(3, 20)
        cs = [rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 12)]
        cs[0] = cs[0] or 1
        yield tuple(cs)
    y = sympy.Symbol("y")
    for _ in range(40):
        # g(x^k) for an irreducible g of degree 2 or more whose root is a k-th
        # power in its field: g is the resultant of h(x) and y - x^k for an
        # irreducible h of g's degree, so h divides g(x^k), and the sieve's
        # mask starts from the multiples of deg g
        k, h = rng.randint(2, 4), _random_factor(rng)
        g = sympy.Poly(sympy.resultant(h, y - _X**k, _X), y)
        if g.degree() >= 2 and g.is_irreducible:
            yield _ascending(sympy.expand(g.as_expr().subs(y, _X**k)))


def test_minimal_factor_sieve_agrees_with_factoring(monkeypatch):
    # every answer equals the factor-first reference, no reducible polynomial
    # is ever certified, and both the sieve and the fallback are exercised
    certified = []
    certify = polynomials._certify_irreducible

    def spy(f, *rest):
        answer = certify(f, *rest)
        if answer:
            certified.append(tuple(f))
        return answer

    factored = []
    zassenhaus = polynomials._zassenhaus
    monkeypatch.setattr(polynomials, "_certify_irreducible", spy)

    def counted(f, lo, hi):
        factored.append(f)
        # factoring takes the prime with the fewest factors in its whole
        # split among the first SIEVE_PRIME_BUDGET usable ones, the smaller
        # on a tie
        counts = []
        for p in polynomials._SIEVE_PRIMES:
            parts = polynomials._distinct_degree_mod(f, p)
            if parts is not None:
                counts.append((sum((len(g) - 1) // d for d, g in parts), p))
            if len(counts) == polynomials.SIEVE_PRIME_BUDGET:
                break
        primes.clear()
        answer = zassenhaus(f, lo, hi)
        assert set(primes) == {min(counts)[1]}, (f, primes, counts)
        return answer

    primes = []
    monkeypatch.setattr(polynomials, "_zassenhaus", counted)
    split_equal = polynomials._equal_degree_mod
    monkeypatch.setattr(polynomials, "_equal_degree_mod",
                        lambda g, d, p, rng: primes.append(p) or split_equal(g, d, p, rng))
    rng = random.Random(20261020)
    paths = {"sieve": 0, "fallback": 0}
    for coeffs in _sieve_cases(rng):
        roots = sympy.Poly(list(reversed(coeffs)), _X).intervals()
        if not roots:
            continue
        (a, b), _ = rng.choice(roots)
        lo, hi = Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))
        want, lo, hi = factor_first_isolation(coeffs, lo, hi)
        before = len(factored)
        got = polynomials._minimal_factor(polynomials._squarefree(coeffs), lo, hi)
        assert got == want, (coeffs, lo, hi)
        paths["fallback" if len(factored) > before else "sieve"] += 1
    for f in certified:
        assert sympy.Poly(list(reversed(f)), _X).is_irreducible, f
    assert sum(paths.values()) >= 200 and min(paths.values()) >= 20, paths


def test_capped_sieve_still_factors():
    # (1 + sqrt 2)^3 = 7 + 5 sqrt 2, the root of y^2 - 14 y - 1: the sieve's
    # mask starts from {0, 2}, so its splits stop at degree 2, and the factor
    # x^2 - 2x - 1 still comes from a whole split
    assert polynomials._minimal_factor((-1, 0, 0, -14, 0, 0, 1), Fraction(2), Fraction(3)) == (-1, -2, 1)
    # (x^2 - 2x - 1)(x^9 - 3x^4 + x - 5), whose splits cut at degree 2 miss
    # factors: factoring splits whole
    f = [5, 9, -7, 1, 3, 6, -3, 0, 0, -1, -2, 1]
    cut = [polynomials._distinct_degree_mod(f, p, 2) for p in (3, 5, 11)]
    assert all(sum(len(g) - 1 for _, g in parts) < 11 for parts in cut)
    assert polynomials._zassenhaus(f, Fraction(2), Fraction(3)) == (-1, -2, 1)


def test_capped_sieve_prints_the_loop_schema(tmp_path, capsys):
    doc = tmp_path / "loops.txt"
    doc.write_text("loops\ncount 3 14\ncount 6 1\n")
    assert cli.main(["analyze", str(doc)]) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("gen ")]
    assert line.startswith("gen 3 poly -1 -2 1 root-in ")


def test_sieve_certifies_without_factoring(monkeypatch):
    # a 40-vertex graph's Perron root and a period-2 schema's root (its
    # first-return polynomial is a polynomial in x^2) are certified by the
    # sieve alone: factoring raises
    rng = random.Random(3)
    vs, edges = random_strongly_connected(rng, 40, 40)
    graph = FiniteGraph(vs, edges)
    (schema,) = realize_invariants(parse_invariants("gen 2 7/10 7/10 1\n")).parts()
    values = [perron_entropy(graph), classify_recurrence(schema).entropy]
    wants = [factor_first_isolation(h.poly, h.root_lo, h.root_hi)[0] for h in values]
    assert [len(w) - 1 for w in wants] == [39, 42]

    def refuse(*args):
        raise AssertionError("_zassenhaus called")

    monkeypatch.setattr(polynomials, "_zassenhaus", refuse)
    gcds = []
    gcd_mod = polynomials._gcd_mod

    def counted(*args):
        gcds[-1] += 1
        return gcd_mod(*args)

    monkeypatch.setattr(polynomials, "_gcd_mod", counted)
    for h, want in zip(values, wants):
        gcds.append(0)
        assert polynomials._minimal_factor(h.poly, h.root_lo, h.root_hi) == want
    # one gcd per block of degrees: a gcd per degree took 73 and 41 here, and
    # at most two thirds of that is allowed (the blocks take 29 and 20)
    assert gcds[0] <= 48 and gcds[1] <= 27, gcds


def _ddf_oracle(f, p):
    """sympy's distinct-degree split of f modulo p, as (d, monic product of
    the factors of degree d, ascending), or None when p divides the leading
    coefficient or f is not squarefree modulo p."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_from_int_poly, gf_monic, gf_sqf_p

    g = gf_from_int_poly(list(reversed(f)), p)
    if len(g) != len(f) or not gf_sqf_p(g, p, ZZ):
        return None
    return [(d, [int(c) for c in reversed(h)]) for h, d in gf_ddf_zassenhaus(gf_monic(g, p, ZZ)[1], p, ZZ)]


def _ddf_cases(rng: random.Random):
    """Seeded (f, p) pairs of degree 2-64 for every sieve prime: dense random
    polynomials, products of random factors (several factors of one degree
    modulo p), the widest slot (p = 199 at degree 64), leading coefficients
    divisible by p, and polynomials with a square factor modulo p."""

    def dense(n):
        return [rng.randint(-10**6, 10**6) for _ in range(n)] + [rng.randint(1, 10**6)]

    def product(n):
        cs = [1]
        while len(cs) - 1 < n:
            k = min(rng.randint(1, 8), n - len(cs) + 1)
            cs = _poly_mul(cs, [rng.randint(-9, 9) for _ in range(k)] + [rng.randint(1, 3)])
        return cs

    for p in polynomials._SIEVE_PRIMES:
        for n in (2, 64, *(rng.randint(2, 64) for _ in range(4))):
            yield (dense if rng.random() < 0.5 else product)(n), p
        f = dense(rng.randint(2, 64))
        f[-1] = p * rng.randint(1, 9)  # p divides the leading coefficient
        yield f, p
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1]
        f = _poly_mul(_poly_mul(g, g), product(rng.randint(0, 20)))
        # a square factor modulo p, hidden over Z below the leading term
        yield [c + p * rng.randint(-5, 5) for c in f[:-1]] + f[-1:], p
    for _ in range(6):
        yield (dense if rng.random() < 0.5 else product)(64), 199


def test_distinct_degree_split_equals_sympy():
    rng = random.Random(20261030)
    seen, primes = collections.Counter(), set()
    for f, p in _ddf_cases(rng):
        want = _ddf_oracle(f, p)
        assert polynomials._distinct_degree_mod(f, p) == want, (f, p)
        n = len(f) - 1
        seen["cases"] += 1
        primes.add(p)
        if want is None:
            seen["lead" if f[-1] % p == 0 else "square"] += 1
            continue
        seen["p > n"] += p > n
        seen["widest"] += p == 199 and n == 64
        seen["several degrees"] += len(want) >= 3
        seen["one degree, several factors"] += any(len(g) - 1 > d for d, g in want)
    assert seen["cases"] >= 300 and len(primes) == len(polynomials._SIEVE_PRIMES), seen
    for key in ("lead", "square", "p > n", "several degrees", "one degree, several factors"):
        assert seen[key] >= 20, (key, seen)
    assert seen["widest"] >= 5, seen


def test_capped_split_equals_sympy_below_its_cap():
    # every cap up to half the degree, as the sieve asks: the pairs of degree
    # up to the cap are sympy's, any pair above it is one of sympy's, and a
    # split whose degrees add up to the degree is sympy's whole split
    rng = random.Random(20261106)
    seen = collections.Counter()
    for f, p in _ddf_cases(rng):
        if rng.random() < 0.8 or (want := _ddf_oracle(f, p)) is None:
            continue
        n = len(f) - 1
        for cap in range(1, n // 2 + 1):
            got = polynomials._distinct_degree_mod(f, p, cap)
            assert [(d, g) for d, g in got if d <= cap] == [(d, g) for d, g in want if d <= cap], (f, p, cap)
            assert all(pair in want for pair in got), (f, p, cap)
            whole = sum(len(g) - 1 for _, g in got) == n
            assert not whole or got == want, (f, p, cap)
            seen["caps"] += 1
            seen["cut"] += not whole
            seen["cut above a factor"] += not whole and any(d <= cap for d, _ in got)
        seen["cases"] += 1
    assert seen["cases"] >= 30 and seen["cut above a factor"] >= 100, seen


def test_modular_split_and_hensel_lift():
    # the oracle: sympy's factorization over F_p.  The split has the
    # distinct-degree counts, and the lifted factors keep f = lc(f) G_1 ... G_r
    # modulo p^k, each G_i monic and equal to its factor modulo p
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly

    rng = random.Random(20261024)
    seen = {"cases": 0, "several": 0, "same_degree": 0}
    for coeffs in _sieve_cases(rng):
        f = list(polynomials._squarefree(coeffs))
        if len(f) < 3:
            continue
        p, parts = next(
            (p, parts) for p in polynomials._SIEVE_PRIMES
            if (parts := polynomials._distinct_degree_mod(f, p)) is not None
        )
        factors = [
            g for d, part in parts
            for g in polynomials._equal_degree_mod(part, d, p, random.Random(p))
        ]
        _, want = gf_factor_sqf(gf_from_int_poly(f[::-1], p), p, ZZ)
        assert sorted(factors) == sorted([int(c) for c in reversed(g)] for g in want), (f, p)
        assert len(factors) == sum((len(g) - 1) // d for d, g in parts)
        k = rng.randint(1, 12)
        lifted = polynomials._hensel_lift(f, factors, p, k)
        product = [f[-1]]
        for g, lift in zip(factors, lifted):
            assert lift[-1] == 1 and [c % p for c in lift] == g
            product = polynomials._mul_mod(product, lift, p**k)
        assert product == [c % p**k for c in f], (f, p, k)
        seen["cases"] += 1
        seen["several"] += len(factors) > 2
        seen["same_degree"] += any(len(g) - 1 > d for d, g in parts)
    assert seen["cases"] >= 150 and min(seen.values()) >= 20, seen


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


def _refine(cs, s: Fraction, t: Fraction, width: Fraction):
    """sympy's isolating interval (s, t) of a root of the squarefree cs
    (ascending), open, its ends perhaps other roots, halved by exact integer
    signs until narrower than width; (r, r) when the root r is met."""

    def sign(cs, x: Fraction) -> int:
        v, qk = 0, 1
        for c in reversed(cs):  # sum c_i p^i q^(d - i), for x = p / q
            v, qk = v * x.numerator + c * qk, qk * x.denominator
        return (v > 0) - (v < 0)

    # the sign left of the root: f(s), or f'(s) when s is another root
    left = s < t and (sign(cs, s) or sign([i * c for i, c in enumerate(cs)][1:], s))
    while t - s >= width:
        mid = (s + t) / 2
        side = sign(cs, mid)
        if side == 0:
            return mid, mid
        s, t = (mid, t) if side == left else (s, mid)
    return s, t


def _slope_cases(rng: random.Random):
    """Seeded squarefree integer polynomials (ascending) of degree 1-64:
    distinct rational roots, some of them in pairs 10^-k apart, times a
    random integer polynomial."""
    for case in range(50):
        n = rng.randint(1, 64)
        roots = set()
        for _ in range(rng.randint(0, min(n, 6))):
            r = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
            roots.add(r)
            if rng.random() < 0.5:
                roots.add(r + Fraction(1, 10 ** rng.randint(3, 9)))
        rest = max(0, n - len(roots))
        cs = [rng.randint(-9, 9) for _ in range(rest)] + [rng.randint(1, 9)]
        for r in roots:
            cs = _poly_mul(cs, [-r.numerator, r.denominator])
        poly = sympy.Poly(list(reversed(cs)), _X).sqf_part()
        if poly.degree() >= 1:
            yield tuple(int(c) for c in reversed(poly.all_coeffs()))


def test_slope_test_counts_one_root():
    # the oracle: sympy's root count in [lo, hi] (helpers.count_roots).
    # Wherever the slope test holds, the interval holds exactly one root, and
    # it never holds on an interval where f' vanishes
    rng = random.Random(20261104)
    seen = collections.Counter()
    narrow = Fraction(1, 2**50)
    for cs in _slope_cases(rng):
        isolating = [_refine(cs, s, t, narrow) for s, t in real_root_intervals(cs)[1]]
        intervals = []
        for s, t in isolating:
            if s == t:  # a rational root: around it, and from it
                pad = Fraction(1, 2 ** rng.randint(1, 60))
                intervals += [("narrow", s - pad, s + pad), ("endpoint", s, s + pad)]
            else:
                pad = Fraction(rng.choice((0, 1)), 2 ** rng.randint(20, 60))
                intervals.append(("narrow", s - pad, t + pad))
        dfs = _ascending(sympy.Poly(list(reversed(cs)), _X).diff(_X).sqf_part().as_expr())
        critical = real_root_intervals(dfs)[1] if len(dfs) > 1 else []
        for (s0, t0), (s1, t1) in zip(isolating, isolating[1:]):
            intervals.append(("two roots", s0, t1))
            # up to a zero of f' between the two roots: one root, f' = 0 inside
            for a, b in critical:
                if a < s1 and b > t0:
                    a, b = _refine(dfs, a, b, (s1 - t0) / 4)
                    if t0 < a and b < s1:
                        intervals.append(("critical", s0, b))
                        break
        for kind, lo, hi in intervals:
            holds = polynomials._one_root_by_slope(cs, lo, hi)
            count = count_roots(cs, lo, hi)
            if holds:
                assert count == 1, (cs, lo, hi)
            if kind == "critical":
                assert count == 1 and not holds, (cs, lo, hi)
            assert _roots_in(cs, lo, hi) == count, (cs, lo, hi)
            seen[kind] += 1
            seen[f"{kind} held"] += holds
            seen["degree above 48"] += holds and len(cs) > 49
            if kind == "narrow" and hi - lo < Fraction(1, 2**40):
                seen["tight"] += 1
                seen["tight held"] += holds
    # an isolating interval narrower than 2^-40 almost always passes
    assert seen["tight held"] >= 0.95 * seen["tight"] >= 150, seen
    assert seen["endpoint held"] == seen["two roots held"] == 0, seen
    for key in ("endpoint", "two roots", "critical", "degree above 48"):
        assert seen[key] >= 20, (key, seen)


def test_exact_roots_take_no_descartes_count(monkeypatch, tmp_path, capsys):
    # analyze of a 40-vertex graph and of a realized schema: every root
    # count and isolation check is proved by the slope test
    def refuse(*args):
        raise AssertionError("_roots_in_unit called")

    slopes = []
    slope = polynomials._one_root_by_slope
    monkeypatch.setattr(polynomials, "_roots_in_unit", refuse)
    monkeypatch.setattr(
        polynomials, "_one_root_by_slope", lambda *args: slopes.append(slope(*args)) or slopes[-1])
    vs, edges = random_strongly_connected(random.Random(3), 40, 40)
    graph = tmp_path / "graph.txt"
    graph.write_text("graph\n" + "".join(f"vertex {v}\n" for v in vs)
                     + "".join(f"edge {u} {v}\n" for u, v in edges))
    (schema,) = realize_invariants(parse_invariants("gen 2 7/10 7/10 1\n")).parts()
    realized = tmp_path / "realized.txt"
    realized.write_text(format_document([schema]))
    for doc in (graph, realized):
        assert cli.main(["analyze", str(doc)]) == 0
        out = capsys.readouterr().out
        assert " poly " in out
        assert cli.main(["compare", str(doc), str(doc)]) == 0
    assert slopes.count(True) >= 4, slopes


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


def _bisection_cases(rng: random.Random):
    """Seeded (coeffs, lo, hi, width, root): coeffs has one root in [lo, hi],
    `root` when it is rational and None otherwise, and not the same nonzero
    sign at both ends.  A rational root p/q comes from a factor q x - p and
    lies on a point lo + (hi - lo) j / 2^k (the first midpoint in a sixth of
    the cases) or at an end; an irrational one is the root of x^2 - n or
    x^3 - n between consecutive multiples of 1/D.  The cofactor x^2 + c has
    no real root, and x + c only a negative one."""
    for case in range(240):
        width = Fraction(1, rng.choice((2, 3, 10)) ** rng.randint(0, 40))
        c = rng.randint(1, 9)
        if case % 3 < 2:
            root = Fraction(rng.randint(1, 60), rng.randint(1, 7))
            factor = root.denominator * _X - root.numerator
            span = Fraction(1, rng.randint(1, 9))
            k = 1 if case % 2 == 0 else rng.randint(1, 8)
            j = rng.choice((0, 2**k)) if case % 3 == 1 else rng.randrange(1, 2**k)
            lo = root - span * Fraction(j, 2**k)
            hi, cofactor = lo + span, _X**2 + c
        else:
            n, e = rng.randint(2, 200), rng.choice((2, 3))
            den = rng.randint(1, 10 ** rng.randint(0, 12))
            if round(n ** (1 / e)) ** e == n:
                n += 1
            a = math.isqrt(n * den**2) if e == 2 else round((n * den**3) ** (1 / 3))
            while a**e > n * den**e:
                a -= 1
            while (a + 1) ** e <= n * den**e:
                a += 1
            root, factor, lo, hi = None, _X**e - n, Fraction(a, den), Fraction(a + 1, den)
            cofactor = rng.choice((_X**2 + c, _X + c))
        yield _ascending(sympy.expand(factor * cofactor)), lo, hi, width, root


def test_lambda_enclosure_equals_fraction_bisection():
    # the shared integer bisection returns the interval that bisecting in
    # Fractions with the same midpoint and nudge rule returns, on 240 seeded
    # roots: rational ones on lattice points and at the ends, irrational ones
    seen = collections.Counter()
    for coeffs, lo, hi, width, root in _bisection_cases(random.Random(39)):
        assert polynomials.isolates_one_root(coeffs, lo, hi), (coeffs, lo, hi)
        nudges = []
        want = bisection_reference(coeffs, lo, hi, width, nudges)
        got = ExactAlgebraic(coeffs, lo, hi, minimal=False).lambda_enclosure(width)
        assert (got.lo, got.hi) == want, (coeffs, lo, hi, width)
        assert root is None or got.lo <= root <= got.hi
        assert got.width <= width
        seen["cases"] += 1
        seen["nudged"] += bool(nudges)
        seen["first midpoint"] += nudges[:1] == [(lo + hi) / 2]
        seen["at an end"] += root in (lo, hi)
        seen["irrational"] += root is None
    assert seen["cases"] >= 200 and min(seen.values()) >= 20, seen
    # (2x - 3)(x^2 + 1): the root 3/2 is the first midpoint of [1, 2]
    h = ExactAlgebraic((-3, 2, -3, 2), Fraction(1), Fraction(2), minimal=False)
    enc = h.lambda_enclosure(ENCLOSURE_WIDTH)
    assert (enc.lo, enc.hi) == bisection_reference(h.poly, h.root_lo, h.root_hi, ENCLOSURE_WIDTH)
    assert enc.lo < Fraction(3, 2) < enc.hi and enc.width <= ENCLOSURE_WIDTH


def test_rational_root_finds_seeded_roots():
    # a rational root comes back exactly, on the first midpoint, on other
    # lattice points and at the ends; an irrational root gives None
    seen = collections.Counter()
    for coeffs, lo, hi, _, root in _bisection_cases(random.Random(40)):
        assert polynomials._rational_root(coeffs, lo, hi) == root, (coeffs, lo, hi)
        seen["first midpoint" if root == (lo + hi) / 2 else "rational" if root else "none"] += 1
    assert min(seen.values()) >= 20, seen


def test_lambda_enclosure_builds_only_its_two_ends(monkeypatch):
    # every bisection point is an integer pair: the only Fractions built are
    # the returned interval's ends
    cases = [
        (ExactAlgebraic(coeffs, lo, hi, minimal=False), width)
        for coeffs, lo, hi, width, _ in _bisection_cases(random.Random(41))
    ]
    made = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    for h, width in cases:
        h.lambda_enclosure(width)
    monkeypatch.undo()
    assert len(made) == 2 * len(cases)


def _seeded_multigraphs(rng: random.Random):
    """Seeded multigraphs on 1 to EXACT_VERTEX_CAP vertices: single cycles,
    and random graphs with self-loops and edge multiplicities 1 to 3."""
    for n in (1, 2, 7, 30, EXACT_VERTEX_CAP):
        yield cycle_graph(n)
    for case in range(110):
        n = EXACT_VERTEX_CAP if case % 20 == 0 else rng.randint(1, EXACT_VERTEX_CAP)
        vs = [f"v{i}" for i in range(n)]
        edges = [(v, v) for v in rng.sample(vs, rng.randint(0, min(n, 3)))]
        for _ in range(rng.randint(n, 3 * n)):
            u, v = rng.choice(vs), rng.choice(vs)
            edges += [(u, v)] * rng.choice((1, 1, 2, 3))
        yield FiniteGraph(vs, edges)


def _path_counts(rows, terms: int) -> list[int]:
    """The oracle's path counts 1^T A^i 1, i < terms, from the dense matrix."""
    n = len(rows)
    dense = [[0] * n for _ in rows]
    for i, row in enumerate(rows):
        for j, m in row:
            dense[i][j] += m
    v, out = [1] * n, []
    for _ in range(terms):
        out.append(sum(v))
        v = [sum(a * b for a, b in zip(r, v)) for r in dense]
    return out


def _check_annihilator(rows, q, root: bool = True) -> tuple[int, ...]:
    """The oracle: q is monic of degree 1 to n, divides sympy's charpoly chi,
    annihilates the path counts well past the 2n terms it was found from,
    and, with `root`, has the spectral radius rho as a root: rho is the
    largest real root of chi, and the squarefree part of q does not take one
    nonzero sign at both ends of sympy's isolating interval of it.  Returns
    chi, ascending."""
    n = len(rows)
    assert q[-1] == 1 and 1 <= len(q) - 1 <= n, q
    mat = sympy.SparseMatrix(n, n, {(i, j): m for i, row in enumerate(rows) for j, m in row})
    chi = mat.charpoly(_X)
    poly = sympy.Poly(list(reversed(q)), _X)
    assert chi.rem(poly).is_zero, (rows, q)
    counts = _path_counts(rows, 3 * n + 2)
    ell = len(q) - 1
    windows = range(len(counts) - ell)
    assert all(sum(map(operator.mul, q, counts[i : i + ell + 1])) == 0 for i in windows), (rows, q)
    if root:
        (lo, hi), _ = max(chi.sqf_part().intervals(), key=lambda interval: interval[0][1])
        sqf = poly.sqf_part()
        assert sqf.eval(lo) * sqf.eval(hi) <= 0, (rows, q)
    return tuple(int(c) for c in reversed(chi.all_coeffs()))


def test_path_count_annihilator_divides_sympy_charpoly():
    # the oracle: sympy's charpoly of the dense adjacency matrix, on the
    # seeded multigraphs that Berkowitz's method was checked on
    rng = random.Random(20261021)
    seen = {"graphs": 0, "cap": 0, "loops": 0, "multiple": 0, "proper": 0, "whole": 0}
    for g in _seeded_multigraphs(rng):
        rows = g.index().succ
        n = len(rows)
        q = entropy._path_count_annihilator(rows)
        chi = _check_annihilator(rows, q)
        seen["graphs"] += 1
        seen["cap"] += n == EXACT_VERTEX_CAP
        seen["loops"] += any(j == i for i, row in enumerate(rows) for j, _ in row)
        seen["multiple"] += any(m > 1 for row in rows for _, m in row)
        seen["proper" if q != chi else "whole"] += 1
    assert seen["graphs"] >= 100 and min(seen.values()) >= 5, seen


def test_path_count_annihilator_on_wide_coefficients():
    # the oracle: sympy's charpoly of the dense matrix, on seeded matrices of
    # up to EXACT_VERTEX_CAP vertices from sparse to dense, with entries up
    # to 10^6, so that the lift modulo 2^61 - 1 fails its exact check and the
    # prime above twice the Mignotte bound gives the annihilator (sympy takes
    # minutes to isolate the roots of such a chi; the root is checked above)
    rng = random.Random(20261105)
    seen = collections.Counter()
    for case in range(12):
        n = EXACT_VERTEX_CAP if case % 4 == 0 else rng.randint(2, EXACT_VERTEX_CAP)
        density = (0.03, 0.1, 0.3, 1.0)[(case + case // 4) % 4]
        top = (3, 10**3, 10**6)[case % 3]
        rows = [[(j, rng.randint(1, top)) for j in range(n) if rng.random() < density] for _ in range(n)]
        q = entropy._path_count_annihilator(rows)
        _check_annihilator(rows, q, root=False)
        seen["cap"] += n == EXACT_VERTEX_CAP
        seen["dense"] += density == 1.0
        seen["sparse"] += density < 0.1
        seen["10^6"] += top == 10**6
        seen["past 2^61 - 1"] += max(map(abs, q)).bit_length() > 60
    assert min(seen.values()) >= 3, seen


def _periodic_multigraph(rng: random.Random, p: int) -> FiniteGraph:
    """A strongly connected multigraph on k p vertices, k <= EXACT_VERTEX_CAP
    / p, whose edges all step from cyclic class i mod p to class i + 1: a
    Hamiltonian cycle through the classes in turn, and random edges with
    multiplicities 1 to 3, at least one, so that it is no single cycle."""
    k = rng.randint(1, EXACT_VERTEX_CAP // p)
    n = k * p
    vs = [f"v{i}" for i in range(n)]
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    for _ in range(rng.randint(1, 2 * n)):
        u = rng.randrange(n)
        w = rng.randrange(k) * p + (u + 1) % p
        edges += [(vs[u], vs[w])] * rng.choice((1, 1, 2, 3))
    return FiniteGraph(vs, edges)


def test_path_count_annihilator_identifies_the_perron_root():
    # on 300 seeded strongly connected multigraphs of periods 1 to 4, the
    # annihilator q and sympy's charpoly chi identify the same isolating
    # interval and minimal polynomial from perron_entropy's enclosure
    rng = random.Random(20261020)
    seen = collections.Counter()
    for case in range(300):
        g = _periodic_multigraph(rng, 1 + case % 4)
        rows = g.index().succ
        q = entropy._path_count_annihilator(rows)
        chi = _check_annihilator(rows, q)
        p = period_of_component(g)
        enc = entropy._root_enclosure(collatz_wielandt_enclosure(rows, period=p), p)
        got, want = identify_algebraic(q, enc), identify_algebraic(chi, enc)
        assert (got.root_lo, got.root_hi, got.minpoly) == (want.root_lo, want.root_hi, want.minpoly)
        assert perron_entropy(g) == got
        seen[f"period {p}"] += 1
        seen["proper"] += q != chi
        seen["cap"] += len(rows) > EXACT_VERTEX_CAP - 4
    assert min(seen[f"period {p}"] for p in range(1, 5)) >= 50 and seen["proper"] >= 15, seen
    assert seen["cap"] >= 5, seen


def test_path_count_annihilator_with_tiny_moduli(monkeypatch):
    # moduli 3, 7, 31 and 127: lifts are often wrong and the Mignotte prime
    # often missing, yet only a recurrence that passed the exact check comes
    # back, and otherwise PrecisionExhausted
    monkeypatch.setattr(entropy, "_MERSENNE_EXPONENTS", (2, 3, 5, 7))
    rng = random.Random(20261021)
    seen = collections.Counter()
    for g in _seeded_multigraphs(rng):
        rows = g.index().succ
        try:
            q = entropy._path_count_annihilator(rows)
        except PrecisionExhausted:
            seen["exhausted"] += 1
            continue
        _check_annihilator(rows, q)
        seen["returned"] += 1
    assert seen["returned"] >= 5 and seen["exhausted"] >= 50, seen
    # the golden mean's counts 2, 3, 5, 8 give x^2 - x - 1 already modulo 3;
    # the full shift on 8 symbols has no tiny modulus above the bound
    assert entropy._path_count_annihilator(golden_mean_graph().index().succ) == (-1, -1, 1)
    with pytest.raises(PrecisionExhausted):
        entropy._path_count_annihilator(full_shift_graph("abcdefgh").index().succ)


def test_berlekamp_massey_lifts_to_symmetric_residues():
    # r^i has the least recurrence x - r; at r = +-(p - 1)/2, the ends of the
    # symmetric range, the residue of -r is p - r or -r itself
    for p in (3, 7, 31, 127, 2**61 - 1):
        for r in (p >> 1, -(p >> 1), 1, -1, 0):
            assert polynomials._berlekamp_massey([r**i for i in range(8)], p) == [-r, 1], (p, r)
    fibonacci = [1, 1, 2, 3, 5, 8, 13, 21]
    assert polynomials._berlekamp_massey(fibonacci, 7) == [-1, -1, 1]
    assert polynomials._berlekamp_massey([3, 0, 0, 0], 2**61 - 1) == [0, 1]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            out[i + j] += p * q
    return out


def _squarefree_cases(rng: random.Random):
    """Seeded integer polynomials (ascending): products of random factors
    with multiplicities 1 to 3, times powers of x, a content and a sign,
    and a few of degree 500 to 1,000."""
    for case in range(230):
        big = case % 40 == 0
        f = [rng.randint(1, 12) * rng.choice((1, 1, -1))]  # content and sign
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))] + [rng.choice((1, 2, 3))]
            for _ in range(rng.choice((1, 1, 2, 3))):
                f = _poly_mul(f, g)
        if big:
            g = [rng.randint(-3, 3) for _ in range(rng.randint(250, 480))] + [1]
            f = _poly_mul(f, _poly_mul(g, g))
        if rng.random() < 0.3:
            f = [0] * rng.randint(1, 4) + f
        yield tuple(f)


def _sympy_squarefree(f):
    sqf = sympy.Poly(list(reversed(f)), _X, domain="ZZ").sqf_part()
    cs = tuple(int(c) for c in reversed(sqf.all_coeffs()))
    return cs if cs[-1] > 0 else tuple(-c for c in cs)


def test_squarefree_equals_sympy():
    # the oracle: sympy's sqf_part, with a positive leading coefficient
    rng = random.Random(20261022)
    seen = {"cases": 0, "repeated": 0, "x_power": 0, "content": 0, "negative": 0, "deg500": 0}
    for f in _squarefree_cases(rng):
        want = _sympy_squarefree(f)
        assert polynomials._squarefree(f) == want, f
        seen["cases"] += 1
        seen["repeated"] += len(want) < len(f)
        seen["x_power"] += f[0] == 0
        seen["content"] += math.gcd(*f) > 1
        seen["negative"] += f[-1] < 0
        seen["deg500"] += len(f) > 500
    assert seen["cases"] >= 200 and min(seen.values()) >= 5, seen


def test_heuristic_gcd_past_its_first_point(monkeypatch):
    # the oracle: sympy's gcd, primitive with a positive leading coefficient.
    # Pairs (a h, b h) for random factors, h of degree 4-6 with larger
    # coefficients; a spy counts the points each gcd draws, and some pairs
    # need a second or a third
    points = []
    candidates = polynomials._gcd_candidates

    def spy(f, g, xi):
        points.append(xi)
        return candidates(f, g, xi)

    def factor(lo, hi, c):
        return [rng.randint(-c, c) for _ in range(rng.randint(lo, hi))] + [rng.choice((1, 1, 2, 3))]

    monkeypatch.setattr(polynomials, "_gcd_candidates", spy)
    rng = random.Random(20261019)
    drawn = {}
    for _ in range(3000):
        h, a, b = factor(4, 6, 9), factor(2, 4, 3), factor(2, 4, 3)
        f, g = _poly_mul(a, h), _poly_mul(b, h)
        points.clear()
        got = polynomials._poly_gcd(f, g)
        want = sympy.Poly(f[::-1], _X, domain="ZZ").gcd(sympy.Poly(g[::-1], _X, domain="ZZ"))
        cs = tuple(int(c) for c in reversed(want.primitive()[1].all_coeffs()))
        assert got == (cs if cs[-1] > 0 else tuple(-c for c in cs)), (f, g)
        drawn[len(points)] = drawn.get(len(points), 0) + 1
    assert drawn.get(2, 0) >= 20 and drawn.get(3, 0) >= 3, drawn


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


def test_compare_cospectral_components_of_different_annihilators(tmp_path, capsys):
    # _same_algebraic compares poly.  Isomorphic components share it, as path
    # counts are isomorphism invariants; a seeded cospectral pair that is not
    # isomorphic, found by sympy's charpolys, has different path counts and
    # polys, and compare decides it on refined enclosures instead
    rng = random.Random(20261020)
    by_chi = {}
    for _ in range(1000):
        vs, edges = random_strongly_connected(rng, 5, 4)
        b = FiniteGraph(vs, edges)
        if perron_entropy(b) is ZERO_ENTROPY:
            continue
        rows = b.index().succ
        n = len(rows)
        mat = sympy.SparseMatrix(n, n, {(i, j): m for i, row in enumerate(rows) for j, m in row})
        a = by_chi.setdefault(tuple(mat.charpoly(_X).all_coeffs()), b)
        if perron_entropy(a).poly != perron_entropy(b).poly:
            break
    else:
        pytest.fail("no cospectral pair with different annihilators")
    ha, hb = perron_entropy(a), perron_entropy(b)
    assert _path_counts(a.index().succ, 8) != _path_counts(rows, 8)
    assert ha.minpoly == hb.minpoly and not entropy._same_algebraic(ha, hb)
    paths = []
    for name, g in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.txt")
        paths[-1].write_text(format_document([g]))
    assert cli.main(["compare", *map(str, paths)]) == 0
    assert "isomorphic=true" in capsys.readouterr().out.splitlines()


def test_compare_entropy_tolerance_clusters_nearby_values():
    a = IntervalApprox(Fraction(7, 10), Fraction(7, 10))
    b = IntervalApprox(Fraction(7, 10) + Fraction(1, 10**12), Fraction(7, 10) + Fraction(1, 10**12))
    assert compare_entropy(a, b, Fraction(1, 10**9)) == "eq"
    assert compare_entropy(a, b, Fraction(1, 10**13)) == "lt"


def test_compare_entropy_unknown_when_unrefinable():
    a = IntervalApprox(Fraction(1, 2), Fraction(3, 4))
    b = IntervalApprox(Fraction(5, 8), Fraction(7, 8))
    assert compare_entropy(a, b) == "unknown"


def test_a_value_compares_equal_to_itself_at_any_tolerance():
    tol = Fraction(1, 10**300)
    exact = ExactAlgebraic((1, -3, 1), Fraction(2), Fraction(3))
    wide = IntervalApprox(Fraction(1, 2), Fraction(1))
    for h in (ZERO_ENTROPY, INFINITE_ENTROPY, exact, wide):
        assert compare_entropy(h, h, tol) == "eq"


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
    # an interval that overlaps a point within tolerance has no certified maximum
    half = IntervalApprox(Fraction(1, 2), Fraction(1, 2))
    near = IntervalApprox(Fraction(1000000001, 2000000000), Fraction(1000000003, 2000000000))
    with pytest.raises(Inconclusive, match="^entropy maximum inconclusive at tolerance$"):
        max_entropy([half, near])


def test_infinite_entropy_is_the_float_infinity():
    assert float(INFINITE_ENTROPY) == math.inf
    with pytest.raises(ValueError, match="no finite enclosure"):
        INFINITE_ENTROPY.log_enclosure()


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
