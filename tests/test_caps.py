"""The worst accepted input at each size cap, run through `cli.main` under a
wall bound.

A cap bounds the size of what a verb builds; the largest input it admits is
the slowest input that still gets an answer.  Each row finds that input,
times the verb on it and checks the answer independently.
"""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
import sympy

from borelshift import check_injective, parse_code, recurrence
from borelshift.cli import main
from borelshift.entropy import EXACT_VERTEX_CAP
from borelshift.markers import STATE_CAP
from borelshift.pathology import WINDOW_CAP
from borelshift.presentations import LENGTH_CAP
from borelshift.realize import ENTROPY_FLOOR, SEED_EXPONENT_FLOOR, _greedy_pr_schema

from helpers import phi_bounds, root_brackets_one

WALL_S = 20.0
# traced peak of a pathology row: the construction's arcs as compact columns
# and one label walk take about 10 MiB at either cap, against 66-73 MiB when
# they were held as tuples, successor rows and per-tail lists
PATHOLOGY_PEAK = 20 * 2**20

EVEN_CODE = (
    "code edge\nvertex a\nvertex b\nedge a a x0\nedge a b x1\nedge b a x2\n"
    "map x0 1\nmap x1 0\nmap x2 0\n"
)


def timed(capsys, argv):
    start = time.perf_counter()
    rc = main(argv)
    wall = time.perf_counter() - start
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, wall


def test_embed_at_the_largest_certificate_state_cap_admits(tmp_path, capsys):
    # targets 19/50, 39/100 and 2/5 on the even code: the marker presentation
    # grows with the target until 2/5 needs more than STATE_CAP states
    path = tmp_path / "even.code"
    path.write_text(EVEN_CODE)
    accepted = []
    for target in (Fraction(19, 50), Fraction(39, 100), Fraction(2, 5)):
        rc, out, err, wall = timed(capsys, ["embed", str(path), "--target", str(target)])
        assert wall < WALL_S, (target, wall)
        if target == Fraction(2, 5):
            assert rc == 2 and "state budget" in err, (target, rc, err)
        else:
            assert rc == 0, (target, rc, err)
            accepted.append(out)
    states = [int(line.split("=")[1]) for out in accepted for line in out.splitlines()
              if line.startswith("# states=")]
    assert states == [12782, 19642]
    assert max(states) <= STATE_CAP
    # the audit: the emitted code on the largest certificate is injective
    largest = parse_code(accepted[-1])
    assert len(largest.domain.vertices) == 19642
    assert check_injective(largest).injective


@pytest.fixture
def root_intervals(monkeypatch):
    """The root intervals that the bisection returns while a test runs."""
    got = []
    bisect = recurrence._bracket_and_bisect_root

    def spy(*args):
        got.append(bisect(*args))
        return got[-1]

    monkeypatch.setattr(recurrence, "_bracket_and_bisect_root", spy)
    return got


def analyze_loops(tmp_path, capsys, text):
    path = tmp_path / "loops.txt"
    path.write_text(text)
    rc, out, err, wall = timed(capsys, ["analyze", str(path)])
    assert wall < WALL_S, wall
    assert rc == 0, err
    return [line for line in out.splitlines() if line.startswith("gen ")]


def test_damped_tail_at_the_largest_stride_tail_bits_cap_admits(tmp_path, capsys, root_intervals):
    # n0 + 64 stride = 3,333,314 terms of a 2-bit ratio: the first round's
    # last power of k is as large as TAIL_BITS_CAP admits; Phi(1/2) < 1
    gens = analyze_loops(tmp_path, capsys, "loops\ncount 1 1\ntail damped 1 2 2 from 2 stride 52083\n")
    assert gens == ["gen 1 log 2 0"]
    assert not root_intervals
    assert phi_bounds(((1, 1),), ("damped", 1, 2, 2, 2, 52083), Fraction(1, 2))[1] < 1


def test_near_critical_damped_root_is_certified(tmp_path, capsys, root_intervals):
    # Phi(1/2) is about 1.011, so the root lies just below the radius, where
    # the enclosures run to their term cap
    gens = analyze_loops(tmp_path, capsys, "loops\ncount 5 30\ntail damped 1/2 2 2 from 6\n")
    assert gens == [
        "gen 1 112720224654989314185393355245823/162259276829213363391578010288128 "
        "225440449309987866002456692240237/324518553658426726783156020576256 1"
    ]
    (root,) = root_intervals
    assert root_brackets_one(((5, 30),), ("damped", Fraction(1, 2), 2, 2, 6, 1), root.lo, root.hi)


def test_divergent_d1_damped_root_is_certified(tmp_path, capsys, root_intervals):
    # at d = 1 Phi diverges at the radius only logarithmically, so the root
    # lies close to it
    gens = analyze_loops(tmp_path, capsys, "loops\ntail damped 1/2 7/3 1 from 4 stride 2\n")
    assert gens == [
        "gen 2 17247066328181511366257879161031/20282409603651670423947251286016 "
        "551906122501826866778771856505807/649037107316853453566312041152512 1"
    ]
    (root,) = root_intervals
    assert root_brackets_one((), ("damped", Fraction(1, 2), Fraction(7, 3), 1, 4, 2), root.lo, root.hi)


def test_realize_transient_generator_under_the_entropy_cap(tmp_path, capsys, root_intervals):
    # period 11 at entropy 9000: the emitted damped tail's first round has
    # about 9.3M bits of powers, just under TAIL_BITS_CAP
    path = tmp_path / "gen.txt"
    path.write_text("gen 11 9000 9000 0\n")
    rc, out, err, wall = timed(capsys, ["realize", str(path)])
    assert rc == 0, err
    tails = [line.split() for line in out.splitlines() if line.startswith("tail damped ")]
    assert len(tails) == 1
    _, _, a, k, d, _, n0, _, s = tails[0]
    a, k, d, n0, s = Fraction(a), Fraction(k), int(d), int(n0), int(s)
    assert (n0, s) == (11, 11)
    realized = tmp_path / "realized.txt"
    realized.write_text(out)
    rc, out, err, wall2 = timed(capsys, ["analyze", str(realized)])
    assert wall + wall2 < WALL_S, (wall, wall2)
    assert rc == 0, err
    # transient at entropy log k: lambda = k is the root of k.den x - k.num
    gens = [line for line in out.splitlines() if line.startswith("gen ")]
    assert gens == [f"gen 11 poly {-k.numerator} {k.denominator} root-in {k} {k} 0"]
    assert not root_intervals
    assert phi_bounds((), ("damped", a, k, d, n0, s), 1 / k)[1] < 1


def test_realize_at_the_greedy_exponent_floor(tmp_path, capsys):
    # greedy digits take about ln(10^13) / (p h) steps on integers that grow
    # each step, so p h = SEED_EXPONENT_FLOOR = 1/500 is the slowest accepted
    # entropy; just below it realize refuses by name
    assert SEED_EXPONENT_FLOOR == Fraction(1, 500)
    path = tmp_path / "gen.txt"
    path.write_text("gen 1 1/500 1/500 1\n")
    rc, out, err, wall = timed(capsys, ["realize", str(path)])
    assert wall < WALL_S, wall
    assert rc == 0, err
    counts = [tuple(map(int, line.split()[1:])) for line in out.splitlines()
              if line.startswith("count ")]
    # Phi(e^-h) = sum c_n e^(-h n) crosses 1 within 10^-9 of h = 1/500
    with mpmath.workdps(60):
        phi = [sum(c * mpmath.exp(-h * n) for n, c in counts)
               for h in (mpmath.mpf(1) / 500 - mpmath.mpf(10) ** -9,
                         mpmath.mpf(1) / 500 + mpmath.mpf(10) ** -9)]
        assert phi[0] > 1 > phi[1]
    path.write_text("gen 1 1/501 1/501 1\n")
    rc, out, err, wall = timed(capsys, ["realize", str(path)])
    assert wall < 1, wall
    assert rc == 1 and out == ""
    assert err.splitlines() == [
        "period times entropy below SEED_EXPONENT_FLOOR = 1/500,"
        " under which greedy digits would not finish"
    ]


def test_realize_below_the_greedy_entropy_floor_is_refused(tmp_path, capsys):
    # greedy loop lengths reach about ln(10^13) / h: at h = 10^-4 about
    # 300,000, above LENGTH_CAP, so realize refuses by name before any digit
    # (p h = 1/500 is at SEED_EXPONENT_FLOOR, which admits it)
    path = tmp_path / "gen.txt"
    path.write_text("gen 20 1/10000 1/10000 1\n")
    rc, out, err, wall = timed(capsys, ["realize", str(path)])
    assert wall < 1, wall
    assert rc == 1 and out == ""
    assert err.splitlines() == [
        "entropy below ln(1/DIGIT_FLOOR) / LENGTH_CAP = 0.000299336,"
        f" under which greedy loop lengths would pass LENGTH_CAP = {LENGTH_CAP}"
    ]


def test_greedy_lengths_at_the_entropy_floor_stay_under_the_length_cap():
    # at ENTROPY_FLOOR itself the digits stop at about LENGTH_CAP
    assert math.log(10**13) / LENGTH_CAP == ENTROPY_FLOOR
    for period in range(50, 101, 10):
        schema = _greedy_pr_schema(period, Fraction(ENTROPY_FLOOR))
        assert max(n for n, _ in schema.counts) <= LENGTH_CAP, period


def traced_pathology(capsys, argv):
    """`pathology` through cli.main under tracemalloc: exit code, report
    lines, wall time and traced peak."""
    tracemalloc.start()
    try:
        rc, out, err, wall = timed(capsys, ["pathology", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, err
    return out.splitlines(), wall, peak


def test_pathology_at_the_largest_depth_size_cap_admits(capsys):
    # the default run, depth 8: 307,633 vertices plus edges of SIZE_CAP's
    # 400,000, and depth 9 (838,696) is refused
    lines, wall, peak = traced_pathology(capsys, [])
    assert wall < WALL_S, wall
    assert peak < PATHOLOGY_PEAK, peak
    for line in ("states=151370", "return_counts_match=true", "bordered_unique=true", "certified=true"):
        assert line in lines, line
    rc, _, err, _ = timed(capsys, ["pathology", "--depth", "9"])
    assert rc == 2 and "SIZE_CAP" in err, (rc, err)


def test_pathology_at_the_window_cap(capsys):
    # depth 2 at window WINDOW_CAP: connectors of about 10,000 marker edges,
    # and first returns and loop counts walked 10,000 steps
    lines, wall, peak = traced_pathology(capsys, ["--depth", "2", "--window", str(WINDOW_CAP)])
    assert wall < WALL_S, wall
    assert peak < PATHOLOGY_PEAK, peak
    for line in ("states=129980", "return_counts_match=true", "gap_certified=true", "certified=true"):
        assert line in lines, line
    rc, _, err, _ = timed(capsys, ["pathology", "--depth", "2", "--window", str(WINDOW_CAP + 1)])
    assert rc == 2 and "WINDOW_CAP" in err, (rc, err)


def test_compare_on_forty_distinct_periods(tmp_path, capsys):
    # 40 disjoint cycles of the first 40 prime lengths, each with one edge
    # doubled, so the component of length p has entropy log(2) / p: compare
    # decides on the 41 periods 1 and p, where the lcm closure of 2^40
    # values once exited 2 from 13 primes on
    primes = [p for p in range(2, 174) if all(p % q for q in range(2, p))]
    assert len(primes) == 40
    lines = ["graph"]
    for p in primes:
        lines += [f"edge p{p}.{i} p{p}.{(i + 1) % p}" for i in range(p)] + [f"edge p{p}.0 p{p}.1"]
    graph = tmp_path / "primes.txt"
    graph.write_text("\n".join(lines) + "\n")
    rc, out, err, wall = timed(capsys, ["analyze", str(graph)])
    assert rc == 0, err
    comps = [dict(kv.split("=") for kv in line[2:].split()) for line in out.splitlines()
             if line.startswith("# component=")]
    assert sorted(int(c["period"]) for c in comps) == primes
    for c in comps:
        assert abs(float(c["entropy"]) - math.log(2) / int(c["period"])) < 1e-9, c
    inv = tmp_path / "primes_inv.txt"
    inv.write_text(out)
    rc, out, err, compare_wall = timed(capsys, ["compare", str(inv), str(graph)])
    assert (rc, out) == (0, "isomorphic=true\n"), err
    assert wall + compare_wall < WALL_S, (wall, compare_wall)


def test_analyze_dense_multigraph_at_the_exact_vertex_cap(tmp_path, capsys):
    # EXACT_VERTEX_CAP vertices, each ordered pair joined by 1 to 3 edges:
    # 7,289 lines, the densest component whose entropy is exact.  Its
    # path-count annihilator is the characteristic polynomial, irreducible
    # of degree 60, with coefficients past 2^61, so the lift modulo 2^61 - 1
    # fails its check and the prime above the Mignotte bound gives it
    rng = random.Random(60)
    n = EXACT_VERTEX_CAP
    mult = [[rng.randint(1, 3) for _ in range(n)] for _ in range(n)]
    lines = ["graph", *(f"vertex v{i}" for i in range(n))]
    lines += [f"edge v{i} v{j}" for i, row in enumerate(mult) for j, m in enumerate(row)
              for _ in range(m)]
    assert len(lines) == 7289
    path = tmp_path / "dense.txt"
    path.write_text("\n".join(lines) + "\n")
    rc, out, err, wall = timed(capsys, ["analyze", str(path)])
    assert wall < WALL_S, wall
    assert rc == 0, err
    chi = sympy.Matrix(mult).charpoly(sympy.Symbol("x")).all_coeffs()
    poly = " ".join(str(c) for c in reversed(chi))
    assert [line for line in out.splitlines() if line.startswith("gen ")] == [
        f"gen 1 poly {poly} root-in "
        "944137499595091921/7834469371124497 955972472613769101/7932676182804647 1"
    ]
