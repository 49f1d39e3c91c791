"""Command-line verbs, exit codes, and the re-parseable output contract."""

import errno
import importlib
import io
import math
import os
import pkgutil
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from borelshift import (
    BlockCode,
    IntervalApprox,
    build_fibered_product_Fm,
    check_injective,
    cycle_graph,
    format_code,
    format_presentation,
    full_shift_graph,
    golden_mean_graph,
    invariants_of,
    minimal_relation,
    parse_code,
    parse_document,
    parse_invariants,
    parse_relation,
)
import borelshift
from borelshift import cli, entropy
from borelshift.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            line = line[1:].strip()
        if "=" in line and " " not in line.split("=", 1)[0]:
            k, v = line.split("=", 1)
            out.setdefault(k, v)
    return out


@pytest.fixture
def golden_file(tmp_path):
    p = tmp_path / "golden.txt"
    p.write_text(format_presentation(golden_mean_graph()))
    return str(p)


@pytest.fixture
def even_code_file(tmp_path):
    code = BlockCode(
        golden_mean_graph(), (("e0", "1"), ("e1", "0"), ("e2", "0")), mode="edge"
    )
    p = tmp_path / "even.txt"
    p.write_text(format_code(code))
    return str(p)


# === analyze ===

def test_analyze_reports_components_and_emits_invariants(capsys, golden_file):
    code, out, err = run(capsys, ["analyze", golden_file])
    assert code == 0
    comment = [l for l in out.splitlines() if l.startswith("#")]
    assert len(comment) == 1
    assert "period=1" in comment[0]
    assert "recurrence=positive-recurrent" in comment[0]
    assert "mme=true" in comment[0]
    # the whole stream re-parses as an invariants document
    pair = parse_invariants(out)
    want = invariants_of((golden_mean_graph(),))
    assert len(pair.generators) == len(want.generators) == 1
    assert pair.generators[0].period == 1
    assert pair.generators[0].count == 1


def test_analyze_is_deterministic(capsys, golden_file):
    first = run(capsys, ["analyze", golden_file])
    second = run(capsys, ["analyze", golden_file])
    assert first == second


def test_analyze_reads_stdin(capsys, monkeypatch, golden_file):
    with open(golden_file) as fh:
        doc = fh.read()
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, ["analyze", "-"])
    assert code == 0
    assert parse_invariants(out).generators


def test_analyze_many_small_components_scales(capsys, tmp_path):
    # 5,000 two-cycles, each fed by a two-vertex tail: 20,000 vertices and
    # 20,000 strongly connected components, half of them irreducible
    lines = ["graph"]
    for k in range(5000):
        lines += [f"edge a{k} b{k}", f"edge b{k} a{k}", f"edge t{k} u{k}", f"edge u{k} a{k}"]
    doc = tmp_path / "forest.txt"
    doc.write_text("\n".join(lines) + "\n")
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["analyze", str(doc)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    reports = [line for line in out.splitlines() if line.startswith("# component=")]
    assert len(reports) == 5000
    assert all("period=2 entropy=0" in line for line in reports)
    assert elapsed < 5.0


def strongly_connected_doc(rng: random.Random, n: int) -> str:
    """A Hamiltonian cycle plus random chords: n vertices and 2n edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    while len(edges) < 2 * n:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return "graph\n" + "".join(f"edge v{a} v{b}\n" for a, b in sorted(edges))


def test_analyze_interval_generator_line_is_short(capsys, tmp_path):
    # 300 vertices take the interval path; its endpoints come from a vector
    # of 53-bit entries, not from thousands of digits of exact iterates
    doc = tmp_path / "g300.txt"
    doc.write_text(strongly_connected_doc(random.Random(7), 300))
    code, out, _ = run(capsys, ["analyze", str(doc)])
    assert code == 0
    gens = [line for line in out.splitlines() if line.startswith("gen ")]
    assert len(gens) == 1
    assert len(gens[0]) <= 200
    h = parse_invariants(out).generators[0].entropy
    assert isinstance(h, IntervalApprox)
    assert h.hi - h.lo <= entropy.ENCLOSURE_WIDTH


def test_analyze_out_of_certificate_budget_exits_2(capsys, monkeypatch, tmp_path):
    # cycles of coprime lengths 50 and 51 through h mix slowly: within 64
    # products no enclosure meets its width, and none wider is printed
    monkeypatch.setattr(
        entropy,
        "collatz_wielandt_enclosure",
        partial(entropy.collatz_wielandt_enclosure, max_iters=64),
    )
    lines = ["graph"]
    for name, length in (("a", 50), ("b", 51)):
        path = ["h"] + [f"{name}{i}" for i in range(1, length)] + ["h"]
        lines += [f"edge {u} {v}" for u, v in zip(path, path[1:])]
    doc = tmp_path / "slow.txt"
    doc.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["analyze", str(doc)])
    assert code == 2
    assert "gen " not in out
    assert "Collatz-Wielandt" in err


def test_no_usable_sieve_prime_exits_2(capsys, tmp_path):
    # m is the product of the odd primes below 200.  Modulo each of them the
    # reversed first-return polynomial x^4 - c1 x^3 - c2 x^2 - c3 x - c4 is
    # (x - 2)^2 (x^2 + 1), never squarefree, so no prime can factor it
    primes = [p for p in range(3, 200, 2) if all(p % q for q in range(3, p, 2))]
    m = math.prod(primes)
    doc = tmp_path / "no_prime.txt"
    doc.write_text("loops\n" + "".join(
        f"count {n} {c % m}\n" for n, c in enumerate((4, -5, 4, -4), 1)
    ))
    code, out, err = run(capsys, ["analyze", str(doc)])
    assert code == 2
    assert out.startswith("# component=") and "gen " not in out
    assert len(err.splitlines()) == 1 and "usable prime" in err


# === compare ===

def test_compare_analyze_output_against_source(capsys, tmp_path, golden_file):
    _, out, _ = run(capsys, ["analyze", golden_file])
    inv = tmp_path / "inv.txt"
    inv.write_text(out)
    code, out2, _ = run(capsys, ["compare", str(inv), golden_file])
    assert code == 0
    assert kv(out2)["isomorphic"] == "true"


def test_compare_zero_entropy_analyze_output_against_source(capsys, tmp_path):
    # analyze prints only comment lines for a shift of zero entropy
    cycle = tmp_path / "cycle2.txt"
    cycle.write_text(format_presentation(cycle_graph(2)))
    _, out, _ = run(capsys, ["analyze", str(cycle)])
    assert all(l.startswith("#") for l in out.splitlines() if l.strip())
    inv = tmp_path / "inv.txt"
    inv.write_text(out)
    code, out2, _ = run(capsys, ["compare", str(inv), str(cycle)])
    assert code == 0
    assert kv(out2)["isomorphic"] == "true"


def test_compare_distinct_shifts_exits_one_with_witness(capsys, tmp_path, golden_file):
    full2 = tmp_path / "full2.txt"
    full2.write_text(format_presentation(full_shift_graph(("a", "b"))))
    code, out, _ = run(capsys, ["compare", golden_file, str(full2)])
    assert code == 1
    d = kv(out)
    assert d["isomorphic"] == "false"
    assert d["witness_period"] == "1"
    assert "u(1)" in d["detail"]


def test_compare_overlapping_intervals_is_inconclusive(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("gen 1 1/2 7/10 1\n")
    b = tmp_path / "b.txt"
    b.write_text("gen 1 3/5 4/5 1\n")
    code, _, err = run(capsys, ["compare", str(a), str(b)])
    assert code == 2
    assert "tolerance" in err


def test_compare_tolerance_flag_widens_clusters(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("gen 1 log 2 1\n")
    b = tmp_path / "b.txt"
    b.write_text("gen 1 log 201/100 1\n")
    assert run(capsys, ["compare", str(a), str(b)])[0] == 1
    assert run(capsys, ["compare", str(a), str(b), "--tol", "0.01"])[0] == 0


def test_compare_root_in_interval_without_a_root_exits_65(capsys, tmp_path):
    # [3, 4] holds no root of x^2 - x - 1
    a = tmp_path / "a.txt"
    a.write_text("gen 1 poly -1 -1 1 root-in 3 4 1\n")
    code, _, err = run(capsys, ["compare", str(a), str(a)])
    assert code == 65
    assert "parse error" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["realize", "compare"])
@pytest.mark.parametrize("expr", ["poly 1 1 root-in -2 1/2", "poly 0 1 root-in -1 1"])
def test_root_in_around_a_nonpositive_root_exits_65_at_its_line(capsys, tmp_path, verb, expr):
    # the roots -1 and 0 have no logarithm; the parser names the line
    a = tmp_path / "a.txt"
    a.write_text(f"gen 2 log 3 1\ngen 1 {expr} 1\n")
    code, out, err = run(capsys, [verb, str(a)] + ([str(a)] if verb == "compare" else []))
    assert code == 65
    assert out == ""
    assert err.startswith("parse error: line 2: ") and len(err.splitlines()) == 1
    # an interval reaching down to 0 around a positive root stays valid
    a.write_text("gen 1 poly -2 0 1 root-in 0 2 1\n")
    assert run(capsys, [verb, str(a)] + ([str(a)] if verb == "compare" else []))[0] == 0


def test_compare_root_in_at_a_rational_endpoint(capsys, tmp_path):
    # (x - 2)(x^2 - x - 1) with the root 2 at the left end of [2, 3] is log 2
    a = tmp_path / "a.txt"
    a.write_text("gen 1 poly 2 1 -3 1 root-in 2 3 1\n")
    b = tmp_path / "b.txt"
    b.write_text("gen 1 log 2 1\n")
    code, out, _ = run(capsys, ["compare", str(a), str(b)])
    assert code == 0
    assert kv(out)["isomorphic"] == "true"


# === realize ===

def test_realize_emits_reparseable_presentation(capsys, tmp_path):
    inv = tmp_path / "inv.txt"
    inv.write_text("gen 1 log 2 1\ngen 2 log 3 2\n")
    code, out, _ = run(capsys, ["realize", str(inv)])
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("# component=")) == 3
    assert parse_document(out)
    doc = tmp_path / "doc.txt"
    doc.write_text(out)
    verdict, out2, _ = run(capsys, ["compare", str(doc), str(inv)])
    assert verdict == 0
    assert kv(out2)["isomorphic"] == "true"


def test_realize_family_needs_member_flag(capsys, tmp_path):
    inv = tmp_path / "inv.txt"
    inv.write_text("gen 1 log 2 unattained\n")
    code, _, err = run(capsys, ["realize", str(inv)])
    assert code == 2
    assert "--member" in err
    code, out, _ = run(capsys, ["realize", str(inv), "--member", "3"])
    assert code == 0
    assert "# family_member=3" in out.splitlines()
    assert parse_document(out)


def test_realize_family_member_past_the_digit_cap_exits_65(capsys, tmp_path):
    inv = tmp_path / "inv.txt"
    inv.write_text("gen 1 inf 0\n")
    # 2^40000 loops would print with 12,042 digits: refused before the power is built
    code, out, err = run(capsys, ["realize", str(inv), "--member", "40000"])
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and "NUMBER_DIGITS_CAP" in err
    # 2^1327 prints with 400 digits and reads back; larger members stop at MEMBER_CAP
    code, out, _ = run(capsys, ["realize", str(inv), "--member", "1327"])
    assert code == 0
    assert parse_document(out)


@pytest.mark.parametrize("period", [1, 2])
def test_realize_family_members_analyze_up_to_the_member_cap(capsys, tmp_path, period):
    # the member's root 2^-J is bracketed above 10^-400 up to J = 1327, at either period
    inv = tmp_path / "inv.txt"
    inv.write_text(f"gen {period} inf 0\n")
    code, out, _ = run(capsys, ["realize", str(inv), "--member", "1327"])
    assert code == 0
    doc = tmp_path / "doc.txt"
    doc.write_text(out)
    assert run(capsys, ["analyze", str(doc)])[0] == 0
    code, out, err = run(capsys, ["realize", str(inv), "--member", "1328"])
    assert code == 65
    assert out == ""
    assert len(err.splitlines()) == 1 and "MEMBER_CAP = 1327" in err


def test_realize_names_the_seed_limit_and_realizes_up_to_it(capsys, tmp_path):
    over = tmp_path / "over.txt"
    over.write_text("gen 5 15 15 1\n")
    code, _, err = run(capsys, ["realize", str(over)])
    assert code == 1 and "above 71" in err
    # p h = 70: the seed e^-70 = 4e-31 still stands above the 10^-31 grid
    inv = tmp_path / "inv.txt"
    inv.write_text("gen 1 70 70 1\n")
    code, out, _ = run(capsys, ["realize", str(inv)])
    assert code == 0
    doc = tmp_path / "doc.txt"
    doc.write_text(out)
    code, out, _ = run(capsys, ["analyze", str(doc)])
    assert code == 0
    reinv = tmp_path / "reinv.txt"
    reinv.write_text(out)
    code, out, _ = run(capsys, ["compare", str(reinv), str(inv)])
    assert code == 0
    assert kv(out)["isomorphic"] == "true"


def test_realize_refuses_a_wide_interval_as_too_wide(capsys, tmp_path):
    # the generator compares equal to itself, so canonicalizing it keeps it
    inv = tmp_path / "inv.txt"
    inv.write_text("gen 1 1/2 1 1\n")
    code, out, err = run(capsys, ["realize", str(inv)])
    assert code == 1
    assert out == ""
    assert err == "entropy enclosure too wide to realize at tolerance: width 0.5\n"


def test_realize_inadmissible_pair_exits_one(capsys, tmp_path):
    inv = tmp_path / "inv.txt"
    inv.write_text("gen 1 inf 2\n")
    code, _, err = run(capsys, ["realize", str(inv)])
    assert code == 1
    assert err.strip()


# === embed ===

def test_embed_emits_injective_code(capsys, even_code_file):
    code, out, _ = run(capsys, ["embed", even_code_file, "--target", "0.2"])
    assert code == 0
    d = kv(out)
    assert d["tier"] == "marker"
    assert float(d["entropy"]) >= 0.2
    assert "marker_N" in d and "marker_K" in d
    sub = parse_code(out)
    assert check_injective(sub).injective
    again = run(capsys, ["embed", even_code_file, "--target", "0.2"])
    assert again == (code, out, "")


def test_embed_target_above_domain_entropy(capsys, even_code_file):
    code, _, err = run(capsys, ["embed", even_code_file, "--target", "0.9"])
    assert code == 1
    assert "exceeds" in err


def test_embed_infinite_target_is_refused_like_any_target_above(capsys, even_code_file):
    code, out, err = run(capsys, ["embed", even_code_file, "--target", "inf"])
    assert (code, out) == (1, "")
    assert err.splitlines() == ["target entropy inf exceeds domain entropy 0.481212"]


def test_embed_rejects_bad_target(capsys, even_code_file):
    code, _, err = run(capsys, ["embed", even_code_file, "--target", "x"])
    assert code == 65
    assert "target" in err


def test_embed_bad_target_expression_names_the_option(capsys, even_code_file):
    argv = ["embed", even_code_file, "--target", "poly -1 -1 1 root-in 3 4"]
    code, _, err = run(capsys, argv)
    assert code == 65
    assert "--target" in err and "line 0" not in err
    assert len(err.splitlines()) == 1


def test_embed_budget_flag(capsys, even_code_file):
    code, _, err = run(
        capsys, ["embed", even_code_file, "--target", "0.2", "--budget", "0"]
    )
    assert code == 65
    assert "budget" in err
    plain = run(capsys, ["embed", even_code_file, "--target", "0.2"])
    capped = run(
        capsys, ["embed", even_code_file, "--target", "0.2", "--budget", "20000"]
    )
    assert capped == plain
    assert plain[0] == 0


def test_embed_small_budget_gives_up_early(capsys, even_code_file):
    start = time.perf_counter()
    code, _, err = run(
        capsys, ["embed", even_code_file, "--target", "0.2", "--budget", "5"]
    )
    assert code == 2
    assert "marker presentation exceeded the state budget" in err
    assert time.perf_counter() - start < 10.0


# === bowen ===

def test_bowen_computes_minimal_relation(capsys, even_code_file):
    code, out, _ = run(capsys, ["bowen", even_code_file])
    assert code == 0
    assert out.splitlines()[0] == "# holds=true"
    with open(even_code_file) as fh:
        expected = minimal_relation(parse_code(fh.read()))
    assert parse_relation(out) == expected


def test_bowen_verifies_relation_file(capsys, tmp_path, even_code_file):
    _, out, _ = run(capsys, ["bowen", even_code_file])
    rel = tmp_path / "rel.txt"
    rel.write_text(out)
    code, out2, _ = run(capsys, ["bowen", even_code_file, str(rel)])
    assert code == 0
    d = kv(out2)
    assert d["holds"] == d["complete"] == d["label_equal"] == "true"
    assert d["symmetric"] == d["reflexive"] == "true"


def test_bowen_reports_failures(capsys, tmp_path, even_code_file):
    rel = tmp_path / "rel.txt"
    rel.write_text("relation\npair e0 e0\npair e1 e1\npair e2 e2\npair e2 e1\n")
    code, out, _ = run(capsys, ["bowen", even_code_file, str(rel)])
    assert code == 1
    d = kv(out)
    assert d["holds"] == "false"
    assert d["symmetric"] == "false"
    assert "(e1,e2)" in out


def test_bowen_failure_lines_do_not_depend_on_the_hash_seed(tmp_path):
    code = tmp_path / "code.txt"
    code.write_text(
        "code vertex\nvertex a\nvertex b\nvertex c\n"
        "edge a a\nedge a b\nedge b a\nedge b c\nedge c a\nmap a 0\nmap b 1\nmap c 1\n"
    )
    rel = tmp_path / "rel.txt"
    rel.write_text("relation\npair a b\npair b c\npair c a\npair a c\npair x y\npair b a\n")
    src = str(Path(borelshift.__file__).parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        argv = [sys.executable, "-m", "borelshift.cli", "bowen", str(code), str(rel)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("failure=") == 11


# === fiberprod ===

def test_fiberprod_pair_shift_and_quotient(capsys, even_code_file):
    code, out, _ = run(capsys, ["fiberprod", even_code_file, "--m", "2"])
    assert code == 0
    d = kv(out)
    assert d["fm_states"] == "5"
    assert d["tilde_states"] == "2"
    assert d["right_resolving"] == d["left_resolving"] == "true"
    assert d["fibers_complete"] == "true"
    assert d["preimage_count"] == "2"
    (g,) = parse_document(out)
    assert sorted(g.vertices) == ["e1.e2", "e2.e1"]
    assert len(g.edges) == 2


def test_fiberprod_counts_the_states_of_fm(capsys, even_code_file):
    code = parse_code(Path(even_code_file).read_text())
    rel = minimal_relation(code)
    for m, want in zip(range(1, 5), (3, 5, 9, 17)):
        out = run(capsys, ["fiberprod", even_code_file, "--m", str(m)])[1]
        assert kv(out)["fm_states"] == str(want)
        assert len(build_fibered_product_Fm(code, rel, m).vertices) == want


def test_fiberprod_dotted_vertex_names_stay_distinct(capsys, tmp_path):
    # joined with '.', the tuples (a.b, c) and (a, b.c) would both be a.b.c
    vertices = ["a.b", "c", "a", "b.c"]
    edges = [("a.b", "a.b"), ("a.b", "a"), ("c", "a.b"), ("c", "c"), ("c", "b.c"),
             ("a", "a.b"), ("a", "c"), ("b.c", "c"), ("b.c", "b.c")]
    doc = tmp_path / "dotted.code"
    doc.write_text(
        "code vertex\n"
        + "".join(f"vertex {v}\nmap {v} 0\n" for v in vertices)
        + "".join(f"edge {u} {w}\n" for u, w in edges)
    )
    code, out, _ = run(capsys, ["fiberprod", str(doc)])
    assert code in (0, 1)
    (g,) = parse_document(out)
    assert len(g.vertices) == int(kv(out)["tilde_states"]) > 0


def test_fiberprod_empty_product_prints_no_document(capsys, even_code_file):
    code, out, _ = run(capsys, ["fiberprod", even_code_file, "--m", "3"])
    assert code == 1
    assert all(l.startswith("#") for l in out.strip().splitlines())
    d = kv(out)
    assert d["tilde_states"] == "0"
    assert "empty" in d["failure"]



def test_fiberprod_past_tuple_cap_exits_2(capsys, even_code_file):
    # F_m of the even-shift code has 2^m + 1 states
    start = time.perf_counter()
    code, out, err = run(capsys, ["fiberprod", even_code_file, "--m", "40"])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert "TUPLE_CAP" in err


def test_fiberprod_past_m_cap_exits_2(capsys, tmp_path):
    # the golden-mean code relates each vertex to itself alone: F_m stays at 2
    # states, but every tuple and prefix grows with m
    doc = tmp_path / "golden.code"
    doc.write_text("code vertex\nvertex a\nvertex b\nedge a a\nedge a b\nedge b a\nmap a 0\nmap b 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["fiberprod", str(doc), "--m", "8000"])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert "M_CAP" in err

# === pathology ===

def test_pathology_report_certifies_gap(capsys):
    code, out, _ = run(capsys, ["pathology", "--depth", "2", "--window", "12"])
    assert code == 0
    d = kv(out)
    assert d["certified"] == "true"
    assert d["return_counts_match"] == "true"
    assert d["estimate_below_eps"] == "true"
    assert d["bordered_unique"] == "true"
    assert float(d["estimate"]) < 0.3 < float(d["hidden_entropy"]) + 0.3


def test_pathology_control_stays_visible(capsys):
    code, out, _ = run(capsys, ["pathology", "--depth", "2", "--window", "12", "--control"])
    assert code == 0
    d = kv(out)
    assert d["control"] == "true"
    assert d["estimate_below_eps"] == "false"
    assert float(d["estimate"]) >= 0.3


def test_pathology_rejects_bad_eps(capsys):
    code, _, err = run(capsys, ["pathology", "--eps", "-1"])
    assert code == 65
    assert "eps" in err


def test_pathology_rejects_window_zero_by_name(capsys):
    code, out, err = run(capsys, ["pathology", "--window", "0"])
    assert code == 65
    assert out == ""
    assert err == "window must be >= 1\n"


def test_pathology_reads_base_file(capsys, tmp_path):
    # the full 2-shift on {a, b} is not the default golden-mean base, so the
    # state count and the witness's base symbol show which base was built
    base = tmp_path / "full2.txt"
    base.write_text(
        "graph\nvertex a\nvertex b\nedge a a\nedge a b\nedge b a\nedge b b\n"
    )
    argv = ["pathology", "--depth", "2", "--window", "12"]
    code, out, _ = run(capsys, argv + ["--base", str(base)])
    assert code == 0
    d = kv(out)
    assert d["certified"] == "true"
    assert d["M"] == "5"
    assert d["m_seq"] == "11,12"
    assert d["states"] == "233"
    assert d["ambiguous_witness"].startswith("a")
    default = kv(run(capsys, argv)[1])
    assert default["states"] == "154"


# === exit codes for malformed input ===

def test_usage_errors_exit_64(capsys, even_code_file):
    assert run(capsys, [])[0] == 64
    assert run(capsys, ["frobnicate"])[0] == 64
    assert run(capsys, ["embed", even_code_file])[0] == 64
    # no switch skips the independent certificate of a realization
    assert run(capsys, ["realize", even_code_file, "--no-certify"])[0] == 64


def test_parser_keeps_no_flag_between_calls(capsys, monkeypatch, tmp_path):
    # the parser is built once per process: a --tol given to one call must
    # not become the default of the next, and usage errors still exit 64
    tols = []
    decide = cli.decide_almost_borel_iso

    def spy(a, b, tol):
        tols.append(tol)
        return decide(a, b, tol)

    monkeypatch.setattr(cli, "decide_almost_borel_iso", spy)
    a = tmp_path / "a.txt"
    a.write_text("gen 1 log 2 1\n")
    b = tmp_path / "b.txt"
    b.write_text("gen 1 log 201/100 1\n")
    assert run(capsys, ["compare", str(a), str(b), "--tol", "1e-3"])[0] == 1
    assert run(capsys, ["compare", str(a), str(b), "--tol", "0.01"])[0] == 0
    assert run(capsys, ["compare", str(a), "--tol", "0.01"])[0] == 64
    assert run(capsys, ["compare", str(a), str(b)])[0] == 1
    assert tols == [Fraction(1, 1000), Fraction(1, 100), entropy.DEFAULT_TOL]


_COLD_CHILD = """
import contextlib, io, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
sys.modules["mpmath"] = None  # and of mpmath
from borelshift.cli import main
golden, code, sqrt3, realized, inv = sys.argv[1:]
codes = []

def run(argv, path=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(argv))
    if path:
        with open(path, "w") as fh:
            fh.write(out.getvalue())
    return out.getvalue()

run(["analyze", golden])
run(["bowen", code])
run(["fiberprod", code, "--m", "2"])
run(["embed", code, "--target", "1/4"])
run(["pathology", "--depth", "2", "--window", "12"])
run(["realize", sqrt3], realized)
last = run(["analyze", realized], inv).splitlines()[-1]
run(["compare", inv, sqrt3])
print(codes)
print(last)
"""

# what the realized sqrt(3) schema analyzes to: its minimal factor, of degree 52
_SQRT3_LINE = (
    "gen 1 poly -1 0 1 -1 0 1 -1 0 1 -1 -1 2 -2 0 2 -3 1 1 -2 1 1 -3 2 1 -3 2 1 -4 3 1 -4 3 0"
    " -3 3 -1 -2 3 -1 -2 3 -1 -3 3 0 -3 3 -1 -2 2 0 -2 1"
    " root-in 8796093022208/5078426674189 35184372088832/20313706696755 1"
)


def test_cold_process_never_imports_sympy(golden_file, even_code_file, tmp_path):
    # the library computes in plain integers: a child in which neither sympy
    # nor mpmath can be imported runs all seven verbs.  The realized sqrt(3)
    # schema's first-return polynomial has the cofactor x^2 + x + 1, so the
    # degree sieve cannot certify it and it is factored
    src = str(Path(borelshift.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    sqrt3 = tmp_path / "sqrt3.txt"
    sqrt3.write_text("gen 1 poly -3 0 1 root-in 1 2 1\n")
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_CHILD, golden_file, even_code_file, str(sqrt3),
         str(tmp_path / "sqrt3_realized.txt"), str(tmp_path / "sqrt3_inv.txt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0, 0, 0]", _SQRT3_LINE], proc.stdout


# each verb in a fresh process: its exit code and which of the four modules
# that analyze and compare never reach it loaded
_VERB_CHILD = """
import contextlib, io, sys
from borelshift.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(rc, *sorted(m for m in ("codes", "markers", "pathology", "realize")
                  if f"borelshift.{m}" in sys.modules))
"""


def _cold(*args):
    src = str(Path(borelshift.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", *args], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("argv, line", [
    (["analyze", "{golden}"], "0"),
    (["compare", "{log2}", "{log2}"], "0"),
    (["realize", "{log2}"], "0 realize"),
    (["bowen", "{even}"], "0 codes"),
    (["fiberprod", "{even}", "--m", "2"], "0 codes"),
    (["embed", "{even}", "--target", "1/10"], "0 codes markers"),
    (["pathology", "--depth", "2", "--window", "12"], "0 codes pathology"),
    # the exceptions of lazily loaded modules keep their exit codes
    (["pathology", "--eps", "1e-9"], "2 codes pathology"),  # BudgetExhausted
    (["embed", "{even}", "--target", "1e3999"], "1 codes markers"),  # PreconditionViolated
    (["realize", "{transient}"], "1 realize"),  # UnrealizableEntropy
], ids=["analyze", "compare", "realize", "bowen", "fiberprod", "embed", "pathology",
        "budget-exhausted", "precondition-violated", "unrealizable-entropy"])
def test_each_verb_loads_only_the_modules_it_reaches(
    tmp_path, golden_file, even_code_file, argv, line
):
    (tmp_path / "log2.txt").write_text("gen 1 log 2 1\n")
    (tmp_path / "transient.txt").write_text("gen 1 20000 20000 0\n")
    argv = [a.format(golden=golden_file, even=even_code_file, log2=tmp_path / "log2.txt",
                     transient=tmp_path / "transient.txt") for a in argv]
    proc = _cold(_VERB_CHILD, *argv)
    assert proc.stdout.splitlines() == [line]
    assert len(proc.stderr.splitlines()) == (line[0] != "0")


# which of the start-up modules a verb loaded, then what it printed
_FOOTPRINT_CHILD = """
import contextlib, io, sys
before = set(sys.modules)
from borelshift.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(sys.argv[1:])
print(rc, *sorted(m for m in ("dataclasses", "borelshift.recurrence")
                  if m in sys.modules and m not in before))
sys.stdout.write(out.getvalue())
"""

_LOOPS_DOC = "loops\ncount 1 1\ntail geometric 1/2 2 from 2\n\nloops\ncount 1 1\ncount 2 1\n"
_LOOPS_ANALYZED = [  # the bytes analyze has always printed for _LOOPS_DOC
    "# component=p0.loops period=1 entropy=1.09861228867 recurrence=positive-recurrent mme=true",
    "# component=p1.loops period=1 entropy=0.48121182506 recurrence=positive-recurrent mme=true",
    "gen 1 log 3 1",
]


@pytest.mark.parametrize("argv, line", [
    (["analyze", "{golden}"], "0"),
    (["compare", "{log2}", "{phi}"], "1"),
    # only a loop schema's recurrence class needs the recurrence module
    (["analyze", "{loops}"], "0 borelshift.recurrence"),
    # realize, embed and pathology classify loop schemas; no verb loads dataclasses
    (["realize", "{log2}"], "0 borelshift.recurrence"),
    (["bowen", "{even}"], "0"),
    (["fiberprod", "{even}", "--m", "2"], "0"),
    (["embed", "{even}", "--target", "1/10"], "0 borelshift.recurrence"),
    (["pathology", "--depth", "1"], "0 borelshift.recurrence"),
], ids=["analyze-graph", "compare-invariants", "analyze-loops", "realize", "bowen", "fiberprod",
        "embed", "pathology"])
def test_start_up_loads_no_dataclasses_and_recurrence_only_for_a_schema(
    tmp_path, golden_file, even_code_file, argv, line
):
    (tmp_path / "log2.txt").write_text("gen 1 log 2 1\n")
    (tmp_path / "phi.txt").write_text("gen 1 poly -1 -1 1 root-in 3/2 2 1\n")
    (tmp_path / "loops.txt").write_text(_LOOPS_DOC)
    argv = [a.format(golden=golden_file, even=even_code_file, log2=tmp_path / "log2.txt",
                     phi=tmp_path / "phi.txt", loops=tmp_path / "loops.txt") for a in argv]
    proc = _cold(_FOOTPRINT_CHILD, *argv)
    lines = proc.stdout.splitlines()
    assert lines[0] == line
    if argv[1].endswith("loops.txt"):
        assert lines[1:] == _LOOPS_ANALYZED


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path, buffered):
    # 1,000 golden-mean components: about 88 KB of component lines, more
    # than a pipe holds, so analyze writes on after the reader has gone
    doc = tmp_path / "forest.txt"
    doc.write_text("graph\n" + "".join(
        f"edge a{i} a{i}\nedge a{i} b{i}\nedge b{i} a{i}\n" for i in range(1000)))
    env = dict(os.environ, PYTHONPATH=str(Path(borelshift.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from borelshift.cli import main; sys.exit(main())",
         "analyze", str(doc)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EX_PIPE == 141
    assert first.startswith(b"# component=")
    assert err == b""


def test_a_stdout_closed_before_the_last_flush_exits_141(golden_file):
    # buffered, the golden mean's two lines reach the pipe only when main
    # flushes them, after the reader has already gone
    env = dict(os.environ, PYTHONPATH=str(Path(borelshift.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from borelshift.cli import main; sys.exit(main())",
         "analyze", golden_file],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["analyze", "{bad}"],
    ["compare", "{bad}", "{log2}"],
    ["compare", "{log2}", "{bad}"],
    ["realize", "{bad}"],
    ["embed", "{bad}", "--target", "1/4"],
    ["bowen", "{bad}"],
    ["bowen", "{even}", "{bad}"],
    ["fiberprod", "{bad}"],
    ["fiberprod", "{even}", "{bad}"],
    ["pathology", "--base", "{bad}"],
], ids=["analyze", "compare-a", "compare-b", "realize", "embed", "bowen-code",
        "bowen-relation", "fiberprod-code", "fiberprod-relation", "pathology-base"])
@pytest.mark.parametrize("bad, reason", [("dir", errno.EISDIR), ("missing.txt", errno.ENOENT)],
                         ids=["directory", "missing"])
def test_an_unreadable_input_exits_65_with_its_reason(
    capsys, tmp_path, even_code_file, argv, bad, reason
):
    (tmp_path / "dir").mkdir()
    (tmp_path / "log2.txt").write_text("gen 1 log 2 1\n")
    argv = [a.format(bad=tmp_path / bad, log2=tmp_path / "log2.txt", even=even_code_file)
            for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 65
    assert out == ""
    assert err == f"cannot read {tmp_path / bad}: {os.strerror(reason)}\n"


def test_no_distinct_loops_exits_2_from_a_fresh_process(even_code_file):
    # no verb raises NoDistinctLoops today (the marker search catches it), so a
    # patched synthesis raises it: main maps it by its base class, Inconclusive
    child = """
import sys
from borelshift import markers
def no_loops(*args, **kwargs):
    raise markers.NoDistinctLoops("no two label-distinct loops")
markers.synthesize_injective_subsystem = no_loops
from borelshift.cli import main
print(main(["embed", sys.argv[1], "--target", "1/4"]))
"""
    proc = _cold(child, even_code_file)
    assert proc.stdout.splitlines() == ["2"]
    assert proc.stderr.splitlines() == ["no two label-distinct loops"]


# the exit status of each base class, which is all that cli.main knows;
# an AssertionError is an internal defect and is not caught
_ENDINGS = (
    (borelshift.ParseError, 65),
    (borelshift.Unsatisfiable, 1),
    (borelshift.Inconclusive, 2),
    (cli._Usage, 64),
    (AssertionError, None),
)


def _exception_classes():
    """(module, name) of every exception class a `borelshift` module defines."""
    found = []
    for info in pkgutil.iter_modules(borelshift.__path__):
        mod = importlib.import_module(f"borelshift.{info.name}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == mod.__name__):
                found.append((info.name, name))
    return sorted(found)


def test_every_exception_class_has_exactly_one_ending():
    classes = _exception_classes()
    assert ("markers", "NoDistinctLoops") in classes and ("cli", "_Usage") in classes
    for module, name in classes:
        cls = getattr(importlib.import_module(f"borelshift.{module}"), name)
        assert sum(issubclass(cls, base) for base, _ in _ENDINGS) == 1, name


# a usage error is raised by the argument parser, every other class by the verb
_RAISE_CHILD = """
import importlib, sys
from borelshift import cli
module, name = sys.argv[1:]
cls = getattr(importlib.import_module(f"borelshift.{module}"), name)
exc = cls(3, "the message") if issubclass(cls, cli.ParseError) else cls("the message")
def fail(*args, **kwargs):
    raise exc
if cls is cli._Usage:
    cli._PARSER.parse_args = fail
else:
    cli._read = fail
try:
    print(cli.main(["analyze", "-"]))
except AssertionError:
    print("raised")
"""


@pytest.mark.parametrize("module, name", _exception_classes())
def test_each_exception_class_exits_with_its_ending_from_a_fresh_process(module, name):
    cls = getattr(importlib.import_module(f"borelshift.{module}"), name)
    (code,) = [code for base, code in _ENDINGS if issubclass(cls, base)]
    proc = _cold(_RAISE_CHILD, module, name)
    if code is None:
        assert proc.stdout.splitlines() == ["raised"]
        assert proc.stderr == ""
    else:
        assert proc.stdout.splitlines() == [str(code)]
        assert len(proc.stderr.splitlines()) == 1
        assert "the message" in proc.stderr


def test_import_loads_no_submodule():
    proc = _cold("import sys, borelshift; print(sorted(m for m in sys.modules if 'borelshift' in m))")
    assert proc.stdout.splitlines() == ["['borelshift']"]


# the names `borelshift/__init__.py` imported eagerly, by module
_EXPORTED = {
    "presentations": (
        "FiniteGraph LoopSchema Tail ParseError Unsatisfiable"
        " Inconclusive parse_document"
        " parse_presentation format_document format_presentation golden_mean_graph"
        " full_shift_graph cycle_graph"
    ),
    "graphs": (
        "strongly_connected_components is_strongly_connected irreducible_components"
        " period_of_component schema_period cyclic_classes is_single_cycle"
        " first_return_counts schema_first_return_counts renewal_loop_counts"
        " entropy_by_loop_count loop_entropy_estimate"
    ),
    "intervals": "RatInterval PrecisionExhausted",
    "entropy": (
        "ExtendedEntropy ExactAlgebraic IntervalApprox ZERO_ENTROPY INFINITE_ENTROPY"
        " DEFAULT_TOL perron_entropy compare_entropy max_entropy entropy_from_log_value"
        " identify_algebraic"
    ),
    "recurrence": (
        "POSITIVE_RECURRENT NULL_RECURRENT TRANSIENT ComponentSummary"
        " UndecidableAtTolerance classify_recurrence"
    ),
    "invariants": (
        "Generator InvariantPair IsoVerdict UNATTAINED InconclusiveAtTolerance"
        " summarize_components compute_u_eta canonical_invariants check_admissible"
        " decide_almost_borel_iso invariants_of parse_invariants format_invariants"
    ),
    "realize": (
        "FamilySchema Realization UnrealizableEntropy realize_invariants pair_of_realization"
    ),
    "codes": (
        "BlockCode SymbolRelation InjectivityReport FiniteToOneReport BowenReport"
        " ResolvingReport label_fiber_product prune_to_biinfinite check_injective"
        " check_finite_to_one image_entropy image_words minimal_relation"
        " verify_bowen_relation build_fibered_product_Fm extract_tilde_Xm quotient_psi"
        " parse_code format_code parse_relation format_relation"
    ),
    "markers": (
        "MarkerParams EmbeddingCertificate PreconditionViolated NoDistinctLoops"
        " BudgetExhausted synthesize_injective_subsystem make_subsystem_code"
        " find_image_distinct_loops build_marker_sft marker_block_entropy"
    ),
    "pathology": (
        "PathologySpec PathologyReport base_words build_pathology_graph certify_pathology"
        " choose_pathology_parameters control_parameters anchored_lifts"
    ),
}


def test_every_exported_name_resolves_to_its_module_object():
    names = [n for names in _EXPORTED.values() for n in names.split()]
    assert sorted(borelshift.__all__) == sorted([*_EXPORTED, *names])
    for module, names in _EXPORTED.items():
        mod = importlib.import_module(f"borelshift.{module}")
        assert getattr(borelshift, module) is mod
        for name in names.split():
            assert getattr(borelshift, name) is getattr(mod, name), name
    with pytest.raises(AttributeError):
        borelshift.no_such_name


def test_missing_file_exits_65(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", str(tmp_path / "nope.txt")])
    assert code == 65
    assert "nope" in err


def test_malformed_document_exits_65(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph\nedge a\n")
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 65
    assert "parse error" in err


@pytest.mark.parametrize("argv, status", [
    (["analyze", "{golden}", "--tol", "1/0"], 64),
    (["pathology", "--eps", "1/0"], 65),
    (["pathology", "--eps", "1e999999"], 65),
    (["pathology", "--depth", "1", "--eps", "1e-999999"], 65),
    (["embed", "{even}", "--target", ""], 65),
    (["embed", "{even}", "--target", "1e3999"], 1),  # above the domain entropy
    # 10^500 loops of length 1 put the root of Phi(x) = 1 below the bracket floor
    (["analyze", "{tiny_root}"], 2),
    # lengths, tail starts, strides and damped exponents above LENGTH_CAP are
    # rejected at their line, before any list or power is built
    (["analyze", "{long_loop}"], 65),
    (["analyze", "{late_tail}"], 65),
    (["analyze", "{steep_damping}"], 65),
    (["analyze", "{wide_stride}"], 65),
    # a 4,001-digit ratio from n0 = 100000 would need a power of 1.3e9 bits
    (["analyze", "{huge_ratio}"], 65),
    # pathology flags whose construction would pass SIZE_CAP or WINDOW_CAP
    # exit 2 before anything is built: M = 1,386,294,362 root-loop states,
    # connectors about 10^6 long, and 2.7 times the size per level
    (["pathology", "--eps", "1e-9"], 2),
    (["pathology", "--window", "1000000"], 2),
    (["pathology", "--depth", "30"], 2),
    # rationals past NUMBER_DIGITS_CAP are refused before a Fraction or a
    # power of ten is built: Fraction("1e100000000") alone would not finish
    (["embed", "{even}", "--target", "1e999999"], 65),
    (["embed", "{even}", "--target", "poly -3 0 1 root-in 1 1e100000000"], 65),
    (["analyze", "{golden}", "--tol", "1e-100000000"], 64),
    (["pathology", "--eps", "1e-100000000"], 65),
    (["analyze", "{huge_exponent}"], 65),
    # realize's 30-digit seed e^(-p h) falls to its 10^-31 grid past p h = 71.4
    # (0 at p h = 75, 10^-31 at 72): refused by name, not a traceback
    (["realize", "{seed_zero}"], 1),
    (["realize", "{seed_on_grid}"], 1),
    (["realize", "{seed_past_grid}"], 1),
    # a transient tail ratio e^h prints in about h / ln 10 digits: past
    # TRANSIENT_ENTROPY_CAP it could not be read back, so it is refused by name
    # before e^h is built (no 2^(1.4e100) for a googol)
    (["realize", "{googol_transient}"], 1),
    (["realize", "{transient_past_cap}"], 1),
    # at period 12 the transient tail's first damped round, (n0 + 64 stride) bits(k),
    # passes TAIL_BITS_CAP: the reader would refuse it, and certifying it would not finish
    (["realize", "{transient_tail_past_cap}"], 1),
    # greedy digits below p h = SEED_EXPONENT_FLOOR would not finish, and at
    # 10^-400 neither e^(-p h) nor a transient tail ratio e^h is apart from 1
    (["realize", "{seed_one}"], 1),
    (["realize", "{seed_one_family}", "--member", "1"], 1),
    (["realize", "{transient_ratio_one}"], 1),
])
def test_out_of_range_numbers_exit_with_one_line(
    capsys, tmp_path, golden_file, even_code_file, argv, status
):
    docs = {
        "tiny_root": f"count 1 {10**500}\ncount 2 1",
        "long_loop": "count 1000000000 1",
        "late_tail": "tail geometric 1 2 from 1000000000",
        "steep_damping": "tail damped 1 2 1000000000 from 1",
        "wide_stride": "tail geometric 1/2 2 from 1 stride 1000000000",
        "huge_ratio": f"tail geometric 1 {10**4000} from 100000",
        "huge_exponent": "count 1 2\ntail geometric 1e100000000 2 from 3",
        "seed_zero": "gen 5 15 15 1",
        "seed_on_grid": "gen 2 36 36 1",
        "seed_past_grid": "gen 1 72 72 1",
        "googol_transient": "gen 1 1e100 1e100 0",
        "transient_past_cap": "gen 1 20000 20000 0",
        "transient_tail_past_cap": "gen 12 9000 9000 0",
        "seed_one": "gen 1 1e-400 1e-400 1",
        "seed_one_family": "gen 1 1e-400 1e-400 unattained",
        "transient_ratio_one": "gen 1 1e-400 1e-400 0",
    }
    paths = {}
    for name, body in docs.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(f"{body}\n" if body.startswith("gen ") else f"loops\n{body}\n")
    argv = [a.format(golden=golden_file, even=even_code_file, **paths) for a in argv]
    start = time.monotonic()
    code, out, err = run(capsys, argv)
    assert time.monotonic() - start < 2
    assert code == status
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, status, stream, line", [
    (["compare", "{big}", "{big}"], 2, "err",
     "cannot separate entropies Entropy[inf, inf] and Entropy[inf, inf] at tolerance 1/1000000000"),
    (["compare", "{big}", "{half}"], 1, "out",
     "detail=u(1) differs: Entropy[inf, inf] vs Entropy[0.5, 1] (gt)"),
    (["realize", "{big}"], 1, "err",
     "entropy enclosure too wide to realize at tolerance: width inf"),
])
def test_entropies_beyond_the_float_range_print_as_inf(capsys, tmp_path, argv, status, stream, line):
    # an entropy of 10^400 has no float value: its ends print as inf
    paths = {"big": tmp_path / "big.txt", "half": tmp_path / "half.txt"}
    paths["big"].write_text("gen 1 1e400 2e400 1\n")
    paths["half"].write_text("gen 1 1/2 1 1\n")
    code, out, err = run(capsys, [a.format(**paths) for a in argv])
    assert code == status
    assert "Traceback" not in err
    if stream == "err":
        assert out == "" and err.splitlines() == [line]
    else:
        assert err == "" and line in out.splitlines()


@pytest.mark.parametrize("verb", ["analyze", "compare", "realize", "embed"])
@pytest.mark.parametrize("tol, reason", [
    ("-1", "tolerance must be positive"),
    ("0", "tolerance must be positive"),
    ("abc", "bad rational 'abc'"),
    ("1/0", "bad rational '1/0'"),
    ("1e-5000", "number '1e-5000' has more than 4000 digits"),
], ids=["negative", "zero", "word", "zero-denominator", "digits"])
def test_bad_tolerance_names_its_reason(capsys, golden_file, even_code_file, verb, tol, reason):
    # the usage line says why the value was refused, not which converter refused it
    inputs = {
        "analyze": [golden_file],
        "compare": [golden_file, golden_file],
        "realize": [golden_file],
        "embed": [even_code_file, "--target", "1/4"],
    }
    code, out, err = run(capsys, [verb, *inputs[verb], "--tol", tol])
    assert code == 64 and out == ""
    assert err == f"usage error: argument --tol: {reason}\n"
    assert "_parse_tol" not in err


def test_damped_stride_past_the_first_round_size_exits_65_at_its_line(capsys, tmp_path):
    # max(n0, stride) = 100000 passes the tail size cap with 3 bits of k, but
    # the enclosure's first 64-term round would build 2^6400002
    doc = tmp_path / "stride.txt"
    doc.write_text("loops\ncount 1 1\ntail damped 1 2 2 from 2 stride 100000\n")
    start = time.monotonic()
    code, out, err = run(capsys, ["analyze", str(doc)])
    assert time.monotonic() - start < 1
    assert (code, out) == (65, "")
    assert err.startswith("parse error: line 3: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("tail", ["", "tail geometric 1/9 3 from 7\n"])
def test_analyze_ignores_a_zero_explicit_count(capsys, tmp_path, tail):
    with_zero = tmp_path / "zero.txt"
    with_zero.write_text(f"loops\ncount 1 2\ncount 5 0\n{tail}")
    without = tmp_path / "plain.txt"
    without.write_text(f"loops\ncount 1 2\n{tail}")
    code, out, err = run(capsys, ["analyze", str(with_zero)])
    assert (code, err) == (0, "")
    assert out == run(capsys, ["analyze", str(without)])[1]


@pytest.mark.parametrize("tail_line", ["tail", "tail stride 2"])
def test_bare_tail_line_exits_65(capsys, tmp_path, tail_line):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"loops\ncount 1 1\n{tail_line}\n")
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 65
    assert "parse error" in err
