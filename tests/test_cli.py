"""Command-line verbs, exit codes, and the re-parseable output contract."""

import io
import os
import random
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from borelshift import (
    BlockCode,
    IntervalApprox,
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
from borelshift import entropy
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
    }
    paths = {}
    for name, body in docs.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(f"loops\n{body}\n")
    argv = [a.format(golden=golden_file, even=even_code_file, **paths) for a in argv]
    start = time.monotonic()
    code, out, err = run(capsys, argv)
    assert time.monotonic() - start < 2
    assert code == status
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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
