"""Document grammar, round trips, and the two presentation value types."""

import random
from fractions import Fraction

import pytest

from borelshift import (
    FiniteGraph,
    LoopSchema,
    ParseError,
    Tail,
    cycle_graph,
    format_document,
    format_presentation,
    full_shift_graph,
    golden_mean_graph,
    parse_document,
    parse_presentation,
)

from borelshift.presentations import NUMBER_DIGITS_CAP, parse_rational

from helpers import random_strongly_connected


# === FiniteGraph value semantics ===

def test_graph_adjacency_and_neighbors():
    g = golden_mean_graph()
    idx = g.index()
    assert idx.order == ("a", "b")
    assert idx.pos == {"a": 0, "b": 1}
    assert idx.succ == [((0, 1), (1, 1)), ((0, 1),)]
    assert idx.pred == [((0, 1), (1, 1)), ((0, 1),)]


def test_graph_multiplicity_counts_parallel_edges():
    g = FiniteGraph(("v", "u"), (("u", "v"), ("v", "u"), ("u", "v")))
    assert g.has_parallel_edges()
    idx = g.index()
    assert idx.order == ("u", "v")
    assert idx.succ == [((1, 2),), ((0, 1),)]
    assert idx.pred == [((1, 1),), ((0, 2),)]


def test_graph_auto_edge_names_are_positional():
    g = FiniteGraph(("u",), (("u", "u"), ("u", "u")))
    assert g.edge_names == ("e0", "e1")


def test_graph_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FiniteGraph(("u", "u"), ())
    with pytest.raises(ValueError):
        FiniteGraph(("u",), (("u", "w"),))
    with pytest.raises(ValueError):
        FiniteGraph(("u",), (("u", "u"), ("u", "u")), ("e0",))
    with pytest.raises(ValueError):
        FiniteGraph(("u",), (("u", "u"), ("u", "u")), ("e0", "e0"))


def test_graph_induced_keeps_edge_names():
    g = FiniteGraph(
        ("a", "b", "c"),
        (("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")),
        ("ab", "bc", "ca", "aa"),
    )
    sub = g.induced(("a", "b"))
    assert sub.vertices == ("a", "b")
    assert sub.edges == (("a", "b"), ("a", "a"))
    assert sub.edge_names == ("ab", "aa")


def test_builtin_graph_shapes():
    assert len(full_shift_graph("abc").edges) == 9
    c = cycle_graph(4)
    assert len(c.vertices) == 4
    assert all(len(row) == 1 for row in c.index().succ)


# === tail and schema arithmetic ===

def test_geometric_tail_counts():
    t = Tail(Fraction(1, 2), 2, 0, 1)
    assert [t.count(n) for n in range(1, 6)] == [1, 2, 4, 8, 16]
    assert t.count(0) == 0


def test_geometric_tail_stride_support():
    t = Tail(Fraction(1, 4), 2, 0, 2, stride=2)
    assert [t.count(n) for n in range(1, 7)] == [0, 1, 0, 4, 0, 16]


def test_geometric_tail_rejects_fractional_counts():
    with pytest.raises(ValueError):
        Tail(Fraction(1, 3), 2, 0, 1)
    with pytest.raises(ValueError):
        Tail(Fraction(1, 2), 1, 0, 1)
    with pytest.raises(ValueError):
        Tail(Fraction(-1), 2, 0, 1)


def test_damped_tail_floors():
    t = Tail(Fraction(1), Fraction(2), 2, 1)
    # floor(2^n / n^2)
    assert [t.count(n) for n in range(1, 6)] == [2, 1, 0, 1, 1]
    half = Tail(Fraction(1), Fraction(3, 2), 1, 1)
    assert half.count(4) == int(Fraction(81, 16) / 4)


def test_damped_tail_rejects_bad_params():
    with pytest.raises(ValueError):
        Tail(Fraction(1), Fraction(1), 1, 1)
    with pytest.raises(ValueError):
        Tail(Fraction(1), Fraction(2), -1, 1)
    with pytest.raises(ValueError):
        Tail(Fraction(1), Fraction(2), 1, 0)


def test_schema_counts_upto_merges_explicit_and_tail():
    s = LoopSchema(((1, 3),), Tail(Fraction(1, 4), 2, 0, 2))
    assert s.counts_upto(4) == [0, 3, 1, 2, 4]
    assert s.max_explicit_length() == 1


def test_schema_rejects_overlap_and_degenerate():
    with pytest.raises(ValueError):
        LoopSchema(((2, 1),), Tail(Fraction(1, 4), 2, 0, 2))
    with pytest.raises(ValueError):
        LoopSchema(((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        LoopSchema(((0, 1),))
    with pytest.raises(ValueError):
        LoopSchema(((3, 0),))  # no loop anywhere
    # tail support overlap is rejected even where the floored count is 0
    with pytest.raises(ValueError):
        LoopSchema(((3, 1),), Tail(Fraction(1), Fraction(2), 2, 3))


# === parsing and formatting ===

def test_parse_graph_document():
    g = parse_presentation(
        """
        graph
        # golden mean shift
        edge a a
        edge a b
        edge b a
        """
    )
    assert isinstance(g, FiniteGraph)
    assert sorted(g.vertices) == ["a", "b"]
    assert len(g.edges) == 3


def test_parse_isolated_vertex_and_named_edges():
    g = parse_presentation("graph\nvertex w\nedge u u loop\nedge u v\n")
    assert set(g.vertices) == {"w", "u", "v"}
    assert g.edge_names[0] == "loop"
    # auto name must dodge the explicit ones
    assert g.edge_names[1] != "loop"


def test_parse_loops_document_with_tail():
    s = parse_presentation(
        "loops\nat b\ncount 1 1\ntail geometric 1/4 2 from 2\n"
    )
    assert isinstance(s, LoopSchema)
    assert s.base == "b"
    assert s.counts == ((1, 1),)
    assert s.tail == Tail(Fraction(1, 4), 2, 0, 2)


def test_parse_damped_tail_with_stride():
    s = parse_presentation("loops\ntail damped 2 3/2 2 from 4 stride 2\n")
    assert s.tail == Tail(Fraction(2), Fraction(3, 2), 2, 4, stride=2)


# tail lines, each either with the line it prints back, or with its error,
# all as the two tail record classes parsed and printed them before they
# were one; every error is at the tail's line, 2
_BIG, _MID = "1" + "0" * 4000, "1" + "0" * 3000
TAIL_LINES = [
    ("tail geometric 1/2 2 from 1", "tail geometric 1/2 2 from 1"),
    ("tail geometric 3 2 from 1", "tail geometric 3 2 from 1"),
    ("tail geometric 0.5 2 from 1", "tail geometric 1/2 2 from 1"),
    ("tail geometric 1/9 3 from 2 stride 2", "tail geometric 1/9 3 from 2 stride 2"),
    ("tail geometric 1/2 2 from 1 stride 1", "tail geometric 1/2 2 from 1"),
    ("tail damped 1 2 2 from 1", "tail damped 1 2 2 from 1"),
    ("tail damped 1 2.5 2 from 1", "tail damped 1 5/2 2 from 1"),
    ("tail damped 5/3 7/4 3 from 2 stride 3", "tail damped 5/3 7/4 3 from 2 stride 3"),
    ("tail damped 2 3/2 1 from 4 stride 2", "tail damped 2 3/2 1 from 4 stride 2"),
    ("tail damped 1 3 2 from 1 stride 1", "tail damped 1 3 2 from 1"),
]
TAIL_ERRORS = [
    # a damped line's d < 1 is refused after the size check and the k > 1 check
    ("tail damped 1 1 0 from 1", "damped tail ratio k must be > 1"),
    ("tail damped 1 1/2 0 from 1", "damped tail ratio k must be > 1"),
    ("tail damped 1 2 0 from 1", "damped tail exponent d must be >= 1"),
    ("tail damped 1 2 -1 from 1", "damped tail exponent d must be >= 1"),
    ("tail damped 1 2 0 from 1 stride 100000",
     "tail ratio of 3 bits to the power 6400001 is above the size cap 10000000 bits"),
    ("tail damped 1 2 2 from 0", "damped tail needs n0 >= 1 and stride >= 1"),
    ("tail damped 1 2 2 from 1 stride 0", "damped tail needs n0 >= 1 and stride >= 1"),
    ("tail damped 0 2 2 from 1", "damped tail coefficient a must be positive"),
    ("tail damped 1 2 1000000000 from 1", "1000000000 is above the length cap 100000"),
    ("tail damped 1 2 2 from 1 stride x", "bad integer 'x'"),
    ("tail geometric 1 5/2 from 1", "bad integer '5/2'"),
    ("tail geometric 1 2.0 from 1", "bad integer '2.0'"),
    ("tail geometric 1/8 2 from 2", "geometric tail produces non-integer counts"),
    ("tail geometric 1 1 from 1", "geometric tail ratio k must be an integer >= 2"),
    ("tail geometric -1 2 from 1", "geometric tail coefficient a must be positive"),
    ("tail geometric 1 2 from 0", "geometric tail needs n0 >= 1 and stride >= 1"),
    ("tail geometric 1 2 from 1 stride 0", "geometric tail needs n0 >= 1 and stride >= 1"),
    ("tail geometric 1 2 from 1000000000", "1000000000 is above the length cap 100000"),
    (f"tail geometric 1 {_BIG} from 100000",
     "tail ratio of 13289 bits to the power 100000 is above the size cap 10000000 bits"),
    (f"tail damped 1 {_MID} 2 from 1000",
     "tail ratio of 9967 bits to the power 1064 is above the size cap 10000000 bits"),
    ("tail geometric 1 2 from", "tail line is 'tail geometric <a> <k> from <n0>'"),
    ("tail geometric 1 2 2 from 1", "tail line is 'tail geometric <a> <k> from <n0>'"),
    ("tail geometric 1 2 to 1", "tail line is 'tail geometric <a> <k> from <n0>'"),
    ("tail damped 1 2 from 1", "tail line is 'tail damped <a> <k> <d> from <n0>'"),
    ("tail damped 1 2 2 to 1", "tail line is 'tail damped <a> <k> <d> from <n0>'"),
    ("tail harmonic 1 2 from 1", "unknown tail family 'harmonic'"),
    ("tail", "tail line needs a family: 'geometric' or 'damped'"),
    ("tail stride 2", "tail line needs a family: 'geometric' or 'damped'"),
]


@pytest.mark.parametrize("line, printed", TAIL_LINES)
def test_tail_lines_print_back(line, printed):
    parts = parse_document(f"loops\n{line}\n")
    assert format_document(parts) == f"loops\nat 0\n{printed}\n"


@pytest.mark.parametrize("line, message", TAIL_ERRORS, ids=[line[:40] for line, _ in TAIL_ERRORS])
def test_tail_line_errors(line, message):
    with pytest.raises(ParseError) as info:
        parse_document(f"loops\n{line}\n")
    assert (info.value.lineno, info.value.message) == (2, message)


def test_parse_multi_section_document():
    parts = parse_document(
        "graph\nedge a a\n\nloops\ncount 2 5\n\ngraph\nedge z z\n"
    )
    assert len(parts) == 3
    assert isinstance(parts[1], LoopSchema)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_document("graph\nedge a\n")
    assert exc.value.lineno == 2
    with pytest.raises(ParseError):
        parse_document("")
    with pytest.raises(ParseError):
        parse_document("count 1 1\n")  # body before any header
    with pytest.raises(ParseError):
        parse_document("graph\nvertex a b\n")
    with pytest.raises(ParseError):
        parse_document("loops\ntail exotic 1 2 from 1\n")
    with pytest.raises(ParseError):
        parse_document("loops\ncount 1 1\ntail geometric 1 2 from 1\n")


def test_symbols_with_separators_rejected():
    with pytest.raises(ParseError):
        parse_document("graph\nedge a|b c\n")
    with pytest.raises(ParseError):
        parse_document("graph\nedge a b,c\n")


@pytest.mark.parametrize("text, lineno, message", [
    ("graph\nvertex a\nvertex b c\n", 3, "vertex line needs exactly one name"),
    ("graph\nvertex\n", 2, "vertex line needs exactly one name"),
    ("graph\nedge a b\nedge a\n", 3, "edge line is 'edge <v> <w> [name]'"),
    ("graph\nedge a b x y\n", 2, "edge line is 'edge <v> <w> [name]'"),
    ("graph\nedge a b\ncount 1 1\n", 3, "unexpected 'count' in graph body"),
    ("loops\ncount 1 1\nvertex a\n", 3, "unexpected 'vertex' in loops body"),
    # a name is checked where it is first named, and only there
    ("graph\nvertex a|b\nedge a|b a|b\n", 2, "symbol 'a|b' may not contain '|' or ','"),
    ("graph\nedge a b\n# a,c\nedge b a,c\nvertex a,c\n", 4,
     "symbol 'a,c' may not contain '|' or ','"),
    ("graph\nedge a, b\n", 2, "symbol 'a,' may not contain '|' or ','"),
    ("graph\n\n# nothing\n", 1, "graph with no vertices"),
    ("loops\ncount 1 1\n\ngraph\n", 4, "graph with no vertices"),
    ("graph\nedge a a x\n\ngraph\nedge b b y\nedge b b y\n", 4, "duplicate edge name"),
    ("graph\nedge a b\nedge b a\nvertex c\ngraph\nedge a a\nedge\n", 7,
     "edge line is 'edge <v> <w> [name]'"),
    ("\n# only comments\n", 1, "empty document"),
    ("vertex a\ngraph\n", 1, "expected 'graph' or 'loops' header, got 'vertex'"),
])
def test_graph_parse_errors_keep_their_line_and_message(text, lineno, message):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (exc.value.lineno, exc.value.message) == (lineno, message)


def test_auto_edge_names_skip_explicit_e_names():
    g = parse_presentation("graph\nedge a a\nedge a b e0\nedge b a\nedge b b e2\nedge a a\n")
    assert g.edge_names == ("e1", "e0", "e3", "e2", "e4")
    assert g.edges == (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("a", "a"))
    assert g.index().succ == [((0, 2), (1, 1)), ((0, 1), (1, 1))]
    g = parse_presentation("graph\nedge a a e1\nedge a a\nedge a a e0\nedge a a\n")
    assert g.edge_names == ("e1", "e2", "e0", "e3")
    assert format_presentation(g) == (
        "graph\nvertex a\nedge a a e1\nedge a a e2\nedge a a e0\nedge a a e3\n")


def mixed_document(rng: random.Random) -> str:
    """A canonical document of graph and loops sections: vertices declared
    in a random order, some edges named (e<k> names included), the rest
    left to the auto names."""
    sections = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            counts = sorted(rng.sample(range(1, 9), rng.randint(1, 3)))
            sections.append("loops\nat b\n" + "".join(f"count {n} {rng.randint(1, 4)}\n"
                                                      for n in counts))
            continue
        vs = [f"v{i}" for i in range(rng.randint(1, 6))]
        rng.shuffle(vs)
        edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 8))]
        named = rng.random() < 0.5
        names = rng.sample([f"e{k}" for k in range(12)] + [f"n{k}" for k in range(12)], len(edges))
        lines = ["graph", *(f"vertex {v}" for v in vs)]
        lines += [f"edge {u} {w}" + (f" {n}" if named else "") for (u, w), n in zip(edges, names)]
        sections.append("\n".join(lines) + "\n")
    return "\n".join(sections)


def test_format_document_of_a_parsed_document_is_byte_identical():
    rng = random.Random(2718)
    for _ in range(120):
        text = mixed_document(rng)
        assert format_document(parse_document(text)) == text
        noisy = text.replace("\nedge ", "\n  edge   ").replace("\ngraph\n", "\ngraph # again\n")
        assert format_document(parse_document(noisy)) == text


def test_single_section_parser_rejects_multi():
    with pytest.raises(ParseError):
        parse_presentation("graph\nedge a a\nloops\ncount 1 1\n")


def test_format_parse_round_trip_hand_cases():
    cases = [
        golden_mean_graph(),
        FiniteGraph(("u",), (("u", "u"), ("u", "u")), ("x", "y")),
        FiniteGraph(("lonely",), ()),
        LoopSchema(((1, 1), (2, 1))),
        LoopSchema(((3, 2),), Tail(Fraction(1, 32), 2, 0, 5), base="q"),
        LoopSchema((), Tail(Fraction(5, 3), Fraction(7, 4), 3, 2, stride=3)),
    ]
    for p in cases:
        assert parse_presentation(format_presentation(p)) == p
    assert parse_document(format_document(cases)) == tuple(cases)


def test_format_parse_round_trip_random_graphs():
    rng = random.Random(4021)
    for _ in range(60):
        vs, edges = random_strongly_connected(rng, 6)
        g = FiniteGraph(tuple(vs), tuple(edges))
        assert parse_presentation(format_presentation(g)) == g


# === rational tokens ===

def test_parse_rational_is_fraction_below_the_digit_cap():
    # seeded short tokens over Fraction's alphabet: the reader accepts what
    # Fraction accepts, with the same value, and refuses a value past the cap;
    # a zero written with an exponent past the cap (0e5000) is skipped, as
    # the cap counts the digits as written
    rng = random.Random(20)
    alphabet = "0123456789_./eE+- "
    limit = 10**NUMBER_DIGITS_CAP
    accepted = 0
    for _ in range(5000):
        tok = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        try:
            want = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            want = None
        if want == 0 and "e" in tok.lower():
            continue
        if want is not None and max(abs(want.numerator), want.denominator) >= limit:
            want = None
        try:
            got = parse_rational(tok)
        except ValueError:
            got = None
        assert got == want, tok
        accepted += got is not None
    assert accepted > 500


@pytest.mark.parametrize("tok, ok", [
    ("9" * NUMBER_DIGITS_CAP, True),
    ("9" * (NUMBER_DIGITS_CAP + 1), False),
    (f"1/{'7' * NUMBER_DIGITS_CAP}", True),
    (f"1/{'7' * (NUMBER_DIGITS_CAP + 1)}", False),
    (f"1e{NUMBER_DIGITS_CAP - 1}", True),
    (f"1e{NUMBER_DIGITS_CAP}", False),
    (f"1e-{NUMBER_DIGITS_CAP - 1}", True),
    (f"1e-{NUMBER_DIGITS_CAP}", False),
    (f"2.50e{NUMBER_DIGITS_CAP - 1}", True),  # 25 times 10^3998: trailing zeros move
    (f"2.5e{NUMBER_DIGITS_CAP}", False),
    ("1e100000000", False),
    ("1e-100000000", False),
    ("1e" + "9" * 5000, False),
])
def test_parse_rational_digit_cap(tok, ok):
    if ok:
        assert parse_rational(tok) == Fraction(tok)
    else:
        with pytest.raises(ValueError, match="digits"):
            parse_rational(tok)
