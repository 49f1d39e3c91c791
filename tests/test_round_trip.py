"""Every document parser round-trips through its formatter.

Seeded documents of each kind, and seeded mutations of them, either raise
ParseError or parse to a value v with parse(format(v)) == v.
"""

import random

from borelshift import (
    ParseError,
    format_code,
    format_document,
    format_invariants,
    format_relation,
    parse_code,
    parse_document,
    parse_invariants,
    parse_relation,
)

from helpers import mutate

NAMES = ("a", "b", "c", "ab", "x.y", "0", "1")
SEEDS = 60
MUTATIONS = 4


def _graph_lines(rng: random.Random) -> list[str]:
    vs = rng.sample(NAMES, rng.randint(1, 4))
    lines = [f"vertex {v}" for v in vs if rng.random() < 0.7]
    for i in range(rng.randint(0, 6)):
        name = f" {rng.choice(('e0', 'e1', 'e4', 'f'))}{i}" if rng.random() < 0.3 else ""
        lines.append(f"edge {rng.choice(vs)} {rng.choice(vs)}{name}")
    return lines


def _loops_lines(rng: random.Random) -> list[str]:
    lines = [f"at {rng.choice(('q', 'v1'))}"] if rng.random() < 0.3 else []
    for n in rng.sample(range(1, 12), rng.randint(0, 3)):
        lines.append(f"count {n} {rng.randint(0, 5)}")
    stride = f" stride {rng.randint(2, 3)}" if rng.random() < 0.3 else ""
    n0 = rng.randint(12, 15)
    kind = rng.randrange(3)
    if kind == 1:
        a = rng.choice(("1/4", "2/8", "3"))
        lines.append(f"tail geometric {a} {rng.randint(2, 4)} from {n0}{stride}")
    elif kind == 2:
        lines.append(f"tail damped {rng.choice(('1/2', '4/6', '2'))} {rng.choice(('2', '3/2', '6/4'))} "
                     f"{rng.randint(1, 3)} from {n0}{stride}")
    return lines


def presentation_document(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            lines += ["graph", *_graph_lines(rng)]
        else:
            lines += ["loops", *_loops_lines(rng)]
    return "\n".join(lines) + "\n"


ENTROPIES = (
    "log 2", "log 7/2", "log 6/2", "inf", "7/10 4/5", "1/2 1/2",
    "poly -1 -1 1 root-in 1 2", "poly -2 -2 2 root-in 3/2 2",
    "poly -4 2 root-in 1 3", "poly -2 1 root-in 1 3", "poly -6 4 root-in 1 2",
)


def invariants_document(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(1, 3)):
        count = rng.choice(("0", "1", "3", "unattained"))
        lines.append(f"gen {rng.randint(1, 4)} {rng.choice(ENTROPIES)} {count}")
    return "\n".join(lines) + "\n"


def code_document(rng: random.Random) -> str:
    mode = rng.choice(("vertex", "edge"))
    lines = _graph_lines(rng)
    if mode == "vertex":
        lines = [ln for ln in lines if len(ln.split()) != 4]
        keys = dict.fromkeys(v for ln in lines for v in ln.split()[1:])
    else:
        auto = iter(f"e{i}" for i in range(100))
        keys = [ln.split()[3] if len(ln.split()) == 4 else next(auto)
                for ln in lines if ln.startswith("edge")]
    maps = [f"map {k} {rng.choice(('0', '1', 'a'))}" for k in keys]
    return "\n".join([f"code {mode}", *lines, *maps]) + "\n"


def relation_document(rng: random.Random) -> str:
    lines = ["relation"]
    for _ in range(rng.randint(0, 4)):
        lines.append(f"pair {rng.choice(NAMES)} {rng.choice(NAMES)}")
    return "\n".join(lines) + "\n"


KINDS = (
    (presentation_document, parse_document, format_document),
    (invariants_document, parse_invariants, format_invariants),
    (code_document, parse_code, format_code),
    (relation_document, parse_relation, format_relation),
)


def test_documents_and_their_mutations_round_trip():
    rng = random.Random(19)
    parsed = 0
    for make, parse, fmt in KINDS:
        for _ in range(SEEDS):
            texts = [make(rng)]
            for _ in range(MUTATIONS):
                texts.append(mutate(rng, texts[-1]))
            for text in texts:
                try:
                    value = parse(text)
                except ParseError:
                    continue
                parsed += 1
                assert parse(fmt(value)) == value, text
    # most seeds and many mutations parse, so the property is not vacuous
    assert parsed > len(KINDS) * SEEDS
