"""Injective subsystems of a coded presentation at a prescribed entropy.

Given a 1-block code phi on a finite presentation and a target entropy h0,
synthesize a subsystem Z of the domain with phi restricted to Z injective and
h(Z) >= h0.  Three tiers, each certified by independent checks rather than by
construction arithmetic:

  1. the whole domain, when phi is already injective;
  2. an induced subgraph on which the labeling is vertex-injective;
  3. a marker system X_K: free concatenations of blocks  m_a w_1 ... w_K
     where m_1, m_2 are marker words built from two loops with distinct label
     words (ell^A ell~^C tail) and the w_i range over a gallery of
     label-distinct loops of fixed length N, run-filtered so the marker
     prefix cannot be simulated inside gallery stretches.

Every candidate is accepted only if the composed labeling of its presentation
passes the fiber-product injectivity check and its entropy certifies above
the target; the marker arithmetic merely steers the search.  The first two
tiers take the Perron entropy of the top irreducible component, computed once
per component.  The marker tier's entropy comes from classify_recurrence on
the first-return loop schema at the marker start, after the built graph's
first-return counts have been checked against that schema.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, log, prod
from typing import NamedTuple, Optional

from .codes import BlockCode, BudgetExhausted, check_injective, prune_to_biinfinite
from .entropy import DEFAULT_TOL, ExtendedEntropy, ZERO_ENTROPY, compare_entropy, perron_entropy
from .graphs import first_return_counts, irreducible_components
from .presentations import FiniteGraph, Inconclusive, LoopSchema, Unsatisfiable
from .recurrence import classify_recurrence

GALLERY_CAP = 4096
STATE_CAP = 20000
N_CAP = 64
K_CAP = 64
A_CHOICES = (4, 8, 16, 32)
BUDGET_MESSAGE = "marker presentation exceeded the state budget"


class PreconditionViolated(Unsatisfiable):
    """Target entropy at or above the domain entropy, or empty domain."""


class NoDistinctLoops(Inconclusive):
    """No pair of loops with distinct label words at any base vertex."""


class MarkerParams(NamedTuple):
    base: str
    ell: tuple[str, ...]  # loop word at base, as domain vertices
    ell_tilde: tuple[str, ...]
    A: int
    C: int
    N: int
    K: int

    def marker_words(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        m1 = self.ell * self.A + self.ell_tilde * self.C + self.ell
        m2 = self.ell * self.A + self.ell_tilde * self.C + self.ell_tilde
        return m1, m2

    def block_structure(self, gallery_size: int) -> tuple[int, int, int]:
        """(B1, B2, G): the lengths of the m1 and m2 blocks, each a marker
        followed by K gallery words of length N, and the G = gallery_size^K
        choices of gallery words in one block."""
        m1, m2 = self.marker_words()
        slots = self.K * self.N
        return len(m1) + slots, len(m2) + slots, gallery_size**self.K


class EmbeddingCertificate(NamedTuple):
    tier: str  # "whole-domain" | "label-injective" | "marker"
    presentation: FiniteGraph  # presents the subsystem
    symbol_map: tuple[tuple[str, str], ...]  # presentation vertex -> domain vertex
    entropy: ExtendedEntropy
    params: Optional[MarkerParams] = None


def make_subsystem_code(cert: EmbeddingCertificate, lg: BlockCode) -> BlockCode:
    """Composed 1-block code: subsystem presentation -> image symbols."""
    lm = lg._label_map
    sm = dict(cert.symbol_map)
    mapping = tuple((v, lm[sm[v]]) for v in cert.presentation.vertices)
    return BlockCode(cert.presentation, mapping, mode="vertex")


def _top_component(
    g: FiniteGraph, tol: Fraction
) -> tuple[Optional[FiniteGraph], ExtendedEntropy]:
    """The irreducible component of g with the largest entropy, and that
    entropy; the first one wins ties and undecided comparisons, and a graph
    without one gives (None, 0).  Pruning to the bi-infinite part would
    leave the components as they are."""
    best, best_h = None, ZERO_ENTROPY
    for _, c in irreducible_components(g):
        h = perron_entropy(c)
        if best is None or compare_entropy(h, best_h, tol) == "gt":
            best, best_h = c, h
    return best, best_h


def _certify(
    best: Optional[FiniteGraph],
    best_h: ExtendedEntropy,
    lg: BlockCode,
    target: ExtendedEntropy,
    tol: Fraction,
    tier: str,
) -> Optional[EmbeddingCertificate]:
    """Certificate on the top component `best` (a subgraph of lg's domain),
    kept so the certificate is irreducible, if it clears the target and the
    code restricted to it is injective."""
    if best is None or compare_entropy(best_h, target, tol) == "lt":
        return None
    sm = tuple((v, v) for v in best.vertices)
    cert = EmbeddingCertificate(tier, best, sm, best_h)
    if not check_injective(make_subsystem_code(cert, lg)).injective:
        return None
    return cert


def synthesize_injective_subsystem(
    code: BlockCode,
    target: ExtendedEntropy,
    tol: Fraction = DEFAULT_TOL,
    state_cap: int = STATE_CAP,
) -> EmbeddingCertificate:
    """Find a certified injective subsystem with entropy >= target."""
    lg = code.labeled()
    if not lg.domain.vertices:
        raise PreconditionViolated("empty domain")
    top, h_dom = _top_component(lg.domain, tol)
    if compare_entropy(target, h_dom, tol) == "gt":
        raise PreconditionViolated(
            f"target entropy {float(target):.6f} exceeds domain entropy {float(h_dom):.6f}"
        )

    cert = _certify(top, h_dom, lg, target, tol, "whole-domain")
    if cert is not None:
        return cert

    cert = _label_injective_tier(lg, target, tol)
    if cert is not None:
        return cert

    return _marker_tier(lg, target, tol, state_cap)


def _label_injective_tier(
    lg: BlockCode, target: ExtendedEntropy, tol: Fraction
) -> Optional[EmbeddingCertificate]:
    by_symbol: dict[str, list[str]] = {}
    for v, s in lg.mapping:
        by_symbol.setdefault(s, []).append(v)
    symbols = sorted(by_symbol)
    if prod(len(by_symbol[s]) + 1 for s in symbols) > GALLERY_CAP:
        return None
    best_cert = None
    # one pick per symbol, None for none; the first symbol varies slowest
    for combo in product(*([None] + by_symbol[s] for s in symbols)):
        picked = tuple(c for c in combo if c)
        if not picked:
            continue
        sub = lg.domain.induced(picked)
        cert = _certify(*_top_component(sub, tol), lg, target, tol, "label-injective")
        if cert is not None and (
            best_cert is None or compare_entropy(cert.entropy, best_cert.entropy, tol) == "gt"
        ):
            best_cert = cert
    return best_cert


# --- marker tier ---


def _loops_at(g: FiniteGraph, base: str, length: int, cap: int) -> list[tuple[str, ...]]:
    """Loop words of exactly the given length at base (word = vertices visited,
    starting at base, length symbols, returning to base afterwards), at most
    cap of them, in depth-first order with each vertex's successors taken
    last first.  One path list is extended and cut back; a word is built only
    for a loop found."""
    idx = g.index()
    b = idx.pos[base]
    succ = [[w for w, _ in row] for row in idx.succ]
    closes = [b in row for row in succ]
    name = idx.order.__getitem__
    out: list[tuple[str, ...]] = []
    path = [b]
    todo: list[list[int]] = []  # per vertex on the path, successors not yet taken
    while len(out) < cap:
        if len(path) == length:
            if closes[path[-1]]:
                out.append(tuple(map(name, path)))
            path.pop()
        else:
            todo.append(succ[path[-1]][:])
        while todo and not todo[-1]:
            todo.pop()
            path.pop()
        if not todo:
            break
        path.append(todo[-1].pop())
    return out


def find_image_distinct_loops(
    lg: BlockCode, base: str, max_len: int = 6
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Two loops at base whose label words differ; same length preferred,
    else the first loops of the two shortest lengths that have one."""
    lm = lg._label_map
    firsts = []
    for length in range(1, max_len + 1):
        loops = _loops_at(lg.domain, base, length, cap=512)
        firsts += loops[:1]
        seen = {}
        for w in loops:
            lab = tuple(lm[v] for v in w)
            for other_lab, other in seen.items():
                if other_lab != lab:
                    return other, w
            seen[lab] = w
    if len(firsts) < 2:
        raise NoDistinctLoops(f"no two label-distinct loops at {base!r}")
    return firsts[0], firsts[1]


def _label_word(lg: BlockCode, word: tuple[str, ...]) -> tuple[str, ...]:
    lm = lg._label_map
    return tuple(lm[v] for v in word)


def _gallery(
    lg: BlockCode, base: str, N: int, ell_label: tuple[str, ...]
) -> list[tuple[str, ...]]:
    """Label-distinct loops of length N, excluding words that could simulate a
    run of the marker loop label longer than N/2.  Each label is spelled as
    one character, so a label word is a string and the run test one
    substring search of the word read twice around."""
    loops = _loops_at(lg.domain, base, N, cap=GALLERY_CAP)
    run_cap = max(1, (N // 2) // max(1, len(ell_label)))
    lm = lg._label_map
    spelling = {a: chr(k) for k, a in enumerate(dict.fromkeys([*ell_label, *lm.values()]))}
    letter = {v: spelling[a] for v, a in lm.items()}.__getitem__
    run = "".join(map(spelling.__getitem__, ell_label)) * (run_cap + 1)
    out = []
    seen_labels = set()
    for w in loops:
        lab = "".join(map(letter, w))
        if lab in seen_labels or run in lab + lab:
            continue
        seen_labels.add(lab)
        out.append(w)
    return out


def build_marker_sft(
    params: MarkerParams,
    gallery: list[tuple[str, ...]],
    state_cap: int = STATE_CAP,
) -> tuple[FiniteGraph, dict]:
    """Presentation of X_K: marker chains feeding K copies of the gallery trie
    in sequence.

    Returns the graph and the map from its states, in vertex order, to domain
    vertices.  One trie holds the gallery's prefixes, its nodes numbered in
    the order they are first met; node n of copy k is state g<k>.<n>, whose
    symbol is the last vertex of its prefix.  The budget is checked as the
    trie grows: once the marker states plus K times its nodes pass state_cap,
    BudgetExhausted is raised before any state or edge is named.
    """
    m1, m2 = params.marker_words()
    if not gallery:
        raise ValueError("empty gallery")
    K = params.K
    markers = len(m1) + len(m2)
    node: dict[tuple[int, str], int] = {}  # (parent node or -1 at the root, vertex) -> node
    ends: set[int] = set()  # the full-word nodes
    for w in gallery:
        n = -1
        for v in w:
            if (n, v) not in node and markers + K * (len(node) + 1) > state_cap:
                raise BudgetExhausted(BUDGET_MESSAGE)
            n = node.setdefault((n, v), len(node))
        ends.add(n)
    firsts = [n for (p, _), n in node.items() if p < 0]
    chains = [[f"m{a}.{i}" for i in range(len(word))] for a, word in (("1", m1), ("2", m2))]
    copies = [[f"g{k}.{n}" for n in range(len(node))] for k in range(K)]
    states = [s for names in chains + copies for s in names]
    symbol = dict(zip(states, m1 + m2 + tuple(v for _, v in node) * K))
    edges = [(c[i - 1], c[i]) for c in chains for i in range(1, len(c))]
    edges += [(c[-1], copies[0][s]) for c in chains for s in firsts]
    # full words lead to the next copy's first letters, and from the last copy to the markers
    heads = [[c[s] for s in firsts] for c in copies[1:]] + [[c[0] for c in chains]]
    for names, nxt in zip(copies, heads):
        edges += [(names[p], names[n]) for (p, _), n in node.items() if p >= 0]
        edges += [(names[e], s) for e in ends for s in nxt]
    return FiniteGraph(tuple(states), tuple(sorted(edges))), symbol


def marker_block_entropy(params: MarkerParams, gallery_size: int) -> ExtendedEntropy:
    """Entropy of X_K from its first-return structure at the marker start.

    Returns to the m1 start happen after one m1 block and j >= 0 intervening
    m2 blocks, G = gallery_size^K choices each, so with B_a the block lengths
    G x^B1 / (1 - G x^B2) = 1, that is G x^B1 + G x^B2 = 1: the root equation
    of the finite loop schema {B1: G, B2: G} ({B: 2G} when B1 = B2 = B),
    certified by classify_recurrence.
    """
    b1, b2, big = params.block_structure(gallery_size)
    counts = ((b1, 2 * big),) if b1 == b2 else ((b1, big), (b2, big))
    return classify_recurrence(LoopSchema(counts)).entropy


def _check_block_structure(
    g: FiniteGraph, params: MarkerParams, gallery_size: int
) -> bool:
    """First-return counts of the built graph must match the block formula."""
    b1, b2, big = params.block_structure(gallery_size)
    limit = b1 + 2 * b2
    counts = first_return_counts(g, "m1.0", limit)
    expected = [0] * (limit + 1)
    j = 0
    while b1 + j * b2 <= limit:
        expected[b1 + j * b2] = big ** (j + 1)
        j += 1
    return counts == expected


def _marker_tier(
    lg: BlockCode,
    target: ExtendedEntropy,
    tol: Fraction,
    state_cap: int = STATE_CAP,
) -> EmbeddingCertificate:
    g = prune_to_biinfinite(lg.domain)
    if not g.vertices:
        raise PreconditionViolated("domain has no bi-infinite part")
    keep = set(g.vertices)
    lg2 = BlockCode(g, tuple((v, s) for v, s in lg.mapping if v in keep))
    target_f = float(target)
    last_error = "no feasible marker parameters in budget"
    for base in sorted(g.vertices):
        try:
            ell, ell_t = find_image_distinct_loops(lg2, base)
        except NoDistinctLoops:
            continue
        ell_lab = _label_word(lg2, ell)
        # the markers at the smallest A plus one gallery word of length N are
        # states of every candidate, and this floor grows with N
        markers_floor = sum(
            map(len, MarkerParams(base, ell, ell_t, A_CHOICES[0], 2, 2, 1).marker_words())
        )
        for N in range(2, N_CAP + 1):
            if markers_floor + N > state_cap:
                last_error = BUDGET_MESSAGE
                break
            if log(GALLERY_CAP) <= target_f * N:
                break  # no gallery, at most GALLERY_CAP words, clears the target from here on
            gallery = _gallery(lg2, base, N, ell_lab)
            if len(gallery) < 2:
                continue
            if log(len(gallery)) <= target_f * N:
                continue  # this N can never clear the target
            for A in A_CHOICES:
                params = MarkerParams(base, ell, ell_t, A, 2, N, 1)
                m1, m2 = params.marker_words()
                M = max(len(m1), len(m2))
                denom = log(len(gallery)) - target_f * N
                K = min(K_CAP, max(1, ceil((target_f * M) / denom) + 1))
                params = MarkerParams(base, ell, ell_t, A, 2, N, K)
                try:
                    sft, symbol = build_marker_sft(params, gallery, state_cap)
                except BudgetExhausted as exc:
                    last_error = str(exc)
                    continue
                if not _check_block_structure(sft, params, len(gallery)):
                    raise AssertionError(
                        "marker presentation disagrees with its block structure"
                    )
                h = marker_block_entropy(params, len(gallery))
                if compare_entropy(h, target, tol) == "lt":
                    last_error = (
                        f"marker candidate at base {base}, N={N}, K={K} "
                        f"reaches only entropy {float(h):.6f}"
                    )
                    continue
                sm = tuple(symbol.items())
                cert = EmbeddingCertificate("marker", sft, sm, h, params)
                if check_injective(make_subsystem_code(cert, lg2)).injective:
                    return cert
                last_error = (
                    f"marker candidate at base {base}, N={N}, A={A}, K={K} "
                    "failed the injectivity check"
                )
    raise BudgetExhausted(last_error)
