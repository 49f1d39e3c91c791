"""Almost-Borel classification invariants of countable-state Markov shifts.

The invariant of a shift is the pair of functions on periods p >= 1

    u(p)   = sup of entropies of irreducible components whose period divides p
    eta(p) = number of components of period exactly p and entropy u(p)
             that carry a measure of maximal entropy

represented finitely by a canonical list of generators (period, entropy,
count), where count is the number of MME components at that exact (period,
entropy), 0 when the supremum is forced by components without an MME, and
"unattained" when it is approached by a family but attained by no component.
Zero-count and unattained generators are interchangeable for the functions;
they differ only in how a realization witnesses them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Union

from .entropy import (
    DEFAULT_TOL,
    ExactAlgebraic,
    ExtendedEntropy,
    INFINITE_ENTROPY,
    IntervalApprox,
    ZERO_ENTROPY,
    compare_entropy,
    entropy_from_log_value,
    perron_entropy,
)
from .graphs import irreducible_components, period_of_component
from .polynomials import _brackets_root, isolates_one_root
from .presentations import (
    FiniteGraph, Inconclusive, LoopSchema, ParseError, Record, Singleton, _content_lines,
    parse_rational,
)

# the recurrence classes; only loop schemas (recurrence) reach the last two
POSITIVE_RECURRENT = "positive-recurrent"
NULL_RECURRENT = "null-recurrent"
TRANSIENT = "transient"


class Unattained(Singleton):
    def __repr__(self):
        return "UNATTAINED"


UNATTAINED = Unattained()

Count = Union[int, Unattained]


class InconclusiveAtTolerance(Inconclusive):
    """An entropy comparison needed by the decision could not be certified."""


class ComponentSummary(Record):
    """One irreducible component: (period, entropy, has an MME?, recurrence)."""

    _fields = ("period", "entropy", "mme", "recurrence", "source")

    def __init__(
        self, period: int, entropy: ExtendedEntropy, mme: bool, recurrence: str, source: str = ""
    ):
        super().__init__(period, entropy, mme, recurrence, source)


class Generator(Record):
    _fields = ("period", "entropy", "count")

    def __init__(self, period: int, entropy: ExtendedEntropy, count: Count):
        if period < 1:
            raise ValueError("generator period must be >= 1")
        if isinstance(count, int) and count < 0:
            raise ValueError("generator count must be >= 0")
        super().__init__(period, entropy, count)

    @property
    def eta_count(self) -> int:
        return self.count if isinstance(self.count, int) else 0


class InvariantPair(Record):
    """Finite generator list for (u, eta); not necessarily canonical."""

    _fields = ("generators",)

    def __init__(self, generators: tuple[Generator, ...]):
        super().__init__(generators)

    def u_value(self, p: int, tol: Fraction = DEFAULT_TOL) -> ExtendedEntropy:
        best = ZERO_ENTROPY
        for g in self.generators:
            if p % g.period == 0:
                c = _cmp(g.entropy, best, tol)
                if c == "gt":
                    best = g.entropy
        return best

    def eta_value(self, p: int, tol: Fraction = DEFAULT_TOL) -> int:
        return self._eta_at(p, self.u_value(p, tol), tol)

    def _eta_at(self, p: int, top: ExtendedEntropy, tol: Fraction) -> int:
        """eta(p), given top = u(p)."""
        if top is ZERO_ENTROPY:
            return 0
        total = 0
        for g in self.generators:
            if g.period == p and _cmp(g.entropy, top, tol) == "eq":
                total += g.eta_count
        return total


def _cmp(a: ExtendedEntropy, b: ExtendedEntropy, tol: Fraction) -> str:
    c = compare_entropy(a, b, tol)
    if c == "unknown":
        raise InconclusiveAtTolerance(
            f"cannot separate entropies {a} and {b} at tolerance {tol}"
        )
    return c


def summarize_components(parts) -> list[ComponentSummary]:
    """Irreducible-component summaries of a presentation document.

    Finite-graph components are positive recurrent, with an MME unless their
    entropy is zero (a single cycle); vertices that lie on no cycle carry no
    shift-invariant structure and are skipped.  A loop schema whose counts and
    tail repeat an earlier part's is classified once per call.
    """
    if isinstance(parts, (FiniteGraph, LoopSchema)):
        parts = (parts,)
    out: list[ComponentSummary] = []
    reports = {}
    for idx, part in enumerate(parts):
        prefix = f"p{idx}." if len(parts) > 1 else ""
        if isinstance(part, LoopSchema):
            from .recurrence import classify_recurrence  # only a loop schema needs it

            key = (part.counts, part.tail)
            if key not in reports:
                reports[key] = classify_recurrence(part)
            r = reports[key]
            out.append(ComponentSummary(r.period, r.entropy, r.mme, r.recurrence, prefix + "loops"))
            continue
        for cid, sub in irreducible_components(part):
            p = period_of_component(sub)
            h = perron_entropy(sub, _period=p)
            out.append(
                ComponentSummary(p, h, h is not ZERO_ENTROPY, POSITIVE_RECURRENT, prefix + cid)
            )
    return out


def compute_u_eta(
    summaries: Sequence[ComponentSummary], tol: Fraction = DEFAULT_TOL
) -> InvariantPair:
    """Canonical invariant pair of a list of component summaries."""
    items = [
        (s.period, s.entropy, 1 if s.mme else 0)
        for s in summaries
        if _cmp(s.entropy, ZERO_ENTROPY, tol) == "gt"
    ]
    return _canonicalize(items, tol)


def canonical_invariants(pair: InvariantPair, tol: Fraction = DEFAULT_TOL) -> InvariantPair:
    """Drop invisible generators and merge equal keys; function-preserving."""
    items = [(g.period, g.entropy, g.count) for g in pair.generators]
    return _canonicalize(items, tol)


def _canonicalize(items, tol: Fraction) -> InvariantPair:
    def sort_key(it):
        # an infinite entropy after every finite one, even one past the float range
        return (float(it[1]), not it[1].is_finite())

    # cluster entropies at tolerance in ascending order, each cluster certified
    # above the one before it, so that a later cluster is strictly larger.  The
    # floats order values only beyond their error: an item certified below the
    # last cluster walks back to its place
    clusters: list[list] = []  # [representative entropy, merged items]
    for it in sorted(items, key=sort_key):
        i, c = len(clusters), "gt"
        while i and (c := _cmp(it[1], clusters[i - 1][0], tol)) == "lt":
            i -= 1
        if c == "eq":
            clusters[i - 1][1].append(it)
        else:
            clusters.insert(i, [it[1], [it]])

    # per (period, cluster) key: total MME count and whether any non-MME source
    keyed: dict[tuple[int, int], list] = {}
    for ci, (_, members) in enumerate(clusters):
        for period, _, count in members:
            slot = keyed.setdefault((period, ci), [0, False])
            if isinstance(count, int) and count > 0:
                slot[0] += count
            elif count is UNATTAINED:
                slot[1] = True

    gens: list[Generator] = []
    for period, ci in sorted(keyed):
        count, unatt = keyed[(period, ci)]
        # invisible if a strictly larger entropy lives at a divisor of period,
        # or, with no MME, an equal one at a proper divisor
        if any(period % p2 == 0 and (c2 > ci or (c2 == ci and p2 != period and count == 0))
               for p2, c2 in keyed):
            continue
        count = UNATTAINED if count == 0 and unatt else count
        gens.append(Generator(period, clusters[ci][0], count))
    return InvariantPair(tuple(gens))


class AdmissibilityReport(Record):
    _fields = ("admissible", "violations")  # violations: where u(p) = inf but eta(p) > 0

    def __init__(self, admissible: bool, violations: tuple[int, ...]):
        super().__init__(admissible, violations)


def check_admissible(pair: InvariantPair) -> AdmissibilityReport:
    """A pair is admissible iff eta(p) = 0 wherever u(p) is infinite."""
    bad = []
    for g in pair.generators:
        if g.entropy is INFINITE_ENTROPY and g.eta_count > 0:
            bad.append(g.period)
    return AdmissibilityReport(not bad, tuple(sorted(set(bad))))


class IsoVerdict(Record):
    _fields = ("isomorphic", "witness_period", "detail")

    def __init__(self, isomorphic: bool, witness_period: Optional[int] = None, detail: str = ""):
        super().__init__(isomorphic, witness_period, detail)


def decide_almost_borel_iso(
    a: InvariantPair, b: InvariantPair, tol: Fraction = DEFAULT_TOL
) -> IsoVerdict:
    """Almost-Borel isomorphism holds iff (u, eta) agree as functions.

    u is monotone along divisibility and eta is 0 off the generator periods,
    so the smallest period where they differ is 1 or a generator period.
    """
    for m in sorted({1, *(g.period for g in a.generators + b.generators)}):
        ua, ub = a.u_value(m, tol), b.u_value(m, tol)
        c = _cmp(ua, ub, tol)
        if c != "eq":
            return IsoVerdict(
                False, m, f"u({m}) differs: {ua} vs {ub} ({c})"
            )
        ea, eb = a._eta_at(m, ua, tol), b._eta_at(m, ub, tol)
        if ea != eb:
            return IsoVerdict(False, m, f"eta({m}) differs: {ea} vs {eb}")
    return IsoVerdict(True)


def invariants_of(parts, tol: Fraction = DEFAULT_TOL) -> InvariantPair:
    return compute_u_eta(summarize_components(parts), tol)


# document format: one "gen <period> <entropy-expr> <count|unattained>" per line


def parse_invariants(text: str) -> InvariantPair:
    gens = []
    seen_any = False
    for i, toks in _content_lines(text):
        if toks[0] != "gen":
            raise ParseError(i, f"expected 'gen', got {toks[0]!r}")
        if len(toks) < 4:
            raise ParseError(i, "gen line is 'gen <period> <entropy> <count>'")
        seen_any = True
        try:
            period = int(toks[1])
        except ValueError:
            raise ParseError(i, f"bad period {toks[1]!r}") from None
        count: Count
        if toks[-1] == "unattained":
            count = UNATTAINED
        else:
            try:
                count = int(toks[-1])
            except ValueError:
                raise ParseError(i, f"bad count {toks[-1]!r}") from None
        entropy = _parse_entropy_expr(toks[2:-1], i)
        if entropy is not INFINITE_ENTROPY:
            enc = entropy.log_enclosure()
            if enc.lo <= 0:
                raise ParseError(i, "generator entropy must be positive")
        try:
            gens.append(Generator(period, entropy, count))
        except ValueError as exc:
            raise ParseError(i, str(exc)) from None
    if not seen_any:
        raise ParseError(1, "empty invariant document")
    return InvariantPair(tuple(gens))


def _parse_entropy_expr(toks: list[str], lineno: int) -> ExtendedEntropy:
    if toks == ["inf"]:
        return INFINITE_ENTROPY
    if toks[0] == "log" and len(toks) == 2:
        try:
            lam = parse_rational(toks[1])
        except ValueError:
            raise ParseError(lineno, f"bad log argument {toks[1]!r}") from None
        if lam <= 1:
            raise ParseError(lineno, "log argument must exceed 1")
        return entropy_from_log_value(lam)
    if toks[0] == "poly":
        if "root-in" not in toks:
            raise ParseError(lineno, "poly expression needs 'root-in <lo> <hi>'")
        cut = toks.index("root-in")
        if cut + 3 != len(toks):
            raise ParseError(lineno, "poly expression needs 'root-in <lo> <hi>'")
        try:
            coeffs = tuple(int(t) for t in toks[1:cut])
            lo, hi = parse_rational(toks[cut + 1]), parse_rational(toks[cut + 2])
        except ValueError:
            raise ParseError(lineno, "bad poly expression") from None
        if len(coeffs) < 2 or coeffs[-1] == 0:
            raise ParseError(lineno, "poly needs degree >= 1 with nonzero lead")
        # a minimal polynomial is primitive
        g = gcd(*coeffs)
        coeffs = tuple(c // g for c in coeffs)
        try:
            h = ExactAlgebraic(coeffs, lo, hi)
        except (ValueError, ArithmeticError) as exc:
            raise ParseError(lineno, f"bad algebraic entropy: {exc}") from None
        if not isolates_one_root(coeffs, lo, hi):
            raise ParseError(lineno, "root-in interval must isolate one root of the polynomial")
        # the isolated root is the only one in [lo, hi], so it lies at or
        # below 0 exactly when the polynomial vanishes at lo or 0 or changes
        # sign between them
        if lo <= 0 and _brackets_root(coeffs, lo, Fraction(0)):
            raise ParseError(lineno, "root-in interval must hold a positive root")
        if len(coeffs) == 2:
            # a linear minimal polynomial pins its root, as `log` does
            r = h.rational_root()
            return ExactAlgebraic(coeffs, r, r)
        return h
    if len(toks) == 2:
        try:
            lo, hi = parse_rational(toks[0]), parse_rational(toks[1])
        except ValueError:
            raise ParseError(lineno, "bad entropy interval") from None
        if not lo <= hi:
            raise ParseError(lineno, "entropy interval needs lo <= hi")
        return IntervalApprox(lo, hi)
    raise ParseError(lineno, f"unrecognized entropy expression {' '.join(toks)!r}")


def format_invariants(pair: InvariantPair) -> str:
    lines = []
    for g in pair.generators:
        cnt = "unattained" if g.count is UNATTAINED else str(g.count)
        lines.append(f"gen {g.period} {format_entropy_expr(g.entropy)} {cnt}")
    return "\n".join(lines) + "\n"


def format_entropy_expr(h: ExtendedEntropy) -> str:
    if h is INFINITE_ENTROPY:
        return "inf"
    if isinstance(h, ExactAlgebraic):
        lam = h.rational_root()
        if lam is not None and lam.denominator == 1:
            return f"log {lam}"
        coeffs = " ".join(str(c) for c in h.minpoly)
        return f"poly {coeffs} root-in {h.root_lo} {h.root_hi}"
    if isinstance(h, IntervalApprox):
        return f"{h.lo} {h.hi}"
    raise ValueError(f"cannot format entropy {h!r}")
