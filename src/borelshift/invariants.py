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

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .entropy import (
    DEFAULT_TOL,
    ExactAlgebraic,
    ExtendedEntropy,
    INFINITE_ENTROPY,
    IntervalApprox,
    ZERO_ENTROPY,
    _brackets_root,
    compare_entropy,
    entropy_from_log_value,
    isolates_one_root,
    perron_entropy,
)
from .graphs import irreducible_components, period_of_component
from .presentations import FiniteGraph, LoopSchema, ParseError, _content_lines
from .recurrence import (
    POSITIVE_RECURRENT,
    ComponentSummary,
    classify_recurrence,
)


class Unattained:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNATTAINED"


UNATTAINED = Unattained()

Count = Union[int, Unattained]


class InconclusiveAtTolerance(ArithmeticError):
    """An entropy comparison needed by the decision could not be certified."""


@dataclass(frozen=True)
class Generator:
    period: int
    entropy: ExtendedEntropy
    count: Count

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("generator period must be >= 1")
        if isinstance(self.count, int) and self.count < 0:
            raise ValueError("generator count must be >= 0")

    @property
    def eta_count(self) -> int:
        return self.count if isinstance(self.count, int) else 0


@dataclass(frozen=True)
class InvariantPair:
    """Finite generator list for (u, eta); not necessarily canonical."""

    generators: tuple[Generator, ...]

    def u_value(self, p: int, tol: Fraction = DEFAULT_TOL) -> ExtendedEntropy:
        best = ZERO_ENTROPY
        for g in self.generators:
            if p % g.period == 0:
                c = _cmp(g.entropy, best, tol)
                if c == "gt":
                    best = g.entropy
        return best

    def eta_value(self, p: int, tol: Fraction = DEFAULT_TOL) -> int:
        top = self.u_value(p, tol)
        if top is ZERO_ENTROPY:
            return 0
        total = 0
        for g in self.generators:
            if g.period == p and _cmp(g.entropy, top, tol) == "eq":
                total += g.eta_count
        return total

    def periods(self) -> tuple[int, ...]:
        return tuple(sorted({g.period for g in self.generators}))


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
            key = (part.counts, part.tail)
            if key not in reports:
                reports[key] = classify_recurrence(part)
            out.append(replace(reports[key], source=prefix + "loops"))
            continue
        for cid, sub in irreducible_components(part):
            h = perron_entropy(sub)
            out.append(
                ComponentSummary(
                    period_of_component(sub),
                    h,
                    h is not ZERO_ENTROPY,
                    POSITIVE_RECURRENT,
                    prefix + cid,
                )
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
    # cluster entropies at tolerance; sorted order makes adjacent merging sound
    def sort_key(it):
        h = it[1]
        if h is INFINITE_ENTROPY:
            return (1, 0.0)
        return (0, float(h))

    clusters: list[list] = []  # [representative entropy, merged items]
    for it in sorted(items, key=sort_key):
        if clusters and _cmp(it[1], clusters[-1][0], tol) == "eq":
            clusters[-1][1].append(it)
        else:
            clusters.append([it[1], [it]])

    # per (cluster, period) key: total MME count and whether any non-MME source
    keyed: dict[tuple[int, int], list] = {}
    for ci, (rep, members) in enumerate(clusters):
        for period, _, count in members:
            slot = keyed.setdefault((ci, period), [0, False])
            if isinstance(count, int) and count > 0:
                slot[0] += count
            elif count is UNATTAINED:
                slot[1] = True

    def cluster_rep(ci: int) -> ExtendedEntropy:
        return clusters[ci][0]

    gens: list[Generator] = []
    keys = list(keyed)
    for ci, period in keys:
        h = cluster_rep(ci)
        count, unatt = keyed[(ci, period)]
        # invisible if a strictly larger entropy lives at a divisor of period
        dominated_strict = any(
            period % p2 == 0 and _cmp(cluster_rep(c2), h, tol) == "gt"
            for (c2, p2) in keys
        )
        if dominated_strict:
            continue
        if count == 0:
            # zero-count generator is invisible when an equal-entropy generator
            # sits at a proper divisor period
            dominated_eq = any(
                c2 == ci and p2 != period and period % p2 == 0 for (c2, p2) in keys
            )
            if dominated_eq:
                continue
        gens.append(Generator(period, h, UNATTAINED if count == 0 and unatt else count))

    gens.sort(key=lambda g: (g.period, sort_key((0, g.entropy))))
    return InvariantPair(tuple(gens))


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[int, ...]  # periods where u(p) = inf but eta(p) > 0


def check_admissible(pair: InvariantPair, tol: Fraction = DEFAULT_TOL) -> AdmissibilityReport:
    """A pair is admissible iff eta(p) = 0 wherever u(p) is infinite."""
    bad = []
    for g in pair.generators:
        if g.entropy is INFINITE_ENTROPY and g.eta_count > 0:
            bad.append(g.period)
    return AdmissibilityReport(not bad, tuple(sorted(set(bad))))


@dataclass(frozen=True)
class IsoVerdict:
    isomorphic: bool
    witness_period: Optional[int] = None
    detail: str = ""


def _decision_periods(a: InvariantPair, b: InvariantPair) -> list[int]:
    periods = sorted(set(a.periods()) | set(b.periods()))
    values = {1}
    for p in periods:
        values |= {lcm(p, v) for v in values}
        if len(values) > 4096:
            raise InconclusiveAtTolerance("decision period set too large")
    return sorted(values)


def decide_almost_borel_iso(
    a: InvariantPair, b: InvariantPair, tol: Fraction = DEFAULT_TOL
) -> IsoVerdict:
    """Almost-Borel isomorphism holds iff (u, eta) agree as functions.

    Both functions are eventually-periodic along the divisibility lattice, so
    agreement on 1 and on all lcms of generator periods decides equality.
    """
    for m in _decision_periods(a, b):
        ua, ub = a.u_value(m, tol), b.u_value(m, tol)
        c = _cmp(ua, ub, tol)
        if c != "eq":
            return IsoVerdict(
                False, m, f"u({m}) differs: {ua} vs {ub} ({c})"
            )
        ea, eb = a.eta_value(m, tol), b.eta_value(m, tol)
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
            lam = Fraction(toks[1])
        except (ValueError, ZeroDivisionError):
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
            lo, hi = Fraction(toks[cut + 1]), Fraction(toks[cut + 2])
        except (ValueError, ZeroDivisionError):
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
            lo, hi = Fraction(toks[0]), Fraction(toks[1])
        except (ValueError, ZeroDivisionError):
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
