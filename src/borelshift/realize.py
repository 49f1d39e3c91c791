"""Realization of admissible invariant pairs as loop-schema presentations.

Each generator (p, h, c) becomes concrete components of period p:

  c >= 1       c positive-recurrent schemas of entropy h, each carrying one MME
  c = 0        one transient schema of entropy h (sup witnessed, no MME)
  unattained   a family descriptor whose members are positive recurrent with
               entropies increasing strictly toward h

Positive-recurrent schemas use a single return count m^p at length p when
h = log m is exactly closable, otherwise greedy digits against a 30-digit
rational approximation of e^{-hp}; the root perturbation from truncating the
digit expansion is far below the working tolerance.  Transient schemas use a
damped tail floor(a k^n / n^2) with a = p^2/2, which keeps Phi(R) <= zeta(2)/2
certifiably below 1 while forcing entropy log k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .entropy import (
    DEFAULT_TOL,
    ExactAlgebraic,
    ExtendedEntropy,
    INFINITE_ENTROPY,
    compare_entropy,
)
from .intervals import approx_exp
from .invariants import (
    UNATTAINED,
    Generator,
    InvariantPair,
    canonical_invariants,
    check_admissible,
    compute_u_eta,
    summarize_components,
)
from .presentations import DampedTail, LoopSchema, format_document
from .recurrence import POSITIVE_RECURRENT, TRANSIENT

DIGIT_FLOOR = Fraction(1, 10**13)


class UnrealizableEntropy(ValueError):
    """Entropy value too wide, non-positive, or otherwise not constructible."""


class RealizationCertificationError(AssertionError):
    """An emitted schema failed its independent classification check."""


@dataclass(frozen=True)
class FamilySchema:
    """Countable family of PR components with entropies increasing toward a
    supremum that no member attains."""

    period: int
    entropy: ExtendedEntropy  # the supremum; may be infinite

    def member(self, j: int) -> LoopSchema:
        if j < 1:
            raise ValueError("family index starts at 1")
        if self.entropy is INFINITE_ENTROPY:
            return LoopSchema(counts=((self.period, 2 ** (j * self.period)),), tail=None)
        if j > 35:
            raise ValueError("family index too deep to certify below the supremum")
        h_mid = _entropy_midpoint(self.entropy)
        target = h_mid * (1 - Fraction(1, 2**j))
        return _greedy_pr_schema(self.period, target)


@dataclass(frozen=True)
class Realization:
    components: tuple[tuple[str, LoopSchema], ...]  # role "mme" or "transient"
    families: tuple[FamilySchema, ...]

    def parts(self) -> tuple[LoopSchema, ...]:
        return tuple(s for _, s in self.components)

    def document(self) -> str:
        if self.families:
            raise UnrealizableEntropy(
                "pair has unattained generators; no finite document presents it"
            )
        return format_document(self.parts())


def _entropy_midpoint(h: ExtendedEntropy) -> Fraction:
    enc = h.log_enclosure(Fraction(1, 10**20))
    if enc.width > Fraction(1, 10**10):
        raise UnrealizableEntropy(
            f"entropy enclosure too wide to realize at tolerance: width {float(enc.width)}"
        )
    if enc.lo <= 0:
        raise UnrealizableEntropy("realization needs strictly positive entropy")
    return enc.mid


def _exact_log_integer(h: ExtendedEntropy) -> Optional[int]:
    if isinstance(h, ExactAlgebraic):
        lam = h.rational_root()
        if lam is not None and lam.denominator == 1 and lam >= 2:
            return int(lam)
    return None


def _greedy_pr_schema(period: int, h_target: Fraction) -> LoopSchema:
    """PR schema of period p with root within ~1e-12 of e^{-h_target}."""
    if h_target <= 0:
        raise UnrealizableEntropy("realization needs strictly positive entropy")
    y = approx_exp(-period * h_target)
    counts: list[tuple[int, int]] = []
    rem = Fraction(1)
    j = 1
    yj = y
    while yj >= DIGIT_FLOOR or j == 1:
        d = int(rem / yj)
        if d:
            counts.append((j * period, d))
            rem -= d * yj
        j += 1
        yj *= y
    total = sum(c for _, c in counts)
    if total < 2:
        raise UnrealizableEntropy("entropy too close to zero for a certified schema")
    return LoopSchema(counts=tuple(counts), tail=None)


def _pr_schema(period: int, h: ExtendedEntropy) -> LoopSchema:
    m = _exact_log_integer(h)
    if m is not None:
        return LoopSchema(counts=((period, m**period),), tail=None)
    return _greedy_pr_schema(period, _entropy_midpoint(h))


def _transient_schema(period: int, h: ExtendedEntropy) -> LoopSchema:
    k = approx_exp(_entropy_midpoint(h))
    if k <= 1:
        raise UnrealizableEntropy("transient realization needs entropy > 0")
    tail = DampedTail(
        a=Fraction(period * period, 2), k=k, d=2, n0=period, stride=period
    )
    return LoopSchema(counts=(), tail=tail)


def realize_invariants(pair: InvariantPair, tol: Fraction = DEFAULT_TOL) -> Realization:
    """Build components realizing the pair and certify them independently;
    raises on inadmissible input."""
    rep = check_admissible(pair, tol)
    if not rep.admissible:
        raise UnrealizableEntropy(
            f"inadmissible pair: eta > 0 at infinite entropy for periods {rep.violations}"
        )
    canon = canonical_invariants(pair, tol)
    comps: list[tuple[str, LoopSchema]] = []
    fams: list[FamilySchema] = []
    for g in canon.generators:
        if g.count is UNATTAINED:
            fams.append(FamilySchema(g.period, g.entropy))
            continue
        if g.count == 0:
            if g.entropy is INFINITE_ENTROPY:
                # no single transient piece reaches sup = inf; take a family
                # of PR components with unbounded entropy, none at the top
                fams.append(FamilySchema(g.period, g.entropy))
            else:
                comps.append(("transient", _transient_schema(g.period, g.entropy)))
            continue
        if g.entropy is INFINITE_ENTROPY:
            # canonical pairs cannot reach here; admissibility forces count 0
            raise UnrealizableEntropy("no single component has infinite entropy")
        schema = _pr_schema(g.period, g.entropy)
        for _ in range(g.count):
            comps.append(("mme", schema))
    real = Realization(tuple(comps), tuple(fams))
    _certify(real, canon, tol)
    return real


def _certify(real: Realization, canon: InvariantPair, tol: Fraction):
    by_key: dict[int, list] = {}
    for (role, _), r in zip(real.components, summarize_components(real.parts())):
        want = POSITIVE_RECURRENT if role == "mme" else TRANSIENT
        if r.recurrence != want:
            raise RealizationCertificationError(
                f"component classified {r.recurrence}, wanted {want}"
            )
        by_key.setdefault(r.period, []).append((role, r.entropy))
    for g in canon.generators:
        if g.count is UNATTAINED:
            continue
        if g.count == 0 and g.entropy is INFINITE_ENTROPY:
            continue  # realized by a family; no finite component to certify
        got = by_key.get(g.period, [])
        matched = [
            role
            for role, h in got
            if compare_entropy(h, g.entropy, tol) == "eq"
        ]
        want_mme = g.count if isinstance(g.count, int) else 0
        if matched.count("mme") != want_mme:
            raise RealizationCertificationError(
                f"period {g.period}: wanted {want_mme} MME components, "
                f"certified {matched.count('mme')}"
            )
        if want_mme == 0 and "transient" not in matched:
            raise RealizationCertificationError(
                f"period {g.period}: zero-count generator lacks a transient witness"
            )


def pair_of_realization(real: Realization, tol: Fraction = DEFAULT_TOL) -> InvariantPair:
    """Recompute the invariant pair of a realization, families included."""
    gens = list(compute_u_eta(summarize_components(real.parts()), tol).generators)
    for f in real.families:
        gens.append(Generator(f.period, f.entropy, UNATTAINED))
    return canonical_invariants(InvariantPair(tuple(gens)), tol)
