"""Realization of admissible invariant pairs as loop-schema presentations.

Each generator (p, h, c) becomes concrete components of period p:

  c >= 1       c positive-recurrent schemas of entropy h, each carrying one MME
  c = 0        one transient schema of entropy h (sup witnessed, no MME)
  unattained   a family descriptor whose members are positive recurrent with
               entropies increasing strictly toward h

Positive-recurrent schemas use a single return count m^p at length p when
h = log m is exactly closable, otherwise greedy digits against a 30-digit
rational approximation of e^{-hp}; truncating the digit expansion moves the
entropy by at most about sqrt(DIGIT_FLOOR) / p.  Transient schemas use a
damped tail floor(a k^n / n^2) with a = p^2/2, which keeps Phi(R) <= zeta(2)/2
certifiably below 1 while forcing entropy log k.

The certificate is the classification itself: the emitted components are
classified again, their (u, eta) is recomputed with the families' suprema
(pair_of_realization), and decide_almost_borel_iso must find it equal to the
requested pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .entropy import (
    DEFAULT_TOL,
    ExactAlgebraic,
    ExtendedEntropy,
    INFINITE_ENTROPY,
)
from .intervals import APPROX_EXP_DIGITS, approx_exp, to_float
from .invariants import (
    UNATTAINED,
    Generator,
    InconclusiveAtTolerance,
    InvariantPair,
    canonical_invariants,
    check_admissible,
    compute_u_eta,
    decide_almost_borel_iso,
    summarize_components,
)
from .presentations import (
    DAMPED_FIRST_TERMS,
    LENGTH_CAP,
    NUMBER_DIGITS_CAP,
    TAIL_BITS_CAP,
    LoopSchema,
    Tail,
    Unsatisfiable,
    tail_bits,
)
from .recurrence import BRACKET_FLOOR_DIGITS

DIGIT_FLOOR = Fraction(1, 10**13)
# greedy digits in y = e^(-p h) stop once y^j < DIGIT_FLOOR, which leaves the
# entropy within about min(y, DIGIT_FLOOR / y) / p <= sqrt(DIGIT_FLOOR) of h
APPROX_TOL = Fraction(1, 10**6)
# the greedy seed e^(-p h) is a 30-digit approx_exp, which falls to its 10^-31
# grid once p h passes 31 ln 10 = 71.4
SEED_EXPONENT_CAP = int((APPROX_EXP_DIGITS + 1) * math.log(10))
# greedy digits take about ln(1 / DIGIT_FLOOR) / (p h) steps on integers that
# grow by about 31 digits a step, so their work grows as 1 / (p h)^2: about 6 s
# at this floor, 22 s at 1/1000, and no end where e^(-p h) rounds to 1
SEED_EXPONENT_FLOOR = Fraction(1, 500)
# and they stop at a length of about ln(1 / DIGIT_FLOOR) / h, which must stay
# within presentations.LENGTH_CAP for the document to read back: h >= 2.99e-4
ENTROPY_FLOOR = math.log(DIGIT_FLOOR.denominator) / LENGTH_CAP
# a transient schema's tail ratio k = e^h prints with about h / ln 10 + 31
# digits, which must stay within presentations.NUMBER_DIGITS_CAP = 4000 for the
# document to read back: h <= 9139
TRANSIENT_ENTROPY_CAP = 9000
# member J of an infinite-entropy family has Phi(x) = 2^(J p) x^p, whose root
# 2^-J analyze brackets by halving down to 10^-400: the walk ends at 2^-(J+1),
# so it does so up to J = floor(400 log2 10) - 1 = 1327 and fails from J = 1328
# on (at periods 1 to 9; from period 10 on the J p digit cap binds first)
MEMBER_CAP = math.floor(BRACKET_FLOOR_DIGITS * math.log2(10)) - 1


class UnrealizableEntropy(Unsatisfiable):
    """Entropy value too wide, non-positive, or otherwise not constructible."""


class RealizationCertificationError(AssertionError):
    """The (u, eta) of the emitted realization is not the requested pair."""


class FamilySchema(NamedTuple):
    """Countable family of PR components with entropies increasing toward a
    supremum that no member attains."""

    period: int
    entropy: ExtendedEntropy  # the supremum; may be infinite

    def member(self, j: int) -> LoopSchema:
        if j < 1:
            raise ValueError("family index starts at 1")
        if self.entropy is INFINITE_ENTROPY:
            # 2^(3d) < 10^d: up to j p = 3 * NUMBER_DIGITS_CAP, 2^(j p) prints within the cap
            if j * self.period > 3 * NUMBER_DIGITS_CAP:
                raise ValueError(
                    f"family member {j} of period {self.period}: J * p is above 3 *"
                    f" NUMBER_DIGITS_CAP = {3 * NUMBER_DIGITS_CAP}, so 2^(J p) loops may not"
                    " print within NUMBER_DIGITS_CAP digits"
                )
            if j > MEMBER_CAP:
                raise ValueError(
                    f"family member {j} is above MEMBER_CAP = {MEMBER_CAP}: analyze cannot"
                    " bracket the root 2^-J of its Phi(x) = 1 above 10^-400"
                )
            return LoopSchema(counts=((self.period, 2 ** (j * self.period)),), tail=None)
        if j > 35:
            raise ValueError("family index too deep to certify below the supremum")
        h_mid = _entropy_midpoint(self.entropy)
        target = h_mid * (1 - Fraction(1, 2**j))
        return _greedy_pr_schema(self.period, target)


class Realization(NamedTuple):
    components: tuple[tuple[str, LoopSchema], ...]  # role "mme" or "transient"
    families: tuple[FamilySchema, ...]

    def parts(self) -> tuple[LoopSchema, ...]:
        return tuple(s for _, s in self.components)


def _entropy_midpoint(h: ExtendedEntropy) -> Fraction:
    enc = h.log_enclosure(Fraction(1, 10**20))
    if enc.width > Fraction(1, 10**10):
        raise UnrealizableEntropy(
            f"entropy enclosure too wide to realize at tolerance: width {to_float(enc.width)}"
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
    if period * h_target > SEED_EXPONENT_CAP:
        raise UnrealizableEntropy(
            f"period times entropy above {SEED_EXPONENT_CAP},"
            " the limit of the 30-digit seed e^(-p h)"
        )
    if period * h_target < SEED_EXPONENT_FLOOR:
        raise UnrealizableEntropy(
            f"period times entropy below SEED_EXPONENT_FLOOR = {SEED_EXPONENT_FLOOR},"
            " under which greedy digits would not finish"
        )
    if h_target < ENTROPY_FLOOR:
        raise UnrealizableEntropy(
            f"entropy below ln(1/DIGIT_FLOOR) / LENGTH_CAP = {ENTROPY_FLOOR:.6g},"
            f" under which greedy loop lengths would pass LENGTH_CAP = {LENGTH_CAP}"
        )
    y = approx_exp(-period * h_target)
    n, m = y.numerator, y.denominator
    counts: list[tuple[int, int]] = []
    # over the common denominator m^j: rem = r / m^j and y^j = nj / m^j
    r, nj, mj = m, n, m
    j, last = 1, LENGTH_CAP // period  # no emitted length passes LENGTH_CAP
    while j <= last and (nj * DIGIT_FLOOR.denominator >= DIGIT_FLOOR.numerator * mj or j == 1):
        d = r // nj
        if d:
            counts.append((j * period, d))
            r -= d * nj
        j += 1
        r, nj, mj = r * m, nj * n, mj * m
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
    h_mid = _entropy_midpoint(h)
    if h_mid > TRANSIENT_ENTROPY_CAP:
        raise UnrealizableEntropy(
            f"transient entropy above {TRANSIENT_ENTROPY_CAP},"
            " the limit of a printable tail ratio e^h"
        )
    k = approx_exp(h_mid)
    if k <= 1:
        raise UnrealizableEntropy(
            f"transient tail ratio e^h rounds to 1 at {APPROX_EXP_DIGITS} digits"
        )
    size = tail_bits(k) * (period + DAMPED_FIRST_TERMS * period)
    if size > TAIL_BITS_CAP:
        # the reader refuses such a tail too, and certifying it would not finish
        raise UnrealizableEntropy(
            f"transient tail at period {period}: its first damped round of {size} bits"
            f" is above TAIL_BITS_CAP = {TAIL_BITS_CAP}"
        )
    tail = Tail(a=Fraction(period * period, 2), k=k, d=2, n0=period, stride=period)
    return LoopSchema(counts=(), tail=tail)


def realize_invariants(pair: InvariantPair, tol: Fraction = DEFAULT_TOL) -> Realization:
    """Build components realizing the pair and certify that their (u, eta)
    equals the pair's; raises on inadmissible input."""
    rep = check_admissible(pair)
    if not rep.admissible:
        raise UnrealizableEntropy(
            f"inadmissible pair: eta > 0 at infinite entropy for periods {rep.violations}"
        )
    canon = canonical_invariants(pair, tol)
    comps: list[tuple[str, LoopSchema]] = []
    fams: list[FamilySchema] = []
    approximated = False  # by greedy digits or a transient tail's approx_exp ratio
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
                approximated = True
            continue
        if g.entropy is INFINITE_ENTROPY:
            # canonical pairs cannot reach here; admissibility forces count 0
            raise UnrealizableEntropy("no single component has infinite entropy")
        approximated = approximated or _exact_log_integer(g.entropy) is None
        schema = _pr_schema(g.period, g.entropy)
        for _ in range(g.count):
            comps.append(("mme", schema))
    real = Realization(tuple(comps), tuple(fams))
    # the certificate: the realization's (u, eta) is the requested pair.  A miss
    # by an approximated realization that APPROX_TOL absorbs is inconclusive;
    # any other miss is a defect
    realized = pair_of_realization(real, tol)
    verdict = decide_almost_borel_iso(realized, canon, tol)
    if verdict.isomorphic:
        return real
    if not approximated or not decide_almost_borel_iso(realized, canon, APPROX_TOL).isomorphic:
        raise RealizationCertificationError(verdict.detail)
    why = (f"below DIGIT_FLOOR = {DIGIT_FLOOR}" if tol < DIGIT_FLOOR
           else "with approximated entropies")
    raise InconclusiveAtTolerance(f"cannot certify a realization at tolerance {tol} {why}")


def pair_of_realization(real: Realization, tol: Fraction = DEFAULT_TOL) -> InvariantPair:
    """Recompute the invariant pair of a realization, families included."""
    gens = list(compute_u_eta(summarize_components(real.parts()), tol).generators)
    for f in real.families:
        gens.append(Generator(f.period, f.entropy, UNATTAINED))
    return canonical_invariants(InvariantPair(tuple(gens)), tol)
