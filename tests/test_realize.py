"""Realization of invariant pairs as loop schemas, certified independently."""

from fractions import Fraction

import pytest

from borelshift import (
    Generator,
    INFINITE_ENTROPY,
    IntervalApprox,
    InvariantPair,
    POSITIVE_RECURRENT,
    TRANSIENT,
    UNATTAINED,
    UnrealizableEntropy,
    canonical_invariants,
    classify_recurrence,
    compare_entropy,
    decide_almost_borel_iso,
    entropy_from_log_value,
    format_document,
    invariants_of,
    parse_document,
    pair_of_realization,
    parse_invariants,
    realize_invariants,
)

from borelshift import cli, invariants, realize, recurrence
from borelshift.intervals import APPROX_EXP_DIGITS, exp_fraction
from borelshift.presentations import LoopSchema

from helpers import LOG2, LOG3

LOG2_E = entropy_from_log_value(Fraction(2))
LOG3_E = entropy_from_log_value(Fraction(3))


def pair(*gens):
    return InvariantPair(tuple(Generator(p, h, c) for p, h, c in gens))


# === exact digit closure for integer log arguments ===

def test_exact_log2_realizes_as_single_count():
    real = realize_invariants(pair((1, LOG2_E, 1)))
    assert len(real.components) == 1
    role, schema = real.components[0]
    assert role == "mme"
    assert schema.counts == ((1, 2),)
    assert schema.tail is None


def test_exact_period_scaling():
    real = realize_invariants(pair((2, LOG3_E, 1)))
    _, schema = real.components[0]
    # p = 2, lambda = 3: count 3^2 at length 2 gives root exactly 1/3
    assert schema.counts == ((2, 9),)
    rep = classify_recurrence(schema)
    assert rep.period == 2
    assert rep.entropy.rational_root() == 3


def test_count_multiplies_components():
    real = realize_invariants(pair((1, LOG2_E, 3)))
    assert len(real.components) == 3
    assert {r for r, _ in real.components} == {"mme"}


def test_repeated_schema_is_certified_once(monkeypatch):
    calls = []

    def counting(schema):
        calls.append(schema)
        return classify_recurrence(schema)

    # summarize_components imports it from recurrence when a schema needs it
    monkeypatch.setattr(recurrence, "classify_recurrence", counting)
    real = realize_invariants(pair((1, LOG2_E, 3)))
    assert len(real.components) == 3
    assert calls == [real.components[0][1]]


# === greedy digits for non-integer targets ===

def test_greedy_realization_hits_float_targets():
    for h in (Fraction(7, 10), Fraction(11, 10)):
        target = IntervalApprox(h, h)
        real = realize_invariants(pair((1, target, 1)))
        _, schema = real.components[0]
        rep = classify_recurrence(schema)
        assert rep.recurrence == POSITIVE_RECURRENT
        assert rep.mme
        assert abs(float(rep.entropy) - float(h)) < 1e-9


def test_greedy_respects_period():
    target = IntervalApprox(Fraction(7, 10), Fraction(7, 10))
    real = realize_invariants(pair((3, target, 2)))
    for _, schema in real.components:
        rep = classify_recurrence(schema)
        assert rep.period == 3
        assert all(n % 3 == 0 for n, c in schema.counts if c)


# === transient witnesses for zero counts ===

def test_zero_count_realizes_transient():
    real = realize_invariants(pair((2, LOG3_E, 0)))
    assert len(real.components) == 1
    role, schema = real.components[0]
    assert role == "transient"
    assert schema.tail.d == 2
    rep = classify_recurrence(schema)
    assert rep.recurrence == TRANSIENT
    assert rep.period == 2
    assert abs(float(rep.entropy) - LOG3) < 1e-9


def test_infinite_u_zero_count():
    real = realize_invariants(pair((1, INFINITE_ENTROPY, 0)))
    # family of PR components with unbounded entropy; no single component
    assert real.families
    assert not real.components


# === families for unattained counts ===

def test_unattained_family_strictly_below_supremum():
    real = realize_invariants(pair((1, LOG2_E, UNATTAINED)))
    assert len(real.families) == 1
    fam = real.families[0]
    h3 = classify_recurrence(fam.member(3)).entropy
    h5 = classify_recurrence(fam.member(5)).entropy
    assert compare_entropy(h3, LOG2_E) == "lt"
    assert compare_entropy(h5, LOG2_E) == "lt"
    assert compare_entropy(h3, h5) == "lt"
    # members approach the supremum
    assert LOG2 - float(h5) < LOG2 - float(h3) < 0.2


def test_infinite_entropy_family_unbounded():
    real = realize_invariants(pair((2, INFINITE_ENTROPY, UNATTAINED)))
    fam = real.families[0]
    h2 = classify_recurrence(fam.member(2)).entropy
    h4 = classify_recurrence(fam.member(4)).entropy
    assert float(h4) > float(h2) > 1.0
    rep = classify_recurrence(fam.member(2))
    assert rep.period == 2


def test_family_member_validation():
    fam = realize_invariants(pair((1, LOG2_E, UNATTAINED))).families[0]
    with pytest.raises(ValueError):
        fam.member(0)


# === rejection and certification ===

def test_inadmissible_pair_rejected():
    with pytest.raises(UnrealizableEntropy):
        realize_invariants(pair((1, INFINITE_ENTROPY, 2)))


def test_round_trip_recovers_canonical_pair():
    cases = [
        pair((1, LOG2_E, 1)),
        pair((2, LOG3_E, 2), (3, LOG2_E, 0)),
        pair((1, LOG2_E, UNATTAINED), (2, LOG3_E, 1)),
    ]
    for p in cases:
        canon = canonical_invariants(p)
        real = realize_invariants(p)
        back = pair_of_realization(real)
        assert decide_almost_borel_iso(back, canon).isomorphic


def test_emitted_document_reparses_to_same_invariants():
    p = pair((1, LOG2_E, 1), (2, LOG3_E, 1))
    real = realize_invariants(p)
    doc = format_document(real.parts())
    parts = parse_document(doc)
    again = invariants_of(parts)
    assert decide_almost_borel_iso(again, canonical_invariants(p)).isomorphic
    assert format_document(parts) == doc


def _wrong_entropy(period, h):
    return LoopSchema(counts=((period, 3**period),), tail=None)


def _transient_built_recurrent(period, h):
    return realize._pr_schema(period, h)


def _mme_built_transient(period, h):
    return realize._transient_schema(period, h)


def _wrong_period(period, h):
    return LoopSchema(counts=((1, 2),), tail=None)


@pytest.mark.parametrize(
    "slot, construction, gen",
    [
        ("_pr_schema", _wrong_entropy, (1, LOG2_E, 1)),
        ("_transient_schema", _transient_built_recurrent, (2, LOG3_E, 0)),
        ("_pr_schema", _mme_built_transient, (1, LOG2_E, 1)),
        ("_pr_schema", _wrong_period, (2, LOG2_E, 1)),
    ],
)
def test_a_wrong_construction_fails_certification(monkeypatch, slot, construction, gen):
    monkeypatch.setattr(realize, slot, construction)
    with pytest.raises(realize.RealizationCertificationError):
        realize_invariants(pair(gen))


def test_restating_caps_derive_from_the_limits_they_restate():
    # member J's root 2^-J is bracketed while the walk's next point 2^-(J+1)
    # stays at or above 10^-BRACKET_FLOOR_DIGITS
    assert realize.MEMBER_CAP == 1327
    floor = 10**recurrence.BRACKET_FLOOR_DIGITS
    assert 2 ** (realize.MEMBER_CAP + 1) <= floor < 2 ** (realize.MEMBER_CAP + 2)
    # the seed e^(-p h) stays above approx_exp's grid 10^-(APPROX_EXP_DIGITS+1)
    # up to p h = SEED_EXPONENT_CAP and falls below it one step further
    assert realize.SEED_EXPONENT_CAP == 71
    grid = Fraction(1, 10 ** (APPROX_EXP_DIGITS + 1))
    width = Fraction(1, 10**40)
    assert exp_fraction(Fraction(-realize.SEED_EXPONENT_CAP), width).lo > grid
    assert exp_fraction(Fraction(-realize.SEED_EXPONENT_CAP - 1), width).hi < grid


@pytest.mark.parametrize("tol", ["1e-14", "1e-16", "1e-20", "1e-30"])
def test_a_miss_below_the_digit_floor_is_inconclusive(tmp_path, capsys, tol):
    # greedy digits stop at DIGIT_FLOOR = 10^-13, so a realized entropy 7/10
    # is not certified at a finer tolerance: exit 2 and one line, no traceback
    doc = tmp_path / "pair.txt"
    doc.write_text("gen 1 7/10 7/10 1\n")
    with pytest.raises(invariants.InconclusiveAtTolerance, match="DIGIT_FLOOR"):
        realize_invariants(parse_invariants(doc.read_text()), Fraction(tol))
    assert cli.main(["realize", "--tol", tol, str(doc)]) == 2
    err = capsys.readouterr().err
    floor = "DIGIT_FLOOR = 1/10000000000000"
    assert err == f"cannot certify a realization at tolerance {Fraction(tol)} below {floor}\n"


@pytest.mark.parametrize("text, tol", [
    ("gen 1 11/10 11/10 1\n", "1e-13"),
    ("gen 1 11/10 11/10 1\n", "1.2e-13"),
    ("gen 2 poly 1 -3 1 root-in 2 3 1\n", "1e-13"),
    # one greedy digit: e^(-2 h) is about 1.5e-7, so its square is below DIGIT_FLOOR
    ("gen 2 2426/309 2426/309 1\n", "1e-9"),
])
def test_an_approximated_miss_above_the_digit_floor_is_inconclusive(tmp_path, capsys, text, tol):
    # greedy digits can leave the entropy further from its target than a
    # tolerance above DIGIT_FLOOR: exit 2 and one line, no traceback
    doc = tmp_path / "pair.txt"
    doc.write_text(text)
    with pytest.raises(invariants.InconclusiveAtTolerance):
        realize_invariants(parse_invariants(text), Fraction(tol))
    assert cli.main(["realize", "--tol", tol, str(doc)]) == 2
    err = capsys.readouterr().err
    why = "with approximated entropies"
    assert err == f"cannot certify a realization at tolerance {Fraction(tol)} {why}\n"
    # at APPROX_TOL the same construction is certified
    assert realize_invariants(parse_invariants(text), realize.APPROX_TOL).parts()


@pytest.mark.parametrize("text, flags", [
    ("gen 1 log 2 1\n", ()),
    ("gen 1 poly -1 -1 1 root-in 1 2 1\n", ()),  # its greedy expansion ends exactly
    ("gen 1 7/10 7/10 0\n", ()),
    ("gen 2 7/10 7/10 unattained\n", ("--member", "3")),
])
def test_exact_and_transient_pairs_realize_below_the_digit_floor(tmp_path, capsys, text, flags):
    doc = tmp_path / "pair.txt"
    doc.write_text(text)
    assert cli.main(["realize", "--tol", "1e-30", str(doc), *flags]) == 0
    assert capsys.readouterr().err == ""
