"""Realization of invariant pairs as loop schemas, certified independently."""

from fractions import Fraction

import pytest

from borelshift import (
    DampedTail,
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
    realize_invariants,
)

from borelshift import invariants, realize

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

    monkeypatch.setattr(invariants, "classify_recurrence", counting)
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
    assert isinstance(schema.tail, DampedTail)
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


def test_document_emission_blocked_by_families():
    real = realize_invariants(pair((1, LOG2_E, UNATTAINED)))
    with pytest.raises(UnrealizableEntropy):
        real.document()


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
    doc = real.document()
    parts = parse_document(doc)
    again = invariants_of(parts)
    assert decide_almost_borel_iso(again, canonical_invariants(p)).isomorphic
    assert format_document(parts) == doc
