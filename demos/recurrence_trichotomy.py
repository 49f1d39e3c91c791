"""Classify loop schemas: positive recurrent, transient, and a frozen
near-critical schema where the certified enclosure cannot separate
Phi(R) from 1 at any tolerance the series cap supports.
"""

from fractions import Fraction

from borelshift import (
    LoopSchema,
    Tail,
    UndecidableAtTolerance,
    classify_recurrence,
)


def show(label: str, schema: LoopSchema):
    try:
        s = classify_recurrence(schema)
    except UndecidableAtTolerance as exc:
        print(f"{label}: undecidable ({exc})")
        return
    print(
        f"{label}: {s.recurrence} period={s.period} "
        f"entropy={float(s.entropy):.6f} mme={s.mme}"
    )


def main():
    # finite support: f_1 = 2, the full 2-shift seen from one state
    show("full 2-shift", LoopSchema(counts=((1, 2),), tail=None))

    # geometric tail f_n = 3^n from n = 1: radius 1/3, Phi(R) diverges
    show("geometric 3^n", LoopSchema(counts=(), tail=Tail(Fraction(1), 3, 0, 1)))

    # damped tail f_n = floor(a 2^n / n^2): transient for small a
    show("damped a=1/3", LoopSchema(counts=(), tail=Tail(Fraction(1, 3), 2, 2, 1)))

    # same shape with a = 4: the generating function reaches 1 inside the disk
    show("damped a=4", LoopSchema(counts=(), tail=Tail(Fraction(4), 2, 2, 1)))

    # tuned so Phi(R) sits within 1e-6 of 1: the trichotomy needs more terms
    # than the evaluation cap allows
    show(
        "near-critical",
        LoopSchema(counts=(), tail=Tail(Fraction(107681, 5503), 2, 2, 20)),
    )


if __name__ == "__main__":
    main()
