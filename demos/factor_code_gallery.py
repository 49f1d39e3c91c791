"""The golden mean -> even shift factor code end to end: injectivity witness,
finite-to-one check, image language, symbol relation, and the distinct-pair
shift with its degree-2 quotient.
"""

from borelshift import (
    BlockCode,
    build_fibered_product_Fm,
    check_finite_to_one,
    check_injective,
    extract_tilde_Xm,
    format_relation,
    golden_mean_graph,
    image_entropy,
    image_words,
    minimal_relation,
    quotient_psi,
    verify_bowen_relation,
)


def main():
    g = golden_mean_graph()  # edges e0: a->a, e1: a->b, e2: b->a
    code = BlockCode(g, (("e0", "1"), ("e1", "0"), ("e2", "0")), mode="edge")

    rep = check_injective(code)
    print("injective:", rep.injective)
    if not rep.injective:
        a, b = rep.witness
        print("  periodic witness paths:", "".join(a), "vs", "".join(b))

    print("finite-to-one:", check_finite_to_one(code).finite_to_one)
    print("image entropy:", float(image_entropy(code)))

    words = ["".join(w) for w in image_words(code, 4)]
    print("image words of length 4:", " ".join(sorted(words)))

    rel = minimal_relation(code)
    print("minimal compatible relation:")
    print(format_relation(rel), end="")
    print("relation verified:", verify_bowen_relation(code, rel).holds)

    f2 = build_fibered_product_Fm(code, rel, 2)
    tilde = extract_tilde_Xm(code, rel, 2)
    print("pair product states:", sorted(f2.vertices))
    print("distinct-entry states:", sorted(tilde.vertices))
    psi = quotient_psi(tilde, 2)
    print(
        "quotient: right-resolving",
        psi.right_resolving,
        "left-resolving",
        psi.left_resolving,
        "degree",
        psi.preimage_count,
    )


if __name__ == "__main__":
    main()
