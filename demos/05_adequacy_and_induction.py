"""Adequacy and the induction harness.

The finite set model interprets closed boolean terms; adequacy says equal
interpretations force equal normal forms.  The harness proves it the way
the metatheory does: a logical relation over the product of the syntax
with the model, lifted to a substitution-closed predicate, whose two
induction hypotheses (operator closure, image of the base map) are
checked on enumerations before the conclusion is asserted on enumerated
free terms.
"""

from clonal import (
    Budget,
    Context,
    Sort,
    adequacy_harness,
    algebra_product,
    arrow,
    assert_conclusion,
    check_induction_hypotheses,
    fold_hom,
    lift_closed_family,
    nbe_normalize,
    set_model,
    unit_hom,
)
from clonal.clones import PairingHom
from clonal.firstorder import bool_clone
from clonal.freealgebra import FreeAlgebra
from clonal.secondorder import stlc_presentation
from clonal.stlc import bool_model_hom, enumerate_closed_terms, false_term, true_term

B = Sort("b")
BB = arrow(B, B)
E = Context(())


def main():
    print("running the adequacy harness at size bound 5:")
    report = adequacy_harness(5)
    print(f"  {report.terms} closed boolean terms, {report.pairs_checked} pairs,"
          f" counterexamples: {len(report.counterexamples)}")
    print(f"  closed normal forms: {sorted(str(n) for n in report.normal_forms)}")

    print("\nthe same fact through the induction principle:")
    pres = stlc_presentation()
    free = FreeAlgebra(pres, bool_clone())
    model = set_model(presentation=pres)
    product = algebra_product(free, model)
    g = bool_model_hom(free, model)
    pairing = PairingHom(unit_hom(free), g)

    base_pairs = {(true_term(), ("tt",)), (false_term(), ("ff",))}
    pools = {}

    def candidates(sort):
        if sort not in pools:
            pools[sort] = [
                (f, m) for f in enumerate_closed_terms(free, sort, 4)
                for m in model.clone.enumerate_terms(E, sort, 0)
            ]
        return pools[sort]

    cache = {}

    def member(sort, pair):
        if (sort, pair) not in cache:
            ft, mt = pair
            if sort == B:
                cache[(sort, pair)] = (nbe_normalize(free, E, B, ft), mt) in base_pairs
            else:
                a, b = sort.args
                cache[(sort, pair)] = all(
                    member(b, product.interpret("app", (a, b), E, (pair, arg)))
                    for arg in candidates(a) if member(a, arg)
                )
        return cache[(sort, pair)]

    relation = lift_closed_family(product.clone, member, candidates, cap=64)

    hyp = check_induction_hypotheses(
        product, pairing, relation, [E], [B, BB],
        lambda c, s: product.clone.enumerate_terms(c, s, 1)[:20],
        lambda c, s: free.base.enumerate_terms(c, s, 1),
        Budget(max_terms=8, max_tuples=8, max_depth=1),
    )
    print(f"  hypotheses (operator closure, base image): "
          f"{'pass' if hyp.ok else 'FAIL'} ({hyp.checked} checks)")

    fold = fold_hom(free, product, pairing)
    concl = assert_conclusion(
        free, fold, relation, [E], [B],
        lambda c, s: enumerate_closed_terms(free, s, 4),
        Budget(max_terms=60),
    )
    print(f"  conclusion (every closed boolean folds into the relation): "
          f"{'pass' if concl.ok else 'FAIL'} ({concl.checked} terms)")
    print("  so equal set-model values force equal normal forms on the enumeration")


if __name__ == "__main__":
    main()
