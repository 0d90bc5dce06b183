"""Free algebras: lambda syntax over a base clone, with proof objects.

The free algebra on the boolean clone is the lambda calculus with
booleans.  Its terms mix variables, boolean elements applied to
arguments, and the binding operators; its equational theory is generated
by beta, eta, congruence, and the two collapse laws tying element
applications to the base clone's own substitution.  Every equality the
library asserts comes with a derivation the checker can replay.
"""

from clonal import (
    Context,
    Sort,
    check_free_derivation,
    fold_hom,
    free_equal,
    normalize_with_trace,
    set_model,
    stlc_bool,
    unit_hom,
)
from clonal.freealgebra import FreeOp, FreeVar
from clonal.stlc import bool_model_hom, eval_closed, false_term, true_term
from clonal.surface import parse_term, render_free, stock_bundle

B = Sort("b")
E = Context(())


def main():
    bundle = stock_bundle("bool")
    free = bundle.free

    redex = parse_term(bundle, "app (abs x. ite x false true) true", B)
    print("input:   ", render_free(redex, [], bundle.surface))

    nf, deriv = normalize_with_trace(free, E, B, redex)
    print("normal:  ", render_free(nf, [], bundle.surface))

    verdict = check_free_derivation(free, E, deriv)
    print("witness replays through the checker:", verdict.ok)
    print("witness concludes:", render_free(verdict.lhs, [], bundle.surface), "~",
          render_free(verdict.rhs, [], bundle.surface))

    print("\nprovable equality with certificates:")
    v1 = free_equal(free, E, B, redex, false_term())
    print("  redex ~ false:", v1.status)
    model = set_model(presentation=free.presentation)
    fold = fold_hom(free, model, bool_model_hom(free, model))
    v2 = free_equal(
        free, E, B, true_term(), false_term(),
        model_hom=lambda c, s, t: fold.apply(c, s, t),
    )
    print("  true ~ false:", v2.status, "(set-model certificate:", v2.certificate, ")")

    print("\nthe unit includes base terms as element applications:")
    eta = unit_hom(free)
    from clonal.firstorder import FoOp, FoVar

    ite = FoOp("ite", (B,), (FoVar(1), FoVar(2), FoVar(3)))
    included = eta.apply(Context((B, B, B)), B, ite)
    print("  unit(ite) =", render_free(included, ["c", "y", "z"], bundle.surface))

    print("\nevaluation in the finite set model (the fold):")
    print("  redex evaluates to", eval_closed(free, model, B, redex))


if __name__ == "__main__":
    main()
