"""Normalization by evaluation: eta-long beta-normal forms, two ways.

Terms evaluate into a semantic domain (functions at arrow sorts, a
base-specific domain at the base sort) and read back as normal forms.  A
separate witnessed normalizer reaches the same forms by structural
recursion on syntax and returns a derivation of term ~ normal form, built
bottom-up from beta, eta and element-collapse steps; the two routes
cross-check each other.

The state variant shows the effect of the base domain: a base-sorted
normal form is always a lookup over one update per state, so even a bare
variable completes to its state table.
"""

from clonal import Context, Sort, arrow, check_normal, nbe_normalize, normalize_with_trace
from clonal.freealgebra import check_free_derivation, enumerate_free_terms, raw_eq
from clonal.surface import parse_context, parse_term, render_free, stock_bundle

B = Sort("b")


def main():
    bool_bundle = stock_bundle("bool")
    free = bool_bundle.free

    examples = [
        ("bool", "app (abs x. x) true", "", "b"),
        ("bool", "ite c (abs x. x) (abs x. true)", "c : b", "b => b"),
        ("bool", "f", "f : b => b", "b => b"),
        ("gs", "x", "x : b", "b"),
        ("gs", "put v1 (get x y)", "x : b, y : b", "b"),
        ("gs", "app f (put v2 x)", "f : b => b, x : b", "b"),
    ]
    for variant, text, ctx_text, sort_text_ in examples:
        bundle = stock_bundle(variant)
        ctx, names = parse_context(bundle, ctx_text)
        from clonal.surface import sort_text

        sort = sort_text(bundle.sort_set, sort_text_)
        term = parse_term(bundle, text, sort, ctx, names)
        nf = nbe_normalize(bundle.free, ctx, sort, term)
        print(f"[{variant}] {text}")
        print(f"    ~  {render_free(nf, names, bundle.surface)}")
        assert check_normal(bundle.free, ctx, sort, nf).ok

    print("\ncross-checking the two normalizers on an enumeration:")
    ctx1 = Context((B,))
    corpus = enumerate_free_terms(free, ctx1, B, max_size=4)
    agreements = 0
    for t in corpus:
        witnessed_nf, deriv = normalize_with_trace(free, ctx1, B, t)
        sem_nf = nbe_normalize(free, ctx1, B, t)
        assert raw_eq(free.base, ctx1, B, witnessed_nf, sem_nf)
        assert check_free_derivation(free, ctx1, deriv).ok
        agreements += 1
    print(f"  {agreements} terms: semantic and witnessed normal forms agree, "
          "all witnesses check")


if __name__ == "__main__":
    main()
