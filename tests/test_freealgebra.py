"""Free algebra: raw terms, proof objects, unit, fold, witnessed equality."""

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonal.clones import CloneError, Substitution, VariableClone
from clonal.equality import NormalizationError, free_equal, norm, normalize_with_trace
from clonal.firstorder import FoOp, FoVar, Verdict
from clonal.freealgebra import (
    CloneApp,
    FAxiom,
    FCongClone,
    FCongOp,
    FRefl,
    FreeAlgebra,
    FreeOp,
    FreeSortError,
    FreeVar,
    FSubstLaw,
    FSym,
    FTrans,
    FVarLaw,
    check_free_derivation,
    enumerate_free_terms,
    fold_hom,
    free_metasubst,
    free_size,
    free_subst,
    raw_eq,
    unit_hom,
)
from clonal.secondorder import (
    Meta,
    MetaContext,
    MetaDecl,
    free_check_term,
    interpret_term,
    stlc_presentation,
)
from clonal.sorts import Context, Sort, arrow
from clonal.stlc import (
    eval_closed,
    false_term,
    pure_stlc,
    set_model,
    stlc_bool,
    stlc_gs,
    true_term,
)

B = Sort("b")
BB = arrow(B, B)
E = Context(())
STLC = stlc_presentation()


def ctx(*sorts):
    return Context(tuple(sorts))


def app(f, a, s=(B, B)):
    return FreeOp("app", s, ((E, f), (E, a)))


def abs_(body, s=(B, B)):
    return FreeOp("abs", s, ((ctx(s[0]), body),))


def gs_el(name, *args):
    return FoOp(name, (), tuple(args))


class TestCheckTerm:
    def test_variable_rule(self):
        free = pure_stlc()
        assert free.check(ctx(B, BB, B), FreeVar(2)) == BB

    def test_clone_application_of_state_element(self):
        free = stlc_gs(("v1", "v2"))
        element = gs_el("get", FoVar(1), FoVar(2))
        t = CloneApp(element, ctx(B, B), B, (FreeVar(1), FreeVar(1)))
        assert free.check(ctx(B), t) == B

    def test_operator_with_binder(self):
        free = pure_stlc()
        t = abs_(FreeVar(1))
        assert free.check(E, t) == BB

    def test_kept_elements_stay_bounded(self):
        free = stlc_bool()
        actx = Context((B,) * 11)
        args = tuple(FreeVar(p) for p in range(1, 12))
        for i, j, k in itertools.product(range(1, 12), repeat=3):  # 1,331 distinct elements
            element = FoOp("ite", (B,), (FoVar(i), FoVar(j), FoVar(k)))
            assert free.check(actx, CloneApp(element, actx, B, args)) == B
        assert 0 < len(free.terms.passed) <= 1024

    def test_bad_clone_argument_sort(self):
        free = stlc_gs(("v1", "v2"))
        element = gs_el("put_v1", FoVar(1))
        bad = CloneApp(element, ctx(B), B, (abs_(FreeVar(1)),))
        with pytest.raises(FreeSortError):
            free.check(E, bad)


class TestSubst:
    def test_identity_substitution(self):
        free = pure_stlc()
        g = ctx(B, BB)
        for sort in (B, BB):
            for t in enumerate_free_terms(free, g, sort, max_depth=2):
                assert free_subst(t, free.identity(g)) == t

    def test_clone_laws_on_enumerated_terms(self):
        free = pure_stlc()
        g = ctx(B)
        terms = enumerate_free_terms(free, g, B, max_depth=2)
        pool = enumerate_free_terms(free, g, B, max_depth=1)
        for t in terms[:40]:
            for s1 in pool[:6]:
                for s2 in pool[:6]:
                    outer = Substitution(g, g, (s1,))
                    inner = Substitution(g, g, (s2,))
                    composed = Substitution(g, g, (free_subst(s1, inner),))
                    assert free_subst(t, composed) == free_subst(free_subst(t, outer), inner)

    def test_subst_commutes_with_unit_on_base_terms(self):
        free = stlc_gs(("v1", "v2"))
        base = free.base
        eta = unit_hom(free)
        g2, g1 = ctx(B, B), ctx(B)
        for t in base.enumerate_terms(g2, B, 1):
            for u in base.enumerate_terms(g1, B, 1)[:5]:
                sigma_base = Substitution(g1, g2, (u, u))
                lhs = eta.apply(g1, B, base.subst(t, sigma_base))
                rhs = free_subst(eta.apply(g2, B, t), eta.on_subst(sigma_base))
                assert free.term_eq(g1, B, lhs, rhs)


class TestUnit:
    def test_unit_of_variable_collapses_to_variable(self):
        free = pure_stlc()
        g = ctx(B, B)
        t = unit_hom(free).apply(g, B, free.base.var(g, 2))
        # witnessed by the variable-collapse law
        d = FVarLaw(2, g, (FreeVar(1), FreeVar(2)))
        v = check_free_derivation(free, g, d)
        assert v.ok and v.lhs == t and v.rhs == FreeVar(2)

    def test_unit_preserves_substitution_up_to_subst_law(self):
        free = stlc_gs(("v1", "v2"))
        base = free.base
        g1, g2 = ctx(B), ctx(B, B)
        eta = unit_hom(free)
        f = gs_el("get", FoVar(1), FoVar(2))
        sigma = Substitution(g1, g2, (FoVar(1), gs_el("put_v1", FoVar(1))))
        lhs = free_subst(eta.apply(g2, B, f), eta.on_subst(sigma))
        rhs = eta.apply(g1, B, base.subst(f, sigma))
        d = FSubstLaw(f, g2, B, sigma.components, g1, (FreeVar(1),))
        v = check_free_derivation(free, g1, d)
        assert v.ok
        assert raw_eq(base, g1, B, v.lhs, lhs)
        assert raw_eq(base, g1, B, v.rhs, rhs)

    def test_unit_on_state_operator_matches_term_former(self):
        # the unit of put_v1(t) equals the put term former applied to the
        # unit of t, up to provable equality
        free = stlc_gs(("v1", "v2"))
        eta = unit_hom(free)
        g = ctx(B)
        t = FoVar(1)
        lhs = eta.apply(g, B, gs_el("put_v1", t))
        former = CloneApp(gs_el("put_v1", FoVar(1)), ctx(B), B, (eta.apply(g, B, t),))
        verdict = free_equal(free, g, B, lhs, former)
        assert verdict.status == "equal"
        v = check_free_derivation(free, g, verdict.witness)
        assert v.ok


class TestDerivationChecker:
    def test_beta_axiom_instance_accepts(self):
        free = stlc_bool()
        # app(abs(x. x), true) ~ true via one beta instance
        d = FAxiom("beta", (B, B), (FRefl(FreeVar(1)), FRefl(true_term())))
        v = check_free_derivation(free, E, d)
        assert v.ok
        assert v.lhs == app(abs_(FreeVar(1)), true_term())
        assert v.rhs == true_term()

    def test_subst_law_for_state_composite(self):
        free = stlc_gs(("v1", "v2"))
        g = ctx(B)
        f = gs_el("put_v1", FoVar(1))
        d = FSubstLaw(f, ctx(B), B, (gs_el("put_v2", FoVar(1)),), g, (FreeVar(1),))
        v = check_free_derivation(free, g, d)
        assert v.ok
        inner = CloneApp(gs_el("put_v2", FoVar(1)), g, B, (FreeVar(1),))
        assert v.lhs == CloneApp(f, ctx(B), B, (inner,))
        assert v.rhs == CloneApp(gs_el("put_v1", gs_el("put_v2", FoVar(1))), g, B, (FreeVar(1),))

    def test_variable_clone_element_accepted(self):
        free = pure_stlc()
        d = FRefl(CloneApp(1, ctx(B), B, (FreeVar(1),)))
        v = check_free_derivation(free, ctx(B), d)
        assert v.ok and v.lhs == v.rhs == d.term

    def test_trans_with_disagreeing_middles_rejected(self):
        free = stlc_bool()
        d = FTrans(FRefl(true_term()), FRefl(false_term()))
        v = check_free_derivation(free, E, d)
        assert not v.ok
        assert "middle terms disagree" in v.error

    def test_axiom_with_unequal_premise_instantiations(self):
        # the equation rule instantiates the two sides with the premises'
        # respective sides, which may differ
        free = stlc_bool()
        identity = abs_(FreeVar(1))
        premise = FAxiom("eta", (B, B), (FRefl(identity),))  # eta-expansion of id
        d = FAxiom("eta", (B, B), (premise,))
        v = check_free_derivation(free, E, d)
        assert v.ok
        # left side instantiates with the eta-expanded identity, right side
        # with the identity itself
        pv = check_free_derivation(free, E, premise)
        assert v.lhs == abs_(app(free_subst(pv.lhs, Substitution(ctx(B), E, ())), FreeVar(1)), (B, B))
        assert v.rhs == identity

    def test_congruence_under_binder_shifts_context(self):
        free = pure_stlc()
        d = FCongOp("abs", (B, B), (FRefl(FreeVar(1)),))
        v = check_free_derivation(free, E, d)
        assert v.ok and v.lhs == abs_(FreeVar(1))

    def test_unknown_equation_rejected(self):
        free = pure_stlc()
        d = FAxiom("zeta", (B, B), ())
        assert not check_free_derivation(free, E, d).ok

    @pytest.mark.parametrize("d", [
        FRefl(CloneApp(FoOp("nosuchop", (), ()), E, B, ())),
        FCongClone(FoOp("nosuchop", (), ()), E, B, ()),
        FRefl(CloneApp(FoOp("true", (), (FoVar(7),)), ctx(B), B, (FreeVar(1),))),
        # would conclude <x1>(<x9>(x1)) ~ <x9>(x1)
        FSubstLaw(FoVar(1), ctx(B), B, (FoVar(9),), ctx(B), (FreeVar(1),)),
    ], ids=["unknown-operator", "congruence-unknown-operator", "ill-formed-element",
            "subst-component-out-of-range"])
    def test_ill_formed_element_rejected(self, d):
        v = check_free_derivation(stlc_bool(), ctx(B), d)
        assert not v.ok and v.path == ()
        assert "element" in v.error


    def test_unknown_operator_in_a_term_is_a_rejection(self):
        d = FTrans(FRefl(true_term()), FRefl(FreeOp("nosuch", (), ())))
        v = check_free_derivation(stlc_bool(), E, d)
        assert not v.ok and v.path == (2,) and "unknown operator 'nosuch'" in v.error

    def test_each_element_is_checked_once_per_call(self, monkeypatch):
        free = stlc_bool()
        tru = CloneApp(FoOp("true", (), ()), E, B, ())
        # two distinct terms carry the element: app(abs(_.true), true)
        d = FCongOp("app", (B, B), (FRefl(abs_(tru)), FRefl(tru)))
        calls = []
        check = free.base.check
        monkeypatch.setattr(free.base, "check", lambda *a: calls.append(a) or check(*a))
        assert check_free_derivation(free, E, d).ok
        assert calls == [(E, tru.element)]
        # the algebra keeps it: later calls and checks do not check it again
        assert check_free_derivation(free, E, d).ok and free.check(E, tru) == B
        assert len(calls) == 1

    def test_repeated_bad_element_is_rejected_at_its_first_occurrence(self):
        bad = CloneApp(FoOp("true", (), (FoVar(7),)), ctx(B), B, (FreeVar(1),))
        d = FTrans(FRefl(FreeVar(1)), FTrans(FRefl(bad), FRefl(bad)))
        v = check_free_derivation(stlc_bool(), ctx(B), d)
        assert not v.ok and v.path == (2, 1) and "element" in v.error
        # the failure is not kept: a second call reports it the same way
        assert check_free_derivation(stlc_bool(), ctx(B), d).path == (2, 1)


class TestEquationInstances:
    """The kernel instantiates an equation's sides as free terms directly
    (``free_metasubst``); the general algebra route, ``interpret_term``,
    gives the same terms."""

    @staticmethod
    def _agree(free, t, metactx, g, pools) -> int:
        count = 0
        for sides in itertools.product(*pools):
            assert free_metasubst(free, t, metactx, g, sides) == interpret_term(
                free, t, metactx, E, g, sides)
            count += 1
        return count

    def test_every_equation_of_the_shipped_surfaces(self):
        from clonal.cli import bundled_source
        from clonal.surface import parse_bundle

        count = 0
        for variant in ("stlc", "bool", "gs"):
            free = parse_bundle(bundled_source(variant)).free
            sorts = free.sort_set.sorts_up_to_height(1)
            for schema in free.presentation.equations:
                for sort_args in itertools.product(sorts, repeat=len(schema.params)):
                    metactx, _, lhs, rhs = schema.instantiate(sort_args)
                    for g in (E, ctx(B), ctx(BB, B)):
                        pools = [enumerate_free_terms(free, g + d.ctx, d.sort, max_size=3)[:5]
                                 for d in metactx]
                        count += self._agree(free, lhs, metactx, g, pools)
                        count += self._agree(free, rhs, metactx, g, pools)
        assert count > 1000

    def test_metavariables_applied_other_ways_take_the_substitution(self):
        # m(y, x) under two binders, m(n, n) at the root and m under two
        # binders: each is an instance interpret_term also builds
        free = stlc_bool()

        def lam(body, s):
            return FreeOp("abs", (B, s), ((ctx(B), body),))

        def m1(*args):
            return CloneApp(Meta(1), ctx(B, B), B, args)

        m2 = CloneApp(Meta(2), E, B, ())
        metactx = MetaContext((MetaDecl(ctx(B, B), B), MetaDecl(E, B)))
        swapped = lam(lam(m1(FreeVar(2), FreeVar(1)), B), BB)
        same = lam(lam(m1(FreeVar(1), FreeVar(2)), B), BB)
        doubled = m1(m2, m2)
        weakened = lam(lam(m2, B), BB)
        pools = [enumerate_free_terms(free, ctx(B, B, B), B, max_size=3)[:8],
                 enumerate_free_terms(free, ctx(B), B, max_size=3)[:8]]
        for t in (swapped, same, doubled, weakened):
            assert self._agree(free, t, metactx, ctx(B), pools) == 64


class TestTransitivityChains:
    """The free kernel walks a left-nested chain of transitivity links with
    the loop the first-order kernel uses: a deep chain replays, and a
    rejection is the recursive walk's."""

    def test_deep_chain_replays(self):
        redex = app(abs_(FreeVar(1)), true_term())
        d = deep_beta_chain()
        assert 5000 > sys.getrecursionlimit()
        v = check_free_derivation(stlc_bool(), E, d)
        assert v.ok, v.error
        assert (v.lhs, v.rhs, v.sort) == (redex, true_term(), B)

    def test_tampered_witnesses_are_rejected_where_the_recursive_walk_rejects(self):
        ite = FoOp("ite", (B,), (FoVar(1), FoVar(2), FoVar(3)))
        cond = CloneApp(ite, ctx(B, B, B), B, (FreeVar(2), FreeVar(1), false_term()))
        # an element whose variable is out of range of its arity context
        stray = FRefl(CloneApp(FoVar(9), ctx(B), B, (true_term(),)))
        get_put = CloneApp(gs_el("get", gs_el("put_v1", FoVar(1)), FoVar(2)), ctx(B, B), B,
                           (FreeVar(2), app(abs_(FreeVar(3)), FreeVar(1))))
        cases = [
            (stlc_bool(), E, B, app(abs_(FreeVar(1)), app(abs_(FreeVar(1)), app(
                abs_(FreeVar(1)), true_term())))),
            (stlc_bool(), ctx(B), B, app(abs_(cond), app(abs_(FreeVar(2)), true_term()))),
            (stlc_bool(), E, BB, app(abs_(abs_(app(FreeVar(1), CloneApp(
                ite, ctx(B, B, B), B, (FreeVar(2), true_term(), false_term()))), (B, B)),
                (BB, BB)), abs_(FreeVar(1)), (BB, BB))),
            (stlc_gs(("v1", "v2")), ctx(B), B, app(abs_(get_put), FreeVar(1))),
        ]
        seen_paths, errors = set(), set()
        for free, g, s, t in cases:
            pieces = _links(normalize_with_trace(free, g, s, t)[1])
            assert len(pieces) >= 2
            variants = [_chain(pieces)]
            v = check_free_derivation(free, g, variants[0])
            assert v.ok and raw_eq(free.base, g, s, v.lhs, t)
            for j, piece in enumerate(pieces):
                rest = pieces[j + 1:]
                variants.append(_chain(pieces[:j] + rest))  # a step left out
                variants.append(_chain(pieces[:j] + [FRefl(FreeVar(9))] + rest))  # ill-sorted
                variants.append(_chain(pieces[:j] + [FSym(piece)] + rest))  # reversed
                tampered = _first_refl_replaced(piece, stray)
                if tampered is not None:  # an out-of-range element inside the step
                    variants.append(_chain(pieces[:j] + [tampered] + rest))
            for d in variants:
                mine = check_free_derivation(free, g, d)
                ref = _recursive_check(free, g, d)
                assert (mine.ok, mine.error, mine.path) == (ref.ok, ref.error, ref.path)
                seen_paths.add(mine.path)
                errors.add(mine.error)
        # rejections at many depths of the chains, some inside a step, of each kind
        assert len(seen_paths) > 10 and any(len(p) > 4 for p in seen_paths)
        for kind in ("transitivity middle terms disagree", "refl of ill-sorted term: variable x9",
                     "element x9 over"):
            assert any(e and kind in e for e in errors), kind


def deep_beta_chain():
    """A left-nested chain of 5,000 transitivity links over stlc_bool that
    derives ``app (abs x. x) true ~ true``: one beta step there and back
    again, 2,500 times."""
    beta = FAxiom("beta", (B, B), (FRefl(FreeVar(1)), FRefl(true_term())))
    d = beta
    for i in range(5000):
        d = FTrans(d, FSym(beta) if i % 2 == 0 else beta)
    return d


def _links(d):
    """The steps of ``d`` in order, every transitivity node flattened."""
    if isinstance(d, FTrans):
        return _links(d.left) + _links(d.right)
    return [d]


def _chain(pieces):
    """The left-nested transitivity chain the witnessed normalizer builds."""
    d = pieces[0]
    for p in pieces[1:]:
        d = FTrans(d, p)
    return d


def _first_refl_replaced(d, leaf):
    """``d`` with its first reflexivity leaf, in pre-order, replaced by
    ``leaf``; None when ``d`` has none."""
    match d:
        case FRefl():
            return leaf
        case FSym(child=c):
            c = _first_refl_replaced(c, leaf)
            return None if c is None else FSym(c)
        case FTrans(left=l, right=r):
            l = _first_refl_replaced(l, leaf)
            return None if l is None else FTrans(l, r)
        case FCongClone(children=cs) | FCongOp(children=cs) | FAxiom(children=cs) if cs:
            c = _first_refl_replaced(cs[0], leaf)
            if c is None:
                return None
            fields = [getattr(d, f) for f in d.__dataclass_fields__][:-1]
            return type(d)(*fields, (c,) + cs[1:])
    return None


def _recursive_check(free, g, d, path=()):
    """The kernel's transitivity rule as a recursive walk, one call per
    link, kept as an oracle for the loop the free kernel shares with the
    first-order one; every other node goes to the kernel."""
    if isinstance(d, FTrans):
        lv = _recursive_check(free, g, d.left, path + (1,))
        if not lv:
            return lv
        rv = _recursive_check(free, g, d.right, path + (2,))
        if not rv:
            return rv
        if not raw_eq(free.base, g, lv.sort, lv.rhs, rv.lhs):
            return Verdict(False, error=f"transitivity middle terms disagree: {lv.rhs} vs {rv.lhs}",
                           path=path)
        return Verdict(True, lv.lhs, rv.rhs, lv.sort)
    v = check_free_derivation(free, g, d)
    return v if v.ok else Verdict(False, error=v.error, path=path + v.path)


class TestFold:
    def test_fold_along_unit_is_identity_up_to_eq(self):
        free = stlc_bool()
        fold = fold_hom(free, free, unit_hom(free))
        g = ctx(B)
        for t in enumerate_free_terms(free, g, B, max_depth=2)[:60]:
            assert free.term_eq(g, B, fold.apply(g, B, t), t)

    def test_fold_into_set_model_evaluates(self):
        free = stlc_bool()
        model = set_model()
        t = app(abs_(FreeVar(1)), true_term())
        assert eval_closed(free, model, B, t) == "tt"

    def test_fold_respects_provable_equality(self):
        free = stlc_bool()
        model = set_model()
        from clonal.stlc import bool_model_hom

        fold = fold_hom(free, model, bool_model_hom(free, model))
        t = app(abs_(FreeVar(1)), true_term())
        verdict = free_equal(free, E, B, t, true_term())
        assert verdict.status == "equal"
        assert fold.apply(E, B, t) == fold.apply(E, B, true_term())

    def test_fold_preserves_operator_interpretation(self):
        free = stlc_bool()
        model = set_model()
        from clonal.stlc import bool_model_hom

        fold = fold_hom(free, model, bool_model_hom(free, model))
        g = ctx(B)
        bodies = enumerate_free_terms(free, g + ctx(B), B, max_depth=1)
        for body in bodies[:8]:
            lhs = fold.apply(g, BB, free.interpret("abs", (B, B), g, (body,)))
            rhs = model.interpret("abs", (B, B), g, (fold.apply(g + ctx(B), B, body),))
            assert lhs == rhs


class TestEnumeration:
    def test_closed_booleans_at_bound_one(self):
        free = stlc_bool()
        assert set(enumerate_free_terms(free, E, B, max_size=1)) == {
            true_term(),
            false_term(),
        }

    def test_no_closed_arrow_terms_of_size_one(self):
        free = stlc_bool()
        assert enumerate_free_terms(free, E, BB, max_size=1) == []

    def test_counts_monotone_in_bound(self):
        free = stlc_bool()
        counts = [len(enumerate_free_terms(free, E, B, max_size=s)) for s in range(1, 5)]
        assert counts == sorted(counts)

    def test_sizes_respect_bound(self):
        free = stlc_bool()
        for t in enumerate_free_terms(free, E, B, max_size=4):
            assert free_size(t) <= 4

    def test_duplicate_free(self):
        free = stlc_bool()
        got = enumerate_free_terms(free, ctx(B), B, max_size=4)
        assert len(got) == len(set(got))

    def test_limit_goes_with_max_depth_only(self):
        free = stlc_bool()
        assert len(enumerate_free_terms(free, ctx(B), B, max_depth=2, limit=3)) == 3
        with pytest.raises(CloneError, match="max_size takes none"):
            enumerate_free_terms(free, ctx(B), B, max_size=3, limit=3)


class TestTermEq:
    def test_free_algebra_on_the_boolean_clone_decides_beta(self):
        from clonal.firstorder import bool_clone

        free = FreeAlgebra(STLC, bool_clone())
        assert free.term_eq(ctx(B), B, app(abs_(FreeVar(2)), FreeVar(1)), FreeVar(1))


class TestFreeEqual:
    def test_syntactic_equality_gives_refl(self):
        free = pure_stlc()
        t = abs_(FreeVar(1))
        verdict = free_equal(free, E, BB, t, t)
        assert verdict.status == "equal"
        assert isinstance(verdict.witness, FRefl)

    def test_beta_pair_equal_with_witness(self):
        free = stlc_bool()
        t = app(abs_(FreeVar(1)), true_term())
        verdict = free_equal(free, E, B, t, true_term())
        assert verdict.status == "equal"
        assert check_free_derivation(free, E, verdict.witness).ok

    def test_distinct_booleans_not_equal_with_certificate(self):
        free = stlc_bool()
        model = set_model()

        def model_eval(c, s, term):
            return eval_closed(free, model, s, term)

        verdict = free_equal(free, E, B, true_term(), false_term(), model_hom=model_eval)
        assert verdict.status == "not_equal"
        assert verdict.certificate == ("tt", "ff")

    def test_agreeing_model_values_are_no_certificate(self):
        free = stlc_bool()
        verdict = free_equal(
            free, E, B, true_term(), false_term(), model_hom=lambda c, s, t: "same"
        )
        assert verdict.status == "not_equal"
        assert verdict.certificate == (true_term(), false_term())  # distinct NbE normal forms

    def test_open_terms_not_equal_by_distinct_nbe_forms(self):
        from clonal.nbe import check_normal

        free = stlc_bool()
        negation = CloneApp(
            FoOp("ite", (B,), (FoVar(1), false_term().element, true_term().element)),
            ctx(B), B, (FreeVar(1),),
        )
        verdict = free_equal(free, ctx(B), B, FreeVar(1), negation)
        assert verdict.status == "not_equal"
        left, right = verdict.certificate
        assert left != right
        assert check_normal(free, ctx(B), B, left) and check_normal(free, ctx(B), B, right)

    def test_conditional_at_function_sort_is_equal(self):
        # the conditional selects a function, which then meets its argument
        from clonal.surface import parse_term, stock_bundle

        bundle = stock_bundle("bool")
        free = bundle.free
        t = parse_term(bundle, "app (ite true (abs y : b. y) (abs y : b. y)) false", B)
        model = set_model()
        verdict = free_equal(
            free, E, B, t, false_term(),
            model_hom=lambda c, s, term: eval_closed(free, model, s, term),
        )
        assert verdict.status == "equal"
        replay = check_free_derivation(free, E, verdict.witness)
        assert replay.ok
        assert raw_eq(free.base, E, B, replay.lhs, t)
        assert raw_eq(free.base, E, B, replay.rhs, false_term())

    def test_redex_binder_at_function_sort_normalizes(self):
        # once raised FreeSortError: the redex binds f : b => b under a conditional
        from clonal.nbe import nbe_normalize
        from clonal.surface import parse_term, stock_bundle

        bundle = stock_bundle("bool")
        free = bundle.free
        t = parse_term(
            bundle, "abs w : b. ite true (app (abs f : b => b. app f true) (abs z : b. z)) w", BB
        )
        nf, deriv = normalize_with_trace(free, E, BB, t)
        assert nf == nbe_normalize(free, E, BB, t) == abs_(true_term())
        replay = check_free_derivation(free, E, deriv)
        assert replay.ok and replay.lhs == t and raw_eq(free.base, E, BB, replay.rhs, nf)
        assert free_equal(free, E, BB, t, abs_(true_term())).status == "equal"

    def test_nested_function_sort_conditionals_have_one_normal_form(self):
        # the element nests function-sort conditionals; its normal form gives
        # each nested conditional an element application of its own
        from clonal.nbe import check_normal, nbe_normalize

        free = stlc_bool()
        c = ctx(B, B, BB, BB)

        def ite(cond, then, other):
            return FoOp("ite", (BB,), (FoVar(cond), then, other))

        element = ite(1, ite(2, FoVar(3), FoVar(4)), ite(2, FoVar(4), FoVar(3)))
        t = CloneApp(element, c, BB, tuple(FreeVar(i) for i in range(1, 5)))
        form = nbe_normalize(free, c, BB, t)
        nf, deriv = normalize_with_trace(free, c, BB, t)
        assert raw_eq(free.base, c, BB, nf, form)
        replay = check_free_derivation(free, c, deriv)
        assert replay.ok and replay.lhs == t and raw_eq(free.base, c, BB, replay.rhs, form)
        assert free_equal(free, c, BB, t, form).status == "equal"
        assert check_normal(free, c, BB, form).ok
        # the shape that keeps the nested element is not normal: it
        # normalizes to the NbE form
        branches = (abs_(app(FreeVar(3), FreeVar(6))), abs_(app(FreeVar(4), FreeVar(6))))
        nested = abs_(app(CloneApp(element, c, BB, (FreeVar(1), FreeVar(2)) + branches), FreeVar(5)))
        verdict = check_normal(free, c, BB, nested)
        assert not verdict.ok and verdict.reason == f"not normal: normalizes to {form}"

    def test_normalizer_and_nbe_disagreement_raises(self, monkeypatch):
        # a witnessed normal form that NbE contradicts is an error, not a verdict
        import clonal.equality as equality

        free = stlc_bool()
        t = app(abs_(FreeVar(1)), false_term())
        monkeypatch.setattr(equality, "norm", lambda f, c, s, term: (term, None))
        with pytest.raises(NormalizationError, match="NbE finds the terms equal"):
            free_equal(free, E, B, t, false_term())

    def test_search_mode_finds_beta(self):
        free = stlc_bool()
        t = app(abs_(FreeVar(1)), true_term())
        verdict = free_equal(free, E, B, t, true_term(), mode="search", budget=50)
        assert verdict.status == "equal"
        assert check_free_derivation(free, E, verdict.witness).ok

    def test_search_mode_completes_a_bare_state_variable(self):
        # x1 ~ get(put_v1 x1, put_v2 x1): the search must first give the bare
        # variable its state-table form
        free = stlc_gs()
        g = ctx(B)
        table = gs_el("get", gs_el("put_v1", FoVar(1)), gs_el("put_v2", FoVar(1)))
        t = CloneApp(table, g, B, (FreeVar(1),))
        verdict = free_equal(free, g, B, FreeVar(1), t, mode="search", budget=50)
        assert verdict.status == "equal"
        replay = check_free_derivation(free, g, verdict.witness)
        assert replay.ok and replay.lhs == FreeVar(1) and replay.rhs == t

    def test_ill_sorted_input_rejected(self):
        # the element receives f : b => b at a b position; once answered
        # "equal" with a witness the kernel rejects
        free = stlc_bool()
        element = FoOp("ite", (B,), (FoVar(1), FoVar(2), FoVar(3)))
        bad = CloneApp(element, ctx(B, B, B), B, (FreeVar(2), FreeVar(1), false_term()))
        t = app(abs_(abs_(app(FreeVar(1), bad)), (BB, BB)), abs_(FreeVar(1)), (BB, BB))
        nf, _ = norm(free, E, BB, t)  # the unchecked core
        for left, right in ((t, nf), (nf, t)):
            with pytest.raises(FreeSortError, match="clone argument 2 has sort b => b"):
                free_equal(free, E, BB, left, right)
        with pytest.raises(FreeSortError, match="term has sort b, expected b => b"):
            free_equal(free, E, BB, true_term(), abs_(FreeVar(1)))

    def test_normalizers_reject_ill_sorted_input(self):
        # the term of test_ill_sorted_input_rejected: NbE once raised
        # AttributeError on it, and the step normalizer returned a witness
        # that the kernel rejects
        from clonal.nbe import nbe_normalize

        free = stlc_bool()
        element = FoOp("ite", (B,), (FoVar(1), FoVar(2), FoVar(3)))
        bad = CloneApp(element, ctx(B, B, B), B, (FreeVar(2), FreeVar(1), false_term()))
        t = app(abs_(abs_(app(FreeVar(1), bad)), (BB, BB)), abs_(FreeVar(1)), (BB, BB))
        for normalize in (nbe_normalize, normalize_with_trace):
            with pytest.raises(FreeSortError, match=r"clone argument 2 has sort b => b, "
                               r"expected b \(at path \[1, 1, 1, 2, 2\]\)"):
                normalize(free, E, BB, t)
            with pytest.raises(FreeSortError, match="term has sort b => b, expected b"):
                normalize(free, E, B, abs_(FreeVar(1)))

    def test_search_meets_up_to_base_equality(self):
        # beta gives <ite(true, false, true)>, which is not u but is equal to
        # it in the base: the frontiers meet there, after one popped term
        free = stlc_bool()
        element = FoOp("ite", (B,), (FoOp("true", (), ()), FoOp("false", (), ()),
                                     FoOp("true", (), ())))
        t = app(abs_(CloneApp(element, E, B, ())), true_term())
        u = false_term()
        verdict = free_equal(free, E, B, t, u, mode="search", budget=1)
        assert verdict.status == "equal"
        left, right = verdict.witness.left, verdict.witness.right
        assert isinstance(left, FAxiom) and left.equation == "beta"
        assert right == FSym(FRefl(u))
        replay = check_free_derivation(free, E, verdict.witness)
        assert replay.ok and (replay.lhs, replay.rhs) == (t, u)

    def test_search_exhaustion_is_unknown(self):
        free = stlc_bool()
        t = app(abs_(FreeVar(1)), true_term())
        verdict = free_equal(free, E, B, t, false_term(), mode="search", budget=5)
        assert verdict.status == "unknown"

    def test_search_gives_up_on_a_provable_pair_past_its_budget(self):
        # the NbE forms agree, so the search runs; three pops are one short
        # of the proof, and the loop's own exhaustion is "unknown"
        from clonal.nbe import nbe_for

        free = stlc_bool()
        identity = abs_(FreeVar(1))
        t = app(identity, app(identity, app(identity, true_term())))
        assert nbe_for(free).normalize(E, B, t) == true_term()
        verdict = free_equal(free, E, B, t, true_term(), mode="search", budget=3)
        assert (verdict.status, verdict.witness, verdict.certificate) == ("unknown", None, None)
        assert free_equal(free, E, B, t, true_term(), mode="search", budget=4).status == "equal"


def _lambda_term(draw, c, s, n):
    """A boolean lambda term at ``s`` over ``c`` of about ``n`` nodes, with
    conditionals at every sort (at function sorts, sometimes one nested in a
    branch of another in the same element) and beta-redexes whose binders
    range over base and function sorts."""
    leaves = [FreeVar(i) for i in range(1, len(c) + 1) if c.sort_at(i) == s]
    if s == B:
        leaves += [true_term(), false_term()]
    if n <= 1 and leaves:
        return draw(st.sampled_from(leaves))
    kind = "abs" if n <= 1 else draw(
        st.sampled_from(["redex", "redex", "ite", "app"] + (["abs"] if s.args else []))
    )
    if kind == "abs":
        return abs_(_lambda_term(draw, c + ctx(s.args[0]), s.args[1], n - 1), s.args)
    if kind == "ite":
        nested = bool(s.args) and draw(st.booleans())
        sorts = (B, B, s, s) if nested else (B, s, s)
        part = max(1, (n - 1) // len(sorts))
        parts = tuple(_lambda_term(draw, c, p, part) for p in sorts)
        if nested:
            inner = FoOp("ite", (s,), (FoVar(2), FoVar(3), FoVar(4)))
            element = FoOp("ite", (s,), (FoVar(1), inner, FoVar(4)))
        else:
            element = FoOp("ite", (s,), (FoVar(1), FoVar(2), FoVar(3)))
        return CloneApp(element, Context(sorts), s, parts)
    a = draw(st.sampled_from((B, BB)))
    half = max(1, (n - 2) // 2)
    if kind == "app":
        head = _lambda_term(draw, c, arrow(a, s), half)
    else:
        head = abs_(_lambda_term(draw, c + ctx(a), s, half), (a, s))
    return app(head, _lambda_term(draw, c, a, half), (a, s))


@st.composite
def normalization_cases(draw):
    c = draw(st.sampled_from((E, ctx(B), ctx(BB, B), ctx(B, BB))))
    s = draw(st.sampled_from((B, BB)))
    return c, s, _lambda_term(draw, c, s, draw(st.integers(3, 18)))


class TestWitnessedNormalizer:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(normalization_cases())
    def test_agrees_with_nbe_and_witness_concludes_term_to_form(self, case):
        from clonal.nbe import check_normal, nbe_normalize

        c, s, t = case
        free = stlc_bool()
        nf, deriv = normalize_with_trace(free, c, s, t)
        assert raw_eq(free.base, c, s, nf, nbe_normalize(free, c, s, t))
        assert check_normal(free, c, s, nf).ok
        replay = check_free_derivation(free, c, deriv)
        assert replay.ok, replay.error
        assert raw_eq(free.base, c, s, replay.lhs, t)
        assert raw_eq(free.base, c, s, replay.rhs, nf)
        assert free_equal(free, c, s, t, nf).status == "equal"


@st.composite
def equality_cases(draw):
    c, s, t = draw(normalization_cases())
    return c, s, t, _lambda_term(draw, c, s, draw(st.integers(3, 18)))


class TestNormalFormProperties:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(equality_cases())
    def test_normalize_mode_is_equal_exactly_on_equal_forms(self, case):
        c, s, t, u = case
        free = stlc_bool()
        same = raw_eq(
            free.base, c, s, normalize_with_trace(free, c, s, t)[0],
            normalize_with_trace(free, c, s, u)[0],
        )
        verdict = free_equal(free, c, s, t, u)
        assert verdict.status == ("equal" if same else "not_equal")

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(normalization_cases())
    def test_rendered_normal_form_parses_back_to_itself(self, case):
        from clonal.nbe import nbe_normalize
        from clonal.surface import parse_term, render_free, stock_bundle

        c, s, t = case
        bundle = stock_bundle("bool")
        names = [f"x{i}" for i in range(1, len(c) + 1)]
        nf = nbe_normalize(bundle.free, c, s, t)
        again = parse_term(bundle, render_free(nf, names, bundle.surface), s, c, names)
        assert nbe_normalize(bundle.free, c, s, again) == nf


class TestUniversalProperty:
    def test_fold_after_unit_recovers_hom(self):
        free = stlc_bool()
        model = set_model()
        from clonal.stlc import bool_model_hom

        g_hom = bool_model_hom(free, model)
        fold = fold_hom(free, model, g_hom)
        eta = unit_hom(free)
        for c in [E, ctx(B), ctx(B, B)]:
            for t in free.base.enumerate_terms(c, B, 2)[:30]:
                assert fold.apply(c, B, eta.apply(c, B, t)) == g_hom.apply(c, B, t)

    def test_competing_hom_agrees_on_enumeration(self):
        # any homomorphism satisfying fold's two defining clauses agrees
        # with it; spot-check with a hand-rolled recursion
        free = stlc_bool()
        model = set_model()
        from clonal.stlc import bool_model_hom

        g_hom = bool_model_hom(free, model)
        fold = fold_hom(free, model, g_hom)

        def competing(c, s, t):
            if isinstance(t, FreeVar):
                return model.clone.var(c, t.index)
            if isinstance(t, CloneApp):
                mapped = g_hom.apply(t.arity_ctx, t.arity_sort, t.element)
                folded = tuple(
                    competing(c, s2, a) for a, s2 in zip(t.args, t.arity_ctx)
                )
                return model.clone.subst(mapped, Substitution(c, t.arity_ctx, folded))
            arity = free.presentation.signature.arity(t.name, t.sort_args)
            folded = tuple(
                competing(c + bc, bs, body)
                for (bc, body), (_, bs) in zip(t.args, arity.binders)
            )
            return model.interpret(t.name, t.sort_args, c, folded)

        for t in enumerate_free_terms(free, ctx(B), B, max_size=4)[:80]:
            assert competing(ctx(B), B, t) == fold.apply(ctx(B), B, t)
