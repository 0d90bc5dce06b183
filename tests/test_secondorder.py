"""Second-order presentations: equation sides, which are free terms over a
metavariable context, their checking, substitution and metasubstitution;
algebras."""

import collections
import dataclasses
import itertools
import pickle

import pytest

from clonal.clones import (
    Budget,
    FuncHom,
    Substitution,
    VariableClone,
    check_clone_hom,
    check_clone_laws,
    identity_renaming,
    weakening,
)
from clonal.firstorder import FoOp
from clonal.freealgebra import FreeAlgebra, _free_subst, free_metasubst, free_rename, free_subst
from clonal.secondorder import (
    Algebra,
    AlgebraProduct,
    CloneApp,
    FreeOp,
    FreeSortError,
    FreeVar,
    LambdaCalculus,
    Meta,
    MetaContext,
    MetaDecl,
    NotLambdaCalculus,
    SoOpSchema,
    SoPresentation,
    SoSignature,
    algebra_product,
    algebra_terminal,
    check_algebra,
    free_check_term,
    interpret_term,
    stlc_presentation,
)
from clonal.sorts import Context, Sort, SortSet, SortVar, arrow
from clonal.stlc import set_model, stlc_bool
from clonal.theories import variables

B = Sort("b")
BB = arrow(B, B)
STLC = stlc_presentation()
SIG = STLC.signature
EMPTY = Context(())
FREE = FreeAlgebra(STLC, variables().clone)  # builds metasubstitution's operators


def ctx(*sorts):
    return Context(tuple(sorts))


def app(f, a, s=(B, B)):
    return FreeOp("app", s, ((EMPTY, f), (EMPTY, a)))


def abs_(body, s=(B, B)):
    return FreeOp("abs", s, ((ctx(s[0]), body),))


def meta(psi, i, *args):
    """Metavariable i of ``psi`` applied to ``args``, at its declaration."""
    decl = psi.decl(i)
    return CloneApp(Meta(i), decl.ctx, decl.sort, args)


def mctx(*decls):
    return MetaContext(tuple(MetaDecl(c, s) for c, s in decls))


def check(psi, c, t):
    return free_check_term(psi, SIG, c, t)


class TestCheckTerm:
    def test_eta_left_side_accepted(self):
        psi = mctx((EMPTY, BB))
        t = abs_(app(meta(psi, 1), FreeVar(1)))
        assert check(psi, EMPTY, t) == BB

    def test_plain_variable(self):
        assert check(MetaContext(), ctx(B), FreeVar(1)) == B

    def test_metaapp_wrong_arg_count_rejected(self):
        psi = mctx((ctx(B), B))
        with pytest.raises(FreeSortError, match="expects 1 arguments, got 0"):
            check(psi, EMPTY, meta(psi, 1))  # declared with one parameter

    def test_binder_mismatch_rejected(self):
        bad = FreeOp("abs", (B, B), ((ctx(BB), FreeVar(1)),))  # binds at the wrong sort
        with pytest.raises(FreeSortError):
            check(MetaContext(), EMPTY, bad)

    def test_error_path_points_into_term(self):
        psi = mctx((EMPTY, BB))
        t = abs_(app(meta(psi, 1), FreeVar(2)))  # x2 out of range under one binder
        with pytest.raises(FreeSortError) as e:
            check(psi, EMPTY, t)
        assert e.value.path == (1, 2)

    def test_metavariable_is_not_a_base_element(self):
        free = stlc_bool()
        t = abs_(CloneApp(Meta(1), EMPTY, B, ()))
        with pytest.raises(FreeSortError) as e:
            free.check(EMPTY, t)
        assert e.value.path == (1,) and e.value.message.startswith("element m1 over <>")
        with pytest.raises(FreeSortError):
            free_check_term(free.base, SIG, EMPTY, t)

    def test_metavariable_context_accepts_only_its_metavariables(self):
        psi = mctx((ctx(B), B), (EMPTY, BB))
        true = CloneApp(FoOp("true", (), ()), EMPTY, B, ())
        with pytest.raises(FreeSortError, match="element true.* not a declared metavariable"):
            check(psi, ctx(B), abs_(true))  # a base element
        with pytest.raises(FreeSortError, match="m3 over"):
            check(psi, EMPTY, CloneApp(Meta(3), EMPTY, B, ()))  # undeclared
        wrong = CloneApp(Meta(1), ctx(BB), B, (abs_(FreeVar(1)),))  # m1 is over (b)
        with pytest.raises(FreeSortError, match=r"m1 is declared over \[b\]") as e:
            check(psi, EMPTY, app(abs_(FreeVar(1)), wrong))
        assert e.value.path == (2,)
        with pytest.raises(FreeSortError, match="element m2 has sort b => b, declared b"):
            check(psi, EMPTY, CloneApp(Meta(2), EMPTY, B, ()))
        assert check(psi, ctx(B), meta(psi, 1, meta(psi, 1, FreeVar(1)))) == B


def enumerate_so_terms(metactx, context, sort, depth, binder_sorts=(B,)):
    """STLC terms over ``metactx`` of depth <= depth (test-local enumerator)."""
    out = [FreeVar(i) for i in range(1, len(context) + 1) if context.sort_at(i) == sort]
    for i, decl in enumerate(metactx, start=1):
        if decl.sort == sort and len(decl.ctx) == 0:
            out.append(meta(metactx, i))
    if depth > 0:
        for i, decl in enumerate(metactx, start=1):
            if decl.sort == sort and len(decl.ctx) > 0:
                pools = [
                    enumerate_so_terms(metactx, context, s, depth - 1, binder_sorts)
                    for s in decl.ctx
                ]
                for combo in itertools.product(*pools):
                    out.append(meta(metactx, i, *combo))
        if sort.former == "=>":
            a, b = sort.args
            for body in enumerate_so_terms(metactx, context + ctx(a), b, depth - 1, binder_sorts):
                out.append(FreeOp("abs", (a, b), ((ctx(a), body),)))
        for a in binder_sorts:
            fs = enumerate_so_terms(metactx, context, arrow(a, sort), depth - 1, binder_sorts)
            xs = enumerate_so_terms(metactx, context, a, depth - 1, binder_sorts)
            for f, x_ in itertools.product(fs, xs):
                out.append(FreeOp("app", (a, sort), ((EMPTY, f), (EMPTY, x_))))
    return list(dict.fromkeys(out))


class TestSubst:
    def test_metavariable_clause(self):
        psi = mctx((ctx(B), B))
        t = meta(psi, 1, FreeVar(1))
        a = abs_(FreeVar(2))  # some replacement term over [b]
        got = free_subst(t, Substitution(ctx(B), ctx(B), (a,)))
        assert got == meta(psi, 1, a)

    def test_binder_weakens_components(self):
        # abs(y. app(x1, y)) with x1 := f becomes abs(y. app(f', y)) where
        # f' is f weakened under the binder.
        t = abs_(app(FreeVar(1), FreeVar(2)))
        f = abs_(FreeVar(2))  # over [b], mentions the outer variable x1... use x2 under its own binder
        got = free_subst(t, Substitution(ctx(B), ctx(BB), (f,)))
        want_inner = free_rename(f, weakening(ctx(B), ctx(B)))
        assert got == abs_(app(want_inner, FreeVar(2)))

    def test_identity_substitution_on_enumerated_terms(self):
        psi = mctx((EMPTY, B), (ctx(B), B))
        for context in (EMPTY, ctx(B), ctx(B, BB)):
            ident = Substitution(
                context, context, tuple(FreeVar(i) for i in range(1, len(context) + 1))
            )
            for sort in (B, BB):
                for t in enumerate_so_terms(psi, context, sort, 2):
                    assert _free_subst(t, ident) == t  # the walk, not the shortcut

    def test_rename_identity(self):
        t = abs_(app(FreeVar(1), FreeVar(2)))
        assert free_rename(t, identity_renaming(ctx(B))) == t

    def test_typed_after_subst(self):
        psi = mctx((EMPTY, B))
        context = ctx(B, BB)
        for sort in (B, BB):
            for t in enumerate_so_terms(psi, ctx(B), sort, 2):
                sigma = Substitution(context, ctx(B), (FreeVar(1),))
                got = free_subst(t, sigma)
                assert check(psi, context, got) == sort


class TestMetaSubst:
    def test_nested_parameter_replacement(self):
        # t = M1(M2()) with M1 := (x. a(x)), M2 := b: the parameter slot of
        # a is filled by b.
        decls = mctx((ctx(B), B), (EMPTY, B))
        t = meta(decls, 1, meta(decls, 2))
        gamma = ctx(BB, B)
        m1_body = app(FreeVar(1), FreeVar(3))  # over gamma + [b]
        m2_body = app(FreeVar(1), FreeVar(2))  # over gamma
        got = free_metasubst(FREE, t, decls, gamma, (m1_body, m2_body))
        # M1's parameter x3 is replaced by the metasubstituted M2()
        assert got == app(FreeVar(1), app(FreeVar(1), FreeVar(2)))
        assert check(MetaContext(), gamma, got) == B

    def test_metvariable_free_term_is_padded_identity(self):
        gamma = ctx(B)
        t = abs_(FreeVar(2))  # over Gamma' = [b]: abs(y. x1) with x1 the primed var
        got = free_metasubst(FREE, t, MetaContext(), gamma, ())
        # the primed variable x1 shifts past gamma to x2
        assert got == abs_(FreeVar(3))

    def test_beta_axiom_instance(self):
        # Metasubstituting M1 := (x. t), M2 := u into app(abs(x. M1(x)), M2())
        # yields app(abs(x. t), u); computed by hand from the clauses.
        decls = mctx((ctx(B), B), (EMPTY, B))
        lhs = app(abs_(meta(decls, 1, FreeVar(1))), meta(decls, 2))
        gamma = ctx(BB, B)
        t_body = app(FreeVar(1), FreeVar(3))  # over gamma + [b]
        u = app(FreeVar(1), FreeVar(2))  # over gamma
        got = free_metasubst(FREE, lhs, decls, gamma, (t_body, u))
        assert got == app(abs_(t_body), u)

    def test_beta_rhs_matches_substitution(self):
        # The beta right side M1(M2()) metasubstitutes to t[x := u].
        decls = mctx((ctx(B), B), (EMPTY, B))
        rhs = meta(decls, 1, meta(decls, 2))
        gamma = ctx(BB, B)
        t_body = app(FreeVar(1), FreeVar(3))
        u = app(FreeVar(1), FreeVar(2))
        got = free_metasubst(FREE, rhs, decls, gamma, (t_body, u))
        ident = tuple(FreeVar(i) for i in range(1, 3))
        want = free_subst(t_body, Substitution(gamma, gamma + ctx(B), ident + (u,)))
        assert got == want

    def test_output_rechecks(self):
        decls = mctx((ctx(B), B), (EMPTY, B))
        gamma = ctx(BB, B)
        t_body = app(FreeVar(1), FreeVar(3))
        u = app(FreeVar(1), FreeVar(2))
        for template in (
            app(abs_(meta(decls, 1, FreeVar(1))), meta(decls, 2)),
            meta(decls, 1, meta(decls, 2)),
            abs_(meta(decls, 1, FreeVar(1))),
        ):
            check(decls, EMPTY, template)
            got = free_metasubst(FREE, template, decls, gamma, (t_body, u))
            assert check(MetaContext(), gamma, got) is not None


class TestPresentation:
    def test_abs_binds_one_variable(self):
        arity = SIG.arity("abs", (B, BB))
        assert len(arity.binders) == 1
        binder_ctx, _ = arity.binders[0]
        assert len(binder_ctx) == 1

    def test_app_binds_none(self):
        arity = SIG.arity("app", (B, B))
        assert all(len(bc) == 0 for bc, _ in arity.binders)

    def test_eta_left_side_shape(self):
        metactx, sort, lhs, rhs = STLC.equation("eta").instantiate((B, B))
        assert lhs == abs_(app(meta(metactx, 1), FreeVar(1)))
        assert rhs == meta(metactx, 1)
        assert sort == BB

    def test_well_formed_at_small_sorts(self):
        STLC.check_well_formed([B, BB])


class TestInterpret:
    def test_variable_clause_shifts_past_gamma(self):
        alg = algebra_terminal(STLC)
        # In the terminal algebra every term is the point, so exercise the
        # variable clause through a product with itself via clone vars.
        got = interpret_term(alg, FreeVar(1), MetaContext(), ctx(B), ctx(B, B), ())
        assert got == alg.clone.var(ctx(B, B, B), 3)

    def test_nullary_metavariable_is_weakened_component(self):
        alg = algebra_terminal(STLC)
        psi = mctx((EMPTY, B))
        sigma = (alg.clone.var(ctx(B), 1),)
        got = interpret_term(alg, meta(psi, 1), psi, EMPTY, ctx(B), sigma)
        assert got == sigma[0]  # weakening is trivial in the terminal clone


class TestAlgebraCombinators:
    def test_terminal_passes_vacuously(self):
        report = check_algebra(
            algebra_terminal(STLC),
            Budget(max_context_len=1, max_depth=1, max_sort_height=1, max_terms=4, max_tuples=4),
            subject="terminal",
        )
        assert report.ok, report.summary()

    def test_product_of_terminals(self):
        t = algebra_terminal(STLC)
        p = algebra_product(t, t)
        out = check_algebra(
            p,
            Budget(max_context_len=1, max_depth=1, max_sort_height=1, max_terms=4, max_tuples=4),
            subject="terminal x terminal",
        )
        assert out.ok

    def test_product_requires_same_presentation(self):
        # an equal presentation is not the same one; stlc_presentation() is
        other = SoPresentation(STLC.name, STLC.signature, STLC.equations)
        assert other == STLC and stlc_presentation() is stlc_presentation()
        with pytest.raises(Exception):
            AlgebraProduct(algebra_terminal(STLC), algebra_terminal(other))


class CountingVariables(VariableClone):
    """The clone of variables, counting the enumerations and lifts it is asked for."""

    def __init__(self, sort_set):
        super().__init__(sort_set)
        self.enumerated = collections.Counter()
        self.lifted = collections.Counter()

    def enumerate_terms(self, ctx, sort, depth, limit=None):
        self.enumerated[ctx, sort] += 1
        return super().enumerate_terms(ctx, sort, depth, limit)

    def lift(self, sigma, extra):
        self.lifted[sigma, extra] += 1
        return super().lift(sigma, extra)


FIN = SortSet("two", ("b", "n"))
_A, _B = SortVar("A"), SortVar("B")
# let x : A = a in t : B, so let[b, b] and let[b, n] share the binder (b)
LET = SoPresentation(
    "let", SoSignature(FIN, (SoOpSchema("let", ("A", "B"), (((), _A), ((_A,), _B)), _B),)), ()
)


class LetVariables(Algebra):
    """``let`` interpreted by substitution in a clone of variables."""

    presentation = LET

    def __init__(self, clone):
        self.clone = clone

    def interpret(self, name, sort_args, ctx, args):
        a, body = args
        return a if body == len(ctx) + 1 else body


class TestHarnessWorkCounts:
    """A law harness enumerates each site once per call, and check_algebra
    lifts each substitution under each binder once per call."""

    BUDGET = Budget(max_context_len=2, max_depth=0, max_sort_height=0, max_terms=4, max_tuples=8)

    def _sites(self):
        sorts = FIN.sorts_up_to_height(0)
        return {(c, s) for c in FIN.contexts_up_to(2, sorts) for s in sorts}

    def test_clone_laws_enumerate_each_site_once(self):
        clone = CountingVariables(FIN)
        assert check_clone_laws(clone, self.BUDGET).ok
        assert set(clone.enumerated) == self._sites()
        assert set(clone.enumerated.values()) == {1}

    def test_clone_hom_enumerates_each_site_once(self):
        clone = CountingVariables(FIN)
        assert check_clone_hom(FuncHom(clone, clone, lambda c, s, t: t), self.BUDGET).ok
        assert set(clone.enumerated) == self._sites()
        assert set(clone.enumerated.values()) == {1}

    def test_algebra_lifts_each_substitution_under_each_binder_once(self):
        clone = CountingVariables(FIN)
        report = check_algebra(LetVariables(clone), self.BUDGET)
        assert report.ok and report.laws[0].checked > 0
        assert {extra for _, extra in clone.lifted} == {EMPTY, ctx(B), ctx(Sort("n"))}
        assert set(clone.lifted.values()) == {1}
        assert set(clone.enumerated.values()) == {1}


def _renamed(pres, names):
    """``pres`` with its operators and equations renamed by ``names``, in
    their terms too."""
    def term(t):
        if isinstance(t, FreeOp):
            return FreeOp(names.get(t.name, t.name), t.sort_args,
                          tuple((b, term(body)) for b, body in t.args))
        if isinstance(t, CloneApp):
            return CloneApp(t.element, t.arity_ctx, t.arity_sort, tuple(map(term, t.args)))
        return t

    ops = tuple(dataclasses.replace(o, name=names.get(o.name, o.name))
                for o in pres.signature.operators)
    eqs = tuple(dataclasses.replace(e, name=names.get(e.name, e.name), lhs=term(e.lhs),
                                    rhs=term(e.rhs)) for e in pres.equations)
    return SoPresentation(pres.name, SoSignature(pres.signature.sort_set, ops), eqs)


class TestLambdaCalculus:
    """The descriptor: a surface is the lambda calculus up to the names of
    application, abstraction, beta and eta, checked as a stock base is."""

    def test_the_reference_names_its_parts(self):
        assert STLC.calculus == LambdaCalculus("app", "abs", "beta", "eta")
        assert STLC.lambda_calculus() is STLC.calculus
        assert SIG.lambda_syntax == ("app", "abs")

    def test_a_renamed_surface_is_the_lambda_calculus(self):
        names = {"app": "ap", "abs": "lam", "beta": "b1", "eta": "e1"}
        renamed = _renamed(STLC, names)
        assert renamed.calculus == LambdaCalculus("ap", "lam", "b1", "e1")
        assert renamed.signature.lambda_syntax == ("ap", "lam")

    @pytest.mark.parametrize("edit, differs", [
        (lambda p: SoPresentation("s", p.signature, p.equations[:1]), "equation (missing eta)"),
        (lambda p: SoPresentation("s", p.signature, p.equations[::-1]), "equation eta"),
        (lambda p: SoPresentation("s", p.signature, p.equations + p.equations[:1]),
         "equation beta"),
        (lambda p: SoPresentation("s", SoSignature(
            p.signature.sort_set, p.signature.operators[::-1]), p.equations), "operator abs"),
        (lambda p: SoPresentation("s", SoSignature(p.signature.sort_set, (
            dataclasses.replace(p.signature.operators[0], params=("X", "B")),
            p.signature.operators[1])), p.equations), "operator app"),
        # beta's sides swapped: the same names, another equation
        (lambda p: SoPresentation("s", p.signature, (dataclasses.replace(
            p.equations[0], lhs=p.equations[0].rhs, rhs=p.equations[0].lhs), p.equations[1])),
         "equation beta"),
    ])
    def test_any_other_surface_is_not_and_the_first_difference_is_named(self, edit, differs):
        other = edit(STLC)
        assert other.calculus is None
        with pytest.raises(NotLambdaCalculus) as e:
            other.lambda_calculus()
        assert str(e.value) == (
            f"surface s is not the lambda calculus: {differs} differs from stlc_presentation()")

    def test_descriptor_stays_out_of_eq_hash_repr_and_pickles(self):
        assert STLC.calculus is not None and "_calculus" in STLC.__dict__
        fresh = SoPresentation(STLC.name, STLC.signature, STLC.equations)
        assert "_calculus" not in fresh.__dict__
        assert fresh == STLC and hash(fresh) == hash(STLC) and repr(fresh) == repr(STLC)
        copy = pickle.loads(pickle.dumps(STLC))
        assert not {"calculus", "_calculus"} & copy.__dict__.keys() and copy == STLC
        assert copy.calculus == STLC.calculus

    def test_routes_outside_the_lambda_calculus(self):
        # the normalizers, the set model and the Kripke relation refuse;
        # equality answers only what syntax shows
        from clonal.equality import beta_step, free_equal, normalize_with_trace
        from clonal.induction import kripke_relation
        from clonal.nbe import check_normal, nbe_for, nbe_normalize

        bare = SoPresentation("bare", SIG, ())
        free = FreeAlgebra(bare, variables().clone)
        one = ctx(B)
        redex = FreeOp("app", (B, B), ((EMPTY, FreeOp("abs", (B, B), ((one, FreeVar(2)),))),
                                       (EMPTY, FreeVar(1))))
        for refuse in (
            lambda: nbe_for(free), lambda: nbe_normalize(free, one, B, redex),
            lambda: normalize_with_trace(free, one, B, redex),
            lambda: check_normal(free, one, B, FreeVar(1)),
            lambda: set_model(presentation=bare),
            lambda: kripke_relation(algebra_terminal(bare), lambda c, t: True, [EMPTY], None, B),
        ):
            with pytest.raises(NotLambdaCalculus, match="surface bare is not the lambda calculus"):
                refuse()
        assert beta_step(free, one, redex) is None
        assert free_equal(free, one, B, redex, FreeVar(1)).status == "unknown"
        assert free_equal(free, one, B, redex, redex).status == "equal"
        assert free_equal(free, one, B, redex, FreeVar(1), mode="search").status == "unknown"
        assert not free.term_eq(one, B, redex, FreeVar(1))  # beta would say equal
