"""Predicate lifting and the induction harness, with the two worked
logical-relations instances: adequacy of the set model on closed terms and
normalizability via a context-indexed relation."""

import itertools

import pytest

from clonal.clones import Budget, PairingHom
from clonal.freealgebra import (
    CloneApp,
    FreeOp,
    FreeVar,
    enumerate_free_terms,
    fold_hom,
    unit_hom,
)
from clonal.induction import (
    ClonePredicate,
    all_renamings,
    assert_conclusion,
    check_induction_hypotheses,
    check_predicate_closure,
    everything,
    kripke_relation,
    lift_closed_family,
    lift_open_family,
)
from clonal.nbe import check_normal, nbe_normalize
from clonal.secondorder import algebra_product
from clonal.sorts import Context, Sort, arrow
from clonal.stlc import (
    bool_model_hom,
    enumerate_closed_terms,
    false_term,
    pure_stlc,
    set_model,
    stlc_bool,
    true_term,
)

B = Sort("b")
BB = arrow(B, B)
E = Context(())


def ctx(*sorts):
    return Context(tuple(sorts))


def ite_term(c, t, e):
    from clonal.firstorder import FoOp, FoVar

    element = FoOp("ite", (B,), (FoVar(1), FoVar(2), FoVar(3)))
    return CloneApp(element, ctx(B, B, B), B, (c, t, e))


class TestClosedLift:
    def setup_method(self):
        self.free = stlc_bool()

        def family(sort, t):
            if sort != B:
                return False
            return nbe_normalize(self.free, E, sort, t) == true_term()

        self.family = family
        self.pool = lambda sort: enumerate_closed_terms(self.free, sort, 3)
        self.pred = lift_closed_family(self.free, family, self.pool)

    def test_empty_context_membership_is_the_family(self):
        for t in self.pool(B)[:20]:
            assert self.pred(E, B, t) == self.family(B, t)

    def test_everything_lifts_to_everything(self):
        pred = lift_closed_family(self.free, lambda s, t: True, self.pool)
        for t in enumerate_free_terms(self.free, ctx(B), B, max_size=3)[:20]:
            assert pred(ctx(B), B, t)

    def test_conditional_on_true_family(self):
        # with P(b) = {true}, ite(x1, true, false) is a member at ([b]; b):
        # the only quantified substitution sends x1 to true
        t = ite_term(FreeVar(1), true_term(), false_term())
        assert self.pred(ctx(B), B, t)
        # while ite(x1, false, true) is not
        u = ite_term(FreeVar(1), false_term(), true_term())
        assert not self.pred(ctx(B), B, u)

    def test_lifted_predicate_closure_conditions(self):
        contexts = [E, ctx(B)]
        report = check_predicate_closure(
            self.pred,
            contexts,
            [B],
            lambda c, s: enumerate_free_terms(self.free, c, s, max_size=3),
            Budget(max_terms=8, max_tuples=8),
        )
        assert report.ok, report.summary()


class TestOpenLift:
    def test_vacuous_when_pool_is_empty_somewhere(self):
        free = pure_stlc()
        # no closed pure lambda terms of sort b exist, so quantification
        # over substitutions into the empty context is vacuous
        pred = lift_open_family(
            free,
            lambda c, s, t: False,
            [E],
            lambda c, s: enumerate_free_terms(free, c, s, max_depth=1),
        )
        assert pred(ctx(B), B, FreeVar(1))

    def test_normalizable_family_contains_neutrals(self):
        free = pure_stlc()
        contexts = [ctx(B), ctx(B, B)]

        def family(c, s, t):
            return check_normal(free, c, s, nbe_normalize(free, c, s, t)).ok

        pred = lift_open_family(
            free,
            family,
            contexts,
            lambda c, s: enumerate_free_terms(free, c, s, max_depth=1),
            cap=6,
        )
        assert pred(ctx(B), B, FreeVar(1))
        assert pred.approximate in (True, False)


class TestHarness:
    def test_trivial_predicate_passes(self):
        free = stlc_bool()
        pred = everything(free)
        report = check_induction_hypotheses(
            free,
            unit_hom(free),
            pred,
            [E, ctx(B)],
            [B, BB],
            lambda c, s: enumerate_free_terms(free, c, s, max_size=3),
            lambda c, s: free.base.enumerate_terms(c, s, 1),
            Budget(max_terms=5, max_tuples=6),
        )
        assert report.ok

    def test_predicate_excluding_abstractions_fails_closure(self):
        free = stlc_bool()
        pred = ClonePredicate(
            free, lambda c, s, t: not (isinstance(t, FreeOp) and t.name == "abs")
        )
        report = check_induction_hypotheses(
            free,
            unit_hom(free),
            pred,
            [E],
            [B, BB],
            lambda c, s: enumerate_free_terms(free, c, s, max_size=3),
            lambda c, s: free.base.enumerate_terms(c, s, 1),
            Budget(max_terms=5, max_tuples=6),
        )
        assert not report.operator_closure_ok
        assert any("abs" in w for w in report.witnesses)

    def test_conclusion_with_trivial_predicate(self):
        free = stlc_bool()
        fold = fold_hom(free, free, unit_hom(free))
        report = assert_conclusion(
            free,
            fold,
            everything(free),
            [E, ctx(B)],
            [B],
            lambda c, s: enumerate_free_terms(free, c, s, max_size=3),
        )
        assert report.ok and report.checked > 0


def adequacy_relation(free, model, product, size_bound=4):
    """The closed-term logical relation under the adequacy proof: at the
    base sort the two tagged pairs, at arrow sorts the standard clause."""
    tt_table, ff_table = ("tt",), ("ff",)
    pairs_b = {
        (nbe_normalize(free, E, B, true_term()), tt_table),
        (nbe_normalize(free, E, B, false_term()), ff_table),
    }
    pool_cache = {}

    def candidates(sort):
        if sort not in pool_cache:
            frees = enumerate_closed_terms(free, sort, size_bound)
            tables = model.clone.enumerate_terms(E, sort, 0)
            pool_cache[sort] = [(f, m) for f in frees for m in tables]
        return pool_cache[sort]

    member_cache = {}

    def member(sort, pair):
        key = (sort, pair)
        if key in member_cache:
            return member_cache[key]
        ft, mt = pair
        if sort == B:
            result = (nbe_normalize(free, E, B, ft), mt) in pairs_b
        else:
            A, C = sort.args
            result = True
            for a in candidates(A):
                if not member(A, a):
                    continue
                applied = product.interpret("app", (A, C), E, (pair, a))
                if not member(C, applied):
                    result = False
                    break
        member_cache[key] = result
        return result

    return member, candidates


class TestAdequacyViaInduction:
    def setup_method(self):
        from clonal.firstorder import bool_clone
        from clonal.freealgebra import FreeAlgebra
        from clonal.secondorder import stlc_presentation

        pres = stlc_presentation()
        self.free = FreeAlgebra(pres, bool_clone())
        self.model = set_model(presentation=pres)
        self.product = algebra_product(self.free, self.model)
        self.g = bool_model_hom(self.free, self.model)
        self.pairing = PairingHom(unit_hom(self.free), self.g)
        member, candidates = adequacy_relation(self.free, self.model, self.product)
        self.member = member
        self.pred = lift_closed_family(
            self.product.clone,
            member,
            candidates,
            cap=64,
        )

    def test_hypotheses_hold(self):
        report = check_induction_hypotheses(
            self.product,
            self.pairing,
            self.pred,
            [E],
            [B, BB],
            lambda c, s: self.product.clone.enumerate_terms(c, s, 1)[:24],
            lambda c, s: self.free.base.enumerate_terms(c, s, 1),
            Budget(max_terms=10, max_tuples=10, max_depth=1),
        )
        assert report.ok, report.witnesses

    def test_conclusion_adequacy_pairs(self):
        fold = fold_hom(self.free, self.product, self.pairing)
        report = assert_conclusion(
            self.free,
            fold,
            self.pred,
            [E],
            [B],
            lambda c, s: enumerate_closed_terms(self.free, s, 4),
            Budget(max_terms=40),
        )
        assert report.ok, report.violations

    def test_coherence_of_the_two_reports(self):
        # criterion: a full hypothesis pass never coexists with a
        # conclusion violation
        hyp = check_induction_hypotheses(
            self.product,
            self.pairing,
            self.pred,
            [E],
            [B],
            lambda c, s: self.product.clone.enumerate_terms(c, s, 1)[:16],
            lambda c, s: self.free.base.enumerate_terms(c, s, 1),
            Budget(max_terms=8, max_tuples=8, max_depth=1),
        )
        fold = fold_hom(self.free, self.product, self.pairing)
        concl = assert_conclusion(
            self.free,
            fold,
            self.pred,
            [E],
            [B],
            lambda c, s: enumerate_closed_terms(self.free, s, 4),
            Budget(max_terms=30),
        )
        assert not (hyp.ok and not concl.ok)


class TestKripke:
    def setup_method(self):
        self.free = pure_stlc()
        self.contexts = [ctx(B), ctx(B, B), ctx(BB)]

        def base_member(c, t):
            return check_normal(self.free, c, B, nbe_normalize(self.free, c, B, t)).ok

        self.member = kripke_relation(
            self.free,
            base_member,
            self.contexts,
            lambda c, s: enumerate_free_terms(self.free, c, s, max_depth=2)[:10],
            B,
            cap=6,
        )

    def test_all_renamings_enumerated_exhaustively(self):
        rens = all_renamings(ctx(B, B), ctx(B))
        assert len(rens) == 2
        assert {r.map for r in rens} == {(1,), (2,)}

    def test_variables_are_members(self):
        for c in self.contexts:
            for i in range(1, len(c) + 1):
                assert self.member(c, c.sort_at(i), FreeVar(i))

    def test_neutrals_are_members(self):
        # neutral terms of height <= 2 land in the relation
        g = ctx(BB, B)
        applied = FreeOp("app", (B, B), ((E, FreeVar(1)), (E, FreeVar(2))))
        assert self.member(g, B, applied)
        assert self.member(g, BB, FreeVar(1))

    def test_members_are_normalizable(self):
        g = ctx(B)
        for t in enumerate_free_terms(self.free, g, BB, max_depth=2)[:8]:
            if self.member(g, BB, t):
                nf = nbe_normalize(self.free, g, BB, t)
                assert check_normal(self.free, g, BB, nf).ok

    def test_conclusion_over_initial_algebra(self):
        from clonal.clones import InitialHom

        pred = ClonePredicate(self.free, self.member)
        fold = fold_hom(self.free, self.free, unit_hom(self.free))
        report = assert_conclusion(
            self.free,
            fold,
            pred,
            [ctx(B)],
            [B, BB],
            lambda c, s: enumerate_free_terms(self.free, c, s, max_depth=2)[:12],
        )
        assert report.ok, report.violations
