"""Normalization, the set model, adequacy, and the state variant."""

import hashlib
import itertools

import pytest

from clonal.clones import Budget, CloneError, LawCheck, Substitution
from clonal.equality import base_completion_needed, free_equal, head_canon, normalize_with_trace
from clonal.firstorder import FoOp, FoVar
from clonal.freealgebra import (
    CloneApp,
    FreeOp,
    FreeVar,
    check_free_derivation,
    enumerate_free_terms,
    fold_hom,
    raw_eq,
)
from clonal.nbe import check_normal, nbe_for, nbe_normalize
from clonal.secondorder import check_algebra
from clonal.sorts import Context, Sort, arrow
from clonal.stlc import (
    AdequacyReport,
    SetModelAlgebra,
    SetModelClone,
    adequacy_harness,
    bool_model_hom,
    enumerate_closed_terms,
    eval_closed,
    false_term,
    gs_normalize,
    pure_stlc,
    set_model,
    stlc_bool,
    stlc_gs,
    true_term,
)

B = Sort("b")
BB = arrow(B, B)
E = Context(())


def ctx(*sorts):
    return Context(tuple(sorts))


def app(f, a, s=(B, B)):
    return FreeOp("app", s, ((E, f), (E, a)))


def abs_(body, s=(B, B)):
    return FreeOp("abs", s, ((ctx(s[0]), body),))


def ite_term(c, t, e, s=B):
    element = FoOp("ite", (s,), (FoVar(1), FoVar(2), FoVar(3)))
    return CloneApp(element, ctx(B, s, s), s, (c, t, e))


class TestNbe:
    def test_arrow_variable_eta_expands(self):
        free = pure_stlc()
        got = nbe_normalize(free, ctx(BB), BB, FreeVar(1))
        assert got == abs_(app(FreeVar(1), FreeVar(2)))

    def test_beta_redex_normalizes_to_argument_normal_form(self):
        free = stlc_bool()
        for t in (true_term(), ite_term(true_term(), false_term(), true_term())):
            redex = app(abs_(FreeVar(1)), t)
            assert nbe_normalize(free, E, B, redex) == nbe_normalize(free, E, B, t)

    def test_conditional_computes(self):
        free = stlc_bool()
        got = nbe_normalize(free, E, B, ite_term(true_term(), false_term(), true_term()))
        assert got == false_term()

    def test_idempotent_on_enumeration(self):
        free = stlc_bool()
        g = ctx(B)
        for t in enumerate_free_terms(free, g, B, max_size=4):
            nf = nbe_normalize(free, g, B, t)
            assert nbe_normalize(free, g, B, nf) == nf

    def test_agrees_with_step_normalizer_and_witnesses_check(self):
        free = stlc_bool()
        g = ctx(B)
        for t in enumerate_free_terms(free, g, B, max_size=4)[:150]:
            nf = nbe_normalize(free, g, B, t)
            witnessed_nf, deriv = normalize_with_trace(free, g, B, t)
            assert raw_eq(free.base, g, B, nf, witnessed_nf), f"{t}: {nf} vs {witnessed_nf}"
            v = check_free_derivation(free, g, deriv)
            assert v.ok and raw_eq(free.base, g, B, v.rhs, nf)


# --------------------------------------------------------------------------
# The normal-form grammar check_normal answered from before it read the
# witnessed normalizer, kept as an oracle
# --------------------------------------------------------------------------


def _neutral(free, c, s, term) -> bool:
    lam = free.presentation.calculus
    match term:
        case FreeVar():
            return True
        case FreeOp(name=lam.app, sort_args=(A, R), args=((_, fun), (_, arg))):
            return _neutral(free, c, arrow(A, R), fun) and _normal(free, c, A, arg)
        case CloneApp() as ca if s.args:
            return _stuck_elements(free, c, ca)
    return False


def _stuck_elements(free, c, ca) -> bool:
    return head_canon(free, c, ca)[0] is ca


def _normal(free, c, s, term) -> bool:
    """Neutral: a variable, an application with a neutral head and a normal
    argument, or (with a boolean-style base) a canonical stuck element
    application at an arrow sort.  Normal: an abstraction at arrow sorts; at
    the base sort a neutral (when bare neutrals are normal for the base), or
    a canonical element application."""
    if s.former == "=>" and len(s.args) == 2:
        lam = free.presentation.calculus
        match term:
            case FreeOp(name=lam.abs, args=((binder, body),)):
                return _normal(free, c + binder, s.args[1], body)
        return False
    if isinstance(term, CloneApp):
        return _stuck_elements(free, c, term)
    if base_completion_needed(free, s):
        return False
    return _neutral(free, c, s, term)


class TestCheckNormal:
    def test_identity_at_base_arrow_is_normal(self):
        free = pure_stlc()
        assert check_normal(free, E, BB, abs_(FreeVar(1))).ok

    def test_identity_at_higher_arrow_is_not_eta_long(self):
        # \x: b=>b. x is not normal: the body is neutral at an arrow sort,
        # where only abstractions are normal
        free = pure_stlc()
        t = FreeOp("abs", (BB, BB), ((ctx(BB), FreeVar(1)),))
        verdict = check_normal(free, E, arrow(BB, BB), t)
        assert not verdict.ok
        assert verdict.reason == "not normal: normalizes to abs(_.abs(_.app(x1, x2)))"

    def test_beta_redex_not_normal(self):
        free = pure_stlc()
        t = app(abs_(FreeVar(1)), FreeVar(1))
        assert not check_normal(free, ctx(B), B, t).ok

    def test_ill_sorted_and_missorted_terms_are_not_normal(self):
        free = pure_stlc()
        verdict = check_normal(free, ctx(B), B, FreeVar(2))
        assert not verdict.ok and verdict.reason.startswith("ill-sorted: ")
        verdict = check_normal(free, ctx(B), BB, FreeVar(1))
        assert not verdict.ok and verdict.reason == "sort b, expected b => b"

    def test_every_nbe_output_is_grammar_normal(self):
        for free, g, sorts in (
            (stlc_bool(), ctx(B), (B, BB)),
            (stlc_gs(("v1", "v2")), ctx(B), (B, BB)),
            (pure_stlc(), ctx(B, BB), (B, BB)),
        ):
            for sort in sorts:
                for t in enumerate_free_terms(free, g, sort, max_size=4)[:120]:
                    nf = nbe_normalize(free, g, sort, t)
                    verdict = check_normal(free, g, sort, nf)
                    assert verdict.ok, f"{t} -> {nf}: {verdict.reason}"

    def test_agrees_with_the_grammar(self):
        # open terms of size <= 5 and their NbE forms over the three stock
        # algebras, and the closed boolean terms of size <= 6
        cases = [
            (free, g, sort, t)
            for free in (stlc_bool(), stlc_gs(("v1", "v2")), pure_stlc())
            for g in (ctx(B), ctx(B, BB))
            for sort in (B, BB)
            for t in enumerate_free_terms(free, g, sort, max_size=5)
        ]
        cases += [(free, g, sort, nbe_normalize(free, g, sort, t)) for free, g, sort, t in cases]
        bools = stlc_bool()
        cases += [(bools, E, B, t) for t in enumerate_closed_terms(bools, B, 6)]
        disagree = [
            (free.presentation.name, g, sort, str(t)) for free, g, sort, t in cases
            if check_normal(free, g, sort, t).ok != _normal(free, g, sort, t)
        ]
        assert disagree == []
        assert len(cases) > 20_000

    def test_bare_neutral_not_normal_in_state_variant(self):
        free = stlc_gs(("v1", "v2"))
        assert not check_normal(free, ctx(B), B, FreeVar(1)).ok
        assert check_normal(pure_stlc(), ctx(B), B, FreeVar(1)).ok


class TestSetModel:
    def test_function_space_sizes(self):
        m = set_model()
        assert len(m.clone.space(B)) == 2
        assert len(m.clone.space(BB)) == 4

    def test_variable_is_projection(self):
        m = set_model()
        assert m.clone.var(ctx(B), 1) == ("tt", "ff")

    def test_beta_law_pointwise(self):
        # interpreting abs then app at a point recovers the body's table
        m = set_model()
        g = ctx(B)
        for body in m.clone.enumerate_terms(g + ctx(B), B, 0):
            lam = m.interpret("abs", (B, B), g, (body,))
            for aterm in m.clone.enumerate_terms(g, B, 0):
                applied = m.interpret("app", (B, B), g, (lam, aterm))
                want = m.clone.subst(
                    body, Substitution(g, g + ctx(B), (m.clone.var(g, 1), aterm))
                )
                assert applied == want

    def test_passes_check_algebra_at_small_budget(self):
        m = set_model()
        report = check_algebra(
            m,
            Budget(max_context_len=1, max_depth=0, max_sort_height=1,
                   max_terms=6, max_tuples=12),
            subject="set model",
        )
        assert report.ok, report.summary()

    def test_mutant_abs_fails_eta_with_witness(self):
        m = set_model()

        class Mutant(type(m)):
            def interpret(self, name, sort_args, c, args):
                if name == "abs":
                    width = len(self.clone.space(sort_args[0]))
                    cells = len(self.clone.points(c))
                    const = tuple(self.clone.space(sort_args[1])[0] for _ in range(width))
                    return tuple(const for _ in range(cells))
                return super().interpret(name, sort_args, c, args)

        mutant = Mutant(m.presentation, ("tt", "ff"))
        report = check_algebra(
            mutant,
            Budget(max_context_len=1, max_depth=0, max_sort_height=1,
                   max_terms=6, max_tuples=12),
            subject="mutant",
        )
        eq_law = report.laws[1]
        assert not eq_law.ok
        assert "eta" in eq_law.counterexample

    def test_enumeration_guard(self):
        m = set_model()
        with pytest.raises(CloneError):
            m.clone.enumerate_terms(ctx(BB, BB), BB, 0)


# the harness benchmark's check_algebra budget, and one small enough that
# nothing is capped unless the algebra itself refuses a site
HARNESS_BUDGET = Budget(max_context_len=1, max_depth=0, max_sort_height=1,
                        max_terms=3, max_tuples=3)
BASE_BUDGET = Budget(max_context_len=1, max_depth=0, max_sort_height=0,
                     max_terms=16, max_tuples=256)
COMMUTES, EQUATIONS = 0, 1


class RowReversedAbs(SetModelAlgebra):
    """abs reads its body's rows in reverse point order, which does not
    commute with substitution and breaks beta."""

    def interpret(self, name, sort_args, c, args):
        out = super().interpret(name, sort_args, c, args)
        return out[::-1] if name == "abs" else out


class PartialApp(SetModelAlgebra):
    """app refuses, with CloneError, every site in a nonempty context whose
    argument table starts with tt."""

    def interpret(self, name, sort_args, c, args):
        if name == "app" and len(c) and args[1][0] == "tt":
            raise CloneError("app refused at this site")
        return super().interpret(name, sort_args, c, args)


class NoLiftFromEmpty(SetModelClone):
    """A set-model clone that refuses, with CloneError, to lift any
    substitution out of the empty context."""

    def lift(self, sigma, extra):
        if not len(sigma.source):
            raise CloneError("no lift out of the empty context")
        return super().lift(sigma, extra)


class LiftRefusingModel(SetModelAlgebra):
    def __init__(self, presentation, base_values):
        super().__init__(presentation, base_values)
        self.clone = NoLiftFromEmpty(presentation.signature.sort_set, base_values)


def _law_summary(report):
    return [(law.ok, law.checked, law.capped, law.counterexample) for law in report.laws]


class TestCheckAlgebraReports:
    """check_algebra's counts, caps and failures, pinned to the values the
    straightforward loop (one interpretation and one lift per check) gives."""

    def test_set_model_at_harness_budget(self):
        report = check_algebra(set_model(), HARNESS_BUDGET, subject="set model")
        assert _law_summary(report) == [(True, 480, True, None), (True, 72, True, None)]

    def test_set_model_uncapped(self):
        report = check_algebra(set_model(), BASE_BUDGET)
        assert _law_summary(report) == [(True, 504, False, None), (True, 92, False, None)]

    def test_set_model_with_small_tables(self):
        # criterion 4's wide pass at a 4-cell table bound: sites whose tables
        # cannot be built are skipped, but a substitution out of the empty
        # context still lifts into a context too large to materialize
        report = check_algebra(
            set_model(max_cells=4),
            Budget(max_context_len=2, max_depth=0, max_sort_height=2,
                   max_terms=2, max_tuples=2),
        )
        assert _law_summary(report) == [(True, 138, True, None), (True, 16, True, None)]

    def test_wrong_abs_first_failures(self):
        m = set_model()
        report = check_algebra(RowReversedAbs(m.presentation, ("tt", "ff")), HARNESS_BUDGET)
        assert _law_summary(report) == [
            (False, 480, True,
             "abs[Sort(former='b', args=()), Sort(former='b', args=())] at [b] "
             "under (('tt',)): table[('tt', 'ff')] != table[('tt', 'tt')]"),
            (False, 72, True,
             "beta[Sort(former='b', args=()), Sort(former='=>', args=(Sort(former='b', "
             "args=()), Sort(former='b', args=())))] at [b => b]: table[('ff', 'ff'), "
             "('ff', 'tt'), ('ff', 'ff'), ('tt', 'tt')] != table[('tt', 'tt'), "
             "('ff', 'ff'), ('ff', 'tt'), ('ff', 'ff')]"),
        ]
        report = check_algebra(RowReversedAbs(m.presentation, ("tt", "ff")), BASE_BUDGET)
        assert _law_summary(report)[EQUATIONS] == (
            False, 92, False,
            "beta[Sort(former='b', args=()), Sort(former='b', args=())] at [b]: "
            "table['tt', 'tt'] != table['tt', 'ff']",
        )

    def test_wrong_abs_every_failure_in_order(self, monkeypatch):
        seen = []
        fail = LawCheck.fail

        def record(law, message):
            seen.append(message)
            fail(law, message)

        monkeypatch.setattr(LawCheck, "fail", record)
        m = set_model()
        check_algebra(RowReversedAbs(m.presentation, ("tt", "ff")), HARNESS_BUDGET)
        assert len(seen) == 178
        assert seen[146].startswith("beta[")  # the first equation failure
        digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
        assert digest == "53d2e95f6d275388083e05b871f4a16a3c62c7b2244a58793fb20503cfab601f"

    def test_refused_sites_are_skipped_and_capped(self):
        m = set_model()
        partial = PartialApp(m.presentation, ("tt", "ff"))
        report = check_algebra(partial, HARNESS_BUDGET)
        assert _law_summary(report) == [(True, 384, True, None), (True, 44, True, None)]
        # uncapped for the total algebra, so the cap here is the refusals'
        report = check_algebra(partial, BASE_BUDGET)
        assert _law_summary(report) == [(True, 276, True, None), (True, 40, True, None)]

    def test_refused_lifts_are_skipped_and_capped(self):
        # only the commutation law lifts, so only it is capped, and only by the refusals
        m = set_model()
        refusing = LiftRefusingModel(m.presentation, ("tt", "ff"))
        report = check_algebra(refusing, HARNESS_BUDGET)
        assert _law_summary(report) == [(True, 336, True, None), (True, 72, True, None)]
        report = check_algebra(refusing, BASE_BUDGET)
        assert _law_summary(report) == [(True, 332, True, None), (True, 92, False, None)]


class TestBoolModelHom:
    def test_true_is_constant_table(self):
        free = stlc_bool()
        g = bool_model_hom(free, set_model())
        assert g.apply(ctx(B), B, FoOp("true", (), ())) == ("tt", "tt")

    def test_conditional_table_has_eight_entries(self):
        free = stlc_bool()
        g = bool_model_hom(free, set_model())
        t = FoOp("ite", (B,), (FoVar(1), FoVar(2), FoVar(3)))
        table = g.apply(ctx(B, B, B), B, t)
        assert len(table) == 8
        # spot-check the conditional reading: (c, y, z) |-> y if c else z
        m = set_model().clone
        points = m.points(ctx(B, B, B))
        for point, out in zip(points, table):
            c, y, z = point
            assert out == (y if c == "tt" else z)

    def test_respects_conditional_equations(self):
        free = stlc_bool()
        model = set_model()
        g = bool_model_hom(free, model)
        base = free.base
        ctx2 = ctx(B, B)
        for schema_name in ("ite_true", "ite_false"):
            eq_ctx, sort, lhs, rhs = base.presentation.equation(schema_name).instantiate((B,))
            assert g.apply(eq_ctx, sort, lhs) == g.apply(eq_ctx, sort, rhs)
        # and on substituted instances over [b, b]
        pool = base.enumerate_terms(ctx2, B, 1)
        for y, z in itertools.product(pool[:5], pool[:5]):
            lhs = FoOp("ite", (B,), (FoOp("true", (), ()), y, z))
            assert g.apply(ctx2, B, lhs) == g.apply(ctx2, B, y)


class TestEval:
    def test_eval_true(self):
        free = stlc_bool()
        assert eval_closed(free, set_model(), B, true_term()) == "tt"

    def test_eval_identity_function(self):
        free = stlc_bool()
        got = eval_closed(free, set_model(), BB, abs_(FreeVar(1)))
        assert got == ("tt", "ff")

    def test_eval_negation_applied(self):
        free = stlc_bool()
        body = ite_term(FreeVar(1), false_term(), true_term())
        t = app(abs_(body), true_term())
        assert eval_closed(free, set_model(), B, t) == "ff"

    def test_eval_agrees_with_normalize_then_eval(self):
        free = stlc_bool()
        model = set_model()
        for t in enumerate_closed_terms(free, B, 5)[:200]:
            nf = nbe_normalize(free, E, B, t)
            assert eval_closed(free, model, B, t) == eval_closed(free, model, B, nf)


class TestAdequacy:
    def test_small_bound_report(self):
        report = adequacy_harness(4)
        assert report.ok
        assert report.normal_forms == {true_term(), false_term()}
        assert report.terms > 0

    def test_distinct_booleans_are_consistent(self):
        free = stlc_bool()
        model = set_model()
        assert eval_closed(free, model, B, true_term()) != eval_closed(
            free, model, B, false_term()
        )
        assert nbe_normalize(free, E, B, true_term()) != nbe_normalize(
            free, E, B, false_term()
        )

    def test_beta_pair_has_equal_eval_and_normal_form(self):
        free = stlc_bool()
        model = set_model()
        t = app(abs_(FreeVar(1)), true_term())
        assert eval_closed(free, model, B, t) == eval_closed(free, model, B, true_term())
        assert nbe_normalize(free, E, B, t) == nbe_normalize(free, E, B, true_term())

    def test_closed_normal_forms_are_exactly_the_booleans(self):
        free = stlc_bool()
        normals = {
            t
            for t in enumerate_closed_terms(free, B, 5)
            if check_normal(free, E, B, t).ok
        }
        assert normals == {true_term(), false_term()}

    def test_report_json(self):
        data = adequacy_harness(3).to_json()
        assert data["schema_version"] == 1
        assert data["ok"] is True


class TestStateVariant:
    def put(self, v, t):
        return FoOp(f"put_{v}", (), (t,))

    def get(self, *args):
        return FoOp("get", (), tuple(args))

    def test_put_of_get_selects_branch(self):
        free = stlc_gs(("v1", "v2"))
        g = ctx(B, B)
        element = self.put("v1", self.get(FoVar(1), FoVar(2)))
        t = CloneApp(element, g, B, (FreeVar(1), FreeVar(2)))
        nf = gs_normalize(free, g, B, t)
        want = CloneApp(
            self.get(self.put("v1", FoVar(1)), self.put("v1", FoVar(1))),
            ctx(B), B, (FreeVar(1),),
        )
        assert nf == want

    def test_variable_completes_to_full_lookup(self):
        free = stlc_gs(("v1", "v2"))
        nf = gs_normalize(free, ctx(B), B, FreeVar(1))
        want = CloneApp(
            self.get(self.put("v1", FoVar(1)), self.put("v2", FoVar(1))),
            ctx(B), B, (FreeVar(1),),
        )
        assert nf == want

    def test_nested_lookup_flattens(self):
        # get of already-completed branches takes the diagonal
        free = stlc_gs(("v1", "v2"))
        g = ctx(B, B)
        inner1 = self.get(self.put("v2", FoVar(1)), self.put("v1", FoVar(2)))
        inner2 = self.get(self.put("v1", FoVar(1)), self.put("v2", FoVar(2)))
        element = self.get(inner1, inner2)
        t = CloneApp(element, g, B, (FreeVar(1), FreeVar(2)))
        nf = gs_normalize(free, g, B, t)
        want = CloneApp(
            self.get(self.put("v2", FoVar(1)), self.put("v2", FoVar(2))),
            g, B, (FreeVar(1), FreeVar(2)),
        )
        assert nf == want

    def test_normal_shape_on_base_enumeration(self):
        free = stlc_gs(("v1", "v2"))
        g = ctx(B)
        for t in enumerate_free_terms(free, g, B, max_size=4)[:120]:
            nf = gs_normalize(free, g, B, t)
            assert isinstance(nf, CloneApp)
            assert nf.element.name == "get"
            assert all(b.name.startswith("put_") for b in nf.element.args)

    def test_witnesses_replay_in_state_variant(self):
        free = stlc_gs(("v1", "v2"))
        g = ctx(B)
        for t in enumerate_free_terms(free, g, B, max_size=4)[:60]:
            nf, deriv = normalize_with_trace(free, g, B, t)
            v = check_free_derivation(free, g, deriv)
            assert v.ok
            assert raw_eq(free.base, g, B, nf, nbe_normalize(free, g, B, t))
