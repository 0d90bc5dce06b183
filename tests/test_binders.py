"""Substitution and renaming under binders, the beta instantiation of one
variable, stored free-term hashes, memoized equation instances, and the
free-search pair whose cost grows exponentially with its node budget.

The lifts under binders are built unchecked (``clones.under_binders``); the
references here lift through the validated public constructors instead, so
the property tests show that both give the same terms and that every lift
would pass the public checks.
"""

import hashlib
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonal.clones import CloneError, Renaming, Substitution, under_binders, weakening
from clonal.equality import _search_equal, beta_step, free_equal
from clonal.firstorder import (
    BASE,
    FoEquationSchema,
    FoOp,
    FoPresentation,
    FoSortError,
    FoVar,
    RewriteDivergence,
    RewriteEq,
    RewriteSystem,
    TmClone,
    bool_presentation,
    check_fo_derivation,
    monoid_presentation,
)
from clonal.freealgebra import (
    CloneApp,
    FAxiom,
    FCongOp,
    FreeAlgebra,
    FreeOp,
    FreeVar,
    FRefl,
    check_free_derivation,
    enumerate_free_terms,
    free_instantiate_last,
    free_rename,
    free_subst,
    raw_eq,
)
from clonal.jsonio import free_term_from_json, free_term_to_json
from clonal.nbe import nbe_for
from clonal.secondorder import SoSortError, stlc_presentation
from clonal.sorts import Context, Sort, SortVar, arrow
from clonal.stlc import stlc_bool

B = Sort("b")
BB = arrow(B, B)
E = Context(())
SORTS = (B, BB)
CONTEXTS = (E, Context((B,)), Context((BB, B)), Context((B, BB, B)))
TRUE = CloneApp(FoOp("true", (), ()), E, B, ())
FALSE = CloneApp(FoOp("false", (), ()), E, B, ())
ITE = FoOp("ite", (B,), (FoVar(1), FoVar(2), FoVar(3)))
STLC = stlc_presentation()
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def ctx(*sorts):
    return Context(tuple(sorts))


# --------------------------------------------------------------------------
# Well-sorted terms with binders
# --------------------------------------------------------------------------


def _build(draw, c, s, n):
    """A term over context ``c`` at sort ``s`` of about ``n`` nodes, with
    applications, abstractions and clone elements."""
    leaves = [FreeVar(i) for i in range(1, len(c) + 1) if c.sort_at(i) == s]
    if s == B:
        leaves += [TRUE, FALSE]
    kinds = ["leaf"] if leaves else []
    if n >= 2:
        kinds += ["app"] + (["abs"] if s.args else []) + (["node"] if s == B else [])
    if not kinds:
        kinds = ["abs"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(st.sampled_from(leaves))
    if kind == "abs":
        a, r = s.args
        body = _build(draw, c + ctx(a), r, n - 1)
        return FreeOp("abs", (a, r), ((ctx(a), body),))
    if kind == "app":
        a = draw(st.sampled_from(SORTS))
        k = draw(st.integers(1, max(1, n - 2)))
        f = _build(draw, c, arrow(a, s), k)
        x = _build(draw, c, a, max(1, n - 1 - k))
        return FreeOp("app", (a, s), ((E, f), (E, x)))
    if draw(st.booleans()):
        args = tuple(_build(draw, c, B, max(1, (n - 1) // 3)) for _ in range(3))
        return CloneApp(ITE, ctx(B, B, B), B, args)
    return CloneApp(FoVar(2), ctx(BB, B), B, (_build(draw, c, BB, n - 1), TRUE))


@st.composite
def subst_cases(draw):
    """(t over Delta, a substitution Gamma -> Delta, a renaming Gamma -> Delta)."""
    delta = draw(st.sampled_from(CONTEXTS))
    s = draw(st.sampled_from(SORTS))
    t = _build(draw, delta, s, draw(st.integers(1, 14)))
    gamma = draw(st.sampled_from(CONTEXTS)) + delta
    comps = tuple(
        _build(draw, gamma, a, draw(st.integers(1, 6))) for a in delta
    )
    positions = [
        draw(st.sampled_from([j for j in range(1, len(gamma) + 1) if gamma.sort_at(j) == a]))
        for a in delta
    ]
    return t, Substitution(gamma, delta, comps), Renaming(gamma, delta, tuple(positions))


# --------------------------------------------------------------------------
# References: lift through the validated public constructors
# --------------------------------------------------------------------------


def _ref_lift_renaming(ren, binder):
    n = len(ren.source)
    return Renaming(
        ren.source + binder, ren.target + binder, ren.map + tuple(range(n + 1, n + len(binder) + 1))
    )


def _ref_lift_subst(sigma, binder, rename, var):
    n = len(sigma.source)
    wk = Renaming(sigma.source + binder, sigma.source, tuple(range(1, n + 1)))
    comps = tuple(rename(c, wk) for c in sigma.components)
    fresh = tuple(var(n + j) for j in range(1, len(binder) + 1))
    return Substitution(sigma.source + binder, sigma.target + binder, comps + fresh)


def ref_free_rename(t, ren):
    match t:
        case FreeVar(index=i):
            return FreeVar(ren.apply(i))
        case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
            return CloneApp(e, actx, asort, tuple(ref_free_rename(a, ren) for a in args))
        case FreeOp(name=name, sort_args=sa, args=args):
            return FreeOp(name, sa, tuple(
                (b, ref_free_rename(body, _ref_lift_renaming(ren, b))) for b, body in args
            ))


def ref_free_subst(t, sigma):
    match t:
        case FreeVar(index=j):
            return sigma.component(j)
        case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
            return CloneApp(e, actx, asort, tuple(ref_free_subst(a, sigma) for a in args))
        case FreeOp(name=name, sort_args=sa, args=args):
            return FreeOp(name, sa, tuple(
                (b, ref_free_subst(body, _ref_lift_subst(sigma, b, ref_free_rename, FreeVar)))
                for b, body in args
            ))


def raw_eq_plain(base, c, sort, t, u):
    """raw_eq without its shortcuts: every element pair goes to term_eq."""
    match (t, u):
        case (FreeVar(index=i), FreeVar(index=j)):
            return i == j
        case (CloneApp() as a, CloneApp() as b):
            if a.arity_ctx != b.arity_ctx or a.arity_sort != b.arity_sort:
                return False
            if not base.term_eq(a.arity_ctx, a.arity_sort, a.element, b.element):
                return False
            return all(
                raw_eq_plain(base, c, s, x, y) for x, y, s in zip(a.args, b.args, a.arity_ctx)
            )
        case (FreeOp() as a, FreeOp() as b):
            if a.name != b.name or a.sort_args != b.sort_args or len(a.args) != len(b.args):
                return False
            return all(
                bc1 == bc2 and raw_eq_plain(base, c + bc1, sort, x, y)
                for (bc1, x), (bc2, y) in zip(a.args, b.args)
            )
    return False


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------


class TestLiftMatchesValidatedReference:
    @PROPERTY
    @given(subst_cases())
    def test_free_subst_and_rename(self, case):
        t, sigma, ren = case
        assert free_subst(t, sigma) == ref_free_subst(t, sigma)
        assert free_rename(t, ren) == ref_free_rename(t, ren)

    @PROPERTY
    @given(subst_cases(), st.sampled_from(CONTEXTS[1:]))
    def test_every_lift_passes_the_public_checks(self, case, binder):
        _, sigma, ren = case
        other = binder + ctx(BB)
        seen = []
        args = ((E, FreeVar(1)), (binder, FreeVar(1)), (binder, FreeVar(2)), (other, FreeVar(1)))
        under_binders(args, sigma, lambda body, m: seen.append(m), free_rename, FreeVar)
        under_binders(args, ren, lambda body, m: seen.append(m))
        # the empty binder keeps the map; a repeated binder reuses one lift
        assert seen[0] is sigma and seen[1] is seen[2]
        assert seen[4] is ren and seen[5] is seen[6]
        for b, lifted in ((binder, seen[1]), (other, seen[3])):
            assert lifted == _ref_lift_subst(sigma, b, free_rename, FreeVar)
            Substitution(lifted.source, lifted.target, lifted.components)
        for b, lifted in ((binder, seen[5]), (other, seen[7])):
            assert lifted == _ref_lift_renaming(ren, b)
            Renaming(lifted.source, lifted.target, lifted.map)

    def test_weakening_is_the_validated_one(self):
        for c in CONTEXTS:
            for extra in CONTEXTS:
                wk = weakening(c, extra)
                assert wk == Renaming(c + extra, c, tuple(range(1, len(c) + 1)))


@st.composite
def beta_cases(draw):
    """(ctx, binder sort A, body over ctx + A, argument over ctx at A).  Half
    the bodies sit under one more binder, so the bound variable occurs under
    binders and the body may hold redexes there."""
    c = draw(st.sampled_from(CONTEXTS))
    a = draw(st.sampled_from(SORTS))
    s = draw(st.sampled_from(SORTS))
    inner = c + ctx(a)
    if draw(st.booleans()):
        d = draw(st.sampled_from(SORTS))
        body = _build(draw, inner + ctx(d), s, draw(st.integers(1, 12)))
        body = FreeOp("abs", (d, s), ((ctx(d), body),))
    else:
        body = _build(draw, inner, s, draw(st.integers(1, 14)))
    return c, a, body, _build(draw, c, a, draw(st.integers(1, 8)))


class TestBetaInstantiation:
    @PROPERTY
    @given(beta_cases())
    def test_matches_the_validated_substitution(self, case):
        c, a, body, arg = case
        ids = tuple(FreeVar(i) for i in range(1, len(c) + 1))
        sigma = Substitution(c, c + ctx(a), ids + (arg,))
        got = free_instantiate_last(body, c, arg)
        assert got == free_subst(body, sigma) == ref_free_subst(body, sigma)

    @PROPERTY
    @given(beta_cases())
    def test_beta_step_reduces_by_the_substitution(self, case):
        c, a, body, arg = case
        free = stlc_bool()
        s = free.check(c + ctx(a), body)
        redex = FreeOp("app", (a, s), ((E, FreeOp("abs", (a, s), ((ctx(a), body),))), (E, arg)))
        reduced, deriv = beta_step(free, c, redex)
        ids = tuple(FreeVar(i) for i in range(1, len(c) + 1))
        assert reduced == ref_free_subst(body, Substitution(c, c + ctx(a), ids + (arg,)))
        verdict = check_free_derivation(free, c, deriv)
        assert verdict.ok and verdict.lhs == redex and verdict.rhs == reduced

    @PROPERTY
    @given(subst_cases())
    def test_identity_returns_the_same_object(self, case):
        t, sigma, _ = case
        delta = sigma.target
        ident = Substitution(delta, delta, tuple(FreeVar(i) for i in range(1, len(delta) + 1)))
        assert free_subst(t, ident) is t
        # a weakening is no identity: bound variables move past the new entries
        wk = Substitution(sigma.source, delta, ident.components)
        assert free_subst(t, wk) == ref_free_subst(t, wk)

    def test_variables_below_the_binder_are_kept(self):
        x1 = FreeVar(1)
        body = CloneApp(ITE, ctx(B, B, B), B, (x1, FreeVar(2), x1))
        got = free_instantiate_last(body, ctx(B), TRUE)
        assert got.args[0] is x1 and got.args[1] is TRUE and got.args[2] is x1


class TestPublicConstructorsStillCheck:
    def test_renaming_length(self):
        with pytest.raises(CloneError, match="length"):
            Renaming(ctx(B), ctx(B, B), (1,))

    def test_renaming_range(self):
        with pytest.raises(CloneError, match="out of range"):
            Renaming(ctx(B), ctx(B), (2,))
        with pytest.raises(CloneError, match="out of range"):
            Renaming(ctx(B), ctx(B), (0,))

    def test_renaming_sorts(self):
        with pytest.raises(CloneError, match="sort-preserving"):
            Renaming(ctx(B, BB), ctx(B), (2,))

    def test_substitution_length(self):
        with pytest.raises(CloneError, match="components"):
            Substitution(ctx(B), ctx(B, B), (FreeVar(1),))

    @PROPERTY
    @given(
        st.sampled_from(CONTEXTS), st.sampled_from(CONTEXTS),
        st.lists(st.integers(-1, 4), max_size=4),
    )
    def test_renaming_raises_exactly_on_malformed_maps(self, source, target, positions):
        well_formed = len(positions) == len(target) and all(
            1 <= j <= len(source) and source.sort_at(j) == target.sort_at(i)
            for i, j in enumerate(positions, start=1)
        )
        if well_formed:
            Renaming(source, target, tuple(positions))
        else:
            with pytest.raises(CloneError):
                Renaming(source, target, tuple(positions))


def _element_pairs():
    free = stlc_bool()
    pool = enumerate_free_terms(free, ctx(B), B, max_size=4)
    pool = pool[::3] + [FreeOp("app", (B, B), ((E, FreeOp("abs", (B, B), ((ctx(B), t),))),
                                                (E, TRUE))) for t in pool[:20]]
    return free, pool


class TestRawEqShortcuts:
    def test_agrees_with_the_plain_version_on_enumerated_pairs(self):
        free, pool = _element_pairs()
        assert len(pool) > 60
        equal = 0
        for t in pool:
            for u in pool:
                want = raw_eq_plain(free.base, ctx(B), B, t, u)
                assert raw_eq(free.base, ctx(B), B, t, u) == want, (t, u)
                equal += want
        # distinct representatives of one element, not only identical terms
        assert equal > len(pool)

    def test_identical_diverging_element_equals_itself(self):
        # a cycling rule: term_eq on the element raises, raw_eq needs no call
        pres = bool_presentation()
        t, f = FoOp("true", (), ()), FoOp("false", (), ())
        cyc = FoPresentation("cyc", pres.signature, (
            FoEquationSchema("cycle", (), (), BASE, t, f),
            FoEquationSchema("cycle_back", (), (), BASE, f, t),
        ))
        base = TmClone(cyc, RewriteEq(RewriteSystem(cyc)))
        free = FreeAlgebra(STLC, base)
        term = CloneApp(t, E, B, ())
        with pytest.raises(RewriteDivergence):
            base.term_eq(E, B, t, t)
        assert raw_eq(base, E, B, term, CloneApp(FoOp("true", (), ()), E, B, ()))
        assert free.term_eq(E, B, term, term)


# --------------------------------------------------------------------------
# Stored hashes of free terms
# --------------------------------------------------------------------------


def _sample_term():
    body = CloneApp(ITE, ctx(B, B, B), B, (FreeVar(2), FreeVar(1), TRUE))
    return FreeOp("app", (B, B), ((E, FreeOp("abs", (B, B), ((ctx(B), body),))), (E, FreeVar(1))))


class TestStoredFreeHash:
    def test_separately_built_equal_terms_hash_equal(self):
        a, b = _sample_term(), _sample_term()
        assert a is not b
        hash(a)  # only a has its hash stored now
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1

    def test_stored_value_is_the_field_hash(self):
        t = _sample_term()
        assert hash(FreeVar(3)) == hash((3,))
        assert hash(TRUE) == hash((TRUE.element, E, B, ()))
        assert hash(t) == hash((t.name, t.sort_args, t.args))
        assert vars(t)["_hash"] == hash(t)

    def test_unequal_terms_stay_unequal(self):
        a, b = FreeVar(1), FreeVar(2)
        hash(a), hash(b)
        assert a != b and len({a, b, TRUE, FALSE}) == 4

    def test_pickled_copy_recomputes_its_hash(self):
        t = _sample_term()
        hash(t)
        copy = pickle.loads(pickle.dumps(t))
        assert "_hash" not in vars(copy) and "_hash" not in vars(copy.args[1][1])
        assert copy == t and hash(copy) == hash(t)

    def test_json_roundtrip_is_equal_and_equally_hashed(self):
        t = _sample_term()
        hash(t)
        back = free_term_from_json(json.loads(json.dumps(free_term_to_json(t))))
        assert back == t and hash(back) == hash(t)

    def test_repr_and_match_unaffected(self):
        t = FreeOp("abs", (B, B), ((ctx(B), FreeVar(1)),))
        before = repr(t)
        hash(t)
        assert repr(t) == before and "_hash" not in before
        assert FreeOp.__match_args__ == ("name", "sort_args", "args")
        match t:
            case FreeOp("abs", (_, _), ((_, FreeVar(index=1)),)):
                pass
            case _:
                pytest.fail("positional pattern no longer matches")
        match TRUE:
            case CloneApp(element=FoOp(name="true"), args=()):
                pass
            case _:
                pytest.fail("keyword pattern no longer matches")


# --------------------------------------------------------------------------
# Memoized equation instances
# --------------------------------------------------------------------------


class TestInstantiateMemo:
    def test_first_order_instance_is_cached(self):
        schema = bool_presentation().equation("ite_true")
        first = schema.instantiate((B,))
        assert schema.instantiate((B,)) is first
        assert schema.instantiate((BB,)) is not first
        assert first[0] == ctx(B, B) and first[1] == B
        assert "_instances" not in repr(schema)

    def test_second_order_instance_is_cached(self):
        schema = STLC.equation("beta")
        first = schema.instantiate((B, BB))
        assert schema.instantiate((B, BB)) is first
        assert first[1] == BB

    def test_memo_does_not_change_equality_or_hash(self):
        a = monoid_presentation().equation("assoc")
        b = monoid_presentation().equation("assoc")
        a.instantiate(())
        assert a == b and hash(a) == hash(b)

    def test_wrong_sort_argument_count_raises_and_is_not_cached(self):
        fo = bool_presentation().equation("ite_true")
        so = STLC.equation("beta")
        for _ in range(2):
            with pytest.raises(FoSortError, match="expects 1 sort arguments"):
                fo.instantiate(())
            with pytest.raises(SoSortError, match="expects 2 sort arguments"):
                so.instantiate((B,))
        assert () not in fo._instances and (B,) not in so._instances

    def test_kernels_reject_a_wrong_count_every_time(self):
        pres = bool_presentation()
        bad = FAxiom("beta", (B,), (FRefl(TRUE), FRefl(TRUE)))
        free = stlc_bool()
        from clonal.firstorder import FoAxiom

        for _ in range(2):
            assert "sort arguments" in check_free_derivation(free, E, bad).error
            v = check_fo_derivation(pres, ctx(B), FoAxiom("ite_true", (), ()))
            assert not v.ok and "sort arguments" in v.error

    def test_sort_parameters_stay_schematic(self):
        schema = STLC.equation("beta")
        schema.instantiate((B, B))
        assert SortVar("A") in schema.lhs.sort_args


# --------------------------------------------------------------------------
# The slow free-search pair
# --------------------------------------------------------------------------


def slow_pair():
    """<false()>(<x1>(abs(_.<false()>))) ~ <x1>(x1), in context x1 : b."""
    inner = CloneApp(FoVar(1), ctx(BB), BB, (FreeOp("abs", (B, B), ((ctx(B), FALSE),)),))
    return CloneApp(FoOp("false", (), ()), ctx(BB), B, (inner,)), CloneApp(
        FoVar(1), ctx(B), B, (FreeVar(1),))


def test_slow_search_pair_verdict_is_pinned():
    """The slow pair's search time grows exponentially with the node budget.
    At budget 40 the verdict is "unknown", as it was before lifts under
    binders were built unchecked."""
    t, u = slow_pair()
    verdict = free_equal(stlc_bool(), ctx(B), B, t, u, mode="search", budget=40)
    assert (verdict.status, verdict.witness, verdict.certificate) == ("unknown", None, None)
    assert hashlib.sha256(repr(verdict.witness).encode()).hexdigest()[:16] == "dc937b59892604f5"


def test_slow_pair_at_the_default_budget_is_unknown():
    """At the default budget of 2000 the search loop on the slow pair raises
    RecursionError (a deep ``==`` on a frontier term).  Its NbE forms differ,
    so search mode answers "unknown" before it searches."""
    t, u = slow_pair()
    verdict = free_equal(stlc_bool(), ctx(B), B, t, u, mode="search")
    assert (verdict.status, verdict.witness, verdict.certificate) == ("unknown", None, None)


def test_deciding_by_nbe_forms_loses_no_proof():
    """The search loop alone (``_search_equal``, which search mode runs after
    the ``raw_eq`` shortcut and the NbE decision) proves no pair whose NbE
    forms differ, so deciding first changes no verdict and no witness: on
    criterion 6's 150 pairs at budget 300 and on the slow pair at budget 40."""
    free = stlc_bool()
    engine = nbe_for(free)
    rng = random.Random(1)
    small = enumerate_free_terms(free, ctx(B), B, max_size=4)
    pairs = [((rng.choice(small), rng.choice(small)), 300) for _ in range(150)]
    pairs.append((slow_pair(), 40))
    equal = distinct = 0
    for (t, u), budget in pairs:
        verdict = free_equal(free, ctx(B), B, t, u, mode="search", budget=budget)
        if raw_eq(free.base, ctx(B), B, t, u):
            assert verdict.witness == FRefl(t)
            continue
        found = _search_equal(free, ctx(B), B, t, u, budget)
        forms = engine.normalize(ctx(B), B, t), engine.normalize(ctx(B), B, u)
        if not raw_eq(free.base, ctx(B), B, *forms):
            distinct += 1
            assert found is None, f"{t} ~ {u}"
        assert verdict.status == ("unknown" if found is None else "equal")
        assert repr(verdict.witness) == repr(found)
        equal += found is not None
    assert equal > 20 and distinct > 80


def test_sort_cache_keeps_contexts_apart():
    """x2 is in scope under the binder and out of scope outside it: the
    kernel's per-call sort cache must not carry the inner verdict outward."""
    inner = FCongOp("abs", (B, B), (FRefl(FreeVar(2)),))
    d = FCongOp("app", (B, B), (inner, FRefl(FreeVar(2))))
    v = check_free_derivation(stlc_bool(), ctx(B), d)
    assert not v.ok and "out of range" in v.error and v.path == (2,)
    ok = FCongOp("app", (B, B), (inner, FRefl(FreeVar(1))))
    assert check_free_derivation(stlc_bool(), ctx(B), ok).ok
