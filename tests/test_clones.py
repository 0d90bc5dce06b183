"""Core clone structure: variables, substitution, renamings, stock clones, homs."""

import copy as stdcopy
import itertools
import json
import pickle
import sys
import threading
import weakref

import pytest

from clonal import sorts
from clonal.clones import (
    Budget,
    CloneError,
    ContextExtensionClone,
    FuncHom,
    InitialHom,
    PairingHom,
    ProductClone,
    ProjectionHom,
    Renaming,
    Substitution,
    TerminalClone,
    VariableClone,
    WeakenHom,
    check_clone_hom,
    check_clone_laws,
    compose_subst,
    context_extension,
    extend_context_hom,
    identity_renaming,
    initial_hom,
    lift_subst,
    weaken_hom,
    weakening,
)
from clonal.jsonio import context_from_json, context_to_json
from clonal.sorts import EMPTY, Context, Sort, SortSet, arrow
from clonal.stlc import set_model
from clonal.surface import sort_text

B = Sort("b")
BB = arrow(B, B)
TY = SortSet("ty", ("b",), ("=>",))
FIN = SortSet("two", ("b", "n"))
N = Sort("n")


def ctx(*sorts):
    return Context(tuple(sorts))


def var_subst(clone, src, tgt, *indices):
    return Substitution(src, tgt, tuple(indices))


class TestContexts:
    def test_concatenation_unit_and_assoc(self):
        g, d, x = ctx(B), ctx(B, N), ctx(N)
        assert g + EMPTY == g
        assert EMPTY + g == g
        assert (g + d) + x == g + (d + x)

    def test_empty_operand_gives_back_the_other_context(self):
        g, d = ctx(B, N), ctx(N)
        assert g + EMPTY is g and EMPTY + g is g and Context(()) + g is g
        assert EMPTY + EMPTY is EMPTY
        assert g + d == ctx(B, N, N) and hash(g + d) == hash(ctx(B, N, N))
        assert d + g == ctx(N, B, N) and d + g != g + d

    def test_lookup(self):
        c = ctx(B, N, B)
        assert c.sort_at(1) == B and c.sort_at(2) == N
        with pytest.raises(IndexError):
            c.sort_at(4)
        with pytest.raises(IndexError):
            c.sort_at(0)

    def test_stored_hash_is_the_field_hash(self):
        # the stored hash is the one the dataclass would compute, so sets
        # and dicts of sorts and contexts keep their iteration order
        c = ctx(arrow(B, N), B)
        assert hash(c) == hash(((arrow(B, N), B),))
        assert hash(arrow(B, N)) == hash(("=>", (B, N)))
        assert hash(ctx(arrow(B, N), B)) == hash(c) and ctx(arrow(B, N), B) == c

    def test_pickled_copy_is_the_original(self):
        c = ctx(arrow(B, N), B)
        # a pickle carries the fields only, and loading it re-interns them
        assert c.__reduce__() == (Context, (c.entries,))
        assert c.entries[0].__reduce__() == (Sort, ("=>", (B, N)))
        copy = pickle.loads(pickle.dumps(c))
        assert copy is c and hash(copy) == hash(c)
        assert repr(copy) == "Context(entries=(Sort(former='=>', args=(Sort(former='b', " \
            "args=()), Sort(former='n', args=()))), Sort(former='b', args=())))"


class TestInterning:
    """Equal sorts and contexts are one object, whichever way they are made."""

    def test_every_route_gives_the_one_object(self):
        s, c = arrow(B, arrow(N, B)), ctx(B, arrow(B, N))
        routes = [
            (Sort("=>", (Sort("b"), Sort("=>", (Sort("n"), Sort("b"))))), s),
            (Sort(former="=>", args=[B, arrow(N, B)]), s),
            (sort_text(SortSet("two", ("b", "n"), ("=>",)), "b => n => b"), s),
            (context_from_json(context_to_json(c)).sort_at(2), arrow(B, N)),
            (context_from_json(json.loads(json.dumps(context_to_json(c)))), c),
            (Context([B]) + Context((arrow(B, N),)), c),
            (ctx(B).extend(ctx(arrow(B, N))), c),
            (c + EMPTY, c),
            (EMPTY + c, c),
        ]
        for copy in (lambda v: pickle.loads(pickle.dumps(v)), stdcopy.copy, stdcopy.deepcopy):
            routes += [(copy(s), s), (copy(c), c), (copy((c, [s])), (c, [s]))]
        for got, want in routes:
            if isinstance(want, tuple):
                assert got[0] is want[0] and got[1][0] is want[1][0]
            else:
                assert got is want, (got, want)

    def test_threads_building_fresh_values_get_one_object(self):
        # fresh names, so every thread races to make each value first
        names = [f"fresh{id(self)}_{k}" for k in range(300)]
        start = threading.Barrier(8)
        built = [None] * 8

        def build(slot):
            start.wait(timeout=60)
            built[slot] = [
                (Sort(n), arrow(Sort(n), B), Context((Sort(n), B))) for n in names
            ]

        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and None not in built
        for got in built[1:]:
            assert all(a is b for row, first in zip(got, built[0]) for a, b in zip(row, first))

    def test_unreferenced_values_leave_the_tables(self):
        name = f"dropped{id(self)}"
        s = Sort(name)
        c = weakref.ref(Context((s, s)))
        assert (name, ()) in sorts._SORTS and c() is not None
        del s
        # kept only among the values made last, until as many newer ones are made
        for k in range(sorts._RECENT.maxlen):
            Sort(f"{name}_{k}")
        assert (name, ()) not in sorts._SORTS and c() is None


class TestVariableClone:
    def test_terms_are_sort_matching_positions(self):
        v = VariableClone(FIN)
        assert v.enumerate_terms(ctx(B, B), B, 0) == [1, 2]
        assert v.enumerate_terms(ctx(B, N), N, 0) == [2]

    def test_arrow_sorted_positions(self):
        v = VariableClone(TY)
        assert v.enumerate_terms(ctx(BB, B), BB, 0) == [1]

    def test_subst_is_lookup(self):
        v = VariableClone(FIN)
        sigma = var_subst(v, ctx(B, B), ctx(B, B), 2, 1)
        assert v.subst(2, sigma) == 1

    def test_laws_exhaustive(self):
        v = VariableClone(FIN)
        report = check_clone_laws(v, Budget(max_context_len=3, max_sort_height=0, max_tuples=64))
        assert report.ok, report.summary()


class TestCompose:
    def test_var_unit_laws(self):
        v = VariableClone(FIN)
        src, tgt = ctx(B, N), ctx(N, B)
        sigma = var_subst(v, src, tgt, 2, 1)
        assert compose_subst(v, v.identity(tgt), sigma) == sigma
        assert compose_subst(v, sigma, v.identity(src)) == sigma

    def test_swap_twice_is_identity(self):
        v = VariableClone(FIN)
        two = ctx(B, B)
        swap = var_subst(v, two, two, 2, 1)
        assert compose_subst(v, swap, swap).components == (1, 2)

    def test_mismatch_rejected(self):
        v = VariableClone(FIN)
        sigma = var_subst(v, ctx(B), ctx(B), 1)
        tau = var_subst(v, ctx(N), ctx(N), 1)
        with pytest.raises(CloneError):
            compose_subst(v, tau, sigma)

    def test_associativity_exhaustive_on_small_renamings(self):
        # Oracle: enumerate every renaming triple over contexts of length <= 2
        # drawn from {b, n} and compare both composites pointwise.
        v = VariableClone(FIN)
        contexts = FIN.contexts_up_to(2)
        checked = 0
        for c1, c2, c3, c4 in itertools.product(contexts, repeat=4):
            for s1 in _all_renaming_substs(v, c1, c2):
                for s2 in _all_renaming_substs(v, c2, c3):
                    for s3 in _all_renaming_substs(v, c3, c4):
                        lhs = compose_subst(v, s3, compose_subst(v, s2, s1))
                        rhs = compose_subst(v, compose_subst(v, s3, s2), s1)
                        assert lhs == rhs
                        checked += 1
        assert checked == 747  # frozen from the enumeration above

    def test_associativity_sampled_up_to_length_four(self):
        import random

        v = VariableClone(FIN)
        rng = random.Random(0)
        contexts = FIN.contexts_up_to(4)
        for _ in range(2000):
            c1, c2, c3, c4 = (rng.choice(contexts) for _ in range(4))
            try:
                s1 = _random_renaming_subst(v, c1, c2, rng)
                s2 = _random_renaming_subst(v, c2, c3, rng)
                s3 = _random_renaming_subst(v, c3, c4, rng)
            except ValueError:
                continue  # no sort-respecting renaming exists
            lhs = compose_subst(v, s3, compose_subst(v, s2, s1))
            rhs = compose_subst(v, compose_subst(v, s3, s2), s1)
            assert lhs == rhs


def _random_renaming_subst(v, src, tgt, rng):
    combo = []
    for i in range(1, len(tgt) + 1):
        pool = v.enumerate_terms(src, tgt.sort_at(i), 0)
        if not pool:
            raise ValueError("empty slot")
        combo.append(rng.choice(pool))
    return Substitution(src, tgt, tuple(combo))


def _all_renaming_substs(v, src, tgt):
    pools = [v.enumerate_terms(src, tgt.sort_at(i), 0) for i in range(1, len(tgt) + 1)]
    return [Substitution(src, tgt, combo) for combo in itertools.product(*pools)]


class TestRenaming:
    def test_weakening_map(self):
        wk = weakening(ctx(B), ctx(B))
        assert wk.map == (1,)
        assert len(wk.source) == 2

    def test_weakening_empty_extra_is_identity(self):
        g = ctx(B, N)
        assert weakening(g, EMPTY) == identity_renaming(g)

    def test_sort_mismatch_rejected(self):
        with pytest.raises(CloneError):
            Renaming(ctx(B, N), ctx(N), (1,))

    def test_rename_identity(self):
        v = VariableClone(FIN)
        assert v.rename(2, identity_renaming(ctx(B, B))) == 2

    def test_rename_swap(self):
        v = VariableClone(FIN)
        two = ctx(B, B)
        swap = Renaming(two, two, (2, 1))
        assert v.rename(1, swap) == 2

    def test_rename_composition_distributes(self):
        v = VariableClone(FIN)
        contexts = FIN.contexts_up_to(2)
        for c1, c2, c3 in itertools.product(contexts, repeat=3):
            for r1 in _all_renamings(c1, c2):
                for r2 in _all_renamings(c2, c3):
                    for sort in (B, N):
                        for t in v.enumerate_terms(c3, sort, 0):
                            assert v.rename(v.rename(t, r2), r1) == v.rename(t, r2.compose(r1))


def _all_renamings(src, tgt):
    pools = [
        [j for j in range(1, len(src) + 1) if src.sort_at(j) == tgt.sort_at(i)]
        for i in range(1, len(tgt) + 1)
    ]
    return [Renaming(src, tgt, combo) for combo in itertools.product(*pools)]


class TestLift:
    def test_lift_by_empty_is_unchanged(self):
        v = VariableClone(FIN)
        sigma = var_subst(v, ctx(B, B), ctx(B, B), 2, 1)
        assert lift_subst(v, sigma, EMPTY) == sigma

    def test_lift_identity_is_identity(self):
        v = VariableClone(FIN)
        g, x = ctx(B, N), ctx(B)
        assert lift_subst(v, v.identity(g), x) == v.identity(g + x)

    def test_lift_swap_by_one(self):
        # By hand: components (2,1) weaken to (2,1) in [b,b,b]; the new
        # entry becomes the fresh variable 3.
        v = VariableClone(FIN)
        two = ctx(B, B)
        sigma = var_subst(v, two, two, 2, 1)
        lifted = lift_subst(v, sigma, ctx(B))
        assert lifted.components == (2, 1, 3)
        assert lifted.source == ctx(B, B, B)


class TestInitialHom:
    def test_into_variables_is_identity(self):
        v = VariableClone(FIN)
        h = initial_hom(v)
        for c in FIN.contexts_up_to(3):
            for i in range(1, len(c) + 1):
                assert h.apply(c, c.sort_at(i), i) == i

    def test_hom_laws(self):
        v = VariableClone(FIN)
        report = check_clone_hom(InitialHom(v), Budget(max_sort_height=0))
        assert report.ok, report.summary()

    def test_composition_with_hom_is_initial(self):
        # Composing the initial hom with any hom f agrees with the initial
        # hom of f's target, on all positions of small contexts.
        v = VariableClone(FIN)
        t = TerminalClone(FIN)
        f = FuncHom(v, t, lambda ctx_, sort, term: TerminalClone.POINT)
        h = initial_hom(v)
        ht = initial_hom(t)
        for c in FIN.contexts_up_to(3):
            for i in range(1, len(c) + 1):
                s = c.sort_at(i)
                assert f.apply(c, s, h.apply(c, s, i)) == ht.apply(c, s, i)


class TestTerminalAndProduct:
    def test_terminal_subst_unique(self):
        t = TerminalClone(FIN)
        sigma = Substitution(ctx(B), ctx(B, N), (t.POINT, t.POINT))
        assert t.subst(t.POINT, sigma) == t.POINT

    def test_terminal_laws_vacuous(self):
        report = check_clone_laws(TerminalClone(FIN), Budget(max_sort_height=0))
        assert report.ok

    def test_product_projections_are_homs(self):
        v = VariableClone(FIN)
        p = ProductClone(v, v)
        for which in (0, 1):
            report = check_clone_hom(
                ProjectionHom(p, which),
                Budget(max_context_len=2, max_sort_height=0),
            )
            assert report.ok, report.summary()

    def test_product_laws(self):
        v = VariableClone(FIN)
        report = check_clone_laws(ProductClone(v, v), Budget(max_context_len=2, max_sort_height=0))
        assert report.ok, report.summary()

    def test_stored_split_stays_out_of_equality_hash_and_pickles(self):
        p = ProductClone(VariableClone(FIN), VariableClone(FIN))
        sigma = Substitution(ctx(B, N), ctx(N, B), ((2, 2), (1, 1)))
        fresh = Substitution(ctx(B, N), ctx(N, B), ((2, 2), (1, 1)))
        assert p.subst((2, 2), sigma) == (1, 1)
        assert p._split(sigma) is p._split(sigma)  # split once, then reused
        assert pickle.dumps(sigma) == pickle.dumps(fresh)
        assert sigma == fresh and hash(sigma) == hash(fresh) and repr(sigma) == repr(fresh)
        copy = pickle.loads(pickle.dumps(sigma))
        assert set(vars(copy)) == {"source", "target", "components"}
        assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)

    def test_stored_values_are_kept_per_clone(self):
        # the same substitution in two extension clones with different Xi:
        # each pads it with its own trailing variables
        v = VariableClone(FIN)
        e1, e2 = ContextExtensionClone(v, ctx(B)), ContextExtensionClone(v, ctx(N, B))
        sigma = Substitution(ctx(B), ctx(B), (1,))
        for _ in range(2):
            assert e1.subst(2, sigma) == 2  # Xi's b, after Gamma's one entry
            assert e2.subst(3, sigma) == 3 and e2.subst(2, sigma) == 2
        assert vars(sigma)["_padded"][0] is e2
        # and in two set models whose points are enumerated in other orders
        m1, m2 = set_model(("tt", "ff")).clone, set_model(("ff", "tt")).clone
        const = Substitution(EMPTY, ctx(B), (("tt",),))
        for _ in range(2):
            for m in (m1, m2):
                assert m.subst(m.var(ctx(B), 1), const) == ("tt",)
        assert const == Substitution(EMPTY, ctx(B), (("tt",),))
        assert pickle.dumps(const) == pickle.dumps(Substitution(EMPTY, ctx(B), (("tt",),)))

    def test_pairing_then_project_recovers(self):
        v = VariableClone(FIN)
        t = TerminalClone(FIN)
        f = FuncHom(v, v, lambda c, s, i: i)
        g = FuncHom(v, t, lambda c, s, i: TerminalClone.POINT)
        pair = PairingHom(f, g)
        prod = pair.target
        for c in FIN.contexts_up_to(2):
            for sort in (B, N):
                for i in v.enumerate_terms(c, sort, 0):
                    got = pair.apply(c, sort, i)
                    assert ProjectionHom(prod, 0).apply(c, sort, got) == f.apply(c, sort, i)
                    assert ProjectionHom(prod, 1).apply(c, sort, got) == g.apply(c, sort, i)

    def test_sort_set_mismatch_rejected(self):
        with pytest.raises(CloneError):
            ProductClone(VariableClone(FIN), VariableClone(TY))


class TestContextExtension:
    def test_empty_extension_acts_like_base(self):
        v = VariableClone(FIN)
        e = context_extension(v, EMPTY)
        g = ctx(B, N)
        assert e.enumerate_terms(g, B, 0) == v.enumerate_terms(g, B, 0)
        sigma = var_subst(v, g, g, 1, 2)
        assert e.subst(1, sigma) == v.subst(1, sigma)

    def test_extension_laws(self):
        v = VariableClone(TY)
        e = context_extension(v, ctx(B))
        report = check_clone_laws(
            e, Budget(max_context_len=3, max_sort_height=0), subject="<[b]>Var"
        )
        assert report.ok, report.summary()

    def test_weaken_hom_fixes_variables(self):
        v = VariableClone(FIN)
        e = ContextExtensionClone(v, ctx(N))
        w = WeakenHom(v, ctx(N))
        g = ctx(B, B)
        for i in (1, 2):
            assert w.apply(g, B, i) == e.var(g, i)

    def test_weaken_hom_identity_at_empty(self):
        v = VariableClone(FIN)
        w = weaken_hom(v, EMPTY)
        assert w.apply(ctx(B), B, 1) == 1

    def test_weaken_hom_laws(self):
        v = VariableClone(FIN)
        report = check_clone_hom(
            WeakenHom(v, ctx(B)), Budget(max_context_len=3, max_sort_height=0)
        )
        assert report.ok, report.summary()


class TestExtendContextHom:
    def test_empty_extension_recovers_f(self):
        v = VariableClone(FIN)
        f = FuncHom(v, v, lambda c, s, i: i)
        g = extend_context_hom(f, EMPTY, Substitution(EMPTY, EMPTY, ()))
        for c in FIN.contexts_up_to(2):
            for sort in (B, N):
                for i in v.enumerate_terms(c, sort, 0):
                    assert g.apply(c, sort, i) == i

    def test_extra_variables_map_to_sigma(self):
        # g(var_{n+j}) = sigma_j; checked against a terminal-clone target
        # with distinguishable components via the variable clone instead.
        v = VariableClone(FIN)
        # Target: variable clone extended so that closed terms exist.
        y = ContextExtensionClone(v, ctx(B, N))
        f = WeakenHom(v, ctx(B, N))
        extra = ctx(B, N)
        # sigma: closed terms of y at extra = positions into [b, n]
        sigma = Substitution(EMPTY, extra, (1, 2))
        g = extend_context_hom(f, extra, sigma)
        ext = ContextExtensionClone(v, extra)
        for gamma in FIN.contexts_up_to(2):
            n = len(gamma)
            for j, sort in enumerate(extra, start=1):
                got = g.apply(gamma, sort, ext.var(gamma, n + j))
                want = y.rename(sigma.component(j), weakening(EMPTY, gamma))
                assert got == want

    def test_agrees_with_f_after_weakening(self):
        v = VariableClone(FIN)
        y = ContextExtensionClone(v, ctx(B, N))
        f = WeakenHom(v, ctx(B, N))
        extra = ctx(B, N)
        sigma = Substitution(EMPTY, extra, (1, 2))
        g = extend_context_hom(f, extra, sigma)
        w = weaken_hom(v, extra)
        for gamma in FIN.contexts_up_to(2):
            for sort in (B, N):
                for t in v.enumerate_terms(gamma, sort, 0):
                    assert g.apply(gamma, sort, w.apply(gamma, sort, t)) == f.apply(gamma, sort, t)

    def test_closed_form(self):
        # g(t) = f(t)[var_Gamma, sigma o wk], stated directly.
        v = VariableClone(FIN)
        y = ContextExtensionClone(v, ctx(B, N))
        f = WeakenHom(v, ctx(B, N))
        extra = ctx(B, N)
        sigma = Substitution(EMPTY, extra, (1, 2))
        g = extend_context_hom(f, extra, sigma)
        ext = ContextExtensionClone(v, extra)
        for gamma in FIN.contexts_up_to(2):
            full = gamma + extra
            for sort in (B, N):
                for t in ext.enumerate_terms(gamma, sort, 0):
                    var_part = tuple(y.var(gamma, i) for i in range(1, len(gamma) + 1))
                    shifted = tuple(
                        y.rename(c, weakening(EMPTY, gamma)) for c in sigma.components
                    )
                    want = y.subst(
                        f.apply(full, sort, t),
                        Substitution(gamma, full, var_part + shifted),
                    )
                    assert g.apply(gamma, sort, t) == want


class TestLawHarness:
    def test_broken_subst_detected_with_counterexample(self):
        # Mutant: substitution ignores the given components and always
        # projects position 1, so law 1 must fail with a witness.
        class Broken(VariableClone):
            def subst(self, t, sigma):
                return sigma.component(1)

        report = check_clone_laws(Broken(FIN), Budget(max_context_len=2, max_sort_height=0))
        law1 = report.laws[0]
        assert not law1.ok
        assert law1.counterexample is not None

    def test_report_json_shape(self):
        report = check_clone_laws(VariableClone(FIN), Budget(max_context_len=1, max_sort_height=0))
        data = report.to_json()
        assert data["schema_version"] == 1
        assert data["ok"] is True
        assert len(data["laws"]) == 3
