"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Budgets are pinned here; every comparison is exact.

Criterion 3 runs on the certified completion of the state rewrite system
(gs_rewrite_system).  The three axiom families oriented alone are not
confluent (innermost and outermost strategies already disagree on a
depth-3 term) and leave get(x, x) and x as distinct normal forms; the
completion adds derived rules whose proofs the kernel replays, so every
rewrite trace is still a derivation from the axioms alone.  The companion
test runs the same cross-check with the state-table canonical form.
"""

import itertools
import random
import time

import pytest

from clonal.clones import (
    Budget,
    ContextExtensionClone,
    ProductClone,
    Substitution,
    TerminalClone,
    VariableClone,
    WeakenHom,
    check_clone_laws,
    extend_context_hom,
    weaken_hom,
    weakening,
)
from clonal.equality import free_equal, normalize_with_trace
from clonal.firstorder import (
    FoOp,
    FoVar,
    FoSym,
    FoTrans,
    bool_clone,
    enumerate_fo_terms,
    fo_subst,
    gs_canonical_form,
    gs_clone,
    gs_expand_witness,
    gs_rewrite_system,
    check_fo_derivation,
    global_state_presentation,
    prove_fo_equal,
    rewrite_normalize,
    steps_to_derivation,
)
from clonal.freealgebra import (
    CloneApp,
    FreeAlgebra,
    FreeOp,
    FreeVar,
    check_free_derivation,
    enumerate_free_terms,
    fold_hom,
    raw_eq,
    unit_hom,
)
from clonal.induction import (
    ClonePredicate,
    assert_conclusion,
    check_induction_hypotheses,
    everything,
    kripke_relation,
    lift_closed_family,
)
from clonal.nbe import check_normal, nbe_for, nbe_normalize
from clonal.clones import PairingHom
from clonal.secondorder import algebra_product, check_algebra, stlc_presentation
from clonal.sorts import Context, Sort, SortSet, arrow
from clonal.stlc import (
    adequacy_harness,
    bool_model_hom,
    enumerate_closed_terms,
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
TY = SortSet("ty", ("b",), ("=>",))
FIN = SortSet("two", ("b", "n"))


def report_line(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"criterion {name}: {status}{suffix}")


def ctx(*sorts):
    return Context(tuple(sorts))


# --------------------------------------------------------------------------
# 1. Clone-law suite
# --------------------------------------------------------------------------


def test_criterion_1_clone_laws():
    started = time.time()
    small = Budget(max_context_len=3, max_depth=3, max_sort_height=0,
                   max_terms=64, max_tuples=64, max_context_triples=4096)
    capped = Budget(max_context_len=3, max_depth=3, max_sort_height=0,
                    max_terms=10, max_tuples=5, max_context_triples=48)
    free_budget = Budget(max_context_len=2, max_depth=2, max_sort_height=0,
                         max_terms=6, max_tuples=3, max_context_triples=27)
    var_fin = VariableClone(FIN)
    var_ty = VariableClone(TY)
    subjects = [
        (VariableClone(FIN), small, None, "variables"),
        (TerminalClone(FIN), small, None, "terminal"),
        (ProductClone(var_fin, var_fin), small, None, "product"),
        (ContextExtensionClone(var_ty, ctx(B)), small, None, "context extension"),
        (gs_clone(("v1",)), capped, None, "state |V|=1"),
        (gs_clone(("v1", "v2")), capped, None, "state |V|=2"),
        (gs_clone(("v1", "v2", "v3")), capped, None, "state |V|=3"),
        (bool_clone(), capped, [B, BB], "booleans"),
        (pure_stlc(), free_budget, None, "free on variables"),
        (stlc_bool(), free_budget, None, "free on booleans"),
        (stlc_gs(("v1", "v2")), free_budget, None, "free on state"),
    ]
    failures = []
    for clone, budget, sorts, label in subjects:
        rep = check_clone_laws(clone, budget, sorts=sorts, subject=label)
        if not rep.ok:
            failures.append(rep.summary())
    elapsed = time.time() - started
    report_line("1 (clone laws)", not failures, f"{len(subjects)} clones, {elapsed:.1f}s")
    assert not failures, "\n".join(failures)
    assert elapsed < 60


# --------------------------------------------------------------------------
# 2. Context-extension universal property at desk scale
# --------------------------------------------------------------------------


def test_criterion_2_context_extension_hom():
    started = time.time()
    failures = []

    def run_instance(base, target, f, extra, sigma, contexts, sorts, depth):
        g = extend_context_hom(f, extra, sigma)
        wk_hom = weaken_hom(base, extra)
        ext = ContextExtensionClone(base, extra)
        y = target
        for gamma in contexts:
            # g after weakening recovers f
            for sort in sorts:
                for t in base.enumerate_terms(gamma, sort, depth):
                    lhs = g.apply(gamma, sort, wk_hom.apply(gamma, sort, t))
                    rhs = f.apply(gamma, sort, t)
                    if not y.term_eq(gamma, sort, lhs, rhs):
                        failures.append(f"g(weaken {base.show_term(t)}) != f(..) at {gamma}")
            # the extra variables map to sigma, weakened into gamma
            n = len(gamma)
            for j, sort in enumerate(extra, start=1):
                got = g.apply(gamma, sort, ext.var(gamma, n + j))
                want = y.rename(sigma.component(j), weakening(E, gamma))
                if not y.term_eq(gamma, sort, got, want):
                    failures.append(f"g(var_{n + j}) != sigma_{j} at {gamma}")
            # the closed form g(t) = f(t)[var, sigma o wk]
            for sort in sorts:
                for t in ext.enumerate_terms(gamma, sort, depth):
                    var_part = tuple(y.var(gamma, i) for i in range(1, n + 1))
                    shifted = tuple(y.rename(c, weakening(E, gamma)) for c in sigma.components)
                    want = y.subst(
                        f.apply(gamma + extra, sort, t),
                        Substitution(gamma, gamma + extra, var_part + shifted),
                    )
                    got = g.apply(gamma, sort, t)
                    if not y.term_eq(gamma, sort, got, want):
                        failures.append(f"closed form mismatch at {gamma}: {ext.show_term(t)}")

    # variables with a two-entry extension, exhaustively over contexts <= 3
    var_fin = VariableClone(FIN)
    extra = ctx(B, Sort("n"))
    target = ContextExtensionClone(var_fin, extra)
    run_instance(
        var_fin, target, WeakenHom(var_fin, extra), extra,
        Substitution(E, extra, (1, 2)),
        FIN.contexts_up_to(3), [B, Sort("n")], 0,
    )

    # booleans with a closed substitution for one extra entry
    bools = bool_clone()

    class IdHom(WeakenHom.__bases__[0]):
        def __init__(self, clone):
            super().__init__(clone, clone)

        def apply(self, c, s, t):
            return t

    run_instance(
        bools, bools, IdHom(bools), ctx(B),
        Substitution(E, ctx(B), (FoOp("true", (), ()),)),
        TY.contexts_up_to(2, [B]), [B], 2,
    )
    elapsed = time.time() - started
    report_line("2 (context extension)", not failures, f"{elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 10


# --------------------------------------------------------------------------
# 3. State rewrite cross-check, on the certified completion
# --------------------------------------------------------------------------


def _gs_corpus(pres, max_depth=4, depth4_extra=150):
    """All base terms of depth <= 3 over one variable, plus a deterministic
    slice of depth 4."""
    g1 = ctx(B)
    terms = enumerate_fo_terms(pres.signature, g1, B, 3)
    seen = set(terms)
    extra = [
        t
        for t in enumerate_fo_terms(
            pres.signature, g1, B, max_depth, limit=len(terms) + 4 * depth4_extra
        )
        if t not in seen
    ]
    return g1, terms + extra[:depth4_extra]


def test_criterion_3_state_rewrite_cross_check_as_specified():
    """Oriented rewriting for the state theory: strategy independence and
    agreement with provable equality, on the completed rewrite system.

    Every rewrite trace, in both strategies, must replay through the kernel
    against the axioms alone.  Pairs with equal normal forms are certified
    by joining their two traces into one derivation; bounded proof search
    returns None only when its budget runs out, so it cannot refute them.
    Distinct-normal-form pairs are sampled with a fixed seed, seeded with
    the smallest shapes that bare orientation of the axioms gets wrong, and
    search must find no proof between them.
    """
    started = time.time()
    pres = global_state_presentation(("v1", "v2"))
    rs = gs_rewrite_system(("v1", "v2"))
    g1, terms = _gs_corpus(pres)

    def replays(t, nf_t, steps):
        v = check_fo_derivation(pres, g1, steps_to_derivation(t, steps))
        return v.ok and v.lhs == t and v.rhs == nf_t

    strategy_counterexamples = []
    unreplayed = []
    nf = {}
    trace = {}
    for t in terms:
        inner, inner_steps = rewrite_normalize(rs, t, "innermost")
        outer, outer_steps = rewrite_normalize(rs, t, "outermost")
        if inner != outer:
            strategy_counterexamples.append((t, inner, outer))
        if not (replays(t, inner, inner_steps) and replays(t, outer, outer_steps)):
            unreplayed.append(t)
        nf[t] = inner
        trace[t] = inner_steps

    iff_counterexamples = []
    same_nf_pairs = [
        (t, u) for t, u in itertools.combinations(terms[:40], 2) if nf[t] == nf[u]
    ]
    for t, u in same_nf_pairs[:40]:
        joined = FoTrans(
            steps_to_derivation(t, trace[t]), FoSym(steps_to_derivation(u, trace[u]))
        )
        v = check_fo_derivation(pres, g1, joined)
        if not (v.ok and v.lhs == t and v.rhs == u):
            iff_counterexamples.append(f"same normal form, no proof: {t} ~ {u}")
    rng = random.Random(0)
    distinct = [(t, u) for t, u in itertools.combinations(terms[:18], 2) if nf[t] != nf[u]]
    x = FoVar(1)
    probes = [
        (FoOp("get", (), (x, x)), x),
        (FoOp("get", (), (x, FoOp("put_v2", (), (x,)))), FoOp("put_v2", (), (x,))),
    ] + [distinct[rng.randrange(len(distinct))] for _ in range(10)]
    for t, u in probes:
        proof = prove_fo_equal(pres, g1, t, u, max_nodes=2000)
        if proof is not None and nf.get(t, rewrite_normalize(rs, t)[0]) != nf.get(
            u, rewrite_normalize(rs, u)[0]
        ):
            assert check_fo_derivation(pres, g1, proof).ok  # the proof is genuine
            iff_counterexamples.append(f"provably equal, distinct normal forms: {t} ~ {u}")

    ok = not strategy_counterexamples and not iff_counterexamples and not unreplayed
    detail = (
        f"{len(strategy_counterexamples)} strategy-dependent terms, "
        f"{len(iff_counterexamples)} iff violations"
    )
    elapsed = time.time() - started
    report_line("3 (state rewrite cross-check, as specified)", ok, f"{detail}, {elapsed:.1f}s")
    assert not strategy_counterexamples, (
        "oriented state rewriting is strategy-dependent, e.g. "
        + "; ".join(f"{t} -> {i} (innermost) vs {o} (outermost)"
                    for t, i, o in strategy_counterexamples[:2])
    )
    assert not iff_counterexamples, iff_counterexamples[:3]
    assert not unreplayed, f"rewrite traces rejected by the kernel: {unreplayed[:3]}"


def test_criterion_3_repaired_with_state_table_canonical_form():
    """The complete decision procedure: canonical state tables agree with
    kernel-checked provable equality on the same corpus."""
    started = time.time()
    pres = global_state_presentation(("v1", "v2"))
    values = ("v1", "v2")
    g1, terms = _gs_corpus(pres)
    # canonicalization is witnessed: every canonical form comes with a
    # kernel-accepted derivation
    for t in terms[:120]:
        canon, deriv = gs_expand_witness(values, pres, t)
        assert canon == gs_canonical_form(values, g1, B, t)
        v = check_fo_derivation(pres, g1, deriv)
        assert v.ok and v.lhs == t and v.rhs == canon
    # equal canonical forms join into a full proof; distinct tables
    # certify inequality in the table model (axioms validated below)
    checked = 0
    for t, u in itertools.combinations(terms[:26], 2):
        same = gs_canonical_form(values, g1, B, t) == gs_canonical_form(values, g1, B, u)
        if same:
            _, dt = gs_expand_witness(values, pres, t)
            _, du = gs_expand_witness(values, pres, u)
            from clonal.firstorder import FoSym, FoTrans

            v = check_fo_derivation(pres, g1, FoTrans(dt, FoSym(du)))
            assert v.ok and v.lhs == t and v.rhs == u
            checked += 1
    assert checked > 10
    # the table model validates every axiom instance, so distinct tables
    # are a sound inequality certificate
    pool = enumerate_fo_terms(pres.signature, ctx(B, B), B, 1)
    for schema in pres.equations:
        eq_ctx, _, lhs, rhs = schema.instantiate(())
        for combo in itertools.product(pool, repeat=len(eq_ctx)):
            sub = Substitution(ctx(B, B), eq_ctx, combo)
            assert gs_canonical_form(values, ctx(B, B), B, fo_subst(lhs, sub)) == \
                gs_canonical_form(values, ctx(B, B), B, fo_subst(rhs, sub))
    elapsed = time.time() - started
    report_line("3' (state cross-check, complete canonical form)", True, f"{elapsed:.1f}s")
    assert elapsed < 300


# --------------------------------------------------------------------------
# 4. Set-model algebra validation
# --------------------------------------------------------------------------


def test_criterion_4_set_model_algebra():
    started = time.time()
    # exact pass at the small sorts: every site enumerable
    m_small = set_model()
    small = check_algebra(
        m_small,
        Budget(max_context_len=2, max_depth=0, max_sort_height=1,
               max_terms=6, max_tuples=6, seed=0),
        subject="set model, height <= 1",
    )
    # full pass over all contexts of length <= 2 at sorts of height <= 2;
    # sites beyond the table-size bound are sampled or skipped, recorded
    # as capped
    m_wide = set_model(max_cells=1024)
    wide = check_algebra(
        m_wide,
        Budget(max_context_len=2, max_depth=0, max_sort_height=2,
               max_terms=2, max_tuples=2, seed=0),
        subject="set model, height <= 2",
    )
    elapsed = time.time() - started
    ok = small.ok and wide.ok
    report_line(
        "4 (set model algebra)", ok,
        f"{small.laws[0].checked + small.laws[1].checked} small-sort checks, "
        f"{wide.laws[0].checked + wide.laws[1].checked} wide checks, {elapsed:.1f}s",
    )
    assert ok, (small.summary(), wide.summary())
    assert elapsed < 120


# --------------------------------------------------------------------------
# 5. Universal property of the free algebra on booleans
# --------------------------------------------------------------------------


def test_criterion_5_universal_property():
    started = time.time()
    pres = stlc_presentation()
    free = FreeAlgebra(pres, bool_clone())
    model = set_model(presentation=pres)
    g = bool_model_hom(free, model)
    fold = fold_hom(free, model, g)
    eta = unit_hom(free)

    # fold after unit recovers the homomorphism, on the full enumeration
    contexts = TY.contexts_up_to(2, [B, BB])
    mismatches = 0
    checked = 0
    for c in contexts:
        for sort in (B, BB):
            for t in free.base.enumerate_terms(c, sort, 2)[:80]:
                checked += 1
                if fold.apply(c, sort, eta.apply(c, sort, t)) != g.apply(c, sort, t):
                    mismatches += 1

    # operator preservation on 1,000 sampled applications
    rng = random.Random(0)
    pools = {
        (c, s): enumerate_free_terms(free, c, s, max_size=4)
        for c in (E, ctx(B))
        for s in (B, BB)
    }
    samples = 0
    while samples < 1000:
        c = rng.choice((E, ctx(B)))
        kind = rng.choice(("app", "abs", "ite"))
        if kind == "app":
            f_t = rng.choice(pools[(c, BB)])
            a_t = rng.choice(pools[(c, B)])
            lhs = fold.apply(c, B, free.interpret("app", (B, B), c, (f_t, a_t)))
            rhs = model.interpret(
                "app", (B, B), c, (fold.apply(c, BB, f_t), fold.apply(c, B, a_t))
            )
        elif kind == "abs":
            body_pool = enumerate_free_terms(free, c + ctx(B), B, max_size=3)
            body = rng.choice(body_pool)
            lhs = fold.apply(c, BB, free.interpret("abs", (B, B), c, (body,)))
            rhs = model.interpret("abs", (B, B), c, (fold.apply(c + ctx(B), B, body),))
        else:
            cnd = rng.choice(pools[(c, B)])
            thn = rng.choice(pools[(c, B)])
            els = rng.choice(pools[(c, B)])
            element = FoOp("ite", (B,), (FoVar(1), FoVar(2), FoVar(3)))
            lhs = fold.apply(c, B, CloneApp(element, ctx(B, B, B), B, (cnd, thn, els)))
            mapped = g.apply(ctx(B, B, B), B, element)
            rhs = model.clone.subst(
                mapped,
                Substitution(
                    c, ctx(B, B, B),
                    (fold.apply(c, B, cnd), fold.apply(c, B, thn), fold.apply(c, B, els)),
                ),
            )
        samples += 1
        if lhs != rhs:
            mismatches += 1
    elapsed = time.time() - started
    report_line(
        "5 (universal property)", mismatches == 0,
        f"{checked} unit checks, {samples} sampled applications, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 60


# --------------------------------------------------------------------------
# 6. Normalization
# --------------------------------------------------------------------------


def test_criterion_6_normalization():
    started = time.time()
    free = stlc_bool()
    engine = nbe_for(free)
    sites = [
        (E, B, enumerate_closed_terms(free, B, 7)),
        (ctx(B), B, enumerate_free_terms(free, ctx(B), B, max_size=5)),
        (ctx(BB), B, enumerate_free_terms(free, ctx(BB), B, max_size=5)),
        (ctx(B), BB, enumerate_free_terms(free, ctx(B), BB, max_size=5)),
    ]
    total = 0
    nf_cache = {}
    for c, s, corpus in sites:
        for t in corpus:
            nf = engine.normalize(c, s, t)
            total += 1
            assert check_normal(free, c, s, nf).ok, f"{t} -> {nf}"
            assert engine.normalize(c, s, nf) == nf, f"not idempotent on {t}"
            nf_cache[(c, s, t)] = nf

    # soundness witnesses replay through the derivation checker
    witnessed = 0
    for c, s, corpus in sites:
        for t in corpus[:1500]:
            nf, deriv = normalize_with_trace(free, c, s, t)
            v = check_free_derivation(free, c, deriv)
            assert v.ok, f"witness for {t} rejected: {v.error}"
            assert raw_eq(free.base, c, s, v.lhs, t)
            assert raw_eq(free.base, c, s, v.rhs, nf_cache[(c, s, t)])
            witnessed += 1

    # search-equality agrees with normal-form equality wherever the search
    # returns a verdict
    pairs_checked = 0
    rng = random.Random(1)
    small = enumerate_free_terms(free, ctx(B), B, max_size=4)
    for _ in range(150):
        t, u = rng.choice(small), rng.choice(small)
        verdict = free_equal(free, ctx(B), B, t, u, mode="search", budget=300)
        if verdict.status == "equal":
            assert check_free_derivation(free, ctx(B), verdict.witness).ok
            assert nf_cache.get((ctx(B), B, t)) == nf_cache.get((ctx(B), B, u))
            pairs_checked += 1
    elapsed = time.time() - started
    report_line(
        "6 (normalization)", True,
        f"{total} terms normalized, {witnessed} witnesses replayed, "
        f"{pairs_checked} search agreements, {elapsed:.1f}s",
    )
    assert pairs_checked > 20
    assert elapsed < 600


# --------------------------------------------------------------------------
# 7. Adequacy
# --------------------------------------------------------------------------


def test_criterion_7_adequacy():
    started = time.time()
    free = stlc_bool()
    report = adequacy_harness(7, free)
    normals = {
        t for t in enumerate_closed_terms(free, B, 7) if check_normal(free, E, B, t).ok
    }
    elapsed = time.time() - started
    ok = report.ok and normals == {true_term(), false_term()}
    report_line(
        "7 (adequacy)", ok,
        f"{report.terms} closed terms, {report.pairs_checked} pairs, {elapsed:.1f}s",
    )
    assert report.ok, report.counterexamples[:3]
    assert normals == {true_term(), false_term()}
    assert elapsed < 300


# --------------------------------------------------------------------------
# 8. Global-state normal forms
# --------------------------------------------------------------------------


def test_criterion_8_state_normal_forms():
    started = time.time()
    free = stlc_gs(("v1", "v2"))
    engine = nbe_for(free)
    # strictly closed base terms do not exist (the state operators consume
    # base arguments and produce none from nothing), so the enumeration
    # ranges over base-variable contexts
    contexts = [ctx(B), ctx(B, B)]
    by_class: dict = {}
    total = 0
    for c in contexts:
        for t in enumerate_free_terms(free, c, B, max_size=6):
            nf = engine.normalize(c, B, t)
            total += 1
            # the required shape: get over one put per state, neutral results
            assert isinstance(nf, CloneApp) and nf.element.name == "get"
            assert all(b.name.startswith("put_") for b in nf.element.args)
            assert check_normal(free, c, B, nf).ok
            by_class.setdefault((c, nf), []).append(t)

    # uniqueness per provable-equality class under the combined oracle:
    # within a class every member joins to the representative with a
    # kernel-checked witness
    joined = 0
    for (c, nf), members in by_class.items():
        rep = members[0]
        for t in members[1:4]:
            verdict = free_equal(free, c, B, rep, t)
            assert verdict.status == "equal"
            assert check_free_derivation(free, c, verdict.witness).ok
            joined += 1

    # the three derived equality chains replay as checkable witnesses
    values = ("v1", "v2")
    pres = free.base.presentation
    chains = [
        FoVar(1),  # completion of an atom
        FoOp("put_v1", (), (FoOp("get", (), (FoVar(1), FoVar(2))),)),  # put through get
        FoOp("get", (), (  # outer get absorbing expanded branches
            FoOp("get", (), (FoOp("put_v2", (), (FoVar(1),)), FoOp("put_v1", (), (FoVar(2),)))),
            FoOp("get", (), (FoOp("put_v1", (), (FoVar(1),)), FoOp("put_v2", (), (FoVar(2),)))),
        )),
    ]
    for t in chains:
        canon, deriv = gs_expand_witness(values, pres, t)
        v = check_fo_derivation(pres, ctx(B, B), deriv)
        assert v.ok and v.lhs == t and v.rhs == canon
    elapsed = time.time() - started
    report_line(
        "8 (state normal forms)", True,
        f"{total} terms, {len(by_class)} classes, {joined} joins, {elapsed:.1f}s",
    )
    assert elapsed < 600


# --------------------------------------------------------------------------
# 9. Induction harness coherence
# --------------------------------------------------------------------------


def test_criterion_9_induction_coherence():
    started = time.time()
    runs = []

    # trivial predicate over the boolean free algebra
    free = stlc_bool()
    fold_id = fold_hom(free, free, unit_hom(free))
    hyp = check_induction_hypotheses(
        free, unit_hom(free), everything(free),
        [E, ctx(B)], [B, BB],
        lambda c, s: enumerate_free_terms(free, c, s, max_size=3),
        lambda c, s: free.base.enumerate_terms(c, s, 1),
        Budget(max_terms=5, max_tuples=5),
    )
    concl = assert_conclusion(
        free, fold_id, everything(free), [E, ctx(B)], [B],
        lambda c, s: enumerate_free_terms(free, c, s, max_size=3),
    )
    runs.append(("trivial predicate", hyp, concl))

    # the adequacy logical relation over the product with the set model
    pres = stlc_presentation()
    free2 = FreeAlgebra(pres, bool_clone())
    model = set_model(presentation=pres)
    product = algebra_product(free2, model)
    g = bool_model_hom(free2, model)
    pairing = PairingHom(unit_hom(free2), g)

    tt_table, ff_table = ("tt",), ("ff",)
    base_pairs = {(true_term(), tt_table), (false_term(), ff_table)}
    pool_cache = {}

    def candidates(sort):
        if sort not in pool_cache:
            frees = enumerate_closed_terms(free2, sort, 4)
            tables = model.clone.enumerate_terms(E, sort, 0)
            pool_cache[sort] = [(f, m2) for f in frees for m2 in tables]
        return pool_cache[sort]

    member_cache = {}

    def member(sort, pair):
        key = (sort, pair)
        if key not in member_cache:
            ft, mt = pair
            if sort == B:
                result = (nbe_normalize(free2, E, B, ft), mt) in base_pairs
            else:
                a_sort, b_sort = sort.args
                result = all(
                    member(b_sort, product.interpret("app", (a_sort, b_sort), E, (pair, a)))
                    for a in candidates(a_sort)
                    if member(a_sort, a)
                )
            member_cache[key] = result
        return member_cache[key]

    pred = lift_closed_family(product.clone, member, candidates, cap=64)
    hyp2 = check_induction_hypotheses(
        product, pairing, pred, [E], [B, BB],
        lambda c, s: product.clone.enumerate_terms(c, s, 1)[:20],
        lambda c, s: free2.base.enumerate_terms(c, s, 1),
        Budget(max_terms=8, max_tuples=8, max_depth=1),
    )
    fold2 = fold_hom(free2, product, pairing)
    concl2 = assert_conclusion(
        free2, fold2, pred, [E], [B],
        lambda c, s: enumerate_closed_terms(free2, s, 4),
        Budget(max_terms=60),
    )
    runs.append(("adequacy relation", hyp2, concl2))

    # the context-indexed normal-form relation over the initial algebra
    free3 = pure_stlc()
    contexts = [ctx(B), ctx(B, B), ctx(BB)]
    member3 = kripke_relation(
        free3,
        lambda c, t: check_normal(free3, c, B, nbe_normalize(free3, c, B, t)).ok,
        contexts,
        lambda c, s: enumerate_free_terms(free3, c, s, max_depth=2)[:8],
        B,
        cap=5,
    )
    pred3 = ClonePredicate(free3, member3)
    hyp3 = check_induction_hypotheses(
        free3, unit_hom(free3), pred3, contexts, [B, BB],
        lambda c, s: enumerate_free_terms(free3, c, s, max_depth=2)[:8],
        lambda c, s: free3.base.enumerate_terms(c, s, 0),
        Budget(max_terms=6, max_tuples=4),
    )
    fold3 = fold_hom(free3, free3, unit_hom(free3))
    concl3 = assert_conclusion(
        free3, fold3, pred3, contexts, [B, BB],
        lambda c, s: enumerate_free_terms(free3, c, s, max_depth=2)[:10],
    )
    runs.append(("normal-form relation", hyp3, concl3))

    incoherent = [
        name for name, hyp_r, concl_r in runs if hyp_r.ok and not concl_r.ok
    ]
    all_pass = all(h.ok and c_.ok for _, h, c_ in runs)
    elapsed = time.time() - started
    report_line(
        "9 (induction coherence)", not incoherent and all_pass,
        f"{len(runs)} runs, {elapsed:.1f}s",
    )
    for name, hyp_r, concl_r in runs:
        assert hyp_r.ok, (name, hyp_r.witnesses[:3])
        assert concl_r.ok, (name, concl_r.violations[:3])
    assert not incoherent
