"""First-order terms, equational derivations, rewriting, presented clones."""

import hashlib
import itertools
import json
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonal import firstorder, theories
from clonal.clones import Budget, CloneError, Substitution, check_clone_laws
from clonal.firstorder import (
    gs_expand_witness,
    BASE,
    TY,
    CanonicalEq,
    FoAxiom,
    FoCong,
    FoEquationSchema,
    FoLemma,
    FoOp,
    FoOpSchema,
    FoPresentation,
    FoRefl,
    FoSignature,
    FoSortError,
    FoSym,
    FoTerm,
    FoTrans,
    FoVar,
    RewriteDivergence,
    RewriteEq,
    RewriteStep,
    RewriteSystem,
    SearchEq,
    StructuralEq,
    TmClone,
    Verdict,
    bool_clone,
    bool_presentation,
    check_convergence,
    check_fo_derivation,
    enumerate_fo_terms,
    enumerate_fo_terms_by_size,
    fo_check_term,
    fo_size,
    fo_subst,
    global_state_presentation,
    gs_canonical_form,
    gs_clone,
    gs_rewrite_system,
    innermost_normal_form,
    lpo_greater,
    match_fo,
    monoid_presentation,
    prove_fo_equal,
    rewrite_normalize,
    steps_to_derivation,
    tm_clone,
    unify_fo,
)
from clonal.jsonio import (
    fo_derivation_from_json,
    fo_derivation_to_json,
    fo_term_from_json,
    fo_term_to_json,
)
from clonal.sorts import Context, Sort, SortSet, arrow

V2 = ("v1", "v2")
GS2 = global_state_presentation(V2)
BB = arrow(BASE, BASE)


def ctx(*sorts):
    return Context(tuple(sorts))


def get(*args):
    return FoOp("get", (), tuple(args))


def put(v, t):
    return FoOp(f"put_{v}", (), (t,))


def x(i):
    return FoVar(i)


def mul(a, b):
    return FoOp("mul", (), (a, b))


UNIT = FoOp("unit", (), ())
TRUE = FoOp("true", (), ())
FALSE = FoOp("false", (), ())


def axiom(name, *terms):
    return FoAxiom(name, (), tuple(FoRefl(t) for t in terms))


# --------------------------------------------------------------------------
# Terms and substitution
# --------------------------------------------------------------------------


class TestStoredHashAndSize:
    """FoOp stores its hash and node count once computed; nothing else about
    the node may change."""

    def test_separately_built_equal_terms_hash_equal(self):
        a = get(put("v1", x(1)), x(2))
        b = get(put("v1", x(1)), x(2))
        assert a is not b
        hash(a)  # only a has its hash stored now
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1

    def test_unequal_terms_stay_unequal(self):
        a, b = put("v1", x(1)), put("v2", x(1))
        hash(a), hash(b), fo_size(a), fo_size(b)
        assert a != b and len({a, b}) == 2

    def test_size_agrees_with_a_recursive_count(self):
        def count(t):
            return 1 if isinstance(t, FoVar) else 1 + sum(count(a) for a in t.args)

        terms = enumerate_fo_terms(GS2.signature, ctx(BASE, BASE), BASE, 2)
        assert len(terms) > 100
        for t in terms:
            assert fo_size(t) == count(t)
            assert fo_size(t) == count(t)  # the stored count, second time

    def test_repr_eq_and_match_unaffected(self):
        t = put("v1", x(1))
        before = repr(t)
        hash(t), fo_size(t)
        assert repr(t) == before == "FoOp(name='put_v1', sort_args=(), args=(FoVar(index=1),))"
        assert t == FoOp("put_v1", (), (FoVar(1),))
        assert FoOp.__match_args__ == ("name", "sort_args", "args")
        match t:
            case FoOp("put_v1", (), (FoVar(index=1),)):
                pass
            case _:
                pytest.fail("positional pattern no longer matches")
        match t:
            case FoOp(name=name, args=(arg,)):
                assert (name, arg) == ("put_v1", FoVar(1))

    def test_json_roundtrip_is_equal_and_equally_hashed(self):
        t = get(put("v2", get(x(1), x(2))), put("v1", x(2)))
        hash(t)
        back = fo_term_from_json(json.loads(json.dumps(fo_term_to_json(t))))
        assert back == t and hash(back) == hash(t) and fo_size(back) == fo_size(t)

    def test_pickled_copy_recomputes_its_hash(self):
        t = put("v1", get(x(1), x(2)))
        hash(t), fo_size(t)
        copy = pickle.loads(pickle.dumps(t))
        assert "_hash" not in vars(copy) and "_size" not in vars(copy)
        assert copy == t and hash(copy) == hash(t)


class TestCheckAndSubst:
    def test_variable_lookup(self):
        assert fo_check_term(GS2.signature, ctx(BASE), x(1)) == BASE

    def test_operator_rule(self):
        t = put("v1", get(x(1), x(2)))
        assert fo_check_term(GS2.signature, ctx(BASE, BASE), t) == BASE

    def test_bad_arity_has_path(self):
        bad = put("v1", get(x(1)))  # get is binary at |V| = 2
        with pytest.raises(FoSortError) as e:
            fo_check_term(GS2.signature, ctx(BASE), bad)
        assert e.value.path == (1,)

    def test_subst_variable(self):
        a = put("v1", x(1))
        sigma = Substitution(ctx(BASE), ctx(BASE), (a,))
        assert fo_subst(x(1), sigma) == a

    def test_subst_structural(self):
        t = put("v1", x(1))
        u = get(x(1), x(1))
        sigma = Substitution(ctx(BASE), ctx(BASE), (u,))
        assert fo_subst(t, sigma) == put("v1", u)

    def test_subst_associativity_on_enumerated_terms(self):
        # Clone law 3 directly on raw global-state terms of depth <= 2.
        g1 = ctx(BASE)
        terms = enumerate_fo_terms(GS2.signature, g1, BASE, 2)
        pool = enumerate_fo_terms(GS2.signature, g1, BASE, 1)
        for t in terms:
            for s1 in pool:
                for s2 in pool:
                    outer = Substitution(g1, g1, (s1,))
                    inner = Substitution(g1, g1, (s2,))
                    composed = Substitution(g1, g1, (fo_subst(s1, inner),))
                    assert fo_subst(t, composed) == fo_subst(fo_subst(t, outer), inner)


class TestEnumeration:
    def test_depth_zero_is_variables(self):
        assert enumerate_fo_terms(GS2.signature, ctx(BASE), BASE, 0) == [x(1)]

    def test_gs1_depth_one(self):
        pres = global_state_presentation(("v1",))
        got = enumerate_fo_terms(pres.signature, ctx(BASE), BASE, 1)
        assert set(got) == {x(1), FoOp("get", (), (x(1),)), put("v1", x(1))}

    def test_counts_monotone_in_depth(self):
        counts = [
            len(enumerate_fo_terms(GS2.signature, ctx(BASE), BASE, d)) for d in range(4)
        ]
        assert counts == sorted(counts)
        assert counts[0] == 1

    def test_no_duplicates(self):
        got = enumerate_fo_terms(GS2.signature, ctx(BASE, BASE), BASE, 2)
        assert len(got) == len(set(got))


# --------------------------------------------------------------------------
# Derivation checking (reference oracle first)
# --------------------------------------------------------------------------


def reference_check(pres, ctx_, d):
    """Independent recursive checker; returns (lhs, rhs) or None on reject."""
    sig = pres.signature
    if isinstance(d, FoRefl):
        try:
            fo_check_term(sig, ctx_, d.term)
        except FoSortError:
            return None
        return (d.term, d.term)
    if isinstance(d, FoSym):
        sub = reference_check(pres, ctx_, d.child)
        return None if sub is None else (sub[1], sub[0])
    if isinstance(d, FoTrans):
        a = reference_check(pres, ctx_, d.left)
        b = reference_check(pres, ctx_, d.right)
        if a is None or b is None or a[1] != b[0]:
            return None
        return (a[0], b[1])
    if isinstance(d, FoCong):
        try:
            arg_ctx, _ = sig.arity(d.op, d.sort_args)
        except FoSortError:
            return None
        if len(d.children) != len(arg_ctx):
            return None
        subs = [reference_check(pres, ctx_, c) for c in d.children]
        if any(s is None for s in subs):
            return None
        for (l, _), want in zip(subs, arg_ctx):
            if fo_check_term(sig, ctx_, l) != want:
                return None
        return (
            FoOp(d.op, d.sort_args, tuple(s[0] for s in subs)),
            FoOp(d.op, d.sort_args, tuple(s[1] for s in subs)),
        )
    if isinstance(d, FoAxiom):
        try:
            eq_ctx, _, lhs, rhs = pres.equation(d.equation).instantiate(d.sort_args)
        except FoSortError:
            return None
        if len(d.children) != len(eq_ctx):
            return None
        subs = [reference_check(pres, ctx_, c) for c in d.children]
        if any(s is None for s in subs):
            return None
        for (l, _), want in zip(subs, eq_ctx):
            if fo_check_term(sig, ctx_, l) != want:
                return None
        left = fo_subst(lhs, Substitution(ctx_, eq_ctx, tuple(s[0] for s in subs)))
        right = fo_subst(rhs, Substitution(ctx_, eq_ctx, tuple(s[1] for s in subs)))
        return (left, right)
    return None


def golden_corpus():
    """Hand-built derivations (good and bad) over GS2 and Bool."""
    g1 = ctx(BASE)
    t = put("v1", x(1))
    good = [
        (GS2, g1, FoRefl(t)),
        (GS2, g1, FoSym(FoRefl(t))),
        (GS2, g1, FoTrans(FoRefl(t), FoRefl(t))),
        # axiom instance: put_v1(put_v2(x)) ~ put_v2(x) at x := get(x1, x1)
        (GS2, g1, FoAxiom("put_put_v1_v2", (), (FoRefl(get(x(1), x(1))),))),
        (GS2, g1, FoCong("put_v1", (), (FoAxiom("get_put", (), (FoRefl(x(1)),)),))),
        # different substitutions on the two sides via a non-trivial child
        (
            GS2,
            g1,
            FoAxiom("put_put_v1_v1", (), (FoAxiom("get_put", (), (FoRefl(x(1)),)),)),
        ),
    ]
    bad = [
        # unknown equation name
        (GS2, g1, FoAxiom("no_such_equation", (), (FoRefl(x(1)),))),
        # transitivity with disagreeing middle terms
        (GS2, g1, FoTrans(FoRefl(t), FoRefl(get(x(1), x(1))))),
        # congruence arity mismatch
        (GS2, g1, FoCong("get", (), (FoRefl(x(1)),))),
        # axiom child of the wrong sort
        (GS2, ctx(BB), FoAxiom("get_put", (), (FoRefl(x(1)),))),
        # refl of an ill-sorted term
        (GS2, ctx(), FoRefl(x(1))),
    ]
    return good, bad


class TestDerivationChecker:
    def test_refl_accepts(self):
        v = check_fo_derivation(GS2, ctx(BASE), FoRefl(x(1)))
        assert v.ok and v.lhs == v.rhs == x(1)

    def test_axiom_instance_with_substitution(self):
        # put_v1(put_v2(X)) ~ put_v2(X) at X := get(x1, x2)
        g = ctx(BASE, BASE)
        d = FoAxiom("put_put_v1_v2", (), (FoRefl(get(x(1), x(2))),))
        v = check_fo_derivation(GS2, g, d)
        assert v.ok
        assert v.lhs == put("v1", put("v2", get(x(1), x(2))))
        assert v.rhs == put("v2", get(x(1), x(2)))

    def test_unknown_equation_rejected_with_path(self):
        d = FoTrans(FoRefl(x(1)), FoAxiom("nope", (), (FoRefl(x(1)),)))
        v = check_fo_derivation(GS2, ctx(BASE), d)
        assert not v.ok
        assert v.path == (2,)

    def test_agrees_with_reference_on_golden_corpus(self):
        good, bad = golden_corpus()
        for pres, g, d in good:
            mine = check_fo_derivation(pres, g, d)
            ref = reference_check(pres, g, d)
            assert mine.ok and ref is not None
            assert (mine.lhs, mine.rhs) == ref
        for pres, g, d in bad:
            assert not check_fo_derivation(pres, g, d).ok
            assert reference_check(pres, g, d) is None


# --------------------------------------------------------------------------
# Rewriting
# --------------------------------------------------------------------------


def _reference_normalize(rs, t, strategy):
    """The step-by-step normalizer the rewriting engine replaced, kept as an
    oracle: each step lists every position of the whole term, pre-order for
    outermost and post-order for innermost, and rewrites the first redex
    with the first rule, in firing order, that fires there."""
    steps = []
    for _ in range(firstorder.MAX_REWRITE_STEPS):
        step = None
        for path, sub in _reference_positions(t, (), strategy == "outermost"):
            fired = _reference_root_step(rs, sub)
            if fired is not None:
                schema, proof, sort_args, inst, new = fired
                derived = None if proof is None else (schema, proof)
                after = _reference_replace_at(t, path, new)
                step = RewriteStep(path, schema.name, sort_args, inst, True, t, after, derived)
                break
        if step is None:
            return t, steps
        steps.append(step)
        t = step.after
    raise RewriteDivergence(t, steps)


def _reference_positions(t, path, outermost):
    here = [(path, t)]
    below = []
    if isinstance(t, FoOp):
        for i, a in enumerate(t.args, start=1):
            below += _reference_positions(a, path + (i,), outermost)
    return here + below if outermost else below + here


def _reference_root_step(rs, sub):
    if isinstance(sub, FoVar):
        return None
    for schema, proof in rs.rules():
        var_binding, sort_binding = {}, {}
        if not match_fo(schema.lhs, sub, var_binding, sort_binding):
            continue
        if set(var_binding) != set(range(1, len(schema.ctx) + 1)):
            continue
        sort_args = tuple(sort_binding[p] for p in schema.params)
        eq_ctx, _, _, rhs = schema.instantiate(sort_args)
        inst = tuple(var_binding[i] for i in range(1, len(eq_ctx) + 1))
        return schema, proof, sort_args, inst, fo_subst(rhs, Substitution(ctx(), eq_ctx, inst))
    return None


def _reference_replace_at(t, path, new):
    if not path:
        return new
    args = list(t.args)
    args[path[0] - 1] = _reference_replace_at(args[path[0] - 1], path[1:], new)
    return FoOp(t.name, t.sort_args, tuple(args))


class TestRewrite:
    def test_put_put_collapses(self):
        rs = RewriteSystem(GS2)
        nf, steps = rewrite_normalize(rs, put("v1", put("v2", x(1))))
        assert nf == put("v2", x(1))
        assert len(steps) == 1

    def test_put_get_selects(self):
        rs = RewriteSystem(GS2)
        nf, _ = rewrite_normalize(rs, put("v1", get(x(1), x(2))))
        assert nf == put("v1", x(1))

    def test_get_put_collapses(self):
        rs = RewriteSystem(GS2)
        nf, _ = rewrite_normalize(rs, get(put("v1", x(1)), put("v2", x(1))))
        assert nf == x(1)

    def test_trace_converts_to_checkable_derivation(self):
        rs = RewriteSystem(GS2)
        t = put("v1", put("v2", get(x(1), x(1))))
        nf, steps = rewrite_normalize(rs, t)
        d = steps_to_derivation(t, steps)
        v = check_fo_derivation(GS2, ctx(BASE), d)
        assert v.ok and v.lhs == t and v.rhs == nf

    def test_bool_rewrites(self):
        pres = bool_presentation()
        rs = RewriteSystem(pres)
        tru = FoOp("true", (), ())
        fls = FoOp("false", (), ())
        ite = lambda c, a, b, s=BASE: FoOp("ite", (s,), (c, a, b))
        assert rewrite_normalize(rs, ite(tru, x(1), x(2)))[0] == x(1)
        assert rewrite_normalize(rs, ite(fls, x(1), x(2)))[0] == x(2)
        # no rule for equal branches
        stuck = ite(x(1), x(2), x(2))
        assert rewrite_normalize(rs, stuck)[0] == stuck

    def test_idempotent_on_enumerated_terms(self):
        rs = RewriteSystem(GS2)
        for t in enumerate_fo_terms(GS2.signature, ctx(BASE), BASE, 3):
            nf, _ = rewrite_normalize(rs, t)
            again, steps = rewrite_normalize(rs, nf)
            assert again == nf and not steps


@st.composite
def fo_terms(draw, pres, n_vars=3, max_nodes=20):
    """Base-sorted terms over ``pres`` with at most ``max_nodes`` nodes (a
    drawn node budget, spent unless no operator fits what is left); sort
    parameters are instantiated at the base sort."""
    ops = []  # (name, sort arguments, number of arguments)
    for schema in pres.signature.operators:
        sort_args = (BASE,) * len(schema.params)
        ops.append((schema.name, sort_args, len(schema.arity(sort_args)[0])))
    leaves = [FoVar(i) for i in range(1, n_vars + 1)]
    leaves += [FoOp(name, sorts, ()) for name, sorts, k in ops if k == 0]

    def build(budget):
        fits = [op for op in ops if 0 < op[2] < budget]
        if not fits:
            return draw(st.sampled_from(leaves))
        name, sorts, k = draw(st.sampled_from(fits))
        spare = budget - 1 - k  # nodes to share out beyond one per argument
        args = []
        for i in range(k):
            extra = draw(st.integers(0, spare)) if i < k - 1 else spare
            spare -= extra
            args.append(build(1 + extra))
        return FoOp(name, sorts, tuple(args))

    return build(draw(st.integers(1, max_nodes)))


PROPERTY_SYSTEMS = {
    "bool": RewriteSystem(bool_presentation()),
    "bare_state": RewriteSystem(GS2),  # not confluent
    "completed_state": gs_rewrite_system(V2),
}


def _dup_system() -> RewriteSystem:
    nat = Sort("n")
    sig = FoSignature(
        SortSet("nat", ("n",)),
        (
            FoOpSchema("z", (), (), nat),
            FoOpSchema("s", (), (nat,), nat),
            FoOpSchema("p", (), (nat,), nat),
            FoOpSchema("m", (), (nat, nat), nat),
        ),
    )
    rules = (
        FoEquationSchema("p_s", (), (nat,), nat, _p(_s(x(1))), _m(_p(x(1)), _p(x(1)))),
        FoEquationSchema("p_z", (), (), nat, _p(ZERO), ZERO),
        FoEquationSchema("m", (), (nat, nat), nat, _m(x(1), x(2)), x(1)),
    )
    return RewriteSystem(FoPresentation("dup", sig, rules))


ZERO = FoOp("z", (), ())


def _s(a):
    return FoOp("s", (), (a,))


def _p(a):
    return FoOp("p", (), (a,))


def _m(a, b):
    return FoOp("m", (), (a, b))


def _term_with_steps(n: int) -> FoTerm:
    """A term of DUP whose innermost normalization takes exactly ``n``
    rewrites: p(s^k z) takes 3 * 2^k - 2 and m(a, b) one more than a and b."""
    if n <= 1:
        return _p(ZERO) if n else ZERO
    k = max(k for k in range(n.bit_length()) if 3 * 2**k - 2 <= n - 1)
    a = ZERO
    for _ in range(k):
        a = _s(a)
    return _m(_p(a), _term_with_steps(n - 1 - (3 * 2**k - 2)))


DUP = _dup_system()


def _count_root_steps(monkeypatch) -> list:
    """The subterms at which rewriting attempts a root step, from now on."""
    attempts = []
    root_step = firstorder._root_step

    def counted(rs, sub):
        attempts.append(sub)
        return root_step(rs, sub)

    monkeypatch.setattr(firstorder, "_root_step", counted)
    return attempts


def _grow_system() -> RewriteSystem:
    """mul(x1, unit) -> mul(mul(x1, unit), unit): the term deepens by one at
    every step, at its root."""
    star = Sort("*")
    grow = FoEquationSchema(
        "grow", (), (star,), star, mul(x(1), UNIT), mul(mul(x(1), UNIT), UNIT)
    )
    return RewriteSystem(FoPresentation("grow", monoid_presentation().signature, (grow,)))


def _get_put_tree(depth: int) -> FoTerm:
    """get(put_v1(s), s) for s the tree one level down; x1 at the leaves."""
    if depth == 0:
        return x(1)
    below = _get_put_tree(depth - 1)
    return get(put("v1", below), below)


ORACLE_SYSTEMS = {
    **{name: (rs, 20) for name, rs in PROPERTY_SYSTEMS.items()},
    "monoid": (RewriteSystem(monoid_presentation()), 20),
    "dup": (DUP, 10),  # p(s^k z) takes 3 * 2^k - 2 rewrites: keep k small
}


class TestEngineAgainstReference:
    """The rewriting engine makes exactly the reference stepper's steps."""

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_traces_are_the_reference_traces(self, name, strategy):
        rs, max_nodes = ORACLE_SYSTEMS[name]

        @settings(max_examples=200, derandomize=True, database=None, deadline=None)
        @given(fo_terms(rs.presentation, max_nodes=max_nodes))
        def agrees(t):
            assert rewrite_normalize(rs, t, strategy) == _reference_normalize(rs, t, strategy)

        agrees()

    def test_traced_innermost_resumes_where_it_fired(self, monkeypatch):
        # a traced step does not rescan the whole term: on this 766-node tree,
        # 510 steps cost 765 root-step attempts (2303 when each step rescanned)
        rs = PROPERTY_SYSTEMS["completed_state"]
        t = _get_put_tree(8)
        assert fo_size(t) == 766
        attempts = _count_root_steps(monkeypatch)
        nf, steps = rewrite_normalize(rs, t, "innermost")
        assert len(steps) == 510 and len(attempts) <= 1000
        v = check_fo_derivation(rs.presentation, ctx(BASE), steps_to_derivation(t, steps))
        assert v.ok and v.lhs == t and v.rhs == nf

    def test_outermost_growth_at_the_root_reaches_the_step_ceiling(self):
        # the redex is always the root, so the term never has to be walked
        t = mul(x(1), UNIT)
        with pytest.raises(RewriteDivergence, match=r"step ceiling .* mul\(x1, unit\(\)\)") as e:
            rewrite_normalize(_grow_system(), t, "outermost")
        steps = e.value.trace
        assert len(steps) == firstorder.MAX_REWRITE_STEPS
        assert steps[0].before == t and all(s.path == () for s in steps)


def _reference_subst_derivation(d, sigma):
    """``d`` with every reflexivity leaf substituted on its own."""
    match d:
        case FoRefl(term=t):
            return FoRefl(fo_subst(t, sigma))
        case FoSym(child=c):
            return FoSym(_reference_subst_derivation(c, sigma))
        case FoTrans(left=l, right=r):
            return FoTrans(_reference_subst_derivation(l, sigma),
                           _reference_subst_derivation(r, sigma))
        case FoCong(op=name, sort_args=sargs, children=cs):
            return FoCong(name, sargs, tuple(_reference_subst_derivation(c, sigma) for c in cs))
        case FoAxiom(equation=name, sort_args=sargs, children=cs):
            return FoAxiom(name, sargs, tuple(_reference_subst_derivation(c, sigma) for c in cs))
    raise AssertionError(d)


def _reference_steps_to_derivation(start, steps):
    """The per-leaf instantiation that lemma nodes replaced, kept as an
    oracle: a derived rule's proof has every reflexivity leaf substituted
    on its own, through a validated Substitution."""

    def wrap(whole, path, inner):
        if not path:
            return inner
        return FoCong(whole.name, whole.sort_args, tuple(
            wrap(a, path[1:], inner) if j == path[0] else FoRefl(a)
            for j, a in enumerate(whole.args, start=1)))

    d = FoRefl(start)
    for i, step in enumerate(steps):
        if step.derived is None:
            node = FoAxiom(step.equation, step.sort_args, tuple(FoRefl(t) for t in step.instantiation))
        else:
            schema, proof = step.derived
            sigma = Substitution(ctx(), ctx(*schema.ctx), step.instantiation)
            node = _reference_subst_derivation(proof, sigma)
        node = wrap(step.before, step.path, node)
        d = node if i == 0 else FoTrans(d, node)
    return d


def _expand_lemmas(d):
    """``d`` with each lemma node replaced by its proof instantiated leaf by
    leaf at the terms of its reflexivity children."""
    match d:
        case FoLemma(ctx=g, proof=proof, children=cs):
            assert all(isinstance(c, FoRefl) for c in cs)
            sigma = Substitution(ctx(), g, tuple(c.term for c in cs))
            return _reference_subst_derivation(_expand_lemmas(proof), sigma)
        case FoRefl():
            return d
        case FoSym(child=c):
            return FoSym(_expand_lemmas(c))
        case FoTrans(left=l, right=r):
            return FoTrans(_expand_lemmas(l), _expand_lemmas(r))
        case FoCong(op=name, sort_args=sargs, children=cs):
            return FoCong(name, sargs, tuple(_expand_lemmas(c) for c in cs))
        case FoAxiom(equation=name, sort_args=sargs, children=cs):
            return FoAxiom(name, sargs, tuple(_expand_lemmas(c) for c in cs))
    raise AssertionError(d)


def _lemmas(d):
    """Every lemma node of ``d`` outside lemma proofs, in pre-order."""
    if isinstance(d, FoLemma):
        return [d]
    subs = (getattr(d, "child", None), getattr(d, "left", None), getattr(d, "right", None))
    return [n for c in (*subs, *getattr(d, "children", ())) if c is not None for n in _lemmas(c)]


class TestDerivedRuleInstantiation:
    """steps_to_derivation cites each derived rule's proof in a lemma node;
    expanded, the result is the per-leaf reference's, and the kernel
    replays both against the bare presentation."""

    @pytest.mark.parametrize("values", [V2, ("v1", "v2", "v3")])
    def test_gs_traces_are_the_reference_derivations(self, values):
        rs = gs_rewrite_system(values)
        fired = []

        @settings(max_examples=150, derandomize=True, database=None, deadline=None)
        @given(fo_terms(rs.presentation, max_nodes=30))
        def agrees(t):
            nf, steps = rewrite_normalize(rs, t)
            d = steps_to_derivation(t, steps)
            reference = _reference_steps_to_derivation(t, steps)
            assert _expand_lemmas(d) == reference
            for proof in (d, reference):
                v = check_fo_derivation(rs.presentation, ctx(BASE, BASE, BASE), proof)
                assert v.ok and (v.lhs, v.rhs) == (t, nf), v.error
            fired.extend(s for s in steps if s.derived is not None)

        agrees()
        assert len({s.equation for s in fired}) >= 3

    def test_lemmas_hold_the_systems_own_proofs(self):
        rs = gs_rewrite_system(V2)
        proofs = {schema.name: proof for schema, proof in rs.derived}
        t = get(get(x(1), x(1)), put("v2", get(put("v1", x(2)), x(2))))
        steps = rewrite_normalize(rs, t)[1]
        lemmas = _lemmas(steps_to_derivation(t, steps))
        derived = [s.equation for s in steps if s.derived is not None]
        assert len(lemmas) == len(derived) and len(set(derived)) == 3
        assert all(n.proof is proofs[name] for n, name in zip(lemmas, derived))

    def test_wrong_instantiation_length_raises(self):
        rs = gs_rewrite_system(V2)
        t = get(x(1), x(1))
        (step,) = rewrite_normalize(rs, t)[1]
        assert step.derived is not None
        bad = RewriteStep(step.path, step.equation, step.sort_args, step.instantiation + (x(2),),
                          True, step.before, step.after, step.derived)
        with pytest.raises(CloneError, match="instantiates"):
            steps_to_derivation(t, [bad])


def _chain(pieces):
    """The left-nested transitivity chain steps_to_derivation builds."""
    d = pieces[0]
    for p in pieces[1:]:
        d = FoTrans(d, p)
    return d


def _recursive_check(pres, g, d, path=()):
    """The kernel's transitivity rule as a recursive walk, one call per
    link, kept as an oracle for the loop that replaced it; every other
    node goes to the kernel."""
    if isinstance(d, FoTrans):
        lv = _recursive_check(pres, g, d.left, path + (1,))
        if not lv:
            return lv
        rv = _recursive_check(pres, g, d.right, path + (2,))
        if not rv:
            return rv
        if lv.rhs != rv.lhs:
            return Verdict(False, error=f"transitivity middle terms disagree: {lv.rhs} vs {rv.lhs}",
                           path=path)
        return Verdict(True, lv.lhs, rv.rhs, lv.sort)
    v = check_fo_derivation(pres, g, d)
    return v if v.ok else Verdict(False, error=v.error, path=path + v.path)


class TestTransitivityChains:
    """A trace's chain of transitivity links is walked with a loop: a deep
    trace replays, and a rejection is the recursive walk's."""

    def test_deep_trace_replays(self):
        rs = gs_rewrite_system(V2)
        t = _get_put_tree(9)
        assert fo_size(t) == 1534
        nf, steps = rewrite_normalize(rs, t)
        assert len(steps) == 1022 and len(steps) < firstorder.MAX_REWRITE_STEPS
        v = check_fo_derivation(rs.presentation, ctx(BASE), steps_to_derivation(t, steps))
        assert v.ok and (v.lhs, v.rhs) == (t, nf), v.error

    def test_tampered_traces_are_rejected_where_the_recursive_walk_rejects(self):
        rs = gs_rewrite_system(V2)
        g = ctx(BASE, BASE)
        seen_paths = set()
        for t in (get(put("v1", _get_put_tree(2)), x(2)), _get_put_tree(3),
                  get(get(x(1), x(1)), put("v2", get(put("v1", x(2)), x(2))))):
            pieces = [firstorder.step_to_derivation(s) for s in rewrite_normalize(rs, t)[1]]
            assert len(pieces) >= 3
            variants = [_chain(pieces)]
            for j, piece in enumerate(pieces):
                variants.append(_chain(pieces[:j] + pieces[j + 1:]))  # a step left out
                variants.append(_chain(pieces[:j] + [FoRefl(x(3))] + pieces[j + 1:]))  # ill-sorted
                variants.append(_chain(pieces[:j] + [FoSym(piece)] + pieces[j + 1:]))  # reversed
                for lemma in _lemmas(piece):  # a lemma citing a tampered proof
                    bad = FoLemma(lemma.ctx, _first_leaf_ill_sorted(lemma.proof)[0], lemma.children)
                    variants.append(_chain(pieces[:j] + [_replace(piece, lemma, bad)]
                                           + pieces[j + 1:]))
            for d in variants:
                mine = check_fo_derivation(rs.presentation, g, d)
                ref = _recursive_check(rs.presentation, g, d)
                assert (mine.ok, mine.error, mine.path) == (ref.ok, ref.error, ref.path)
                seen_paths.add(mine.path)
        # rejections at many depths of the chain, some inside a lemma's proof
        assert len(seen_paths) > 10 and any(0 in p for p in seen_paths)


def _replace(d, old, new):
    """``d`` with the node ``old`` (by identity) replaced by ``new``."""
    if d is old:
        return new
    match d:
        case FoSym(child=c):
            return FoSym(_replace(c, old, new))
        case FoCong(op=name, sort_args=sargs, children=cs):
            return FoCong(name, sargs, tuple(_replace(c, old, new) for c in cs))
    return d


def _first_leaf_ill_sorted(d, path=()):
    """``d`` with its first reflexivity leaf, in pre-order, replaced by the
    ill-sorted x9, and that leaf's path."""
    match d:
        case FoRefl():
            return FoRefl(x(9)), path
        case FoSym(child=c):
            c, leaf = _first_leaf_ill_sorted(c, path + (1,))
            return FoSym(c), leaf
        case FoTrans(left=l, right=r):
            l, leaf = _first_leaf_ill_sorted(l, path + (1,))
            return FoTrans(l, r), leaf
        case FoCong(op=name, sort_args=sargs, children=cs) | FoAxiom(
            equation=name, sort_args=sargs, children=cs
        ):
            c, leaf = _first_leaf_ill_sorted(cs[0], path + (1,))
            return type(d)(name, sargs, (c,) + cs[1:]), leaf
    raise AssertionError(d)


def _verdict(v):
    return v.ok, v.lhs, v.rhs, v.sort, v.error, v.path


class TestLemmaNode:
    """FoLemma is the substitution rule on a proved equation; the kernel
    checks its proof against the bare presentation once per presentation
    and keeps only accepted conclusions."""

    rs = gs_rewrite_system(V2)
    proofs = {schema.name: (schema, proof) for schema, proof in rs.derived}

    def lemma(self, name, children):
        schema, proof = self.proofs[name]
        return FoLemma(Context(schema.ctx), proof, children)

    def test_concludes_the_substitution_instance(self):
        g = ctx(BASE, BASE)
        for name, (schema, _) in self.proofs.items():
            us = tuple(put("v1", x(1 + i % 2)) for i in range(len(schema.ctx)))
            # child i proves put_v1(put_v1(u_i)) ~ put_v1(u_i)
            children = tuple(FoAxiom("put_put_v1_v1", (), (FoRefl(u.args[0]),)) for u in us)
            v = check_fo_derivation(self.rs.presentation, g, self.lemma(name, children))
            lefts = tuple(put("v1", u) for u in us)
            assert v.ok, v.error
            assert v.lhs == fo_subst(schema.lhs, Substitution(g, Context(schema.ctx), lefts))
            assert v.rhs == fo_subst(schema.rhs, Substitution(g, Context(schema.ctx), us))
            assert v.sort == BASE

    def test_tampered_proof_is_rejected_under_position_zero(self):
        schema, proof = self.proofs["get_select_v2"]
        bad, leaf = _first_leaf_ill_sorted(proof)
        lemma = FoLemma(Context(schema.ctx), bad, tuple(FoRefl(x(1)) for _ in schema.ctx))
        for d, at in ((lemma, ()), (FoCong("put_v1", (), (lemma,)), (1,))):
            v = check_fo_derivation(self.rs.presentation, ctx(BASE), d)
            assert not v.ok and v.path == at + (0,) + leaf and "ill-sorted" in v.error
        assert (Context(schema.ctx), bad) not in self.rs.presentation._lemmas

    def test_premise_at_the_wrong_sort_is_rejected(self):
        lemma = self.lemma("get_same", (FoRefl(x(1)),))
        v = check_fo_derivation(self.rs.presentation, ctx(BB), lemma)
        assert not v.ok and v.path == (1,)
        assert v.error == f"lemma child 1 has sort {BB}, expected {BASE}"

    def test_wrong_premise_count_is_rejected(self):
        for children in ((), (FoRefl(x(1)), FoRefl(x(1)))):
            lemma = self.lemma("get_same", children)
            v = check_fo_derivation(self.rs.presentation, ctx(BASE), lemma)
            assert not v.ok and v.path == () and "needs 1 substituted positions" in v.error

    def test_proof_that_does_not_hold_in_the_lemmas_context_is_rejected(self):
        # get_select_v1 is proved over three variables and get_same over a
        # variable of the base sort
        _, select = self.proofs["get_select_v1"]
        _, same = self.proofs["get_same"]
        for g, proof in ((ctx(BASE), select), (ctx(BB), same)):
            lemma = FoLemma(g, proof, (FoRefl(x(1)),))
            v = check_fo_derivation(self.rs.presentation, g, lemma)
            assert not v.ok and v.path[:1] == (0,) and len(v.path) > 1, v

    def test_rejected_lemma_is_rejected_again(self):
        pres = global_state_presentation(V2)
        schema, proof = self.proofs["get_same"]
        bad = FoLemma(Context(schema.ctx), _first_leaf_ill_sorted(proof)[0], (FoRefl(x(1)),))
        first = check_fo_derivation(pres, ctx(BASE), bad)
        assert not first.ok and pres._lemmas == {}
        assert _verdict(check_fo_derivation(pres, ctx(BASE), bad)) == _verdict(first)
        good = self.lemma("get_same", (FoRefl(x(1)),))
        assert check_fo_derivation(pres, ctx(BASE), good).ok and len(pres._lemmas) == 1
        assert _verdict(check_fo_derivation(pres, ctx(BASE), bad)) == _verdict(first)

    def test_decoded_proof_gets_the_systems_verdict(self):
        for name, (schema, proof) in self.proofs.items():
            g = Context(schema.ctx)
            children = tuple(FoRefl(x(1)) for _ in schema.ctx)
            for p in (proof, _first_leaf_ill_sorted(proof)[0]):
                own = FoLemma(g, p, children)
                text = json.dumps(fo_derivation_to_json(own))
                decoded = fo_derivation_from_json(json.loads(text))
                assert decoded == own and decoded.proof is not p
                for pres in (self.rs.presentation, global_state_presentation(V2)):
                    assert _verdict(check_fo_derivation(pres, ctx(BASE), decoded)) == \
                        _verdict(check_fo_derivation(pres, ctx(BASE), own)), name

    def test_a_trace_never_checks_a_systems_proof_again(self, monkeypatch):
        rs = gs_rewrite_system(V2)
        kept = dict(rs.presentation._lemmas)
        assert set(kept) == {(Context(s.ctx), p) for s, p in rs.derived}
        checkers = []
        init = firstorder._FoChecker.__init__
        monkeypatch.setattr(firstorder._FoChecker, "__init__",
                            lambda self, *a: checkers.append(a) or init(self, *a))
        t = get(get(x(1), x(1)), put("v2", get(put("v1", x(2)), x(2))))
        nf, steps = rewrite_normalize(rs, t)
        d = steps_to_derivation(t, steps)
        assert _lemmas(d)
        for copy in (d, fo_derivation_from_json(json.loads(json.dumps(fo_derivation_to_json(d))))):
            v = check_fo_derivation(rs.presentation, ctx(BASE, BASE), copy)
            assert v.ok and (v.lhs, v.rhs) == (t, nf)
        assert len(checkers) == 2 and rs.presentation._lemmas == kept

    def test_kept_lemmas_stay_out_of_eq_hash_repr_and_pickles(self):
        pres = self.rs.presentation
        fresh = global_state_presentation(V2)
        assert pres._lemmas and not fresh._lemmas
        assert pres == fresh and hash(pres) == hash(fresh) and repr(pres) == repr(fresh)
        copy = pickle.loads(pickle.dumps(pres))
        assert copy == pres and copy._lemmas == {} and copy.equation("get_put") is not None
        assert check_fo_derivation(copy, ctx(BASE), self.lemma("get_same", (FoRefl(x(1)),))).ok


class TestUntracedNormalForm:
    """RewriteEq's untraced innermost normal forms are the traced ones."""

    @pytest.mark.parametrize("name", sorted(PROPERTY_SYSTEMS))
    def test_canonical_is_traced_innermost_normal_form(self, name):
        rs = PROPERTY_SYSTEMS[name]
        eq = RewriteEq(rs)

        @settings(max_examples=200, derandomize=True, database=None, deadline=None)
        @given(fo_terms(rs.presentation))
        def agrees(t):
            nf = eq.canonical(None, ctx(BASE, BASE, BASE), BASE, t)
            assert nf == _reference_normalize(rs, t, "innermost")[0]

        agrees()

    def test_first_rule_in_firing_order_wins(self):
        # two rules with one left side: the normal form depends on rule order
        star = Sort("*")
        sig = monoid_presentation().signature
        left = FoEquationSchema("left", (), (star, star), star, mul(x(1), x(2)), x(1))
        right = FoEquationSchema("right", (), (star, star), star, mul(x(1), x(2)), x(2))
        t = mul(mul(x(1), x(2)), x(3))
        for rules, want in (((left, right), x(1)), ((right, left), x(3))):
            rs = RewriteSystem(FoPresentation("overlap", sig, rules))
            assert RewriteEq(rs).canonical(None, ctx(star, star, star), star, t) == want
            assert rewrite_normalize(rs, t)[0] == want

    def test_memo_maps_each_subterm_met_to_its_normal_form(self):
        rs = RewriteSystem(GS2)
        t = put("v1", get(put("v2", get(x(1), x(2))), put("v1", x(2))))
        memo: dict = {}
        nf = innermost_normal_form(rs, t, memo)
        assert memo[t] == (nf, len(rewrite_normalize(rs, t)[1]))
        assert nf == rewrite_normalize(rs, t)[0]
        for s, (s_nf, n) in memo.items():
            traced_nf, steps = rewrite_normalize(rs, s)
            assert (s_nf, n) == (traced_nf, len(steps))

    def test_no_memo_carries_over_between_calls(self, monkeypatch):
        # every root rewrite attempt goes through _root_step: a second equal
        # call must attempt exactly what the first did
        attempts = _count_root_steps(monkeypatch)
        clone = bool_clone()
        tru = FoOp("true", (), ())
        ite = lambda c, a, b: FoOp("ite", (BASE,), (c, a, b))
        t = ite(ite(tru, x(1), x(2)), ite(tru, tru, x(1)), x(2))
        u = ite(x(1), tru, x(2))
        assert clone.term_eq(ctx(BASE, BASE), BASE, t, u)
        first = list(attempts)
        assert first
        attempts.clear()
        assert clone.term_eq(ctx(BASE, BASE), BASE, t, u)
        assert attempts == first
        # one call's sides do share it: t against itself attempts what t alone does
        attempts.clear()
        clone.canonical(ctx(BASE, BASE), BASE, t)
        alone = list(attempts)
        attempts.clear()
        assert clone.term_eq(ctx(BASE, BASE), BASE, t, t)
        assert attempts == alone

    def test_cycling_system_reports_divergence_with_its_trace(self):
        # the untraced run gives up with an empty trace; the traced run
        # raises with every step it made
        star = Sort("*")
        sig = monoid_presentation().signature
        comm = FoEquationSchema("comm", (), (star, star), star, mul(x(1), x(2)), mul(x(2), x(1)))
        rs = RewriteSystem(FoPresentation("comm", sig, (comm,)))
        with pytest.raises(RewriteDivergence, match=r"^step ceiling exceeded while rewriting mul\(x1, x2\)$") as e:
            RewriteEq(rs).canonical(None, ctx(star, star), star, mul(x(1), x(2)))
        assert e.value.trace == []
        with pytest.raises(RewriteDivergence, match="^step ceiling exceeded") as e:
            rewrite_normalize(rs, mul(x(1), x(2)))
        assert len(e.value.trace) == firstorder.MAX_REWRITE_STEPS

    def test_memo_hits_count_the_rewrites_they_save(self):
        # p(s^k z) -> m(p(s^(k-1) z), p(s^(k-1) z)) repeats a redex, which the
        # memo rewrites once; the count must still be the traced run's length
        for n in (0, 1, 2, 3, 10, 57, 300):
            t = _term_with_steps(n)
            memo: dict = {}
            assert innermost_normal_form(DUP, t, memo) == ZERO
            assert memo[t] == (ZERO, n) == (ZERO, len(rewrite_normalize(DUP, t)[1]))

    def test_gives_up_where_the_traced_run_does(self):
        # the traced run returns after at most MAX_REWRITE_STEPS - 1 rewrites
        nat = Sort("n")
        below = _term_with_steps(firstorder.MAX_REWRITE_STEPS - 1)
        assert len(rewrite_normalize(DUP, below)[1]) == firstorder.MAX_REWRITE_STEPS - 1
        assert RewriteEq(DUP).canonical(None, ctx(), nat, below) == ZERO
        at = _term_with_steps(firstorder.MAX_REWRITE_STEPS)
        with pytest.raises(RewriteDivergence, match="^step ceiling exceeded") as e:
            RewriteEq(DUP).canonical(None, ctx(), nat, at)
        assert e.value.trace == []
        with pytest.raises(RewriteDivergence, match="^step ceiling exceeded") as e:
            rewrite_normalize(DUP, at)
        assert len(e.value.trace) == firstorder.MAX_REWRITE_STEPS

    def test_growing_term_raises_divergence_not_recursion_error(self):
        # mul(x1, unit) -> mul(mul(x1, unit), unit) deepens the term by one at
        # every step; innermost rewriting outgrows Python's recursion limit
        # long before the step ceiling, and must say so with the typed error
        star = Sort("*")
        rs = _grow_system()
        t = mul(x(1), UNIT)
        with pytest.raises(RewriteDivergence, match=r"recursion limit .* mul\(x1, unit\(\)\)") as e:
            RewriteEq(rs).canonical(None, ctx(star), star, t)
        assert e.value.trace == []
        # the traced run descends one call per level into the growing left
        # argument and rebuilds the whole term at every step; a lower limit
        # keeps the run short, and its trace holds the steps made until then
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            with pytest.raises(RewriteDivergence, match="recursion limit") as e:
                rewrite_normalize(rs, t)
        finally:
            sys.setrecursionlimit(limit)
        steps = e.value.trace
        assert 0 < len(steps) < firstorder.MAX_REWRITE_STEPS
        assert steps[0].before == t and all(a.after == b.before for a, b in zip(steps, steps[1:]))

    def test_deep_term_reports_divergence_without_recursing(self):
        # a right-nested product is normal, but deeper than the recursion
        # limit: every engine raises the typed error, whose message renders
        # the term by a loop and cuts it off at RENDER_DEPTH levels
        star = Sort("*")
        rs = RewriteSystem(monoid_presentation())
        t = x(1)
        for n in range(1199):
            t = mul(x(1), t)
            if n == 59:
                # 60 levels print as 40, whether or not the limit was reached
                cut = "mul(x1, " * firstorder.RENDER_DEPTH + "..." + ")" * firstorder.RENDER_DEPTH
                assert str(RewriteDivergence(t, [])) == f"step ceiling exceeded while rewriting {cut}"
        for run in (lambda: rewrite_normalize(rs, t),
                    lambda: rewrite_normalize(rs, t, "outermost"),
                    lambda: RewriteEq(rs).canonical(None, ctx(star), star, t)):
            with pytest.raises(RewriteDivergence, match="recursion limit") as e:
                run()
            assert str(e.value).split("while rewriting ")[1] == cut


class TestGsCanonical:
    def test_variable_expands_to_full_table(self):
        got = gs_canonical_form(V2, ctx(BASE), BASE, x(1))
        assert got == get(put("v1", x(1)), put("v2", x(1)))

    def test_collapse_example(self):
        t = get(put("v1", x(1)), put("v2", x(1)))
        assert gs_canonical_form(V2, ctx(BASE), BASE, t) == gs_canonical_form(
            V2, ctx(BASE), BASE, x(1)
        )

    def test_get_of_equal_branches_equals_plain_variable(self):
        # get(x, x) and x have the same state table; oriented rewriting
        # does not identify them but the canonical form does.
        t = get(x(1), x(1))
        assert gs_canonical_form(V2, ctx(BASE), BASE, t) == gs_canonical_form(
            V2, ctx(BASE), BASE, x(1)
        )

    def test_expansion_witnesses_check(self):
        # Every canonicalization is certified by a derivation accepted by
        # the (independent) derivation checker.
        g = ctx(BASE, BASE)
        for t in enumerate_fo_terms(GS2.signature, g, BASE, 2):
            canon, d = gs_expand_witness(V2, GS2, t)
            assert canon == gs_canonical_form(V2, g, BASE, t)
            v = check_fo_derivation(GS2, g, d)
            assert v.ok, f"witness for {t} rejected: {v.error}"
            assert v.lhs == t and v.rhs == canon

    def test_derived_chain_shapes(self):
        # Three derived equality chains: completing an atom, pushing a
        # put through an expanded argument, and an outer get absorbing the
        # puts of its expanded branches.
        g1 = ctx(BASE)
        # atom: x ~ get(put_v1(x), put_v2(x))
        canon, d = gs_expand_witness(V2, GS2, x(1))
        assert canon == get(put("v1", x(1)), put("v2", x(1)))
        assert check_fo_derivation(GS2, g1, d).ok
        # put over expanded argument: put_v1(get(x1, x2)) selects branch 1
        g2 = ctx(BASE, BASE)
        canon, d = gs_expand_witness(V2, GS2, put("v1", get(x(1), x(2))))
        assert canon == get(put("v1", x(1)), put("v1", x(1)))
        assert check_fo_derivation(GS2, g2, d).ok
        # outer get over expanded branches takes the diagonal
        canon, d = gs_expand_witness(V2, GS2, get(put("v2", x(1)), put("v1", x(2))))
        assert canon == get(put("v2", x(1)), put("v1", x(2)))
        assert check_fo_derivation(GS2, g2, d).ok

    def test_canonical_equal_pairs_are_provably_equal(self):
        # Dual route: when canonical forms agree, joining the two expansion
        # witnesses yields a full derivation of t ~ u; when they differ, the
        # state-table model certifies inequality (its soundness is checked
        # in test_table_model_validates_axioms).
        g1 = ctx(BASE)
        terms = enumerate_fo_terms(GS2.signature, g1, BASE, 2)
        equal_pairs = 0
        for t, u in itertools.combinations(terms[:24], 2):
            ct = gs_canonical_form(V2, g1, BASE, t)
            cu = gs_canonical_form(V2, g1, BASE, u)
            if ct == cu:
                equal_pairs += 1
                _, dt = gs_expand_witness(V2, GS2, t)
                _, du = gs_expand_witness(V2, GS2, u)
                joined = FoTrans(dt, FoSym(du))
                v = check_fo_derivation(GS2, g1, joined)
                assert v.ok and v.lhs == t and v.rhs == u
        assert equal_pairs > 5

    def test_table_model_validates_axioms(self):
        # The canonical-form map is sound for inequality certificates
        # because every axiom instance has equal tables; checked
        # exhaustively on instantiations of depth <= 2.
        g = ctx(BASE, BASE)
        pool = enumerate_fo_terms(GS2.signature, g, BASE, 1)
        for schema in GS2.equations:
            eq_ctx, _, lhs, rhs = schema.instantiate(())
            from clonal.clones import Substitution

            for combo in itertools.product(pool, repeat=len(eq_ctx)):
                sub = Substitution(g, eq_ctx, combo)
                li = fo_subst(lhs, sub)
                ri = fo_subst(rhs, sub)
                assert gs_canonical_form(V2, g, BASE, li) == gs_canonical_form(
                    V2, g, BASE, ri
                ), schema.name


VALUE_SETS = [("v1",), V2, ("v1", "v2", "v3")]


def _completed_corpus(values):
    rs = gs_rewrite_system(values)
    g = ctx(BASE, BASE)
    return rs, g, enumerate_fo_terms(rs.presentation.signature, g, BASE, 2, limit=600)


class TestCompletedRewrite:
    @pytest.mark.parametrize("values", VALUE_SETS)
    def test_every_certificate_is_accepted(self, values):
        rs = gs_rewrite_system(values)
        assert rs.derived
        for schema, proof in rs.derived:
            v = check_fo_derivation(rs.presentation, Context(schema.ctx), proof)
            assert v.ok, f"{schema.name}: {v.error}"
            assert (v.lhs, v.rhs) == (schema.lhs, schema.rhs)

    @pytest.mark.parametrize("values", VALUE_SETS)
    def test_innermost_and_outermost_agree(self, values):
        rs, _, terms = _completed_corpus(values)
        for t in terms:
            assert rewrite_normalize(rs, t, "innermost")[0] == \
                rewrite_normalize(rs, t, "outermost")[0], t

    @pytest.mark.parametrize("values", VALUE_SETS)
    def test_one_normal_form_per_state_table(self, values):
        rs, g, terms = _completed_corpus(values)
        normal_forms: dict = {}
        for t in terms:
            table = gs_canonical_form(values, g, BASE, t)
            normal_forms.setdefault(table, set()).add(rewrite_normalize(rs, t)[0])
        assert len(normal_forms) > 1
        assert all(len(nfs) == 1 for nfs in normal_forms.values()), normal_forms

    @pytest.mark.parametrize("values", VALUE_SETS)
    def test_traces_replay_against_the_axioms(self, values):
        rs, g, terms = _completed_corpus(values)
        for t in terms[::20]:
            nf, steps = rewrite_normalize(rs, t, "outermost")
            v = check_fo_derivation(rs.presentation, g, steps_to_derivation(t, steps))
            assert v.ok and v.lhs == t and v.rhs == nf, t

    def test_single_variable_normal_forms(self):
        rs = gs_rewrite_system(V2)
        terms = enumerate_fo_terms(GS2.signature, ctx(BASE), BASE, 3)
        got = {rewrite_normalize(rs, t)[0] for t in terms}
        assert got == {
            x(1), put("v1", x(1)), put("v2", x(1)), get(put("v2", x(1)), put("v1", x(1)))
        }

    def test_proof_of_another_equation_rejected(self):
        schema = FoEquationSchema("get_same", (), (BASE,), BASE, get(x(1), x(1)), x(1))
        with pytest.raises(CloneError):
            RewriteSystem(GS2, ((schema, FoRefl(x(1))),))
        proofs = {s.name: proof for s, proof in gs_rewrite_system(V2).derived}
        assert RewriteSystem(GS2, ((schema, proofs["get_same"]),)).rules()[-1][0] == schema


def _comm_presentation() -> FoPresentation:
    """mul(x1, x2) ~ mul(x2, x1) over the monoid's signature: read left to
    right, a rule that cycles."""
    star = Sort("*")
    comm = FoEquationSchema("comm", (), (star, star), star, mul(x(1), x(2)), mul(x(2), x(1)))
    return FoPresentation("comm", monoid_presentation().signature, (comm,))


def _mirror(t: FoTerm) -> FoTerm:
    """``t`` with the arguments of every mul swapped: provable by comm."""
    if isinstance(t, FoOp) and t.name == "mul":
        return mul(_mirror(t.args[1]), _mirror(t.args[0]))
    return t


def _drop_derived(name: str) -> RewriteSystem:
    rs = gs_rewrite_system(V2)
    return RewriteSystem(rs.presentation, tuple(r for r in rs.derived if r[0].name != name))


GS2_DERIVED = [schema.name for schema, _ in gs_rewrite_system(V2).derived]


class TestConvergence:
    """check_convergence: termination by the path order, local confluence by
    joined critical pairs, every join replayed by the kernel."""

    @pytest.mark.parametrize("rs, n_pairs", [
        (gs_rewrite_system(("v1",)), 29),
        (gs_rewrite_system(V2), 90),
        (gs_rewrite_system(("v1", "v2", "v3")), 204),
        (RewriteSystem(monoid_presentation()), 7),
    ], ids=["gs1", "gs2", "gs3", "monoid"])
    def test_convergent_systems_pass_and_every_join_replays(self, rs, n_pairs):
        verdict = check_convergence(rs)
        assert verdict.ok and verdict.reason is None and len(verdict.pairs) == n_pairs
        for p in verdict.pairs:
            v = check_fo_derivation(rs.presentation, p.ctx, p.join)
            assert v.ok and (v.lhs, v.rhs) == (p.left, p.right), (p.outer, p.inner, p.path)
            # both reducts come from the peak: by the outer rule at the root,
            # by the inner rule at the path
            assert rs.presentation.signature.sort(p.ctx, p.peak) == v.sort
        overlaps = {(p.outer, p.inner, p.path) for p in check_convergence(
            RewriteSystem(monoid_presentation())).pairs}
        assert ("assoc", "assoc", (1,)) in overlaps and ("assoc", "assoc", ()) not in overlaps

    def test_bare_state_axioms_fail_on_a_named_pair(self):
        verdict = check_convergence(RewriteSystem(GS2))
        assert not verdict.ok
        assert verdict.reason.startswith("critical pair of get_put and put_get_v1 at (1,)")
        assert "do not join" in verdict.reason

    @pytest.mark.parametrize("name", GS2_DERIVED)
    def test_dropping_one_derived_rule_fails(self, name):
        assert len(GS2_DERIVED) == 7
        verdict = check_convergence(_drop_derived(name))
        assert not verdict.ok and "do not join" in verdict.reason, verdict.reason

    def test_cycling_rule_is_refused_by_the_ordering(self):
        verdict = check_convergence(RewriteSystem(_comm_presentation()))
        assert not verdict.ok and verdict.reason == (
            "rule comm is not oriented: mul(x1, x2) -> mul(x2, x1) does not decrease "
            "in the path order"
        )

    def test_rule_that_cannot_fire_is_refused(self):
        # x2 is in the context but not on the left side: _root_step never fires it
        star = Sort("*")
        drop = FoEquationSchema("drop", (), (star, star), star, mul(x(1), UNIT), x(1))
        rs = RewriteSystem(FoPresentation("drop", monoid_presentation().signature, (drop,)))
        verdict = check_convergence(rs)
        assert not verdict.ok and "does not bind every variable" in verdict.reason

    def test_sort_parameters_are_left_unmarked(self):
        verdict = check_convergence(RewriteSystem(bool_presentation()))
        assert not verdict.ok and verdict.reason == "rule ite_true has sort parameters; not checked"
        assert bool_presentation().convergent_system is None

    def test_a_pair_past_the_step_ceiling_fails(self, monkeypatch):
        monkeypatch.setattr(firstorder, "MAX_REWRITE_STEPS", 1)
        verdict = check_convergence(RewriteSystem(monoid_presentation()))
        assert not verdict.ok and "step ceiling exceeded" in verdict.reason

    def test_verdict_is_kept_on_the_system_and_out_of_its_value(self):
        rs = gs_rewrite_system(V2)
        assert rs.convergence is rs.convergence and rs.convergence.ok
        copy = pickle.loads(pickle.dumps(rs))
        assert "convergence" not in vars(copy) and copy == rs and hash(copy) == hash(rs)
        assert "convergence" not in repr(rs)

    def test_unification(self):
        f = lambda a, b: FoOp("f", (), (a, b))
        g = lambda a: FoOp("g", (), (a,))
        s, t = f(x(1), g(x(2))), f(g(x(3)), x(1))
        mgu = unify_fo(s, t)
        assert mgu in ({1: g(x(2)), 3: x(2)}, {1: g(x(3)), 2: x(3)})
        assert firstorder._resolve(s, mgu) == firstorder._resolve(t, mgu)
        assert unify_fo(x(1), g(x(1))) is None  # occurs check
        assert unify_fo(f(x(1), x(1)), f(g(x(2)), x(2))) is None  # occurs, through a binding
        assert unify_fo(g(x(1)), f(x(1), x(1))) is None  # operator clash
        assert unify_fo(FoOp("g", (BASE,), (x(1),)), FoOp("g", (BB,), (x(1),))) is None
        assert unify_fo(f(x(1), x(2)), f(x(1), x(2))) == {}

    def test_path_order(self):
        star_terms = [mul(mul(x(1), x(2)), x(3)), mul(x(1), mul(x(2), x(3))), mul(UNIT, x(1)), x(1)]
        assert lpo_greater(star_terms[0], star_terms[1])
        assert not lpo_greater(star_terms[1], star_terms[0])
        assert lpo_greater(star_terms[2], x(1)) and not lpo_greater(x(1), star_terms[2])
        assert not lpo_greater(mul(x(1), UNIT), x(2))  # x2 is not a variable of the left side
        assert not lpo_greater(star_terms[0], star_terms[0])
        assert not lpo_greater(UNIT, mul(UNIT, UNIT)) and not lpo_greater(get(x(1)), put("v1", x(1)))


class TestSearch:
    def test_monoid_assoc_is_one_axiom_step(self):
        pres = monoid_presentation()
        star = Sort("*")
        g = ctx(star, star, star)
        mul = lambda a, b: FoOp("mul", (), (a, b))
        lhs = mul(mul(x(1), x(2)), x(3))
        rhs = mul(x(1), mul(x(2), x(3)))
        d = prove_fo_equal(pres, g, lhs, rhs, max_nodes=1)
        assert d is not None
        assert check_fo_derivation(pres, g, d).ok

    def test_derived_state_equality_found(self):
        g1 = ctx(BASE)
        d = prove_fo_equal(GS2, g1, get(x(1), x(1)), x(1), max_nodes=800)
        assert d is not None
        v = check_fo_derivation(GS2, g1, d)
        assert v.ok and v.lhs == get(x(1), x(1)) and v.rhs == x(1)

    def test_unknown_on_unequal_terms(self):
        g1 = ctx(BASE)
        assert prove_fo_equal(GS2, g1, put("v1", x(1)), put("v2", x(1)), max_nodes=300) is None

    # Pinned derivations: a change that only makes the search faster must
    # return exactly these proofs.

    def test_pinned_state_derivation(self):
        x1 = x(1)
        d = prove_fo_equal(GS2, ctx(BASE), get(x1, x1), x1, max_nodes=800)
        assert d == FoTrans(
            FoSym(axiom("get_put", get(x1, x1))),
            FoSym(FoTrans(
                FoTrans(
                    FoSym(axiom("get_put", x1)),
                    FoCong("get", (), (FoSym(axiom("put_get_v1", x1, x1)), FoRefl(put("v2", x1)))),
                ),
                FoCong("get", (), (
                    FoRefl(put("v1", get(x1, x1))), FoSym(axiom("put_get_v2", x1, x1)),
                )),
            )),
        )

    def test_pinned_monoid_derivation(self):
        star = Sort("*")
        lhs = mul(mul(UNIT, x(1)), mul(x(2), UNIT))
        d = prove_fo_equal(monoid_presentation(), ctx(star, star), lhs, mul(x(1), x(2)), 200)
        assert d == FoTrans(
            FoCong("mul", (), (FoRefl(mul(UNIT, x(1))), axiom("unit_right", x(2)))),
            FoSym(FoCong("mul", (), (FoSym(axiom("unit_left", x(1))), FoRefl(x(2))))),
        )

    def test_no_memo_carries_over_between_searches(self):
        # x2 is in pair B's instantiation pool only: moves memoized in B's
        # search would carry it into pair A's and cost A its proof
        g1 = ctx(BASE)
        pair_a = (GS2, g1, x(1), get(put("v1", x(1)), x(1)), 60)
        pair_b = (GS2, ctx(BASE, BASE), x(1), x(2), 60)
        assert prove_fo_equal(*pair_b) is None
        first = prove_fo_equal(*pair_a)
        v = check_fo_derivation(GS2, g1, first)
        assert v.ok and (v.lhs, v.rhs) == pair_a[2:4]
        assert prove_fo_equal(*pair_b) is None
        assert prove_fo_equal(*pair_a) == first

    def test_corpus_proofs_are_pinned(self):
        # Every GS2 term of at most 4 nodes over two variables against its
        # state-table canonical form, every monoid term of at most 5 nodes
        # against its normal form, and 8 GS2 and 9 monoid pairs of terms
        # drawn at a stride.  The digest pins the exact proofs, and which
        # pairs give None.
        g, m = ctx(BASE, BASE), ctx(Sort("*"), Sort("*"))
        mon = monoid_presentation()
        gs = enumerate_fo_terms_by_size(GS2.signature, g, BASE, 4)
        ms = enumerate_fo_terms_by_size(mon.signature, m, Sort("*"), 5)
        rs = RewriteSystem(mon)
        pairs = [(GS2, g, t, gs_canonical_form(V2, g, BASE, t)) for t in gs]
        pairs += [(GS2, g, a, b) for a, b in zip(gs[::7], gs[3::7])]
        pairs += [(mon, m, t, rewrite_normalize(rs, t)[0]) for t in ms]
        pairs += [(mon, m, a, b) for a, b in zip(ms[::7], ms[3::7])]
        results = [prove_fo_equal(p, c, t, u, max_nodes=120) for p, c, t, u in pairs]
        assert len(pairs) == 141 and sum(r is None for r in results) == 20
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == "19e37b2c0fd3b0928e867e5f6bea5fab4ea2e65e1ae4b5d1e245a804bf598180"


class TestSortParametricSearch:
    """Search over bool_presentation, whose ite family has a sort parameter,
    with instances at b and b => b."""

    G = ctx(BB, BB, BASE)
    SORTS = [BASE, BB]

    @staticmethod
    def ite(sort, c, a, b):
        return FoOp("ite", (sort,), (c, a, b))

    def test_function_sort_instance_found(self):
        pres = bool_presentation()
        t = self.ite(BB, TRUE, x(1), x(2))
        d = prove_fo_equal(pres, self.G, t, x(1), instance_sorts=self.SORTS)
        assert d is not None
        v = check_fo_derivation(pres, self.G, d)
        assert v.ok and (v.lhs, v.rhs, v.sort) == (t, x(1), BB)

    def test_instances_at_different_sorts_are_not_conflated(self):
        # only ite[b] equations are instantiated, so ite[b => b](true, x1, x2)
        # has no redex: a match keyed on the name alone would prove it ~ x1
        pres = bool_presentation()
        t = self.ite(BB, TRUE, x(1), x(2))
        assert prove_fo_equal(pres, self.G, t, x(1), 200, instance_sorts=[BASE]) is None

    def test_pinned_sort_parametric_derivation(self):
        pres = bool_presentation()
        t = self.ite(BB, self.ite(BASE, TRUE, FALSE, x(3)), x(1), x(2))
        d = prove_fo_equal(pres, self.G, t, x(2), 400, instance_sorts=self.SORTS)
        assert d == FoTrans(
            FoCong("ite", (BB,), (
                FoAxiom("ite_true", (BASE,), (FoRefl(FALSE), FoRefl(x(3)))),
                FoRefl(x(1)),
                FoRefl(x(2)),
            )),
            FoSym(FoSym(FoAxiom("ite_false", (BB,), (FoRefl(x(1)), FoRefl(x(2)))))),
        )
        assert check_fo_derivation(pres, self.G, d).ok


class TestDecision:
    """prove_fo_equal refuses a pair at once when the presentation's
    convergent system gives its sides distinct normal forms, and searches
    as before otherwise."""

    @staticmethod
    def _count_searches(monkeypatch) -> list:
        calls = []
        best_first = firstorder._best_first

        def counted(*args):
            calls.append(args[0])
            return best_first(*args)

        monkeypatch.setattr(firstorder, "_best_first", counted)
        return calls

    def test_candidates(self):
        assert GS2.convergent_system is theories.global_state(V2).rewrite_system
        mon = monoid_presentation()
        rs = mon.convergent_system
        # the oriented axioms, on a copy of the presentation, which it does not point back at
        assert rs.presentation == mon and rs.presentation is not mon and not rs.derived
        assert _comm_presentation().convergent_system is None
        renamed = global_state_presentation(V2)
        object.__setattr__(renamed, "name", "renamed")
        # operators and equations are compared, not names
        assert renamed.convergent_system is theories.global_state(V2).rewrite_system

    def test_unbuildable_candidate_is_skipped(self):
        star = Sort("*")
        expand = FoEquationSchema("expand", (), (star,), star, x(1), mul(x(1), UNIT))
        pres = FoPresentation("expand", monoid_presentation().signature, (expand,))
        with pytest.raises(CloneError, match="bare variable"):
            RewriteSystem(pres)
        assert pres.convergent_system is None
        d = prove_fo_equal(pres, ctx(star), x(1), mul(x(1), UNIT), max_nodes=5)
        assert check_fo_derivation(pres, ctx(star), d).ok

    def test_distinct_normal_forms_pop_no_frontier(self, monkeypatch):
        GS2.convergent_system  # built before counting
        searches = self._count_searches(monkeypatch)
        assert prove_fo_equal(GS2, ctx(BASE), put("v1", x(1)), put("v2", x(1)),
                              max_nodes=10**6) is None
        assert searches == []
        # equal normal forms search as before
        assert prove_fo_equal(GS2, ctx(BASE), get(x(1), x(1)), x(1), max_nodes=800) is not None
        assert len(searches) == 1

    def test_a_bundle_base_under_its_own_name_is_decided(self, monkeypatch):
        # the shipped bundle names its base state2, not global_state_2
        from clonal.cli import bundled_source
        from clonal.surface import parse_bundle

        base = parse_bundle(bundled_source("gs")).base
        assert base.name != GS2.name
        assert base.convergent_system is theories.global_state(V2).rewrite_system
        searches = self._count_searches(monkeypatch)
        assert prove_fo_equal(base, ctx(BASE), put("v1", x(1)), put("v2", x(1))) is None
        assert searches == []

    def test_divergence_falls_back_to_the_search(self, monkeypatch):
        star = Sort("*")
        mon = monoid_presentation()
        mon.convergent_system  # checked before the ceiling is lowered
        monkeypatch.setattr(firstorder, "MAX_REWRITE_STEPS", 1)
        searches = self._count_searches(monkeypatch)
        g = ctx(star, star, star)
        assert prove_fo_equal(mon, g, mul(mul(x(1), x(2)), x(3)), mul(x(2), x(1)), 40) is None
        assert len(searches) == 1

    def test_a_system_that_is_not_convergent_gives_the_search_answers(self):
        # comm cycles, so it has no decider: these are the answers, proofs
        # and Nones, that the search gave before there was a decision
        star = Sort("*")
        comm = _comm_presentation()
        g = ctx(star, star)
        ms = enumerate_fo_terms_by_size(comm.signature, g, star, 5)
        pairs = [(t, _mirror(t)) for t in ms] + list(zip(ms[::5], ms[2::5]))
        results = [prove_fo_equal(comm, g, a, b, max_nodes=60) for a, b in pairs]
        assert len(pairs) == 79 and sum(r is None for r in results) == 12
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == "20f49258042df6a58dd64fe7361dbcaefdbb6f3a28dfdf2af3ed78f300f9fbb1"


# --------------------------------------------------------------------------
# Presented clones
# --------------------------------------------------------------------------


class TestTmClone:
    def test_free_clone_is_structural(self):
        sig_only = global_state_presentation(V2)
        free = tm_clone(
            type(sig_only)(sig_only.name, sig_only.signature, ())
        )
        assert isinstance(free.strategy, StructuralEq)
        assert free.term_eq(ctx(BASE), BASE, x(1), x(1))
        assert not free.term_eq(ctx(BASE), BASE, get(x(1), x(1)), x(1))

    def test_structural_strategy_rejected_with_equations(self):
        with pytest.raises(CloneError):
            TmClone(GS2, StructuralEq())

    def test_foreign_rewrite_system_rejected(self):
        other = global_state_presentation(V2)
        with pytest.raises(CloneError):
            TmClone(GS2, RewriteEq(RewriteSystem(other)))

    def test_gs_equality_via_canonical_form(self):
        gs = gs_clone(V2)
        t = get(put("v1", x(1)), put("v2", x(1)))
        assert gs.term_eq(ctx(BASE), BASE, t, x(1))

    def test_monoid_search_clone(self):
        mon = TmClone(monoid_presentation(), SearchEq(50))
        star = Sort("*")
        g = ctx(star, star, star)
        mul = lambda a, b: FoOp("mul", (), (a, b))
        assert mon.term_eq(g, star, mul(mul(x(1), x(2)), x(3)), mul(x(1), mul(x(2), x(3))))

    def test_gs_clone_laws(self):
        gs = gs_clone(V2)
        report = check_clone_laws(
            gs,
            Budget(max_context_len=2, max_depth=2, max_sort_height=0,
                   max_terms=10, max_tuples=8),
            subject="Tm_GS2",
        )
        assert report.ok, report.summary()

    def test_bool_clone_laws(self):
        report = check_clone_laws(
            bool_clone(),
            Budget(max_context_len=2, max_depth=2, max_sort_height=0,
                   max_terms=10, max_tuples=8),
            subject="Tm_Bool",
        )
        assert report.ok, report.summary()


class TestStockPresentations:
    def test_gs_operator_and_equation_counts(self):
        # |V| = 2: get + 2 puts; 1 + k + k^2 = 7 equations.
        assert len(GS2.signature.operators) == 3
        assert len(GS2.equations) == 7
        GS2.check_well_formed()

    def test_gs_single_value(self):
        pres = global_state_presentation(("v1",))
        get_ctx, _ = pres.signature.arity("get", ())
        assert len(get_ctx) == 1
        eq_ctx, _, lhs, rhs = pres.equation("get_put").instantiate(())
        assert lhs == FoOp("get", (), (put("v1", x(1)),))
        assert rhs == x(1)

    def test_empty_values_rejected(self):
        with pytest.raises(CloneError):
            global_state_presentation(())

    def test_bool_equations(self):
        pres = bool_presentation()
        pres.check_well_formed([BASE, BB])
        _, _, lhs, rhs = pres.equation("ite_true").instantiate((BB,))
        assert lhs == FoOp("ite", (BB,), (FoOp("true", (), ()), x(1), x(2)))
        assert rhs == x(1)

    def test_monoid_well_formed(self):
        monoid_presentation().check_well_formed()
