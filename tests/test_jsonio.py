"""JSON round-trips: serialized terms and derivations replay bit-exactly."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_freealgebra import normalization_cases

from clonal.equality import normalize_with_trace
from clonal.firstorder import (
    FoAxiom,
    FoCong,
    FoLemma,
    FoOp,
    FoRefl,
    FoSym,
    FoTrans,
    FoVar,
    RewriteSystem,
    global_state_presentation,
    gs_rewrite_system,
    rewrite_normalize,
    steps_to_derivation,
)
from clonal.freealgebra import (
    CloneApp,
    FAxiom,
    FCongClone,
    FCongOp,
    FRefl,
    FreeOp,
    FreeVar,
    FSubstLaw,
    FSym,
    FTrans,
    FVarLaw,
    check_free_derivation,
    enumerate_free_terms,
)
from clonal.jsonio import (
    JsonError,
    context_from_json,
    context_to_json,
    document,
    fo_derivation_from_json,
    fo_derivation_to_json,
    fo_term_from_json,
    fo_term_to_json,
    free_derivation_from_json,
    free_derivation_to_json,
    free_term_from_json,
    free_term_to_json,
    load_document,
)
from clonal.sorts import Context, Sort, arrow
from clonal.stlc import stlc_bool, stlc_gs

B = Sort("b")


def test_fo_term_roundtrip():
    t = FoOp("get", (), (FoOp("put_v1", (), (FoVar(1),)), FoVar(2)))
    assert fo_term_from_json(fo_term_to_json(t)) == t


def test_fo_derivation_roundtrip_all_node_kinds():
    x = FoVar(1)
    d = FoTrans(
        FoSym(FoRefl(x)),
        FoCong("put_v1", (), (FoAxiom("get_put", (), (FoRefl(x),)),)),
    )
    data = fo_derivation_to_json(d)
    assert fo_derivation_from_json(data) == d
    # serialization is deterministic
    assert json.dumps(data) == json.dumps(fo_derivation_to_json(d))


def test_fo_rewrite_trace_replays_after_roundtrip():
    from clonal.firstorder import check_fo_derivation

    pres = global_state_presentation(("v1", "v2"))
    t = FoOp("put_v1", (), (FoOp("put_v2", (), (FoOp("get", (), (FoVar(1), FoVar(1))),)),))
    # the completed system rewrites get(x1, x1) by a derived rule, whose
    # spliced-in proof must survive the round trip too
    for rs, derived in ((RewriteSystem(pres), False), (gs_rewrite_system(("v1", "v2")), True)):
        nf, steps = rewrite_normalize(rs, t)
        assert any(s.derived is not None for s in steps) == derived
        d = steps_to_derivation(t, steps)
        restored = fo_derivation_from_json(fo_derivation_to_json(d))
        assert restored == d
        v = check_fo_derivation(pres, Context((B,)), restored)
        assert v.ok and v.lhs == t and v.rhs == nf


def test_free_term_roundtrip_over_both_bases():
    for free in (stlc_bool(), stlc_gs(("v1", "v2"))):
        ctx = Context((B,))
        for t in enumerate_free_terms(free, ctx, B, max_size=4)[:60]:
            assert free_term_from_json(free_term_to_json(t)) == t


def test_free_term_roundtrip_variable_base_elements():
    from clonal.stlc import pure_stlc

    free = pure_stlc()
    ctx = Context((B,))
    t = CloneApp(1, ctx, B, (free.var(ctx, 1),))
    assert free_term_from_json(free_term_to_json(t)) == t


def test_free_derivation_roundtrip_and_replay():
    free = stlc_gs(("v1", "v2"))
    ctx = Context((B,))
    for t in enumerate_free_terms(free, ctx, B, max_size=3)[:25]:
        _, deriv = normalize_with_trace(free, ctx, B, t)
        data = free_derivation_to_json(deriv)
        restored = free_derivation_from_json(data)
        assert restored == deriv
        assert check_free_derivation(free, ctx, restored).ok
        assert json.dumps(data) == json.dumps(free_derivation_to_json(deriv))


def test_document_wrapper_versioning():
    doc = document("normal-form", {"x": 1}, bundle="stlc")
    assert doc["schema_version"] == 1
    assert load_document(doc, "normal-form") == {"x": 1}
    bad = dict(doc, schema_version=99)
    with pytest.raises(JsonError):
        load_document(bad)


# --------------------------------------------------------------------------
# Reference oracle: the recursive encoder the table-driven codec replaced,
# which writes a fresh JSON object for every occurrence of a value.
# --------------------------------------------------------------------------


def _ref_sort(s):
    if not s.args:
        return {"base": s.former}
    return {"former": s.former, "args": [_ref_sort(a) for a in s.args]}


def _ref_context(c):
    return [_ref_sort(s) for s in c]


def _ref_element(e):
    return {"kind": "index", "value": e} if isinstance(e, int) else _ref_term(e)


def _ref_term(t):
    match t:
        case FoVar(index=i) | FreeVar(index=i):
            return {"kind": "var", "index": i}
        case FoOp(name=name, sort_args=sargs, args=args):
            return {"kind": "op", "name": name, "sort_args": [_ref_sort(s) for s in sargs],
                    "args": [_ref_term(a) for a in args]}
        case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
            return {"kind": "element", "element": _ref_element(e), "arity_ctx": _ref_context(actx),
                    "arity_sort": _ref_sort(asort), "args": [_ref_term(a) for a in args]}
        case FreeOp(name=name, sort_args=sargs, args=args):
            return {"kind": "op", "name": name, "sort_args": [_ref_sort(s) for s in sargs],
                    "args": [{"binds": _ref_context(b), "body": _ref_term(body)} for b, body in args]}
    raise AssertionError(t)


def _ref_derivation(d):
    match d:
        case FoRefl(term=t) | FRefl(term=t):
            return {"rule": "refl", "term": _ref_term(t)}
        case FoSym(child=c) | FSym(child=c):
            return {"rule": "sym", "children": [_ref_derivation(c)]}
        case FoTrans(left=l, right=r) | FTrans(left=l, right=r):
            return {"rule": "trans", "children": [_ref_derivation(l), _ref_derivation(r)]}
        case FoCong(op=name, sort_args=sargs, children=cs):
            return {"rule": "cong", "op": name, "sort_args": [_ref_sort(s) for s in sargs],
                    "children": [_ref_derivation(c) for c in cs]}
        case FoAxiom(equation=eq, sort_args=sargs, children=cs) | FAxiom(
            equation=eq, sort_args=sargs, children=cs
        ):
            return {"rule": "axiom", "equation": eq, "sort_args": [_ref_sort(s) for s in sargs],
                    "children": [_ref_derivation(c) for c in cs]}
        case FoLemma(ctx=g, proof=proof, children=cs):
            return {"rule": "lemma", "context": _ref_context(g), "proof": _ref_derivation(proof),
                    "children": [_ref_derivation(c) for c in cs]}
        case FCongClone(element=e, arity_ctx=actx, arity_sort=asort, children=cs):
            return {"rule": "cong_element", "element": _ref_element(e),
                    "arity_ctx": _ref_context(actx), "arity_sort": _ref_sort(asort),
                    "children": [_ref_derivation(c) for c in cs]}
        case FCongOp(name=name, sort_args=sargs, children=cs):
            return {"rule": "cong_op", "op": name, "sort_args": [_ref_sort(s) for s in sargs],
                    "children": [_ref_derivation(c) for c in cs]}
        case FVarLaw(index=i, arg_ctx=actx, args=args):
            return {"rule": "var_collapse", "index": i, "arg_ctx": _ref_context(actx),
                    "args": [_ref_term(a) for a in args]}
        case FSubstLaw(element=e, element_ctx=ectx, element_sort=esort, subst_components=comps,
                       arg_ctx=actx, args=args):
            return {"rule": "subst_collapse", "element": _ref_element(e),
                    "element_ctx": _ref_context(ectx), "element_sort": _ref_sort(esort),
                    "components": [_ref_element(c) for c in comps],
                    "arg_ctx": _ref_context(actx), "args": [_ref_term(a) for a in args]}
    raise AssertionError(d)


GS_TERMS = enumerate_free_terms(stlc_gs(("v1", "v2")), Context((B,)), B, max_size=5)


def _witness_roundtrip(free, c, s, t):
    _, deriv = normalize_with_trace(free, c, s, t)
    data = free_derivation_to_json(deriv)
    text = json.dumps(data)
    assert text == json.dumps(_ref_derivation(deriv))
    assert free_derivation_from_json(json.loads(text)) == deriv
    assert context_from_json(json.loads(json.dumps(context_to_json(c)))) == c


class TestCodecProperties:
    """Witnesses of ``normalize_with_trace`` survive the round trip, and the
    codec writes the reference encoder's bytes."""

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(normalization_cases())
    def test_boolean_witnesses(self, case):
        _witness_roundtrip(stlc_bool(), *case)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(GS_TERMS))
    def test_state_witnesses(self, t):
        _witness_roundtrip(stlc_gs(("v1", "v2")), Context((B,)), B, t)

    def test_distinct_sorts_of_one_former_stay_apart(self):
        bb = arrow(B, B)
        c = Context((bb, arrow(bb, B), arrow(B, bb), bb))
        assert json.dumps(context_to_json(c)) == json.dumps(_ref_context(c))
        assert context_from_json(json.loads(json.dumps(context_to_json(c)))) == c

    def test_first_order_trace_bytes(self):
        t = FoOp("put_v1", (), (FoOp("get", (), (FoVar(1), FoVar(1))),))
        d = steps_to_derivation(t, rewrite_normalize(gs_rewrite_system(("v1", "v2")), t)[1])
        assert json.dumps(fo_derivation_to_json(d)) == json.dumps(_ref_derivation(d))

    def test_equal_values_share_one_object(self):
        # one call writes each distinct sort, context and term once, and
        # reads each distinct one back as one object
        t = FoOp("get", (), (FoVar(1), FoVar(1)))
        d = FoTrans(FoRefl(t), FoRefl(t))
        left, right = (c["term"] for c in fo_derivation_to_json(d)["children"])
        assert left is right and left["args"][0] is left["args"][1]
        back = fo_derivation_from_json(json.loads(json.dumps(fo_derivation_to_json(d))))
        assert back.left.term is back.right.term
        ctx = context_from_json(json.loads(json.dumps([context_to_json(Context((B, B)))] * 2))[0])
        assert ctx.entries[0] is ctx.entries[1]


    def test_lemma_proofs_are_written_once_and_read_back_as_one(self):
        # get(x1, x1) and get(x2, x2) both fire get_same
        t = FoOp("get", (), (FoOp("get", (), (FoVar(1), FoVar(1))),
                             FoOp("get", (), (FoVar(2), FoVar(2)))))
        d = steps_to_derivation(t, rewrite_normalize(gs_rewrite_system(("v1", "v2")), t)[1])
        data = fo_derivation_to_json(d)
        lemmas = [n for n in _json_nodes(data) if n["rule"] == "lemma"]
        assert len(lemmas) == 2 and lemmas[0]["proof"] is lemmas[1]["proof"]
        assert json.dumps(data) == json.dumps(_ref_derivation(d))
        back = fo_derivation_from_json(json.loads(json.dumps(data)))
        assert back == d
        first, second = back.left.children[0], back.right.children[1]
        assert isinstance(first, FoLemma) and first.proof is second.proof


def _json_nodes(data):
    """Every derivation node of a JSON derivation outside lemma proofs, in
    pre-order."""
    yield data
    for c in data.get("children", ()):
        yield from _json_nodes(c)


@pytest.mark.parametrize("read, data, message", [
    (fo_derivation_from_json, {"rule": "refl"}, "missing field 'term'"),
    (free_term_from_json, {"kind": "var"}, "missing field 'index'"),
    (free_term_from_json, {"index": 1}, "missing field 'kind'"),
    (free_term_from_json, {"kind": "lambda"}, "unknown term kind 'lambda'"),
    (free_derivation_from_json, {"rule": "cut"}, "unknown rule 'cut'"),
    (free_derivation_from_json, {"rule": "trans", "children": []}, "malformed JSON value"),
    (fo_term_from_json, [], "malformed JSON value"),
    (context_from_json, [{"former": "=>"}], "missing field 'args'"),
    (free_term_from_json, {"kind": "var", "index": "a"}, "field 'index' is not an integer"),
    (free_term_from_json, {"kind": "var", "index": True}, "field 'index' is not an integer"),
])
def test_malformed_input_raises_json_error(read, data, message):
    with pytest.raises(JsonError, match=message):
        read(data)
