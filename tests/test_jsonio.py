"""JSON round-trips: serialized terms and derivations replay bit-exactly."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_firstorder import _get_put_tree
from test_freealgebra import deep_beta_chain, normalization_cases

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
    check_fo_derivation,
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
    SCHEMA_VERSION,
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
    assert doc["schema_version"] == SCHEMA_VERSION == 2
    assert load_document(doc, "normal-form") == {"x": 1}
    # a version 1 document goes through the same reader
    assert load_document(dict(doc, schema_version=1), "normal-form") == {"x": 1}
    bad = dict(doc, schema_version=99)
    with pytest.raises(JsonError):
        load_document(bad)
    with pytest.raises(JsonError, match="expected a 'free-derivation' document, got 'normal-form'"):
        load_document(doc, "free-derivation")
    with pytest.raises(JsonError, match="missing field 'payload'"):
        load_document({"schema_version": 2, "kind": "normal-form"})


@pytest.mark.parametrize("write, value, message", [
    (free_term_to_json, FoVar(1), "not a free term: FoVar"),
    (fo_derivation_to_json, FRefl(FreeVar(1)), "not a derivation node: FRefl"),
    (free_derivation_to_json, FTrans(FRefl(FreeVar(1)), "x"), "not a derivation node: 'x'"),
])
def test_a_value_of_another_family_is_not_written(write, value, message):
    with pytest.raises(JsonError, match=message):
        write(value)


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


def _as_version_1(data, table=()):
    """The version 1 value a version 2 value stands for: each ref replaced by
    the entry it names, each ``shared`` node by its body, and each n-ary
    ``trans`` node by the left-nested chain of binary ones."""
    if isinstance(data, list):
        return [_as_version_1(x, table) for x in data]
    if not isinstance(data, dict):
        return data
    if list(data) == ["ref"]:
        return _as_version_1(table[data["ref"]], table)
    if data.get("rule") == "shared":
        return _as_version_1(data["body"], data["table"])
    out = {k: _as_version_1(v, table) for k, v in data.items()}
    if out.get("rule") == "trans":
        out, *rest = out["children"]
        for c in rest:
            out = {"rule": "trans", "children": [out, c]}
    return out


GS_TERMS = enumerate_free_terms(stlc_gs(("v1", "v2")), Context((B,)), B, max_size=5)


def _witness_roundtrip(free, c, s, t):
    _, deriv = normalize_with_trace(free, c, s, t)
    data = free_derivation_to_json(deriv)
    text = json.dumps(data)
    reference = json.dumps(_ref_derivation(deriv))
    assert json.dumps(_as_version_1(json.loads(text))) == reference
    assert free_derivation_from_json(json.loads(text)) == deriv
    # the version 1 value of the reference encoder reads back the same
    assert free_derivation_from_json(json.loads(reference)) == deriv
    assert context_from_json(json.loads(json.dumps(context_to_json(c)))) == c


class TestCodecProperties:
    """Witnesses of ``normalize_with_trace`` survive the round trip; the
    codec's value stands for the reference encoder's version 1 bytes, and
    those bytes read back as the same witness."""

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
        data = fo_derivation_to_json(d)
        assert json.dumps(_as_version_1(data)) == json.dumps(_ref_derivation(d))
        assert fo_derivation_from_json(json.loads(json.dumps(_ref_derivation(d)))) == d

    def test_equal_values_share_one_object(self):
        # one call writes each distinct term once, in the table when it
        # occurs twice, and reads each entry back as one object
        t = FoOp("get", (), (FoVar(1), FoVar(1)))
        d = FoTrans(FoRefl(t), FoRefl(t))
        data = fo_derivation_to_json(d)
        assert data["rule"] == "shared" and list(data) == ["rule", "table", "body"]
        left, right = (c["term"] for c in data["body"]["children"])
        assert left is right and list(left) == ["ref"]
        term = data["table"][left["ref"]]
        assert term["kind"] == "op" and term["args"][0] is term["args"][1]
        assert data["table"][term["args"][0]["ref"]] == {"kind": "var", "index": 1}
        assert len(data["table"]) == 2
        back = fo_derivation_from_json(json.loads(json.dumps(data)))
        assert back.left.term is back.right.term and back.left.term.args[0] is back.left.term.args[1]
        ctx = context_from_json(json.loads(json.dumps([context_to_json(Context((B, B)))] * 2))[0])
        assert ctx.entries[0] is ctx.entries[1]

    def test_values_that_do_not_repeat_are_written_in_version_1_shape(self):
        # no table, and a chain of two links is the version 1 node
        d = FoTrans(FoRefl(FoVar(1)), FoSym(FoRefl(FoVar(2))))
        for data in (fo_derivation_to_json(d), fo_term_to_json(FoOp("get", (), (FoVar(1),) * 2))):
            assert "shared" not in json.dumps(data) and '"ref"' not in json.dumps(data)
        assert json.dumps(fo_derivation_to_json(d)) == json.dumps(_ref_derivation(d))

    def test_a_left_nested_chain_is_one_trans_node(self):
        links = [FoRefl(FoVar(i)) for i in range(1, 6)]
        d = links[0]
        for link in links[1:]:
            d = FoTrans(d, link)
        right_nested = FoTrans(links[0], FoTrans(links[1], links[2]))
        data = fo_derivation_to_json(d)
        assert data["rule"] == "trans" and len(data["children"]) == 5
        inner = fo_derivation_to_json(right_nested)["children"][1]
        assert inner["rule"] == "trans" and len(inner["children"]) == 2
        for x in (d, right_nested):
            assert fo_derivation_from_json(json.loads(json.dumps(fo_derivation_to_json(x)))) == x


    def test_lemma_proofs_are_written_once_and_read_back_as_one(self):
        # get(x1, x1) and get(x2, x2) both fire get_same
        t = FoOp("get", (), (FoOp("get", (), (FoVar(1), FoVar(1))),
                             FoOp("get", (), (FoVar(2), FoVar(2)))))
        d = steps_to_derivation(t, rewrite_normalize(gs_rewrite_system(("v1", "v2")), t)[1])
        data = fo_derivation_to_json(d)
        lemmas = [n for n in _json_nodes(data["body"]) if n["rule"] == "lemma"]
        assert len(lemmas) == 2 and lemmas[0]["proof"] is lemmas[1]["proof"]
        assert data["table"][lemmas[0]["proof"]["ref"]]["rule"] == "trans"
        assert json.dumps(_as_version_1(data)) == json.dumps(_ref_derivation(d))
        back = fo_derivation_from_json(json.loads(json.dumps(data)))
        assert back == d
        first, second = back.left.children[0], back.right.children[1]
        assert isinstance(first, FoLemma) and first.proof is second.proof


def _json_nodes(data):
    """Every derivation node of a JSON derivation outside lemma proofs and
    tables, in pre-order."""
    yield data
    for c in data.get("children", ()):
        yield from _json_nodes(c)


X1 = {"kind": "var", "index": 1}
# free derivations with a fault in a ref, its table or a chain, each with the
# message it is rejected with
MALFORMED_REFS = [
    ({"rule": "shared", "table": [{"rule": "refl", "term": X1}], "body": {"ref": 1}},
     r"ref 1 is out of range of a table of 1 entries"),
    ({"rule": "shared", "table": [{"rule": "refl", "term": X1}], "body": {"ref": -1}},
     "ref -1 is out of range"),
    ({"rule": "shared", "table": [{"rule": "refl", "term": X1}], "body": {"ref": "0"}},
     "field 'ref' is not an integer"),
    ({"rule": "shared", "table": [{"rule": "refl", "term": X1}], "body": {"ref": True}},
     "field 'ref' is not an integer"),
    ({"rule": "shared", "table": [{"rule": "sym", "children": [{"ref": 1}]},
                                  {"rule": "sym", "children": [{"ref": 0}]}], "body": {"ref": 0}},
     "ref 0 is part of a cycle of refs"),
    ({"rule": "shared", "body": {"rule": "refl", "term": {"ref": 0}}, "table": [
        {"kind": "op", "name": "abs", "sort_args": [], "args": [{"binds": [], "body": {"ref": 0}}]}
    ]}, "ref 0 is part of a cycle of refs"),
    ({"rule": "shared", "table": [X1], "body": {"rule": "trans", "children": [
        {"ref": 0}, {"rule": "refl", "term": {"ref": 0}}]}},
     "ref 0 stands at two kinds of position"),
    ({"rule": "trans", "children": [{"rule": "refl", "term": X1}]},
     "malformed JSON value: a trans node needs two or more children, not 1"),
]


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
    *[(free_derivation_from_json, data, message) for data, message in MALFORMED_REFS],
    (free_term_from_json, {"ref": 0}, r"ref 0 is out of range of a table of 0 entries"),
    (free_derivation_from_json, {"rule": "shared", "table": {}, "body": {}},
     "field 'table' is not a list"),
    (free_derivation_from_json, {"rule": "shared", "table": []}, "missing field 'body'"),
])
def test_malformed_input_raises_json_error(read, data, message):
    with pytest.raises(JsonError, match=message):
        read(data)


def test_a_ref_resolves_in_the_nearest_enclosing_table():
    # the outer entry 0 is read first, and the inner body's ref 0 still
    # names the inner table's entry
    inner = {"rule": "shared", "table": [{"rule": "refl", "term": {"kind": "var", "index": 2}}],
             "body": {"ref": 0}}
    data = {"rule": "shared", "table": [{"rule": "refl", "term": X1}],
            "body": {"rule": "trans", "children": [inner, {"ref": 0}]}}
    assert free_derivation_from_json(data) == FTrans(FRefl(FreeVar(2)), FRefl(FreeVar(1)))


def test_the_benchmarks_tampered_witness_is_rejected_where_it_was():
    # the certify benchmark wraps a witness document's derivation in an
    # inline trans node, beside an inline refl of the standalone input term
    free, c = stlc_gs(("v1", "v2")), Context((B,))
    t = next(t for t in GS_TERMS if "shared" in json.dumps(
        free_derivation_to_json(normalize_with_trace(free, c, B, t)[1])))
    deriv = normalize_with_trace(free, c, B, t)[1]
    doc = json.loads(json.dumps(document("free-derivation", {
        "context": context_to_json(c), "derivation": free_derivation_to_json(deriv)})))
    doc["payload"]["derivation"] = {"rule": "trans", "children": [
        doc["payload"]["derivation"], {"rule": "refl", "term": free_term_to_json(t)}]}
    payload = load_document(json.loads(json.dumps(doc)), "free-derivation")
    back = free_derivation_from_json(payload["derivation"])
    assert back == FTrans(deriv, FRefl(t))
    got = check_free_derivation(free, context_from_json(payload["context"]), back)
    want = check_free_derivation(free, c, FTrans(deriv, FRefl(t)))
    assert not got.ok and (got.error, got.path) == (want.error, want.path)


class TestDeepDerivations:
    """Both codecs are loops: derivations far deeper than the recursion
    limit round-trip through json, to the same bytes and the same
    conclusion (compared without ``==``, which recurses)."""

    def test_the_5000_link_chain(self):
        d = deep_beta_chain()
        text = json.dumps(free_derivation_to_json(d))
        back = free_derivation_from_json(json.loads(text))
        assert json.dumps(free_derivation_to_json(back)) == text
        v = check_free_derivation(stlc_bool(), Context(()), back)
        want = check_free_derivation(stlc_bool(), Context(()), d)
        assert v.ok and (v.lhs, v.rhs, v.sort) == (want.lhs, want.rhs, want.sort), v.error

    def test_the_get_put_trace(self):
        t = _get_put_tree(9)
        nf, steps = rewrite_normalize(gs_rewrite_system(("v1", "v2")), t)
        d = steps_to_derivation(t, steps)
        assert len(steps) == 1022 > sys.getrecursionlimit()
        text = json.dumps(fo_derivation_to_json(d))
        back = fo_derivation_from_json(json.loads(text))
        assert json.dumps(fo_derivation_to_json(back)) == text
        v = check_fo_derivation(global_state_presentation(("v1", "v2")), Context((B,)), back)
        assert v.ok and (v.lhs, v.rhs) == (t, nf), v.error
