"""No hot path leaves cyclic garbage.

A nested helper that calls itself by name holds itself through its closure
cell, so every call of the function that defines it leaves a reference cycle
(the helper, its cell and everything it captured) that only the cyclic
collector frees.  So does an object that refers back to itself: a free
algebra built by ``stock_bundle`` (and so by every CLI call) must not be its
own ``clone`` attribute, nor be pointed back at by its NbE engine.  Each
entry point below is called once with automatic
collection paused; ``gc.collect()`` must then find nothing unreachable.
"""

import contextlib
import gc
import io
import json

import pytest

from clonal.cli import build_parser, main
from clonal.clones import (
    Budget,
    ContextExtensionClone,
    FuncHom,
    ProductClone,
    check_clone_hom,
    check_clone_laws,
)
from clonal.equality import free_equal, normalize_with_trace
from clonal.firstorder import (
    BASE,
    FoOp,
    FoVar,
    RewriteEq,
    bool_clone,
    bool_presentation,
    check_fo_derivation,
    global_state_presentation,
    gs_clone,
    gs_rewrite_system,
    innermost_normal_form,
    monoid_presentation,
    prove_fo_equal,
    rewrite_normalize,
    steps_to_derivation,
)
from clonal.freealgebra import (
    CloneApp,
    FreeOp,
    FreeVar,
    check_free_derivation,
    enumerate_free_terms,
)
from clonal.jsonio import (
    fo_derivation_from_json,
    fo_derivation_to_json,
    free_derivation_from_json,
    free_derivation_to_json,
)
from clonal.nbe import check_normal, nbe_normalize
from clonal.secondorder import check_algebra
from clonal.sorts import Context, Sort, arrow
from clonal.stlc import eval_closed, set_model, stlc_bool, stlc_gs
from clonal.surface import render_free, stock_bundle

B = BASE
BB = arrow(B, B)
E = Context(())
G1 = Context((B,))
GS2 = global_state_presentation(("v1", "v2"))
GS_RULES = gs_rewrite_system(("v1", "v2"))
FREE = stlc_bool()
FREE_GS = stlc_gs()
STLC = stock_bundle("stlc").free  # a free algebra over a variable-like base
MODEL = set_model()


def _get(*args):
    return FoOp("get", (), args)


def _put(v, t):
    return FoOp(f"put_{v}", (), (t,))


def _app(f, a, A=B, R=B):
    return FreeOp("app", (A, R), ((E, f), (E, a)))


def _abs(body, A=B, R=B):
    return FreeOp("abs", (A, R), ((Context((A,)), body),))


TRUE = CloneApp(FoOp("true", (), ()), E, B, ())
FALSE = CloneApp(FoOp("false", (), ()), E, B, ())
ITE = FoOp("ite", (B,), (FoVar(1), FoVar(2), FoVar(3)))
# (abs f : b => b. abs z : b. f (ite z true false)) (abs w : b. w): redexes
# under binders, an element application and a binder at a function sort
REDEX = _app(
    _abs(_abs(_app(FreeVar(1), CloneApp(ITE, Context((B, B, B)), B, (FreeVar(2), TRUE, FALSE)))),
         BB, BB),
    _abs(FreeVar(1)), BB, BB,
)
NORMAL, TRACE = normalize_with_trace(FREE, E, BB, REDEX)
STATE_TERM = _get(_put("v1", FoVar(1)), _put("v2", _get(FoVar(1), FoVar(1))))
# rewritten outermost, its first redex is below the root
OUTER_TERM = _get(FoVar(1), _put("v1", _get(FoVar(1), FoVar(1))))
STATE_STEPS = rewrite_normalize(GS_RULES, STATE_TERM)[1]
# its derived-rule steps are lemma nodes citing the system's proofs
STATE_TRACE = steps_to_derivation(STATE_TERM, STATE_STEPS)
STATE_PROOF = prove_fo_equal(GS2, G1, _get(FoVar(1), FoVar(1)), FoVar(1), max_nodes=800)
# an element nesting function-sort conditionals: the canonicalizer splits it
FOUND_CTX = Context((B, B, BB, BB))
FOUND = CloneApp(
    FoOp("ite", (BB,), (FoVar(1), FoOp("ite", (BB,), (FoVar(2), FoVar(3), FoVar(4))),
                        FoOp("ite", (BB,), (FoVar(2), FoVar(4), FoVar(3))))),
    FOUND_CTX, BB, tuple(FreeVar(i) for i in range(1, 5)),
)
GS_REDEX = _app(_abs(CloneApp(_get(_put("v1", FoVar(1)), FoVar(1)), G1, B, (FreeVar(2),))),
                FreeVar(1))

G_MON = Context((Sort("*"), Sort("*")))
BOOLS = bool_clone()
IDENTITY = FuncHom(BOOLS, BOOLS, lambda c, s, t: t)
LAW_BUDGET = Budget(max_context_len=2, max_depth=1, max_sort_height=0, max_terms=4,
                    max_tuples=3, max_context_triples=8)

build_parser()  # built once per process; argparse's own garbage is not measured


def _nbe_on_fresh_bundle():
    # the bundle's free algebra owns its NbE engine, built here on first use
    return nbe_normalize(stock_bundle("bool").free, E, BB, REDEX)


def _found_term_routes():
    nf, _ = normalize_with_trace(FREE, FOUND_CTX, BB, FOUND)
    return nf, check_normal(FREE, FOUND_CTX, BB, nbe_normalize(FREE, FOUND_CTX, BB, FOUND))


def _cli_normalize(*flags):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["normalize", "--witness", "app (abs f : b => b. f) (abs x. x)", "--sort", "b => b",
                     *flags])


def _cli_normalize_base(*flags):
    # a pure base term: the certified completion's rewrite normal form
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["normalize", "--variant", "gs", "get x x", "--context", "x : b", *flags])


def _cli_equal():
    # equal replays its witness in the kernel before it answers
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["equal", "--witness", "--json", "app (abs x : b. x) true", "true"])


ENTRY_POINTS = {
    "prove_fo_equal": lambda: prove_fo_equal(
        GS2, G1, _get(FoVar(1), _put("v2", FoVar(1))), _put("v2", FoVar(1)), max_nodes=300
    ),
    # the convergence check of a system built here: unification, the path
    # order, the critical pairs and the replay of their joins
    "check_convergence": lambda: gs_rewrite_system(("v1", "v2", "v3")).convergence,
    # a presentation built here finds and keeps its convergent system, then
    # refuses the pair by its normal forms
    "prove_fo_equal_decided": lambda: prove_fo_equal(
        monoid_presentation(), G_MON, FoOp("mul", (), (FoVar(1), FoVar(2))), FoVar(1)),
    "free_equal_search": lambda: free_equal(
        FREE, E, BB, REDEX, NORMAL, mode="search", budget=60
    ),
    "free_equal_normalize": lambda: free_equal(FREE, E, BB, REDEX, _abs(FreeVar(1))),
    "normalize_with_trace": lambda: normalize_with_trace(FREE_GS, G1, B, GS_REDEX),
    "check_free_derivation": lambda: check_free_derivation(FREE, E, TRACE),
    "check_fo_derivation": lambda: check_fo_derivation(GS2, G1, STATE_PROOF),
    "rewrite_normalize": lambda: rewrite_normalize(GS_RULES, STATE_TERM),
    "rewrite_normalize_outermost": lambda: rewrite_normalize(GS_RULES, OUTER_TERM, "outermost"),
    "steps_to_derivation_derived": lambda: steps_to_derivation(STATE_TERM, STATE_STEPS),
    "check_fo_derivation_lemmas": lambda: check_fo_derivation(
        GS_RULES.presentation, G1, STATE_TRACE),
    "check_fo_derivation_lemmas_unseen": lambda: check_fo_derivation(
        global_state_presentation(("v1", "v2")), G1, STATE_TRACE),
    "lemma_trace_json_roundtrip": lambda: fo_derivation_from_json(
        json.loads(json.dumps(fo_derivation_to_json(STATE_TRACE)))),
    "witness_json_roundtrip": lambda: free_derivation_from_json(
        json.loads(json.dumps(free_derivation_to_json(TRACE)))),
    "innermost_normal_form": lambda: innermost_normal_form(GS_RULES, STATE_TERM, {}),
    "RewriteEq.canonical": lambda: RewriteEq(GS_RULES).canonical(None, G1, B, STATE_TERM),
    "nbe_normalize": lambda: nbe_normalize(FREE, E, BB, REDEX),
    "check_normal": lambda: check_normal(FREE, E, BB, NORMAL),
    "nested_element_routes": _found_term_routes,
    "check_algebra": lambda: check_algebra(
        MODEL,
        Budget(max_context_len=1, max_depth=0, max_sort_height=1, max_terms=3, max_tuples=3),
    ),
    # per-call site pools and substitution lists, and the product's stored split
    "check_clone_laws_product": lambda: check_clone_laws(
        ProductClone(bool_clone(), gs_clone(("v1", "v2"))), LAW_BUDGET),
    # the extension clone's padded substitutions, stored per substitution
    "check_clone_laws_extension": lambda: check_clone_laws(
        ContextExtensionClone(bool_clone(), G1), LAW_BUDGET),
    "check_clone_hom": lambda: check_clone_hom(IDENTITY, LAW_BUDGET),
    "eval_closed": lambda: eval_closed(FREE, MODEL, BB, REDEX),
    "render_free": lambda: render_free(REDEX, [], FREE.presentation),
    "stock_bundle": lambda: stock_bundle("bool"),
    "nbe_normalize_fresh_bundle": _nbe_on_fresh_bundle,
    "cli_normalize": _cli_normalize,
    "cli_normalize_json": lambda: _cli_normalize("--json"),
    "cli_equal": _cli_equal,
    "cli_normalize_base": _cli_normalize_base,
    "cli_normalize_base_witness": lambda: _cli_normalize_base("--witness", "--json"),
    "enumerate_free_terms_by_depth": lambda: enumerate_free_terms(
        FREE, G1, BB, max_depth=2, limit=30),
    "enumerate_free_terms_by_size": lambda: enumerate_free_terms(FREE_GS, G1, B, max_size=4),
    "enumerate_free_terms_variable_base": lambda: enumerate_free_terms(
        STLC, G1, BB, max_size=4),
}


def test_inputs_exercise_the_full_paths():
    assert check_normal(FREE, E, BB, NORMAL).ok and NORMAL != REDEX
    assert check_free_derivation(FREE, E, TRACE).ok
    assert STATE_PROOF is not None and check_fo_derivation(GS2, G1, STATE_PROOF).ok
    assert free_equal(FREE, E, BB, REDEX, NORMAL, mode="search", budget=60).status == "equal"
    assert _cli_normalize() == 0 and _cli_normalize("--json") == 0 and _cli_equal() == 0
    assert _cli_normalize_base() == 0 and _cli_normalize_base("--witness", "--json") == 0
    assert all(len(ENTRY_POINTS[f"enumerate_free_terms_{k}"]()) > 4
               for k in ("by_depth", "by_size", "variable_base"))
    assert rewrite_normalize(GS_RULES, OUTER_TERM, "outermost")[1][0].path == (2,)
    assert rewrite_normalize(GS_RULES, STATE_TERM)[1][0].path == (2, 1)
    assert any(s.derived is not None for s in STATE_STEPS)
    assert '"rule": "lemma"' in json.dumps(fo_derivation_to_json(STATE_TRACE))
    for pres in (GS_RULES.presentation, global_state_presentation(("v1", "v2"))):
        v = check_fo_derivation(pres, G1, STATE_TRACE)
        assert v.ok and v.lhs == STATE_TERM and v.rhs == STATE_STEPS[-1].after
    assert fo_derivation_from_json(json.loads(json.dumps(fo_derivation_to_json(STATE_TRACE)))) \
        == STATE_TRACE
    assert free_derivation_from_json(json.loads(json.dumps(free_derivation_to_json(TRACE)))) == TRACE
    assert _found_term_routes()[1].ok


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_point_leaves_no_cyclic_garbage(name):
    call = ENTRY_POINTS[name]
    gc.collect()
    gc.disable()
    try:
        result = call()
        del result
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0, f"{name} left {unreachable} objects in reference cycles"
