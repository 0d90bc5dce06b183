"""Tests of the benchmark's own reference semantics and output checks.

    python3 -m pytest bench/test_bench.py -q

The evaluators are tested on hand-worked cases; each check is shown to
reject a deliberately wrong program output, so that the checks fail
closed.
"""

import os
import random
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import reference as R  # noqa: E402
import terms as T  # noqa: E402
from checks import FAILED  # noqa: E402

B, BB = R.B, R.arrow(R.B, R.B)
LABELS = ("v1", "v2")


def value(text, context=()):
    names = [x for x, _ in context]
    return R.bool_value(R.parse(text, names), list(context))


def table(text, names=("x",)):
    return R.state_table(R.parse(text, list(names)), list(names), LABELS)


# --------------------------------------------------------------------------
# reference evaluators on hand-worked cases
# --------------------------------------------------------------------------


class TestBooleans:
    def test_closed_terms(self):
        assert value("true") == ("tt",)
        assert value("app (abs x : b. ite x false true) true") == ("ff",)
        assert value("ite (ite false true false) false true") == ("tt",)

    def test_functions_are_tables_in_lexicographic_order(self):
        assert value("abs x : b. x") == ((R.TT, R.FF),)
        assert value("abs x : b. false") == ((R.FF, R.FF),)
        # the domain b => b lists (tt,tt), (tt,ff), (ff,tt), (ff,ff)
        assert value("abs f : b => b. app f true") == ((R.TT, R.TT, R.FF, R.FF),)

    def test_open_terms_range_over_assignments(self):
        assert value("ite x false true", [("x", B)]) == (R.FF, R.TT)
        # x = tt, then x = ff; f runs over constant tt, identity, negation,
        # constant ff
        assert value("app f (app f x)", [("x", B), ("f", BB)]) == (
            R.TT, R.TT, R.TT, R.FF, R.TT, R.FF, R.FF, R.FF)

    def test_higher_order_application(self):
        assert value("app (abs g : (b => b) => b. app g (abs y : b. y)) "
                     "(abs f : b => b. app f false)") == (R.FF,)


class TestState:
    def test_atoms_get_and_put(self):
        assert table("x") == (("v1", "x"), ("v2", "x"))
        assert table("get x x") == table("x")
        assert table("put v1 x") == (("v1", "x"), ("v1", "x"))
        assert table("get (put v2 x) (put v1 y)", ["x", "y"]) == (("v2", "x"), ("v1", "y"))

    def test_axioms_hold(self):
        xy = ["x", "y"]
        assert table("get (put v1 x) (put v2 x)") == table("x")
        assert table("put v2 (get x y)", xy) == table("put v2 y", xy) == (("v2", "y"),) * 2
        assert table("put v1 (put v2 x)") == table("put v2 x")

    def test_binders(self):
        assert table("app (abs z : b. put v1 z) (get x y)", ["x", "y"]) == (("v1", "x"),) * 2


class TestMonoid:
    def test_flatten(self):
        x, y = ("var", "x"), ("var", "y")
        assert R.flatten(("mul", ("mul", x, ("unit",)), ("mul", y, x))) == ("x", "y", "x")
        assert R.flatten(("unit",)) == ()


class TestSyntax:
    def test_show_parse_round_trip(self):
        rng = random.Random(0)
        for _ in range(200):
            t = T.gen_lambda(rng, [("x", B), ("f", BB)], rng.choice((B, BB)), 9, T.Fresh(), True)
            assert R.parse(R.show(t), ["x", "f"]) == t

    def test_reads_clonal_printing(self):
        # application by juxtaposition, as `clonal normalize` prints it
        assert R.parse("(abs x2 : b. x2) x1", ["x1"]) == (
            "app", ("abs", "x2", B, ("var", "x2")), ("var", "x1"))
        x = ("var", "x")
        assert R.parse("put v2 (get x x)", ["x"]) == ("put", "v2", ("get", x, x))

    def test_walks_keep_the_meaning(self):
        rng = random.Random(1)
        for _ in range(100):
            t = T.gen_state(rng, ["x", "y"], 6, T.Fresh(), binders=False)
            u = T.walk(rng, t, lambda s: T.state_moves(s, ["x", "y"], rng), 4, 20)
            assert R.state_table(t, ["x", "y"], LABELS) == R.state_table(u, ["x", "y"], LABELS)
            m = T.gen_monoid(rng, ["x", "y"], 6)
            assert R.flatten(m) == R.flatten(T.walk(rng, m, T.monoid_moves, 4, 20))


# --------------------------------------------------------------------------
# the checks fail closed
# --------------------------------------------------------------------------


def verdict(ok=True, lhs="t", rhs="u"):
    return SimpleNamespace(ok=ok, lhs=lhs, rhs=rhs, error=None if ok else "bad node")


class TestChecks:
    same = staticmethod(lambda a, b: a == b)

    def test_witness(self):
        assert checks.witness(verdict(), "t", "u", self.same) is None
        assert checks.witness(verdict(ok=False), "t", "u", self.same)
        assert checks.witness(None, "t", "u", self.same)
        assert checks.witness(verdict(lhs="s"), "t", "u", self.same)
        assert checks.witness(verdict(rhs="s"), "t", "u", self.same)

    def test_proof_between_different_meanings(self):
        assert checks.proof(verdict(), "t", "u", self.same, True) is None
        assert checks.proof(verdict(), "t", "u", self.same, False)

    def test_meaning(self):
        assert checks.same_meaning(("tt",), ("tt",)) is None
        assert checks.same_meaning(("tt",), ("ff",))

    def test_eval_text(self):
        assert checks.value_text(0, "{tt -> ff; ff -> tt}", BB, (R.FF, R.TT)) is None
        assert checks.value_text(0, "{tt -> tt; ff -> tt}", BB, (R.FF, R.TT))
        assert checks.value_text(2, "tt", B, R.TT)

    def test_state_normal_forms(self):
        t = table("get x x")
        assert checks.state_normal_forms([(0, "x"), (0, "x")], t) is None
        assert checks.state_normal_forms([(0, "get x x"), (0, "x")], t) is FAILED
        assert checks.state_normal_forms([(0, "put v1 x"), (0, "put v1 x")], t) is FAILED
        assert checks.state_normal_forms([(1, "x"), (0, "x")], t) not in (None, FAILED)

    def test_adequacy(self):
        tt, ff = ("true",), ("false",)
        assert checks.adequacy([(R.TT, tt), (R.FF, ff), (R.TT, tt)], [R.TT, R.FF, R.TT]) is None
        assert checks.adequacy([(R.FF, ff)], [R.TT])
        assert checks.adequacy([(R.TT, ff)], [R.TT])
        assert checks.adequacy([(R.TT, None)], [R.TT])
        assert checks.adequacy([(R.TT, ("app", tt, tt))], [R.TT])


# --------------------------------------------------------------------------
# the workloads' checks reject wrong program outputs
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    import workloads as W

    out = str(tmp_path_factory.mktemp("out"))
    return W, {name: cls(out) for name, cls in W.WORKLOADS.items()}


def ops_of(workloads, name, kind, seed=0):
    W, built = workloads
    import spans

    tr = spans.Off()
    for op in built[name].round(random.Random(seed)):
        if op.kind == kind:
            out = op.run(tr)
            assert op.check(out, tr) is None, kind
            yield op, out, tr


def test_certify_query_rejects_a_wrong_normal_form(workloads):
    from clonal.freealgebra import FreeVar

    op, out, tr = next(ops_of(workloads, "certify", "query.stlc"))
    ctx, names, term, nf, normal, step_nf, deriv, v, data, back = out
    wrong_nf = FreeVar(1)  # x, never the meaning of a redex over f
    bad = (ctx, names, term, wrong_nf, normal, wrong_nf, deriv, v, data, back)
    assert op.check(bad, tr)


def test_rewrite_rejects_a_wrong_normal_form(workloads):
    from clonal.firstorder import FoOp, FoVar

    op, out, tr = next(ops_of(workloads, "certify", "rewrite.gs"))
    t, nf, steps, deriv, v = out[0]
    wrong = FoOp("put_v1", (), (FoVar(2),)) if nf != FoOp("put_v1", (), (FoVar(2),)) else FoVar(1)
    assert op.check([(t, wrong, steps, deriv, v), out[1]], tr)


def test_search_rejects_a_proof_between_different_meanings(workloads):
    W, built = workloads
    import spans

    search = built["search"]
    rng = random.Random(3)
    op = search.fo_pair(rng, "monoid", False)
    t_ast, u_ast = op.inputs
    assert R.flatten(t_ast) != R.flatten(u_ast)
    fake = (object(), verdict(lhs=T.fo_write(t_ast, W.XY), rhs=T.fo_write(u_ast, W.XY)))
    assert op.check(fake, spans.Off())


def test_law_instance_rejects_a_failed_law(workloads):
    op, out, tr = next(ops_of(workloads, "harness", "law.product"))
    two_step, one_step, var_i, same, holds = out
    assert op.check((two_step, one_step, var_i, same, (True, False, True)), tr)


def test_eval_rejects_a_wrong_value(workloads):
    op, out, tr = next(ops_of(workloads, "harness", "model.eval"))
    assert op.check("ff" if out == "tt" else ("tt" if out == "ff" else ()), tr)


def test_cli_eval_rejects_wrong_text(workloads):
    op, (code, text), tr = next(ops_of(workloads, "certify", "cli.eval"))
    assert op.check((code, text + " "), tr)
    assert op.check((1, text), tr)
